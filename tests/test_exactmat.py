import pytest

from cubemoments import exactmat as xm
from cubemoments.errors import InconsistentBlockError
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_mat_mul_and_trace():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert xm.mat_mul(a, b) == [[2, 1], [4, 3]]
    assert xm.mat_trace(a) == 5
    assert xm.mat_eq(a, [[1, 2], [3, 4]]) and not xm.mat_eq(a, b)


def test_rank_and_det():
    assert xm.rank([[1, 2], [2, 4]]) == 1
    assert xm.rank([[1, 2], [3, 4]]) == 2
    assert xm.rank([[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(1, 1)]]) == 1
    assert xm.rank([[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(2, 1)]]) == 2
    assert xm.det([[1, 2], [3, 4]]) == -2
    assert xm.det([[2, 0], [0, 3]]) == 6
    assert xm.det([[1, 2], [2, 4]]) == 0
    # row-swap sign
    assert xm.det([[0, 1], [1, 0]]) == -1


def test_det_matches_cofactor_on_random_3x3():
    rng = SplitMix64(7)
    for _ in range(30):
        m = rand_matrix(rng, 3, 3)
        cof = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert xm.det(m) == cof


def test_solve_consistent_basic():
    a = [[2, 0], [0, 4]]
    b = [[2], [8]]
    x = xm.solve_consistent(a, b)
    assert x == [[Q(1)], [Q(2)]]


def test_solve_consistent_singular_but_solvable():
    a = [[1, 1], [1, 1]]
    b = [[2], [2]]
    x = xm.solve_consistent(a, b)
    assert xm.mat_eq(xm.mat_mul(a, x), [[Q(2)], [Q(2)]])


def test_solve_inconsistent_raises():
    a = [[1, 1], [1, 1]]
    b = [[1], [2]]
    with pytest.raises(InconsistentBlockError):
        xm.solve_consistent(a, b)


def test_solve_consistent_random_gram_systems():
    # A = V^T V is singular when columns outnumber rows; A x = A w is always consistent
    rng = SplitMix64(11)
    for _ in range(25):
        v = rand_matrix(rng, 2, 4)
        a = xm.mat_mul(list(zip(*v)), v)
        w = rand_matrix(rng, 4, 2)
        b = xm.mat_mul(a, w)
        x = xm.solve_consistent(a, b)
        assert xm.mat_eq(xm.mat_mul(a, x), [[Q(e) for e in row] for row in b])


def test_psd_pivots_accepts_gram_and_rejects_indefinite():
    rng = SplitMix64(13)
    for _ in range(25):
        v = rand_matrix(rng, 3, 5)
        gram = xm.mat_mul(list(zip(*v)), v)
        ok, pivots = xm.psd_pivots(gram)
        assert ok
        assert len(pivots) == xm.rank(gram)
        assert all(p > 0 for p in pivots)
    ok, witness = xm.psd_pivots([[1, 2], [2, 1]])
    assert not ok
    ok, witness = xm.psd_pivots([[0, 1], [1, 0]])
    assert not ok
    ok, witness = xm.psd_pivots([[1, 2], [3, 4]])
    assert not ok and "symmetric" in witness


def test_psd_pivots_zero_matrix_and_semidefinite():
    ok, pivots = xm.psd_pivots([[0, 0], [0, 0]])
    assert ok and pivots == []
    ok, pivots = xm.psd_pivots([[1, 1], [1, 1]])
    assert ok and pivots == [1]


def test_rank_empty_zero_and_rectangular():
    assert xm.rank([]) == 0
    assert xm.rank([[0, 0, 0], [0, 0, 0]]) == 0
    tall = [[1, 2], [2, 4], [0, 1], [3, 7]]
    assert xm.rank(tall) == 2
    assert xm.rank([[1, 2], [2, 4], [3, 6], [0, 0]]) == 1
    wide = [[0, 1, 2, 3], [0, 2, 4, 6]]
    assert xm.rank(wide) == 1
    assert xm.rank(list(zip(*tall))) == 2


def test_det_empty_and_permutations():
    assert xm.det([]) == 1
    # one swap: a transposition
    assert xm.det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    # two swaps: a 3-cycle, pivot search takes row 1 then row 2
    assert xm.det([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    assert xm.det([[0, 0, 2], [3, 0, 0], [0, 5, 0]]) == 30


def test_solve_consistent_overdetermined():
    a = [[1, 0], [0, 1], [1, 1]]
    x = xm.solve_consistent(a, [[1], [2], [3]])
    assert x == [[Q(1)], [Q(2)]]
    with pytest.raises(
        InconsistentBlockError,
        match="right-hand side column 1 is outside the column space",
    ):
        xm.solve_consistent(a, [[1, 1], [2, 2], [3, 4]])
