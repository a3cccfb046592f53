import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemoments import exactmat as xm
from cubemoments import schur
from cubemoments.errors import InconsistentBlockError
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_mat_mul():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert xm.mat_mul(a, b) == [[2, 1], [4, 3]]
    assert all(type(x) is int for row in xm.mat_mul(a, b) for x in row)
    # the same product with every denominator 1 still comes back as Q
    assert xm.rational_product(a, b) == [[2, 1], [4, 3]]
    assert _all_exact(xm.rational_product(a, b))
    assert a == [[1, 2], [3, 4]] and a != b


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
    assert xm.mat_mul(a, x) == [[Q(2)], [Q(2)]]


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
        assert xm.mat_mul(a, x) == [[Q(e) for e in row] for row in b]


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
    # a matrix that is not square is not symmetric either
    for a in ([[0, 1]], [[1, 2, 3], [2, 1]]):
        assert not xm.is_symmetric(a)
        assert xm.psd_pivots(a) == (False, "matrix is not symmetric")


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


# ---------------------------------------------------------------------------
# reference: Gaussian elimination that divides by its pivots over Fraction,
# with the same pivot rule as the fraction-free kernel


def ref_eliminate(work, cols, pivot_rows=None, reduce_above=False):
    rows = len(work)
    width = len(work[0]) if rows else 0
    if pivot_rows is None:
        pivot_rows = rows
    pivot_cols, swaps = [], 0
    for c in range(cols):
        r = len(pivot_cols)
        if r == pivot_rows:
            break
        pivot_row = next((i for i in range(r, pivot_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            swaps += 1
        wr = work[r]
        targets = range(r + 1, rows)
        if reduce_above:
            targets = chain(range(r), targets)
        for i in targets:
            wi = work[i]
            if wi[c] != 0:
                f = wi[c] / wr[c]
                for j in range(c, width):
                    wi[j] = wi[j] - f * wr[j]
        pivot_cols.append(c)
    return pivot_cols, swaps


def _fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def ref_rank(a):
    return len(ref_eliminate(_fractions(a), len(a[0]) if a else 0)[0])


def ref_det(a):
    work = _fractions(a)
    pivot_cols, swaps = ref_eliminate(work, len(a))
    if len(pivot_cols) < len(a):
        return Fraction(0)
    out = Fraction(1)
    for i in range(len(a)):
        out *= work[i][i]
    return -out if swaps % 2 else out


def ref_solve(a, b):
    rows, cols, width = len(a), len(a[0]), len(b[0])
    work = _fractions([list(a[i]) + list(b[i]) for i in range(rows)])
    pivot_cols, _ = ref_eliminate(work, cols, reduce_above=True)
    xm.require_zero_tails(work[len(pivot_cols):], cols)
    x = [[Fraction(0)] * width for _ in range(cols)]
    for idx, c in enumerate(pivot_cols):
        for j in range(width):
            x[c][j] = work[idx][cols + j] / work[idx][c]
    return x


def ref_schur(matrix, h):
    work = _fractions(matrix)
    pivot_cols, _ = ref_eliminate(work, h, pivot_rows=h)
    xm.require_zero_tails(work[len(pivot_cols):h], h)
    return [row[h:] for row in work[h:]]


def _outcome(f, *args):
    """f's result, or the message of the InconsistentBlockError it raised."""
    try:
        return f(*args)
    except InconsistentBlockError as exc:
        return f"InconsistentBlockError: {exc}"


def _all_exact(a):
    return all(type(x) is type(Q(0)) for row in a for x in row)


_rationals = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 8)),
)


def _entries(rows, cols):
    return st.lists(
        st.lists(_rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Rational matrices: dense, of a drawn low rank (a product U V), or zero."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    kind = draw(st.sampled_from(("dense", "low rank", "zero")))
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    if kind == "dense":
        return draw(_entries(rows, cols))
    k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    return xm.mat_mul(draw(_entries(rows, k)), draw(_entries(k, cols)))


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rank_and_det_match_fraction_reference(a):
    rank = xm.rank(a)
    assert type(rank) is int and rank == ref_rank(a)
    k = min(len(a), len(a[0]))
    square = [row[:k] for row in a[:k]]
    det = xm.det(square)
    assert type(det) is type(Q(0)) and det == ref_det(square)


# integers that reach past int64, and multiples of POWER_PRIMES[0], whose
# residues vanish modulo that prime but not over Q
_rank_entries = st.one_of(
    _rationals,
    st.integers(-(2**66), -(2**63)),
    st.integers(2**63, 2**66),
    st.builds(lambda k: xm.POWER_PRIMES[0] * k, st.integers(-3, 3)),
)


@st.composite
def _rank_cases(draw):
    """(a, r): an empty matrix (no rows, or rows of width 0), a matrix of
    the wide entries above, or a _matrices draw; r runs over 0..min + 1."""
    kind = draw(st.sampled_from(("empty", "wide", "rational")))
    if kind == "empty":
        a = [[] for _ in range(draw(st.integers(0, 3)))]
    elif kind == "wide":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        a = draw(
            st.lists(
                st.lists(_rank_entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    else:
        a = draw(_matrices())
    cols = len(a[0]) if a else 0
    return a, draw(st.integers(0, min(len(a), cols) + 1))


@settings(max_examples=400, deadline=None)
@given(_rank_cases())
def test_rank_at_least_matches_bareiss_rank(case):
    a, r = case
    got = xm.rank_at_least(a, r)
    assert type(got) is bool and got == (xm.rank(a) >= r)


def test_rank_at_least_falls_back_to_bareiss_when_the_prime_fails(monkeypatch):
    # POWER_PRIMES[0] vanishes modulo itself, so its modular rank is 0,
    # while its rank over Q is 1
    p = xm.POWER_PRIMES[0]
    assert not xm.rank_mod_at_least(np.array([[p]], dtype=np.int64), p, 1)
    calls = []
    eliminate = xm.eliminate

    def counted(work, cols, *args, **kwargs):
        calls.append(len(work))
        return eliminate(work, cols, *args, **kwargs)

    monkeypatch.setattr(xm, "eliminate", counted)
    assert xm.rank_at_least([[p]], 1) is True
    assert calls == [1]
    # any other prime table entry is a unit modulo p: no Bareiss call
    calls.clear()
    assert xm.rank_at_least([[xm.POWER_PRIMES[1]]], 1) is True
    assert calls == []


def test_rank_at_least_returns_python_bool():
    p = xm.POWER_PRIMES[0]
    cases = [
        ([[1, 2], [3, 4]], 2),  # the prime reaches r
        ([[1, 2], [2, 4]], 2),  # the prime and Bareiss fall short
        ([[p * 5]], 1),  # the prime fails, Bareiss decides
        ([], 0),  # r <= 0
        ([[]], 1),  # r past the shape
        ([[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(1, 1)]], 2),  # rational, rank 1
    ]
    for a, r in cases:
        assert type(xm.rank_at_least(a, r)) is bool, (a, r)
    assert [xm.rank_at_least(a, r) for a, r in cases] == [
        True, False, True, True, False, False
    ]


def ref_rank_mod_p(rows, p):
    """Rank modulo p by Gaussian elimination over Python ints."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inverse = pow(work[rank][c], -1, p)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inverse
            work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def _residue_cases(draw):
    """(a, p, r): an int64 array of any shape up to 6 x 6, empty ones
    included, dense or a low-rank product U V, a prime p of the table or a
    small one (which drops ranks often) and r over 0..min + 1."""
    p = draw(st.sampled_from((2, 3, 7, xm.POWER_PRIMES[0], xm.POWER_PRIMES[-1])))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**62), 2**62),
        st.builds(lambda k: p * k, st.integers(-3, 3)),
    )

    def matrix(h, w, elements):
        drawn = draw(st.lists(st.lists(elements, min_size=w, max_size=w), min_size=h, max_size=h))
        return np.array(drawn, dtype=np.int64).reshape(h, w)

    if draw(st.booleans()):
        a = matrix(rows, cols, entries)
    else:
        k = draw(st.integers(0, 3))
        small = st.integers(-3, 3)
        a = matrix(rows, k, small) @ matrix(k, cols, small)
    return a, p, draw(st.integers(0, min(rows, cols) + 1))


@settings(max_examples=400, deadline=None)
@given(_residue_cases())
def test_rank_mod_at_least_matches_python_elimination(case):
    a, p, r = case
    before = a.copy()
    got = xm.rank_mod_at_least(a, p, r)
    assert type(got) is bool and got == (ref_rank_mod_p(a.tolist(), p) >= r)
    assert np.array_equal(a, before)  # eliminates a copy


def _extreme_residues(rng, shape, p):
    """An int64 array whose entries are p - 1 or large negative values, the
    extremes of the residues rank_mod_at_least starts from."""
    big = rng.integers(-(2**63), -(2**62), size=shape, dtype=np.int64)
    return np.where(rng.random(shape) < 0.5, np.int64(p - 1), big)


def _low_rank_residues(rng, rows, k, cols, p):
    """U V modulo p for extreme U (rows x k) and V (k x cols), each entry
    then moved by a negative multiple of p to within 2^52 of -2^63: rank at
    most k modulo p, with inputs that no product can be subtracted from
    before they are reduced."""
    u, v = (np.mod(_extreme_residues(rng, shape, p), p) for shape in ((rows, k), (k, cols)))
    top = (2**63 - 1 - p) // p
    shift = rng.integers(top - 2**30, top, size=(rows, cols), dtype=np.int64)
    return (u @ v) % p - p * shift


def test_rank_mod_at_least_at_its_bound():
    # shapes up to 256 x 256 at the residue extremes: the rows that are not
    # reduced after every step carry up to r - 1 products below p^2 each;
    # the rank-deficient cases deny rank r + 1, which a wrong residue
    # anywhere in the elimination would most likely reach
    rng = np.random.default_rng(2026)
    p, q = xm.POWER_PRIMES[0], xm.POWER_PRIMES[-1]
    cases = [
        (_extreme_residues(rng, (256, 256), p), p, 256),
        (np.full((256, 256), p - 1, dtype=np.int64), p, 1),
        (_low_rank_residues(rng, 256, 200, 256, p), p, 200),
        (_low_rank_residues(rng, 96, 60, 256, q), q, 60),
        (_low_rank_residues(rng, 256, 30, 40, q), q, 30),
    ]
    for a, prime, rank in cases:
        r = ref_rank_mod_p(a.tolist(), prime)
        assert r == rank, (a.shape, prime, r)
        assert xm.rank_mod_at_least(a, prime, r), (a.shape, prime, r)
        assert not xm.rank_mod_at_least(a, prime, r + 1), (a.shape, prime, r)


def test_power_primes_are_distinct_primes_below_2_21():
    primes = xm.POWER_PRIMES
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert 2 < p < 2**21, p
        assert all(p % q for q in range(2, math.isqrt(p) + 1)), p


def test_primes_exceeding_takes_the_shortest_prefix():
    primes = xm.POWER_PRIMES
    for bound in (0, 1, primes[0] - 1, primes[0], primes[0] * primes[1], 2**41, 2**200, 2**600):
        chosen = xm.primes_exceeding(bound)
        assert chosen == primes[: len(chosen)], bound
        assert math.prod(chosen) > bound, bound
        assert len(chosen) == 1 or math.prod(chosen[:-1]) <= bound, bound
    with pytest.raises(ValueError):
        xm.primes_exceeding(math.prod(primes))


def test_crt_signed_recovers_values_below_half_the_product():
    primes = xm.POWER_PRIMES[:3]
    half = math.prod(primes) // 2
    for x in (0, 1, -1, 2**40, -(2**40), 12345678901234567, half, -half):
        assert xm.crt_signed([x % p for p in primes], primes) == x, x


def test_float_exact_guard_refuses_2048_rows():
    xm.require_float_exact(2047)
    with pytest.raises(ValueError):
        xm.require_float_exact(2048)


def test_residue_products_are_exact_at_the_largest_size():
    # 2047 products of (p - 1)^2 in one entry, the worst sum the guard admits
    p = xm.POWER_PRIMES[0]
    row = np.full((1, 2047), p - 1, dtype=np.float64)
    assert int(xm.power_product(row, row.T, p)[0, 0]) == 2047 * (p - 1) ** 2 % p
    rng = SplitMix64(7)
    a = rand_matrix(rng, 6, 6, -(2**40), 2**40)
    b = rand_matrix(rng, 6, 6, -(2**40), 2**40)
    ra, rb = (np.array([[x % p for x in row] for row in m], dtype=np.float64) for m in (a, b))
    want = [[x % p for x in row] for row in xm.mat_mul(a, b)]
    assert xm.power_product(ra, rb, p).tolist() == want
    weights = [-(2**50), 3, p + 5]
    want = [
        [
            (weights[0] * (i == j) + weights[1] * x + weights[2] * y) % p
            for j, (x, y) in enumerate(zip(r1, r2))
        ]
        for i, (r1, r2) in enumerate(zip(a, xm.mat_mul(a, a)))
    ]
    ra2 = xm.power_product(ra, ra, p)
    assert xm.mod_combination(weights, [ra, ra2], p).tolist() == want


def test_mod_combination_is_exact_with_one_fmod_at_the_largest_prime():
    # every residue and every weight p - 1: the largest sum one fmod meets,
    # for the at most 5 powers plus the diagonal an annihilation check takes
    p = max(xm.POWER_PRIMES)
    powers = [np.full((3, 3), p - 1, dtype=np.float64) for _ in range(5)]
    weights = [p - 1] * 6
    want = [[(5 * (p - 1) ** 2 + (p - 1) * (i == j)) % p for j in range(3)] for i in range(3)]
    assert xm.mod_combination(weights, powers, p).tolist() == want
    with pytest.raises(AssertionError):
        xm.mod_combination([p - 1] * 2049, powers, p)


def ref_product(a, b):
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
         for col in zip(*b)]
        for row in a
    ]


@settings(max_examples=300, deadline=None)
@given(st.data(), _matrices())
def test_rational_product_matches_fraction_reference(data, a):
    # two- and three-factor chains; _matrices also draws zero and all-int
    # matrices, whose products must still come back as Q
    b = data.draw(_matrices(rows=len(a[0])))
    c = data.draw(_matrices(rows=len(b[0])))
    pair = xm.rational_product(a, b)
    assert pair == ref_product(a, b) and _all_exact(pair)
    chain = xm.rational_product(a, b, c)
    assert chain == ref_product(ref_product(a, b), c) and _all_exact(chain)


@settings(max_examples=300, deadline=None)
@given(st.data(), _matrices())
def test_solve_consistent_matches_fraction_reference(data, a):
    # b is A W, A W with one entry shifted, or drawn freely; the last two
    # are often inconsistent when A is singular
    width = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(("consistent", "shifted", "free")))
    if kind == "free":
        b = data.draw(_matrices(rows=len(a), cols=width))
    else:
        b = xm.mat_mul(a, data.draw(_matrices(rows=len(a[0]), cols=width)))
        if kind == "shifted":
            i = data.draw(st.integers(0, len(a) - 1))
            j = data.draw(st.integers(0, width - 1))
            b[i][j] += 1
    got = _outcome(xm.solve_consistent, a, b)
    assert got == _outcome(ref_solve, a, b)
    assert isinstance(got, str) or _all_exact(got)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_schur_complement_matches_fraction_reference(data, size):
    # a Gram matrix V V^T, whose leading block is singular whenever V's
    # leading rows are dependent, or a symmetric matrix that need not be
    # consistent at all
    if data.draw(st.booleans()):
        v = data.draw(_matrices(rows=size))
        matrix = xm.mat_mul(v, [list(col) for col in zip(*v)])
    else:
        m = data.draw(_matrices(rows=size, cols=size))
        matrix = [[m[i][j] + m[j][i] for j in range(size)] for i in range(size)]
    h = data.draw(st.integers(0, size))
    got = _outcome(schur.schur_complement, matrix, h)
    assert got == _outcome(ref_schur, matrix, h)
    assert isinstance(got, str) or _all_exact(got)


def test_schur_complement_with_singular_leading_block():
    # leading vectors (1, 1) twice: M11 = [[2, 2], [2, 2]] has rank 1
    vecs = [[1, 1], [1, 1], [1, 0]]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
    assert schur.schur_complement(gram, 2) == ref_schur(gram, 2) == [[Q(1, 2)]]


def test_eliminate_divides_exactly_or_refuses():
    # the last Bareiss pivot of a nonsingular int matrix is its determinant
    work = [[2, 4, 6], [3, 5, 7], [1, 1, 2]]
    assert xm.eliminate(work, 3) == ([0, 1, 2], 0, -2)
    with pytest.raises(InconsistentBlockError, match="not divisible"):
        xm._exact_quotients([6, 7], 3)  # refused, never truncated to 2


# ---------------------------------------------------------------------------
# reference: sparse symmetric elimination with diagonal pivots over Fraction.
# A PSD matrix with a zero diagonal entry has that whole row zero, so a
# nonzero off-diagonal entry among zero-diagonal rows refutes semidefiniteness.


def ref_psd_pivots(a):
    m = len(a)
    if not xm.is_symmetric(a):
        return (False, "matrix is not symmetric")
    work = {i: {j: Fraction(a[i][j]) for j in range(m) if a[i][j] != 0} for i in range(m)}
    active = set(range(m))
    pivots = []
    while True:
        pivot = next((i for i in sorted(active) if work[i].get(i, 0) != 0), None)
        if pivot is None:
            for i in sorted(active):
                row = work[i]
                bad = next((j for j in sorted(row) if j in active and row[j] != 0), None)
                if bad is not None:
                    return (False, f"zero diagonal at {i} with nonzero entry at column {bad}")
            return (True, pivots)
        p = work[pivot].get(pivot)
        if p < 0:
            return (False, f"negative pivot {p} at index {pivot}")
        pivots.append(p)
        active.discard(pivot)
        prow = work[pivot]
        for i in [i for i in active if prow.get(i, 0) != 0]:
            f = prow[i] / p
            wi = work[i]
            for j, v in prow.items():
                if j in active:
                    new = wi.get(j, 0) - f * v
                    if new == 0:
                        wi.pop(j, None)
                    else:
                        wi[j] = new


@st.composite
def _symmetric(draw):
    """Symmetric rational matrices: Grams V V^T of drawn rank (deficient
    whenever V has fewer columns than rows), zero, a zero diagonal with one
    nonzero off-diagonal pair, or indefinite (M + M^T)."""
    kind = draw(st.sampled_from(("gram", "zero", "zero diagonal", "indefinite")))
    size = draw(st.integers(2 if kind == "zero diagonal" else 1, 6))
    if kind == "gram":
        v = draw(_matrices(rows=size, cols=draw(st.integers(1, size))))
        return xm.mat_mul(v, [list(col) for col in zip(*v)])
    matrix = [[Q(0)] * size for _ in range(size)]
    if kind == "zero":
        return matrix
    if kind == "zero diagonal":
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        matrix[i][j] = matrix[j][i] = Q(draw(_rationals.filter(lambda x: x != 0)))
        return matrix
    m = draw(_entries(size, size))
    return [[m[i][j] + m[j][i] for j in range(size)] for i in range(size)]


def _verdict(result):
    """A semidefiniteness result with its witness text dropped."""
    ok, got = result
    return ok, got if ok else None


@settings(max_examples=500, deadline=None)
@given(_symmetric())
def test_psd_pivots_matches_sparse_reference(a):
    before = [row[:] for row in a]
    ok, got = xm.psd_pivots(a)
    ref_ok, ref_got = ref_psd_pivots(a)
    assert a == before
    assert ok == ref_ok
    if ok:
        assert got == ref_got
        assert all(type(p) is type(Q(0)) for p in got)
    else:
        assert isinstance(got, str)
    # the same verdict, and the same pivots, as the two-pass reference
    assert _verdict((ok, got)) == _verdict(two_pass_psd_pivots(a))


def test_psd_pivots_witnesses():
    ok, witness = xm.psd_pivots([[1, 0], [0, -2]])
    assert (ok, witness) == (False, "negative pivot -2 at index 1")
    ok, witness = xm.psd_pivots([[0, 1], [1, 0]])
    assert (ok, witness) == (
        False,
        "zero diagonal at index 0 with nonzero entry at column 1",
    )
    # a zero row is skipped, and the next pivot divides by the last one
    ok, pivots = xm.psd_pivots([[4, 0, 2], [0, 0, 0], [2, 0, 2]])
    assert ok and pivots == [Q(4), Q(1)]


def two_pass_psd_pivots(a):
    """The semidefiniteness test as two Bareiss eliminations: the first
    finds the pivot columns J of a, the second must run through the
    principal block a[J, J] without a row swap and with positive pivots."""
    if not xm.is_symmetric(a):
        return (False, "matrix is not symmetric")
    rows, den = xm.integer_form(a)
    independent, _, _ = xm.eliminate([row[:] for row in rows], len(a))
    lead = [[rows[i][j] for j in independent] for i in independent]
    _, swaps, _ = xm.eliminate(lead, len(lead))
    if swaps:
        return (
            False,
            f"zero leading minor of the principal block on the {len(lead)} "
            "independent columns",
        )
    minors = [1] + [lead[k][k] for k in range(len(lead))]
    pivots = [Q(minors[k + 1], minors[k] * den) for k in range(len(lead))]
    bad = next((k for k, p in enumerate(pivots) if p < 0), None)
    if bad is not None:
        return (False, f"negative pivot {pivots[bad]} at index {independent[bad]}")
    return (True, pivots)


def test_psd_pivots_one_pass_matches_two_pass(monkeypatch):
    cases = [
        [[4, 2, 0], [2, 3, Q(1, 2)], [0, Q(1, 2), 2]],  # positive definite
        [[1, 2, 0], [2, 1, 0], [0, 0, 5]],  # indefinite, nonsingular
        [[1, 1, 2], [1, 1, 2], [2, 2, 4]],  # singular PSD, rank 1
        [[0, 1, 0], [1, 2, 0], [0, 0, 3]],  # nonsingular, zero first diagonal
    ]
    wants = [two_pass_psd_pivots(a) for a in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("psd_pivots called eliminate")

    monkeypatch.setattr(xm, "eliminate", refuse)
    for a, want in zip(cases, wants):
        got = xm.psd_pivots(a)
        assert _verdict(got) == _verdict(want), a
        if want[0]:
            assert repr(got) == repr(want), a
    assert xm.psd_pivots(cases[0])[0] and not xm.psd_pivots(cases[1])[0]
    assert xm.psd_pivots(cases[2]) == (True, [Q(1)])
    assert xm.psd_pivots(cases[3]) == (
        False,
        "zero diagonal at index 0 with nonzero entry at column 1",
    )


def test_eliminate_symmetric_stops_on_zero_diagonal_with_leading_entry():
    work = [[0, 1, 2], [1, 0, 0], [2, 0, 5]]
    assert xm.eliminate_symmetric(work, 0, 2) == (
        None,
        [],
        "zero diagonal at index 0 with nonzero entry at column 1",
    )
    # a negative pivot lets the pass go on, and its witness is the first
    work = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert xm.eliminate_symmetric(work, 0, 3) == (
        None,
        [Q(-1)],
        "negative pivot -1 at index 0",
    )
    # the sign of a pivot is that of the diagonal entry over prev
    work = [[-1, 0], [0, 2]]
    assert xm.eliminate_symmetric(work, 0, 2) == (
        -2,
        [Q(-1), Q(2)],
        "negative pivot -1 at index 0",
    )


def test_eliminate_symmetric_refuses_tail_only_row():
    # after the first pivot, row 1 is zero in the leading block and 1 in the
    # tail: the leading block has no pivot there to reach that column
    work = [[1, 1, 1], [1, 1, 2], [1, 2, 3]]
    with pytest.raises(InconsistentBlockError, match="outside the column space"):
        xm.eliminate_symmetric(work, 0, 2)
    # the same row with a zero tail is skipped
    work = [[1, 1, 1], [1, 1, 1], [1, 1, 3]]
    assert xm.eliminate_symmetric(work, 0, 2) == (1, [Q(1)], None)
    assert work[2][2] == 2


def test_eliminate_symmetric_resumes_where_it_paused():
    # a singular Gram in two passes, with den: the active block after the
    # first is den * prev times the Schur complement, and the pivots of the
    # two passes are those of one pass
    vecs = [[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 0, 2], [3, 1, 1]]
    gram = [[Q(sum(x * y for x, y in zip(u, v)), 3) for v in vecs] for u in vecs]
    work, den = xm.integer_form(gram)
    whole = [row[:] for row in work]
    prev, first, witness = xm.eliminate_symmetric(work, 0, 2, den=den)
    assert witness is None and first == [Q(5, 3)]
    assert [[Q(x, den * prev) for x in row[2:]] for row in work[2:]] == (
        schur.schur_complement(gram, 2)
    )
    prev, second, witness = xm.eliminate_symmetric(work, 2, 5, prev, den)
    assert witness is None
    assert xm.eliminate_symmetric(whole, 0, 5, den=den) == (prev, first + second, None)
    assert first + second == xm.psd_pivots(gram)[1]


def _gathered(rows):
    """((values, index), den): the integer form of rows as product_equals
    reads it, the distinct ints and an index array of positions into them."""
    ints, den = xm.integer_form(rows)
    values = sorted({x for row in ints for x in row})
    position = {x: k for k, x in enumerate(values)}
    return (values, np.array([[position[x] for x in row] for row in ints], dtype=np.intp)), den


@settings(max_examples=200, deadline=None)
@given(st.data(), _matrices())
def test_product_equals_matches_fraction_reference(data, a):
    b = data.draw(_matrices(rows=len(a[0])))
    (ga, den_a), (gb, den_b) = map(_gathered, (a, b))
    want = ref_product(a, b)
    gc, den_c = _gathered(want)
    assert xm.product_equals(ga, gb, gc, den_a * den_b, den_c) is None
    i = data.draw(st.integers(0, len(want) - 1))
    j = data.draw(st.integers(0, len(want[0]) - 1))
    shift = data.draw(st.sampled_from((Fraction(1), Fraction(-1, 3), Fraction(1, 10**30))))
    wrong = [list(row) for row in want]
    wrong[i][j] += shift
    gw, den_w = _gathered(wrong)
    # D = den_w A B - den_ab W = den_ab den_w (want - wrong): nonzero at (i, j) only
    offset = -den_a * den_b * den_w * shift
    assert offset.denominator == 1
    assert xm.product_equals(ga, gb, gw, den_a * den_b, den_w) == (i, j, offset.numerator)


def test_product_equals_takes_as_many_primes_as_the_bound_needs():
    # 3 * 5 = 15, and 15 + p agrees with it modulo the first prime p alone:
    # only the second prime, which the bound asks for, sees the difference,
    # and the two together return it whole: D = 15 - (15 + p) = -p
    p = xm.POWER_PRIMES[0]
    one = np.zeros((1, 1), dtype=np.intp)
    a, b = ([3], one), ([5], one)
    assert xm.product_equals(a, b, ([15], one), 1, 1) is None
    assert (15 + p) % p == 15
    assert xm.product_equals(a, b, ([15 + p], one), 1, 1) == (0, 0, -p)
    assert len(xm.primes_exceeding(2 * (3 * 5 + 15 + p))) == 2
    # the same with the difference p spread over the scales: 2 * 15 vs 30 + p
    assert xm.product_equals(a, b, ([30], one), 1, 2) is None
    assert xm.product_equals(a, b, ([30 + p], one), 1, 2) == (0, 0, -p)


def test_first_nonzero_takes_the_first_entry_any_prime_sees():
    # M = [[0, -p], [5, 0]]: the first prime sees only (1, 0), the second
    # also (0, 1), which comes first in row-major order and back whole
    p, q = xm.POWER_PRIMES[:2]
    m = np.array([[0, -p], [5, 0]])
    nonzero = {r: np.fmod(m, r).astype(np.float64) for r in (p, q)}
    assert not nonzero[p][0, 1] and nonzero[q][0, 1]
    assert xm.first_nonzero(nonzero, (p, q)) == (0, 1, -p)
    assert xm.first_nonzero({}, (p, q)) is None


def test_product_equals_refuses_an_inner_dimension_past_float_exactness():
    k = xm.FLOAT_EXACT_ROWS
    a = ([1], np.zeros((1, k), dtype=np.intp))
    b = ([1], np.zeros((k, 1), dtype=np.intp))
    c = ([k], np.zeros((1, 1), dtype=np.intp))
    with pytest.raises(ValueError, match="float64 residue products are exact below"):
        xm.product_equals(a, b, c, 1, 1)
    narrow = ([1], np.zeros((1, k - 1), dtype=np.intp)), ([1], np.zeros((k - 1, 1), dtype=np.intp))
    assert xm.product_equals(*narrow, ([k - 1], np.zeros((1, 1), dtype=np.intp)), 1, 1) is None

