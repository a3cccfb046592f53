import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments import pseudomoments as pm
from cubemoments.errors import InconsistentBlockError
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q
from test_combinatorics import perm_image_mask


def test_a_coeff_frozen():
    assert pm.a_coeff(5, 0) == 1
    assert pm.a_coeff(5, 1) == 0
    assert pm.a_coeff(5, 2) == Q(-1, 4)
    assert pm.a_coeff(5, 4) == Q(3, 8)
    assert pm.a_coeff(3, 2) == Q(-1, 2)
    assert pm.a_coeff(4, 4) == 1
    with pytest.raises(ValueError):
        pm.a_coeff(5, 6)
    with pytest.raises(ValueError):
        pm.a_coeff(0, 0)


def test_a_recursion_check_range():
    for n in range(2, 31):
        report = pm.a_recursion_check(n)
        assert report.ok, report.details[:3]
        assert report.checked > 0


def oracle_Y(n):
    """Y entry by entry as exact rationals from a_coeff, rows and columns
    in build_Y's (size, mask) order."""
    subsets = cb.enumerate_subsets(n, cb.d_max(n))
    return [[pm.a_coeff(n, (s ^ t).bit_count()) for t in subsets] for s in subsets]


def rational_rows(y):
    """The entries of y as exact rationals: its int64 form divided by den."""
    return [[Q(x, y.den) for x in row] for row in y.ints.tolist()]


def add_to_entries(y, shift, pairs):
    """y with the exact rational shift added at each index pair (i, j) of
    pairs, in place: den grows to its lcm with the denominator of shift."""
    den = math.lcm(y.den, Q(shift).denominator)
    y.ints, y.den = y.ints * (den // y.den), den
    for i, j in pairs:
        y.ints[i, j] += int(shift * den)
    return y


def test_build_Y_frozen_small():
    y2 = pm.build_Y(2)
    assert y2.subsets == [0, 1, 2]
    assert y2.den == 1
    assert y2.ints.tolist() == [[1, 0, 0], [0, 1, -1], [0, -1, 1]]
    y3 = pm.build_Y(3)
    assert y3.size == 4
    assert y3.entry(0b001, 0b010) == Q(-1, 2)
    assert y3.entry(0b001, 0b001) == 1
    assert y3.entry(0, 0b100) == 0


def test_build_Y_matches_the_entrywise_oracle():
    for n in range(2, 11):
        y = pm.build_Y(n)
        want = oracle_Y(n)
        den = math.lcm(*(x.denominator for row in want for x in row))
        assert y.ints.dtype == np.int64, n
        assert y.den == den, n
        assert y.ints.tolist() == [[x * den for x in row] for row in want], n
        s, t = y.subsets[-1], y.subsets[1]
        assert type(y.entry(s, t)) is Q and y.entry(s, t) == want[-1][1], n


def test_build_Y_structure():
    for n in (4, 5, 6, 7):
        y = pm.build_Y(n)
        assert y.size == cb.binomial_le(n, n // 2)
        for i, s in enumerate(y.subsets):
            assert y.entry(s, s) == 1
            for t in y.subsets[:i]:
                assert y.entry(s, t) == y.entry(t, s)
                if (s ^ t).bit_count() % 2:
                    assert y.entry(s, t) == 0


def test_build_Y_guards():
    with pytest.raises(ValueError):
        pm.build_Y(1)
    with pytest.raises(ValueError):
        pm.build_Y(13)  # the largest n any exact route builds is 12
    with pytest.raises(ValueError):
        pm.build_Y(17)


def test_Y_relabel_invariance():
    rng = random.Random(2024)
    for n in (4, 6, 7):
        y = pm.build_Y(n)
        for _ in range(20):
            perm = rng.sample(range(n), n)
            for _ in range(25):
                s = rng.choice(y.subsets)
                t = rng.choice(y.subsets)
                assert y.entry(s, t) == y.entry(
                    perm_image_mask(perm, s), perm_image_mask(perm, t)
                )


def test_multilinear_poly_arithmetic():
    p = pm.x_monomial(3, 0b011)
    q = pm.x_monomial(3, 0b110)
    assert (p * q).coeffs == {0b101: 1}
    assert (p * p).coeffs == {0: 1}
    r = p + q
    assert r.coeffs == {0b011: 1, 0b110: 1}
    assert not (r - r).coeffs
    assert (2 * p).coeffs == {0b011: 2}
    with pytest.raises(ValueError):
        pm.x_monomial(2, 0b100)
    with pytest.raises(ValueError):
        p * pm.x_monomial(4, 1)


def test_ideal_reduction_is_structural():
    # multiplying twice by any coordinate is the identity, so the pseudo
    # expectation cannot see x_i^2 - 1
    rng = SplitMix64(7)
    for n in (3, 5, 6):
        for _ in range(10):
            poly = pm.MultilinearPoly(
                n,
                {
                    rng.randint(0, 2 ** n - 1): Q(rng.randint(-4, 4))
                    for _ in range(5)
                },
            )
            i = rng.randint(0, n - 1)
            xi = pm.x_monomial(n, 1 << i)
            assert xi * (xi * poly) == poly
            assert pm.pseudo_expect(n, xi * (xi * poly)) == pm.pseudo_expect(n, poly)


def test_pseudo_expect_kills_sum_x():
    # E[(sum x) q] = 0 for every multilinear q of degree <= n-2, and in fact
    # for every q supported on masks of size <= n-1
    rng = SplitMix64(31)
    for n in (3, 4, 6):
        sumx = pm.x_sum(n)
        for mask in cb.enumerate_subsets(n, n - 1):
            assert pm.pseudo_expect(n, sumx * pm.x_monomial(n, mask)) == 0
        for _ in range(10):
            q = pm.MultilinearPoly(
                n,
                {
                    rng.choice(cb.enumerate_subsets(n, n - 2)): Q(rng.randint(-3, 3))
                    for _ in range(4)
                },
            )
            assert pm.pseudo_expect(n, sumx * q) == 0


def test_pseudo_expect_validates():
    with pytest.raises(ValueError):
        pm.pseudo_expect(4, pm.x_monomial(3, 1))
    with pytest.raises(ValueError):
        pm.pseudo_gram(4, [pm.x_monomial(4, 1)], [pm.x_monomial(3, 1)])


def _multilinear_lists(n):
    """Random lists of multi-term MultilinearPolys on n coordinates."""
    coeffs = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))
    polys = st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, max_size=5).map(
        lambda c: pm.MultilinearPoly(n, c)
    )
    return st.lists(polys, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 7))
def test_pseudo_gram_is_expectation_of_products(data, n):
    # the product route, pseudo_expect of p * q, is the small-n reference
    ps, qs = data.draw(_multilinear_lists(n)), data.draw(_multilinear_lists(n))
    gram = pm.pseudo_gram(n, ps, qs)
    assert gram == [[pm.pseudo_expect(n, p * q) for q in qs] for p in ps]
    assert all(type(v) is type(Q(0)) for row in gram for v in row)  # never a float


def test_balanced_measure_closed_vs_enumeration():
    for n in (2, 4, 6, 8, 10, 12):
        for size in range(n + 1):
            mask = (1 << size) - 1
            closed = pm.balanced_measure_moment(n, mask)
            assert closed == pm.balanced_measure_moment_enum(n, mask)
            assert closed == pm.a_coeff(n, size)
    # moment only depends on |S|: spot-check other masks
    assert pm.balanced_measure_moment(6, 0b101010) == pm.balanced_measure_moment(6, 0b000111)


def test_balanced_measure_frozen():
    assert pm.balanced_measure_moment(4, 0b1111) == 1
    assert pm.balanced_measure_moment(4, 0b0011) == Q(-1, 3)
    assert pm.balanced_measure_moment(4, 0b0111) == 0
    with pytest.raises(ValueError):
        pm.balanced_measure_moment(5, 0b1)
    with pytest.raises(ValueError):
        pm.balanced_measure_moment_enum(16, 0b1)


def test_isotypic_h_frozen_n3():
    h = pm.isotypic_h(3, 0b001)
    assert h.coeffs == {0b001: Q(2, 3), 0b010: Q(-1, 3), 0b100: Q(-1, 3)}


def test_isotypic_h_closed_vs_bruteforce():
    for n in range(2, 7):
        for d in range(0, n // 2 + 1):
            for s in cb.subsets_of_size(n, d):
                assert pm.isotypic_h(n, s) == pm.isotypic_h_bruteforce(n, s), (n, s)


def test_isotypic_h_diagonal_coefficient():
    for n in range(2, 10):
        for d in range(0, n // 2 + 1):
            s = (1 << d) - 1
            h = pm.isotypic_h(n, s)
            expected = Q(cb.two_row_tableau_count(n, d), cb.binomial(n, d))
            if d == 0:
                assert h.coeffs[0] == 1
            else:
                assert h.coeffs[s] == expected


def test_projection_property_of_h():
    # contracting h_S against x^T or against h_T gives the same value
    for n in range(2, 7):
        for d in range(0, n // 2 + 1):
            subsets = cb.subsets_of_size(n, d)
            hs = {s: pm.isotypic_h(n, s) for s in subsets}
            for s in subsets:
                for t in subsets:
                    via_monomial = pm.pseudo_expect(n, hs[s] * pm.x_monomial(n, t))
                    via_h = pm.pseudo_expect(n, hs[s] * hs[t])
                    assert via_monomial == via_h, (n, s, t)


def test_h_blocks_are_orthogonal_across_degrees():
    for n in (4, 5, 6):
        for d1 in range(0, n // 2 + 1):
            for d2 in range(0, d1):
                s = (1 << d1) - 1
                t = (1 << d2) - 1
                value = pm.pseudo_expect(
                    n, pm.isotypic_h(n, s) * pm.isotypic_h(n, t)
                )
                assert value == 0, (n, d1, d2)


def test_E_hS_squared_routes_and_positivity():
    for n in range(2, 13):
        for d in range(0, n // 2 + 1):
            assert pm.E_hS_squared(n, d) > 0
    assert pm.E_hS_squared(3, 1) == 1


def test_finite_difference_routes():
    # the closed form against entry g[a][2(k+a)] of the step-2 table the
    # Terwilliger blocks are built from, over the integer form of a_0..a_n
    for n in range(2, 41):
        (moments,), den = xm.integer_form([[pm.a_coeff(n, k) for k in range(n + 1)]])
        g = pm.difference_table(n, moments)
        for a in range(0, n // 2 + 1):
            for k in range(0, (n - 2 * a) // 2 + 1):
                assert pm.finite_difference_a(n, a, k) == Q(g[a][2 * (k + a)], den), (n, a, k)
    assert pm.finite_difference_a(5, 2, 0) == Q(15, 8)


def test_finite_difference_check_counts_the_odd_columns():
    # one comparison per (a, k) pair and one per odd column g[u][s], 2u < s <= 2 d_max
    for n in range(2, 13):
        dm = cb.d_max(n)
        pairs = sum(n // 2 - a + 1 for a in range(n // 2 + 1))
        report = pm.finite_difference_check(n)
        assert report.ok, (n, report.details)
        assert report.checked == pairs + dm * (dm + 1) // 2, n


def test_finite_difference_check_fails_on_an_odd_column(monkeypatch):
    # g[1][3] feeds M_k[i][j] at i + j = 3, where the paper's table is zero
    original = pm.difference_table

    def shifted(n, a):
        g = original(n, a)
        g[1][3] += 1
        return g

    monkeypatch.setattr(pm, "difference_table", shifted)
    # the shift is one unit of the integer form, 1/den
    for n, shift in ((4, "1/3"), (7, "1/48"), (8, "1/35")):
        report = pm.finite_difference_check(n)
        assert report.details == [f"odd difference at n={n}, u=1, s=3: {shift} != 0"]


def test_finite_difference_domain_boundary():
    # 2(k+a) = n+1 leaves the moment domain
    for n, a, k in ((5, 3, 0), (5, 1, 2), (7, 2, 2)):
        with pytest.raises(ValueError):
            pm.finite_difference_a(n, a, k)


def test_specht_x_basis_shape():
    for n in range(2, 8):
        for d in range(0, n // 2 + 1):
            basis = pm.specht_x_basis(n, d)
            assert len(basis) == cb.two_row_tableau_count(n, d)
            for poly in basis:
                assert all(m.bit_count() == d for m in poly.coeffs)


def test_hypercube_decomposition_check(monkeypatch):
    # the modular lower bound proves full rank on the int64 vectors alone
    def refuse(*args, **kwargs):
        raise AssertionError("Bareiss called on a full-rank decomposition")

    monkeypatch.setattr(xm, "rank", refuse)
    monkeypatch.setattr(xm, "eliminate", refuse)
    for n in range(2, 9):
        report = pm.hypercube_decomposition_check(n)
        assert report.ok, report.details
    with pytest.raises(ValueError):
        pm.hypercube_decomposition_check(9)


def test_hypercube_vectors_match_polynomial_products():
    # the int64 chains against w * (sum x)^t as Fraction MultilinearPolys
    for n in range(2, 8):
        expected = []
        for d in range(cb.d_max(n) + 1):
            for poly in pm.specht_x_basis(n, d):
                for _ in range(n - 2 * d + 1):
                    expected.append([poly.coeffs.get(m, 0) for m in range(1 << n)])
                    poly = poly * pm.x_sum(n)
        got = pm.hypercube_vectors(n)
        assert got.dtype == np.int64 and got.tolist() == expected, n


def test_hypercube_vectors_stay_within_int64_bound():
    # the bound asserted next to DECOMPOSITION_MAX_N, at every n it allows:
    # each coefficient is at most 2^d n^t <= n^n < 2^63
    for n in range(2, pm.DECOMPOSITION_MAX_N + 1):
        assert n**n < 2**63, n
        biggest = max(abs(x) for vec in pm.hypercube_vectors(n) for x in vec)
        assert biggest <= n**n, (n, biggest)
    with pytest.raises(ValueError):
        pm.hypercube_vectors(pm.DECOMPOSITION_MAX_N + 1)


def test_hypercube_vectors_start_from_the_specht_products():
    # the chains start from vectors built by flips; here they are read from
    # the coefficients of specht_x_basis, Specht products as MultilinearPolys
    for n in range(2, 9):
        got = pm.hypercube_vectors(n)
        row = 0
        for d in range(cb.d_max(n) + 1):
            for poly in pm.specht_x_basis(n, d):
                expected = [poly.coeffs.get(m, 0) for m in range(1 << n)]
                assert got[row].tolist() == expected, (n, d, row)
                row += n - 2 * d + 1
        assert row == len(got), n


def test_hypercube_decomposition_check_fails_on_duplicated_vector(monkeypatch):
    # at even n the top degree d = n/2 has a chain of one vector, so a copy
    # of one of its Specht vectors in place of another drops the rank by one
    original = pm.hypercube_vectors

    def duplicated(n):
        vectors = original(n)
        top = len(vectors) - cb.two_row_tableau_count(n, n // 2)
        vectors[top + 1] = vectors[top]
        return vectors

    monkeypatch.setattr(pm, "hypercube_vectors", duplicated)
    for n in (4, 6, 8):
        report = pm.hypercube_decomposition_check(n)
        assert not report.ok, n
        assert report.details == [
            f"decomposition rank at n={n}: {2 ** n - 1} != {2 ** n}"
        ]


def test_parity_blocks_split_Y():
    for n in range(2, 9):
        y = pm.build_Y(n)
        parts, den = pm.parity_blocks(y)
        assert den == math.lcm(*(x.denominator for row in oracle_Y(n) for x in row)), n
        for parity, (masks, block) in enumerate(parts):
            assert masks == [s for s in y.subsets if s.bit_count() & 1 == parity], n
            assert block.dtype == np.int64, n
            assert block.tolist() == [[y.entry(s, t) * den for t in masks] for s in masks], n


def test_parity_blocks_refuse_a_one_sided_cross_parity_entry():
    # the only cross-parity entry sits at (odd row, even column) with its
    # mirror left at zero, so only the lower triangle of the split shows it
    for n in range(2, 9):
        y = pm.build_Y(n)
        i, j = y.index[0], y.index[0b1]
        add_to_entries(y, Q(1, 1000), [(j, i)])
        with pytest.raises(InconsistentBlockError) as excinfo:
            pm.parity_blocks(y)
        assert str(excinfo.value) == f"cross-parity entry ({i},{j}) nonzero at n={n}"
