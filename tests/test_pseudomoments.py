import pytest

from cubemoments import combinatorics as cb
from cubemoments import pseudomoments as pm
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q


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


def test_build_Y_frozen_small():
    y2 = pm.build_Y(2)
    assert y2.subsets == [0, 1, 2]
    assert y2.rows == [[1, 0, 0], [0, 1, -1], [0, -1, 1]]
    y3 = pm.build_Y(3)
    assert y3.size == 4
    assert y3.entry(0b001, 0b010) == Q(-1, 2)
    assert y3.entry(0b001, 0b001) == 1
    assert y3.entry(0, 0b100) == 0


def test_build_Y_structure():
    for n in (4, 5, 6, 7):
        y = pm.build_Y(n)
        assert y.size == cb.binomial_le(n, n // 2)
        for i in range(y.size):
            assert y.rows[i][i] == 1
            for j in range(i):
                assert y.rows[i][j] == y.rows[j][i]
                s, t = y.subsets[i], y.subsets[j]
                if (s ^ t).bit_count() % 2:
                    assert y.rows[i][j] == 0


def test_build_Y_guards():
    with pytest.raises(ValueError):
        pm.build_Y(1)
    with pytest.raises(ValueError):
        pm.build_Y(13)  # the largest n any exact route builds is 12
    with pytest.raises(ValueError):
        pm.build_Y(17)


def test_Y_relabel_invariance():
    rng = SplitMix64(2024)
    for n in (4, 6, 7):
        y = pm.build_Y(n)
        for _ in range(20):
            perm = rng.permutation(n)
            for _ in range(25):
                s = rng.choice(y.subsets)
                t = rng.choice(y.subsets)
                assert y.entry(s, t) == y.entry(
                    cb.perm_image_mask(perm, s), cb.perm_image_mask(perm, t)
                )


def test_multilinear_poly_arithmetic():
    p = pm.x_monomial(3, 0b011)
    q = pm.x_monomial(3, 0b110)
    assert (p * q).coeffs == {0b101: 1}
    assert (p * p).coeffs == {0: 1}
    r = p + q
    assert r.degree() == 2
    assert (r - r).is_zero()
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
            expected = Q(pm.isotypic_dimension(n, d), cb.binomial(n, d))
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
    for n in range(2, 13):
        for a in range(0, n // 2 + 1):
            for k in range(0, (n - 2 * a) // 2 + 1):
                closed = pm.finite_difference_a(n, a, k)
                direct = pm.finite_difference_a_direct(n, a, k)
                assert closed == direct, (n, a, k)
    assert pm.finite_difference_a(5, 2, 0) == Q(15, 8)


def test_finite_difference_domain_boundary():
    # 2(k+a) = n+1 leaves the moment domain on both routes
    with pytest.raises(ValueError):
        pm.finite_difference_a(5, 3, 0)
    with pytest.raises(ValueError):
        pm.finite_difference_a_direct(5, 1, 2)


def test_specht_x_basis_shape():
    for n in range(2, 8):
        for d in range(0, n // 2 + 1):
            basis = pm.specht_x_basis(n, d)
            assert len(basis) == pm.isotypic_dimension(n, d)
            for poly in basis:
                assert poly.degree() == d
                assert all(m.bit_count() == d for m in poly.coeffs)


def test_hypercube_decomposition_check():
    for n in range(2, 7):
        report = pm.hypercube_decomposition_check(n)
        assert report.ok, report.details
    with pytest.raises(ValueError):
        pm.hypercube_decomposition_check(9)
