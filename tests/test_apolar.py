"""Frame-side polynomial algebra: pairing, harmonics, Specht basis."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments.apolar import (
    SpanPoly,
    adjointness_check,
    apolar_ip,
    apply_operator,
    beta,
    derive,
    equals_zero,
    frame_gram_entry,
    frame_sum,
    harmonic_projection_consistency,
    hS_span,
    is_frame_harmonic,
    johnson_slice_gram,
    sigma_sq,
    span_monomial,
    specht_basis,
)
from cubemoments.pseudomoments import isotypic_dimension
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q


def test_frame_gram_entry():
    assert frame_gram_entry(5, 2, 2) == 1
    assert frame_gram_entry(5, 1, 4) == Q(-1, 4)
    with pytest.raises(ValueError):
        frame_gram_entry(5, 0, 2)


def _permanent(rows):
    """Reference permanent: the plain sum over all permutations."""
    return sum(
        (
            math.prod((rows[i][j] for i, j in enumerate(sigma)), start=Q(1))
            for sigma in itertools.permutations(range(len(rows)))
        ),
        Q(0),
    )


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 9), st.integers(0, 6))
def test_pairing_of_monomials_is_gram_permanent(data, n, d):
    # <prod <v_a, z>, prod <v_b, z>> = perm(<v_a, v_b>) / d!, with repeats
    multiset = st.lists(st.integers(1, n), min_size=d, max_size=d)
    a, b = data.draw(multiset), data.draw(multiset)
    gram = [[frame_gram_entry(n, i, j) for j in b] for i in a]
    want = _permanent(gram) / math.factorial(d)
    assert apolar_ip(span_monomial(n, a), span_monomial(n, b)) == want


def test_span_poly_arithmetic():
    p = span_monomial(4, (1, 2)) + span_monomial(4, (2, 3), -1)
    q = span_monomial(4, (2, 3))
    assert (p + q).coeffs == {(1, 2): Q(1)}
    assert (p - p).is_zero()
    assert (2 * p).coeffs[(1, 2)] == 2
    prod = span_monomial(4, (1,)) * span_monomial(4, (1, 3))
    assert prod.coeffs == {(1, 1, 3): Q(1)}
    with pytest.raises(ValueError):
        span_monomial(4, (1,)) + span_monomial(4, (1, 2))
    with pytest.raises(ValueError):
        SpanPoly(4, 2, {(2, 1): Q(1)})  # unsorted key


def test_pairing_frozen_values():
    # disjoint pairs of distinct indices pair through pure off-diagonal
    # Gram entries: <v1 v2, v3 v4> at n=5 is ((-1/4)^2 + (-1/4)^2)/2
    assert apolar_ip(span_monomial(5, (1, 2)), span_monomial(5, (3, 4))) == Q(1, 16)
    assert beta(5, 2, 0) == Q(1, 16)
    assert beta(5, 1, 1) == 1
    assert beta(5, 1, 0) == Q(-1, 4)
    # degree mismatch pairs to zero by convention
    assert apolar_ip(span_monomial(5, (1,)), span_monomial(5, (1, 2))) == 0
    with pytest.raises(ValueError):
        beta(5, 2, 3)
    with pytest.raises(ValueError):
        beta(3, 2, 0)  # pattern needs 2d - k = 4 > n indices


def test_pairing_symmetric_bilinear():
    rng = SplitMix64(20240817)
    n = 5
    for _ in range(10):
        keys = [tuple(sorted(rng.randint(1, n) for _ in range(2))) for _ in range(3)]
        p = SpanPoly(n, 2, {keys[0]: Q(rng.randint(-3, 3))})
        q = SpanPoly(n, 2, {keys[1]: Q(rng.randint(-3, 3))})
        r = SpanPoly(n, 2, {keys[2]: Q(rng.randint(-3, 3))})
        assert apolar_ip(p, q) == apolar_ip(q, p)
        assert apolar_ip(p + q, r) == apolar_ip(p, r) + apolar_ip(q, r)


def test_beta_alternating_identity():
    # sum_k (-1)^k C(d,k) beta_{d,k} = ((-1)^d / d!) (n/(n-1))^d
    for n in range(3, 9):
        for d in range(cb.d_max(n) + 1):
            lhs = sum(
                Q((-1) ** k) * cb.binomial(d, k) * beta(n, d, k) for k in range(d + 1)
            )
            rhs = Q((-1) ** d, math.factorial(d)) * Q(n, n - 1) ** d
            assert lhs == rhs, (n, d)


def test_derive():
    n = 4
    p = span_monomial(n, (1, 2))
    dp = derive(p, 1)
    # <v1,d> (v1 v2) = <v1,v1> v2 + <v1,v2> v1
    assert dp.coeffs == {(2,): Q(1), (1,): Q(-1, 3)}
    sq = span_monomial(n, (3, 3))
    dsq = derive(sq, 3)
    assert dsq.coeffs == {(3,): Q(2)}
    with pytest.raises(ValueError):
        derive(SpanPoly(n, 0, {(): Q(1)}), 1)
    with pytest.raises(ValueError):
        derive(p, 9)


def test_ideal_kernel():
    # multiples of sum_i <v_i, z> are structurally nonzero but semantically zero
    for n in (3, 4, 5):
        q = span_monomial(n, (1,)) + span_monomial(n, (2,), -3)
        prod = frame_sum(n) * q
        assert not prod.is_zero()
        assert equals_zero(prod)
        # and adding it to anything leaves pairings unchanged
        probe = span_monomial(n, (1, 2))
        assert apolar_ip(prod, probe) == 0


def test_equals_zero_positive_definite():
    rng = SplitMix64(7)
    n = 5
    for _ in range(10):
        key = tuple(sorted(rng.randint(1, n) for _ in range(2)))
        p = SpanPoly(n, 2, {key: Q(rng.randint(1, 4))})
        assert not equals_zero(p)


def test_adjointness():
    rng = SplitMix64(99)
    n = 5
    for _ in range(8):
        p = SpanPoly(n, 1, {(rng.randint(1, n),): Q(rng.randint(-2, 2) or 1)})
        q = SpanPoly(n, 2, {tuple(sorted((rng.randint(1, n), rng.randint(1, n)))): Q(1)})
        r_key = tuple(sorted(rng.randint(1, n) for _ in range(3)))
        r = SpanPoly(n, 3, {r_key: Q(rng.randint(-3, 3) or 2)})
        report = adjointness_check(p, q, r)
        assert report.ok, report.details
    with pytest.raises(ValueError):
        adjointness_check(
            span_monomial(4, (1,)), span_monomial(4, (2,)), span_monomial(4, (1, 2, 3))
        )
    with pytest.raises(ValueError):
        apply_operator(span_monomial(4, (1, 2)), span_monomial(4, (3,)))


def test_specht_basis_shapes_and_harmonicity():
    for n in range(2, 7):
        for d in range(cb.d_max(n) + 1):
            basis = specht_basis(n, d)
            assert len(basis) == isotypic_dimension(n, d)
            for b in basis:
                assert b.degree == d
                assert is_frame_harmonic(b)


def test_specht_gram_nonsingular():
    for n in range(2, 7):
        for d in range(cb.d_max(n) + 1):
            basis = specht_basis(n, d)
            gram = [[apolar_ip(bi, bj) for bj in basis] for bi in basis]
            assert xm.rank(gram) == len(basis), (n, d)


def test_specht_frozen_n3_d1():
    basis = specht_basis(3, 1)
    # two standard tableaux, second rows (2) then (3)
    assert len(basis) == 2
    assert basis[0].coeffs == {(1,): Q(1), (2,): Q(-1)}
    assert basis[1].coeffs == {(1,): Q(1), (3,): Q(-1)}


def test_hS_span_harmonic_and_norm():
    # <h_S, h_S> = (dim / C(n,d)) (1/d!) (n/(n-1))^d
    for n in range(2, 7):
        for d in range(cb.d_max(n) + 1):
            s = (1 << d) - 1
            h = hS_span(n, s)
            assert is_frame_harmonic(h)
            expected = (
                Q(isotypic_dimension(n, d), cb.binomial(n, d))
                * Q(n, n - 1) ** d
                / math.factorial(d)
            )
            assert apolar_ip(h, h) == expected, (n, d)
    with pytest.raises(ValueError):
        hS_span(4, 0b111)


def test_sigma_sq_frozen():
    assert sigma_sq(3, 1) == 1
    assert sigma_sq(5, 2) == Q(12, 5)
    assert sigma_sq(6, 0) == 1
    with pytest.raises(ValueError):
        sigma_sq(4, 3)


def test_tight_frame_identity():
    # sum_T <h_S, h_T> h_T = (1/d!) (n/(n-1))^d h_S
    for n in range(2, 7):
        for d in range(cb.d_max(n) + 1):
            f_dd = Q(n, n - 1) ** d / math.factorial(d)
            subsets = cb.subsets_of_size(n, d)
            spans = {t: hS_span(n, t) for t in subsets}
            s = (1 << d) - 1
            acc = SpanPoly(n, d)
            for t in subsets:
                acc = acc + spans[t].scaled(apolar_ip(spans[s], spans[t]))
            assert equals_zero(acc - spans[s].scaled(f_dd)), (n, d)


def test_relabel_invariance():
    rng = SplitMix64(4242)
    n = 5
    for _ in range(5):
        perm = rng.permutation(n)
        s = 0b1001
        relabeled_mask = cb.perm_image_mask(perm, s)
        lhs = hS_span(n, s).relabel(perm)
        rhs = hS_span(n, relabeled_mask)
        assert equals_zero(lhs - rhs)


def test_johnson_slice_gram():
    g = johnson_slice_gram(4, 2)
    # singletons of [4]: diagonal 3, all off-diagonal overlaps are 0 = d-2
    assert g[0][0] == 3 and g[0][1] == 1 and g[2][3] == 1
    for n in range(3, 9):
        for d in range(1, cb.d_max(n) + 1):
            g = johnson_slice_gram(n, d)
            ok, _ = xm.psd_pivots(g)
            assert ok, (n, d)
            # spectrum floor: G - (n-2d+2) I stays positive semidefinite
            floor = Q(n - 2 * d + 2)
            m = len(g)
            shifted = [
                [g[i][j] - (floor if i == j else 0) for j in range(m)] for i in range(m)
            ]
            ok2, _ = xm.psd_pivots(shifted)
            assert ok2, (n, d)
    with pytest.raises(ValueError):
        johnson_slice_gram(13, 2)


def test_harmonic_projection_consistency():
    for n in range(2, 7):
        report = harmonic_projection_consistency(n)
        assert report.ok, (n, report.details)
    with pytest.raises(ValueError):
        harmonic_projection_consistency(9)
