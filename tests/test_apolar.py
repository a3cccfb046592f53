"""Frame-side polynomial algebra: pairing, harmonics, Specht basis."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemoments import apolar as ap
from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments import pseudomoments as pm
from cubemoments.apolar import (
    SpanPoly,
    adjointness_check,
    apolar_gram,
    apolar_ip,
    apply_operator,
    beta,
    equals_zero,
    frame_sum,
    harmonic_projection_consistency,
    hS_span,
    is_frame_harmonic,
    johnson_slice_gram,
    sigma_bridge_check,
    sigma_sq,
    span_monomial,
    specht_basis,
)
from cubemoments.rng import SplitMix64
from cubemoments.scalars import Q
from cubemoments.verify import run_verify
from test_combinatorics import perm_image_mask
from test_polynomials import relabel


def frame_gram_entry(n: int, i: int, j: int):
    """<v_i, v_j>: 1 on the diagonal, -1/(n-1) off it (indices 1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"frame indices {i}, {j} outside [1, {n}]")
    return Q(1) if i == j else Q(-1, n - 1)


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


def _spans(n, d):
    """Random lists of multi-term degree-d SpanPolys on an n-frame."""
    keys = st.lists(st.integers(1, n), min_size=d, max_size=d).map(lambda k: tuple(sorted(k)))
    coeffs = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))
    polys = st.dictionaries(keys, coeffs, max_size=4).map(lambda c: SpanPoly(n, d, c))
    return st.lists(polys, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 6), st.integers(0, 3))
def test_apolar_gram_is_bilinear_permanent_sum(data, n, d):
    # each entry against the brute-force permanent, summed over term pairs;
    # the two lists have different supports, so misaligned indexing shows
    ps, qs = data.draw(_spans(n, d)), data.draw(_spans(n, d))
    gram = apolar_gram(ps, qs)
    assert len(gram) == len(ps) and all(len(row) == len(qs) for row in gram)
    for p, row in zip(ps, gram):
        for q, value in zip(qs, row):
            want = sum(
                (
                    a_c * b_c * _permanent([[frame_gram_entry(n, i, j) for j in b] for i in a])
                    for a, a_c in p.coeffs.items()
                    for b, b_c in q.coeffs.items()
                ),
                Q(0),
            ) / math.factorial(d)
            assert value == want
            assert type(value) is type(Q(0))  # exact, never a float


def test_apolar_gram_shapes_and_refusals():
    p, q = span_monomial(4, (1, 2)), span_monomial(4, (2, 3), 2)
    assert apolar_gram([], [p]) == []
    assert apolar_gram([p, q], []) == [[], []]
    assert apolar_gram([SpanPoly(4, 2)], [p, q]) == [[0, 0]]
    assert apolar_gram([p, q], [q]) == [[apolar_ip(p, q)], [apolar_ip(q, q)]]
    with pytest.raises(ValueError):
        apolar_gram([p], [span_monomial(4, (1,))])  # one degree per Gram
    with pytest.raises(ValueError):
        apolar_gram([p], [span_monomial(5, (1, 2))])
    with pytest.raises(ValueError):
        apolar_ip(p, span_monomial(5, (1,)))  # mixed frames refused before degrees


def test_span_poly_arithmetic():
    p = span_monomial(4, (1, 2)) + span_monomial(4, (2, 3), -1)
    q = span_monomial(4, (2, 3))
    assert (p + q).coeffs == {(1, 2): Q(1)}
    assert not (p - p).coeffs
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
        beta(3, 2, 0)  # d = 2 > d_max(3) = 1


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


def test_beta_matches_the_pairing_of_canonical_monomials():
    # beta reads the kernel at a spelled profile; the reference pairs the
    # canonical monomials {1..d} and {1..k} + {d+1..2d-k} as frame forms
    for n in range(2, 13):
        for d in range(cb.d_max(n) + 1):
            a = span_monomial(n, range(1, d + 1))
            for k in range(d + 1):
                b = span_monomial(n, [*range(1, k + 1), *range(d + 1, 2 * d - k + 1)])
                assert beta(n, d, k) == apolar_ip(a, b), (n, d, k)


def _fraction_derive(p, j):
    """Reference <v_j, d/dz> p, one rational Gram entry per term."""
    out = {}
    for key, c in p.coeffs.items():
        for pos, i in enumerate(key):
            if pos > 0 and key[pos - 1] == i:
                continue
            reduced = key[:pos] + key[pos + 1 :]
            add = c * key.count(i) * frame_gram_entry(p.n, j, i)
            out[reduced] = out.get(reduced, Q(0)) + add
    return SpanPoly(p.n, p.degree - 1, out)


def _derive(p, j):
    # the directional derivative <v_j, d/dz> p, as the operator <v_j, z>
    return apply_operator(span_monomial(p.n, (j,)), p)


def test_derive():
    n = 4
    p = span_monomial(n, (1, 2))
    dp = _derive(p, 1)
    # <v1,d> (v1 v2) = <v1,v1> v2 + <v1,v2> v1
    assert dp.coeffs == {(2,): Q(1), (1,): Q(-1, 3)}
    sq = span_monomial(n, (3, 3))
    dsq = _derive(sq, 3)
    assert dsq.coeffs == {(3,): Q(2)}
    # a second-degree operator steps twice and divides once
    assert apply_operator(span_monomial(n, (1, 3), Q(3, 2)), sq).coeffs == {(): Q(-1)}
    with pytest.raises(ValueError):
        _derive(SpanPoly(n, 0, {(): Q(1)}), 1)
    with pytest.raises(ValueError):
        _derive(p, 9)


def test_derive_matches_fraction_reference():
    for n in range(2, 7):
        forms = [hS_span(n, s) for s in cb.enumerate_subsets(n, cb.d_max(n))]
        for d in range(cb.d_max(n) + 1):
            forms += specht_basis(n, d)
        for p in forms:
            if p.degree == 0:
                continue
            for j in range(1, n + 1):
                got = _derive(p, j)
                assert got == _fraction_derive(p, j), (n, p, j)
                assert all(type(c) is Q for c in got.coeffs.values())


def _nudged(p):
    """p with its first coefficient raised by 1/1000."""
    key = min(p.coeffs)
    return p + SpanPoly(p.n, p.degree, {key: Q(1, 1000)})


def test_harmonicity_can_fail():
    assert not is_frame_harmonic(span_monomial(4, (1, 2)))
    assert is_frame_harmonic(hS_span(5, 0b11))
    assert not is_frame_harmonic(_nudged(hS_span(5, 0b11)))


def test_harmonicity_check_fails_on_corrupted_hS(monkeypatch):
    original = ap.hS_span
    monkeypatch.setattr(ap, "hS_span", lambda n, s: _nudged(original(n, s)))
    report = ap.harmonicity_check(4)
    assert not report.ok
    witness = "h_S span not harmonic at n=4"
    assert report.details[0].startswith(witness)
    result = {c.name: c for c in run_verify(("apolar",), 4, 4).checks}["apolar.harmonicity"]
    assert result.status == "fail"
    assert report.details[0] in result.witness


def test_ideal_kernel():
    # multiples of sum_i <v_i, z> are structurally nonzero but semantically zero
    for n in (3, 4, 5):
        q = span_monomial(n, (1,)) + span_monomial(n, (2,), -3)
        prod = frame_sum(n) * q
        assert prod.coeffs
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
            assert len(basis) == cb.two_row_tableau_count(n, d)
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
                Q(cb.two_row_tableau_count(n, d), cb.binomial(n, d))
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
    rng = random.Random(4242)
    n = 5
    for _ in range(5):
        perm = rng.sample(range(n), n)
        s = 0b1001
        relabeled_mask = perm_image_mask(perm, s)
        lhs = relabel(hS_span(n, s), perm)
        rhs = hS_span(n, relabeled_mask)
        assert equals_zero(lhs - rhs)


def test_johnson_slice_gram():
    g = johnson_slice_gram(4, 2)
    # singletons of [4]: diagonal 3, all off-diagonal overlaps are 0 = d-2
    assert g[0][0] == 3 and g[0][1] == 1 and g[2][3] == 1
    assert {type(x) for row in johnson_slice_gram(7, 3) for x in row} == {int}
    with pytest.raises(ValueError):
        johnson_slice_gram(13, 2)


def test_johnson_slice_check_eliminates_once_per_degree_over_ints(monkeypatch):
    calls = []
    real = xm.psd_pivots

    def spy(a):
        calls.append({type(x) for row in a for x in row})
        return real(a)

    monkeypatch.setattr(xm, "psd_pivots", spy)
    assert ap.johnson_slice_check(8).ok
    assert calls == [{int}] * cb.d_max(8)


def _two_pass_verdict(g, n, d):
    # the rule the one-pass check replaces: PSD(G) and PSD(G - floor I)
    floor = n - 2 * d + 2
    shifted = [
        [x - (floor if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(g)
    ]
    return xm.psd_pivots(g)[0] and xm.psd_pivots(shifted)[0]


def _lowered(g):
    # PSD, but 1/1000 below the floor
    return [
        [x - (Q(1, 1000) if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(g)
    ]


def _negative_corner(g):
    # not PSD
    g[0][0] = -1
    return g


def test_johnson_slice_check_fails_below_floor(monkeypatch):
    monkeypatch.setattr(
        ap, "johnson_slice_gram", lambda n, d: _lowered(johnson_slice_gram(n, d))
    )
    for n in range(4, 9):
        report = ap.johnson_slice_check(n)
        assert not report.ok, n
        assert any("below floor" in w and f"at n={n}," in w for w in report.details), n


@pytest.mark.parametrize("corrupt", [None, _lowered, _negative_corner])
def test_johnson_slice_check_matches_two_pass_rule(monkeypatch, corrupt):
    def gram(n, d):
        g = johnson_slice_gram(n, d)
        return corrupt(g) if corrupt else g

    monkeypatch.setattr(ap, "johnson_slice_gram", gram)
    for n in range(2, 10):
        degrees = range(1, cb.d_max(n) + 1)
        failing = [d for d in degrees if not _two_pass_verdict(gram(n, d), n, d)]
        assert failing == ([] if corrupt is None else list(degrees)), n
        report = ap.johnson_slice_check(n)
        assert report.ok == (not failing), n
        assert report.checked == cb.d_max(n)
        assert [
            int(w.split(f"at n={n}, d=")[1].split(":")[0])
            for w in report.details
            if "below floor" in w
        ] == failing, n


def test_harmonic_projection_consistency():
    for n in range(2, 7):
        report = harmonic_projection_consistency(n)
        assert report.ok, (n, report.details)
    with pytest.raises(ValueError):
        harmonic_projection_consistency(9)


_CORRUPTED_BRIDGE_WITNESSES = {4: 52, 5: 125, 6: 661}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bridge_fails_on_corrupted_moment(monkeypatch, n):
    # a_2 + 1/1000 moves the hypercube side only
    original = pm._a_values

    def corrupted(m):
        a = list(original(m))
        a[2] += Q(1, 1000)
        return tuple(a)

    monkeypatch.setattr(pm, "_a_values", corrupted)
    report = sigma_bridge_check(n)
    assert not report.ok
    assert len(report.details) == _CORRUPTED_BRIDGE_WITNESSES[n]
    assert all(f"n={n}" in w for w in report.details)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bridge_cross_degree_fails_on_corrupted_h(monkeypatch, n):
    # no corrupted moment a_k can reach the cross-degree half: any
    # S_n-invariant moments give zero on pairs of different degrees (Schur's
    # lemma).  A wrong coefficient of x^S in h_S, |S| = 2, makes E[h_S] != 0.
    original = pm.isotypic_coefficient

    def corrupted(m, d, overlap):
        return original(m, d, overlap) + (Q(1, 7) if (d, overlap) == (2, 2) else 0)

    monkeypatch.setattr(pm, "isotypic_coefficient", corrupted)
    report = sigma_bridge_check(n)
    assert not report.ok
    assert any(w.startswith("E[h_S h_T] != 0 for |S|=0, |T|=2") for w in report.details)
    assert all(f"n={n}" in w for w in report.details)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bridge_fails_on_corrupted_pattern_permanent(monkeypatch, n):
    # +1 on the monomial pairing of one profile moves the frame side only.
    # A uniform +1 on every pairing would be a weak probe: it adds
    # (sum of coefficients)^2 to a pairing of forms, and the coefficients of
    # h_S sum to 0 for d >= 1, so only the single d = 0 pair would fail.
    original = ap.monomial_pairing

    def corrupted(m, d, profile):
        return original(m, d, profile) + (1 if profile == ((1, 1),) else 0)

    monkeypatch.setattr(ap, "monomial_pairing", corrupted)
    report = sigma_bridge_check(n)
    assert not report.ok
    assert len(report.details) == _CORRUPTED_BRIDGE_WITNESSES[n]
    assert all(f"n={n}" in w for w in report.details)
