"""Eigenvalue closed forms, exact certificates, frame constants."""

import math
from fractions import Fraction

import pytest

from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments.errors import InconsistentBlockError
from cubemoments.pseudomoments import build_Y
from cubemoments.scalars import Q
from cubemoments.spectrum import (
    E_xS_hT_closed,
    _exact_int,
    _parity_split,
    _ParityPowers,
    _poly_from_roots,
    annihilation_check,
    contract_x_h,
    distinctness_and_order_report,
    eta_sq,
    eta_sq_summation,
    exact_spectrum_certificate,
    frame_const,
    gram_reconstruction_check,
    lambda_closed,
    lambda_recursion_check,
    lambda_via_frames,
    multiplicity,
    numeric_eigensolve,
    rank_check,
    trace_moment_check,
    zero_multiplicity,
)


def test_lambda_closed_frozen():
    assert lambda_closed(2, 0) == 1 and lambda_closed(2, 1) == 2
    assert lambda_closed(3, 0) == 1 and lambda_closed(3, 1) == Q(3, 2)
    assert [lambda_closed(5, d) for d in range(3)] == [Q(13, 8), Q(5, 4), Q(15, 8)]
    # d = 0 reduces to the moment-vector eigenvalue sum
    for n in range(2, 12):
        from cubemoments.pseudomoments import a_coeff

        direct = sum(
            cb.binomial(n, k) * a_coeff(n, k) ** 2 for k in range(cb.d_max(n) + 1)
        )
        assert lambda_closed(n, 0) == direct
    with pytest.raises(ValueError):
        lambda_closed(4, 3)


def test_lambda_collisions_at_even_n():
    # the closed form itself produces coinciding values at even n >= 6;
    # frozen witnesses for the documented discrepancy
    assert lambda_closed(6, 0) == lambda_closed(6, 2) == Q(8, 5)
    assert lambda_closed(8, 1) == lambda_closed(8, 3) == Q(64, 35)
    assert (
        lambda_closed(10, 0)
        == lambda_closed(10, 2)
        == lambda_closed(10, 4)
        == Q(128, 63)
    )
    # all odd n stay pairwise distinct
    for n in range(3, 40, 2):
        vals = [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
        assert len(set(vals)) == len(vals), n


def test_lambda_recursion():
    assert lambda_closed(3, 1) == Q(3, 2) * lambda_closed(1, 0)
    assert lambda_closed(5, 2) == Q(5, 4) * lambda_closed(3, 1)
    report = lambda_recursion_check(40)
    assert report.ok and report.checked == 399
    with pytest.raises(ValueError):
        lambda_recursion_check(41)


def test_multiplicities():
    assert [multiplicity(5, d) for d in range(3)] == [1, 4, 5]
    assert zero_multiplicity(5) == 6
    assert sum(multiplicity(5, d) for d in range(3)) + zero_multiplicity(5) == 16
    assert [multiplicity(2, d) for d in range(2)] == [1, 1]
    assert zero_multiplicity(2) == 1
    for n in range(2, 20):
        assert multiplicity(n, 0) == 1
        total = sum(multiplicity(n, d) for d in range(cb.d_max(n) + 1))
        assert total + zero_multiplicity(n) == cb.binomial_le(n, cb.d_max(n))


def test_annihilation_frozen_small():
    # independent oracle: Y(Y - I)(Y - 2I) = 0 at n=2 by direct products
    y = build_Y(2).rows

    def shifted(c):  # Y - cI
        return [[v - c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(y)]

    prod = xm.mat_mul(y, xm.mat_mul(shifted(1), shifted(2)))
    assert all(v == 0 for row in prod for v in row)
    assert annihilation_check(2).ok
    assert annihilation_check(3).ok


def test_annihilation_sweep():
    for n in range(2, 7):
        assert annihilation_check(n).ok, n
    with pytest.raises(ValueError):
        annihilation_check(13)


def test_annihilation_fault_injection():
    bad = [lambda_closed(4, d) for d in range(3)]
    bad[0] = bad[0] + 1
    report = annihilation_check(4, eigenvalues=bad)
    assert not report.ok and report.details


def test_trace_moments():
    # tr(Y) at n=2 is 3 = 1*1 + 1*2; tr(Y^2) at n=3 is 11/2 = 1 + 2*(9/4)
    assert trace_moment_check(2).ok
    assert trace_moment_check(3).ok
    for n in range(2, 7):
        assert trace_moment_check(n).ok, n
    bad = [lambda_closed(4, d) for d in range(3)]
    bad[1] = bad[1] * 2
    assert not trace_moment_check(4, spectrum=bad).ok


def test_parity_powers_scaled_to_integers():
    for n, scale in ((8, 35), (9, 128)):
        powers = _ParityPowers(build_Y(n))
        assert powers.scale == scale
        assert all(type(x) is int for b in powers.blocks for row in b for x in row)
    assert _exact_int(Q(6, 3), "entry") == 2
    with pytest.raises(InconsistentBlockError):
        _exact_int(Q(7, 3), "entry")  # refused, never truncated to 2


def test_parity_powers_match_rational_products():
    # independent oracle: Fraction powers of the unscaled parity blocks
    for n in range(2, 8):
        y = build_Y(n)
        powers = _ParityPowers(y)
        rational = []
        for block in _parity_split(y):
            base = [[Fraction(str(x)) for x in row] for row in block]
            size = len(base)
            plist = [[[Fraction(int(i == j)) for j in range(size)] for i in range(size)], base]
            while len(plist) <= cb.d_max(n) + 3:
                plist.append(xm.mat_mul(plist[-1], base))
            rational.append(plist)
        for m in range(cb.d_max(n) + 4):
            assert powers.trace(m) == sum(xm.mat_trace(p[m]) for p in rational), (n, m)
        roots = [Q(0)] + [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
        for coeffs in (
            _poly_from_roots(roots),
            _poly_from_roots(roots[1:]),
            [Q(1, 3), Q(-2), Q(0), Q(5, 7)],
        ):
            common, values = powers.polynomial(coeffs)
            for value, plist in zip(values, rational):
                direct = [[Fraction(0)] * len(plist[0]) for _ in plist[0]]
                for c, power in zip(coeffs, plist):
                    c = Fraction(str(c))
                    direct = [[x + c * y for x, y in zip(rd, rp)] for rd, rp in zip(direct, power)]
                assert [[Fraction(v, common) for v in row] for row in value] == direct, n


def test_parity_powers_detect_tiny_perturbation():
    # a shift far below the scale's resolution must still be seen exactly
    for n in range(2, 8):
        powers = _ParityPowers(build_Y(n))
        dmax = cb.d_max(n)
        eps = Q(1, powers.scale ** (dmax + 2))
        exact = [lambda_closed(n, d) for d in range(dmax + 1)]
        for d in range(dmax + 1):
            bad = exact[:d] + [exact[d] + eps] + exact[d + 1 :]
            assert not trace_moment_check(n, spectrum=bad, powers=powers).ok, (n, d)
            if exact.count(exact[d]) == 1:  # a collision keeps the true root
                assert not annihilation_check(n, eigenvalues=bad, powers=powers).ok, (n, d)


def test_rank():
    for n in range(2, 8):
        assert rank_check(n).ok, n
    with pytest.raises(ValueError):
        rank_check(11)


def test_order_report():
    r3 = distinctness_and_order_report(3)
    assert r3.positive and r3.distinct and r3.report.ok
    assert r3.observed_order == (1, 0)
    assert not r3.claimed_chain_holds  # documented discrepancy, not a failure
    r5 = distinctness_and_order_report(5)
    assert r5.observed_order == (2, 0, 1) and r5.distinct
    r6 = distinctness_and_order_report(6)
    assert r6.positive and not r6.distinct and r6.report.ok
    for n in range(2, 41):
        rep = distinctness_and_order_report(n)
        assert rep.positive and rep.report.ok, n
        assert rep.distinct == (n % 2 == 1 or n <= 4), n


def test_certificate():
    for n in range(2, 7):
        cert = exact_spectrum_certificate(n)
        assert cert.ok, (n, cert.report.details)
        assert cert.annihilation_ok and cert.traces_ok and cert.positive_ok
        assert cert.rank_ok
        assert cert.zero_multiplicity == zero_multiplicity(n)
        assert len(cert.eigenvalues) == cb.d_max(n) + 1
    cert6 = exact_spectrum_certificate(6)
    assert cert6.ok and not cert6.distinct_ok


def test_E_xS_hT_closed_frozen():
    assert E_xS_hT_closed(4, 1, 1, 0) == Q(-1, 3)
    assert E_xS_hT_closed(5, 2, 0, 0) == Q(-1, 4)
    assert E_xS_hT_closed(5, 1, 0, 0) == 0  # odd gap
    with pytest.raises(ValueError):
        E_xS_hT_closed(5, 1, 2, 0)  # d > d'
    with pytest.raises(ValueError):
        E_xS_hT_closed(5, 2, 2, 3)  # ell > d
    # disjoint same-size supports are fine: S={1,2}, T={3,4} in [4]
    assert E_xS_hT_closed(4, 2, 2, 0) == contract_x_h(4, 0b0011, 0b1100)


def test_E_xS_hT_closed_vs_contraction():
    for n in range(2, 7):
        for d in range(cb.d_max(n) + 1):
            for dp in range(d, cb.d_max(n) + 1):
                for ell in range(d + 1):
                    if d - ell > n - dp:
                        continue
                    s = (1 << dp) - 1
                    t = ((1 << ell) - 1) | (((1 << (d - ell)) - 1) << dp)
                    assert E_xS_hT_closed(n, dp, d, ell) == contract_x_h(n, s, t), (
                        n,
                        dp,
                        d,
                        ell,
                    )


def test_eta_routes_agree():
    for n in range(2, 9):
        for d in range(cb.d_max(n) + 1):
            for dp in range(d, cb.d_max(n) + 1):
                assert eta_sq(n, dp, d) == eta_sq_summation(n, dp, d), (n, dp, d)
                if (dp - d) % 2 == 1:
                    assert eta_sq(n, dp, d) == 0


def test_eta_and_frame_const_frozen():
    # eta^2_{d,d} = (dim / C(n,d)) (1/d!) (n/(n-1))^d and f_{d,d} drops the ratio
    for n in range(2, 9):
        for d in range(cb.d_max(n) + 1):
            dim = multiplicity(n, d)
            expected = Q(dim, cb.binomial(n, d)) * Q(n, n - 1) ** d / math.factorial(d)
            assert eta_sq(n, d, d) == expected
            assert frame_const(n, d, d) == Q(n, n - 1) ** d / math.factorial(d)
    assert eta_sq(3, 1, 1) == 1
    # d = 0 row: eta^2_{d',0} = a_{d'}^2
    from cubemoments.pseudomoments import a_coeff

    for n in range(2, 9):
        for dp in range(cb.d_max(n) + 1):
            assert eta_sq(n, dp, 0) == a_coeff(n, dp) ** 2


def test_lambda_via_frames():
    assert lambda_via_frames(3, 1) == Q(3, 2)


def test_gram_reconstruction():
    for n in range(2, 6):
        assert gram_reconstruction_check(n).ok, n
    with pytest.raises(ValueError):
        gram_reconstruction_check(9)


def test_numeric_eigensolve():
    eigs = numeric_eigensolve(3)
    assert len(eigs) == 4
    for got, want in zip(eigs, [1.5, 1.5, 1.0, 0.0]):
        assert abs(got - want) <= 1e-9
    # multiset agreement at n=8 within 1e-9 relative
    n = 8
    eigs = numeric_eigensolve(n)
    exact = []
    for d in range(cb.d_max(n) + 1):
        exact += [float(lambda_closed(n, d))] * multiplicity(n, d)
    exact += [0.0] * zero_multiplicity(n)
    exact.sort(reverse=True)
    assert len(eigs) == len(exact) == cb.binomial_le(n, 4)
    for got, want in zip(eigs, exact):
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)
    with pytest.raises(ValueError):
        numeric_eigensolve(15)
