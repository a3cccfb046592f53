"""Eigenvalue closed forms, exact certificates, frame constants."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubemoments
from cubemoments import combinatorics as cb
from cubemoments import exactmat as xm
from cubemoments import pseudomoments as pm
from cubemoments import spectrum as sp
from cubemoments.errors import ConvergenceError, InconsistentBlockError
from cubemoments.apolar import sigma_sq
from cubemoments.pseudomoments import (
    E_hS_squared,
    a_coeff,
    build_Y,
    contract_x_h,
    finite_difference_a,
    isotypic_coefficient,
    parity_blocks,
)
from cubemoments.scalars import Q
from cubemoments.spectrum import (
    E_xS_hT_closed,
    _ParityPowers,
    _poly_from_roots,
    annihilation_check,
    distinctness_and_order_report,
    eta_sq,
    eta_sq_summation,
    exact_spectrum_certificate,
    frame_const,
    gram_reconstruction_check,
    lambda_closed,
    lambda_via_frames,
    multiplicity,
    numeric_eigensolve,
    rank_check,
    trace_moment_check,
    zero_multiplicity,
)
from test_pseudomoments import add_to_entries, oracle_Y, rational_rows


def test_lambda_closed_frozen():
    assert lambda_closed(2, 0) == 1 and lambda_closed(2, 1) == 2
    assert lambda_closed(3, 0) == 1 and lambda_closed(3, 1) == Q(3, 2)
    assert [lambda_closed(5, d) for d in range(3)] == [Q(13, 8), Q(5, 4), Q(15, 8)]
    # d = 0 reduces to the moment-vector eigenvalue sum
    for n in range(2, 12):
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
    reports = [sp.eigenvalue_recursion_check(n) for n in range(3, 41)]
    assert all(r.ok for r in reports) and sum(r.checked for r in reports) == 399
    with pytest.raises(ValueError):
        sp.eigenvalue_recursion_check(41)


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
    y = oracle_Y(2)

    def shifted(c):  # Y - cI
        return [[v - c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(y)]

    prod = xm.mat_mul(y, xm.mat_mul(shifted(1), shifted(2)))
    assert all(v == 0 for row in prod for v in row)
    assert annihilation_check(2).ok
    assert annihilation_check(3).ok


def test_annihilation_sweep():
    for n in range(2, 7):
        assert annihilation_check(n).ok, n


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
    assert not trace_moment_check(4, eigenvalues=bad).ok


def _split(y):
    # Y's parity blocks, an oracle written apart from pseudomoments.parity_blocks
    rows = rational_rows(y)
    groups = [[i for i, s in enumerate(y.subsets) if s.bit_count() & 1 == e] for e in (0, 1)]
    return [[[rows[i][j] for j in idx] for i in idx] for idx in groups]


def test_parity_powers_scaled_to_integers():
    for n, scale in ((8, 35), (9, 128)):
        y = build_Y(n)
        powers = _ParityPowers(y)
        assert powers.scale == scale
        parts, den = parity_blocks(y)
        assert den == scale and powers.masks == [masks for masks, _ in parts]
        # each block is held once, as int64, equal to parity_blocks' blocks
        for block, (_, given_block) in zip(powers.blocks, parts):
            assert block.dtype == np.int64
            assert np.array_equal(block, given_block)
    assert xm.integer_form([[Q(6, 3), Q(1, 2)], [Q(-5, 6), 0]]) == ([[12, 3], [-5, 0]], 6)
    assert xm._scaled_int(Q(2, 3), 3) == 2
    with pytest.raises(InconsistentBlockError):
        xm._scaled_int(Q(7, 3), 1)  # refused, never truncated to 2


def test_parity_powers_match_rational_products():
    # independent oracle: Fraction powers of the unscaled parity blocks
    for n in range(2, 8):
        y = build_Y(n)
        powers = _ParityPowers(y)
        rational = []
        for block in _split(y):
            base = [[Fraction(str(x)) for x in row] for row in block]
            size = len(base)
            plist = [[[Fraction(int(i == j)) for j in range(size)] for i in range(size)], base]
            while len(plist) <= cb.d_max(n) + 3:
                plist.append(xm.mat_mul(plist[-1], base))
            rational.append(plist)
        for m in range(cb.d_max(n) + 4):
            want = sum(sum(p[m][i][i] for i in range(len(p[m]))) for p in rational)
            assert powers.trace(m) == want, (n, m)
        roots = [Q(0)] + [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
        for coeffs in (
            _poly_from_roots(roots),
            _poly_from_roots(roots[1:]),
            [Q(1, 3), Q(-2), Q(0), Q(5, 7)],
        ):
            witness = None
            for b, plist in enumerate(rational):
                direct = [[Fraction(0)] * len(plist[0]) for _ in plist[0]]
                for c, power in zip(coeffs, plist):
                    c = Fraction(str(c))
                    direct = [[x + c * y for x, y in zip(rd, rp)] for rd, rp in zip(direct, power)]
                first = next(
                    ((i, j, v) for i, row in enumerate(direct) for j, v in enumerate(row) if v),
                    None,
                )
                if first is not None:
                    i, j, v = first
                    witness = f"block {b} entry ({i},{j}) = {Q(v.numerator, v.denominator)}"
                    break
            assert powers.polynomial_is_zero(coeffs) == (witness is None, witness), n


def test_parity_powers_detect_tiny_perturbation():
    # a shift far below the scale's resolution must still be seen exactly
    for n in range(2, 9):
        powers = _ParityPowers(build_Y(n))
        dmax = cb.d_max(n)
        eps = Q(1, powers.scale ** (dmax + 2))
        exact = [lambda_closed(n, d) for d in range(dmax + 1)]
        for d in range(dmax + 1):
            bad = exact[:d] + [exact[d] + eps] + exact[d + 1 :]
            assert not trace_moment_check(n, eigenvalues=bad, powers=powers).ok, (n, d)
            if exact.count(exact[d]) == 1:  # a collision keeps the true root
                assert not annihilation_check(n, eigenvalues=bad, powers=powers).ok, (n, d)


def test_parity_powers_witness_needs_several_primes():
    # -2^40 I needs two primes below 2^21 and comes back signed by CRT
    assert len(xm.primes_exceeding(2 * 2**40)) == 2
    powers = _ParityPowers(build_Y(4))
    assert powers.polynomial_is_zero([Q(-(2**40))]) == (
        False,
        "block 0 entry (0,0) = -1099511627776",
    )
    assert powers.polynomial_is_zero([Q(0), Q(0)]) == (True, None)


def test_annihilation_takes_as_many_primes_as_the_bound_needs(monkeypatch):
    # polynomial_is_zero decides M_b = sum_j k_j B^j under the primes whose
    # product exceeds 2S, S = |k_0| + sum_{j>=1} |k_j| m^(j-1) T^j; k_0 = 0
    # here (0 is a root), so a bound of |k_0| alone would take one prime,
    # too few from n = 5 on
    original = xm.primes_exceeding
    taken = []

    def recorded(bound):
        taken.append(original(bound))
        return taken[-1]

    for n in range(2, 10):
        powers = _ParityPowers(build_Y(n))
        coeffs = _poly_from_roots([Q(0)] + [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)])
        scaled = [Q(c) / Q(powers.scale) ** j for j, c in enumerate(coeffs)]
        common = math.lcm(*(int(q.denominator) for q in scaled))
        k = [int(q * common) for q in scaled]
        m = max(len(block) for block in powers.blocks)
        t = max(int(np.abs(block).max()) for block in powers.blocks)
        bound = abs(k[0]) + sum(abs(k[j]) * m ** (j - 1) * t**j for j in range(1, len(k)))
        taken.clear()
        monkeypatch.setattr(xm, "primes_exceeding", recorded)
        assert powers.polynomial_is_zero(coeffs) == (True, None), n
        monkeypatch.setattr(xm, "primes_exceeding", original)
        assert k[0] == 0 and taken == [original(2 * bound)], n
        assert n < 5 or len(taken[0]) > 1, n


def test_certificate_takes_no_python_int_matrix_product(monkeypatch):
    def refuse(a, b):
        raise AssertionError("Python-int mat_mul called by the certificate")

    monkeypatch.setattr(xm, "mat_mul", refuse)
    for n in range(2, 10):
        assert exact_spectrum_certificate(n).ok, n


def test_certificate_computes_the_closed_forms_once(monkeypatch):
    # the order report's values feed annihilation and traces, so each
    # lambda_closed(n, d) runs once per certificate
    calls = []
    closed = sp.lambda_closed

    def counted(n, d):
        calls.append((n, d))
        return closed(n, d)

    monkeypatch.setattr(sp, "lambda_closed", counted)
    for n in range(2, 8):
        calls.clear()
        assert exact_spectrum_certificate(n).ok, n
        assert sorted(calls) == [(n, d) for d in range(cb.d_max(n) + 1)], n


def test_rank():
    for n in range(2, 9):
        assert rank_check(n).ok, n


def test_rank_check_fails_on_corrupted_Y(monkeypatch):
    # a_2 + 1/1000 on the symmetric pair (empty set, {1,2}); a same-parity
    # entry, since a cross-parity one is refused by pseudomoments.parity_blocks
    # first (tests/test_verify.py::test_cross_parity_entry_is_refused)
    def corrupted(n):
        y = build_Y(n)
        i, j = y.index[0], y.index[0b11]
        return add_to_entries(y, Q(1, 1000), [(i, j), (j, i)])

    monkeypatch.setattr(sp, "build_Y", corrupted)
    for n in range(4, 9):
        report = rank_check(n)
        expected = cb.binomial(n, cb.d_max(n))
        assert not report.ok, n
        assert report.details == [f"rank(Y) = {expected + 2} != {expected} at n={n}"]


def test_rank_check_reports_exact_rank_when_rank_drops(monkeypatch):
    # Y minus the outer product of its first row on the even block: one
    # exact Schur step on the pivot Y[0, 0] = 1, which lowers that block's
    # rank by one.  Every kernel vector v_K still vanishes (the first row
    # of Y does), so only the modular lower bound can refuse the block.
    # Over den^2 it reads den * (den Y) - (den Y)[0] (den Y)[0]^T.
    def lowered(n):
        y = build_Y(n)
        first = y.ints[0]
        even = np.ix_(*[[i for i, s in enumerate(y.subsets) if not s.bit_count() & 1]] * 2)
        y.ints = y.ints * y.den
        y.ints[even] -= np.outer(first, first)[even]
        y.den *= y.den
        return y

    monkeypatch.setattr(sp, "build_Y", lowered)
    for n in range(2, 9):
        y = lowered(n)
        bareiss = sum(xm.rank(block) for block in _split(y))
        expected = cb.binomial(n, cb.d_max(n))
        assert bareiss == expected - 1, n
        powers = _ParityPowers(y)
        assert sp._pinned_rank(powers, 0, n) is None, n
        report = rank_check(n)
        assert not report.ok, n
        assert report.details == [f"rank(Y) = {bareiss} != {expected} at n={n}"]


def test_rank_check_does_not_pin_a_block_with_a_repeated_kernel_vector(monkeypatch):
    # one v_K listed twice lowers len(B) - |V| by one while the modular lower
    # bound and B v_K = 0 still hold: only rank(V) = |V| refuses the pin, and
    # that block's rank comes from Bareiss, so the check still passes
    subsets = cb.enumerate_subsets
    bareiss = xm.rank
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return bareiss(rows)

    for n in range(4, 9):
        powers = _ParityPowers(build_Y(n))
        last = subsets(n, cb.d_max(n) - 1)[-1]
        b = 1 - (last.bit_count() & 1)  # the block whose kernel holds v_last
        other = sp._pinned_rank(powers, 1 - b, n)
        with monkeypatch.context() as patch:
            patch.setattr(cb, "enumerate_subsets", lambda n, d: [*subsets(n, d), last])
            patch.setattr(xm, "rank", counted)
            assert sp._pinned_rank(powers, b, n) is None, n
            assert sp._pinned_rank(powers, 1 - b, n) == other, n
            sizes.clear()
            assert rank_check(n, powers).ok, n
            assert sizes == [len(powers.blocks[b])], n


def test_rank_check_needs_no_bareiss_rank_on_a_true_Y(monkeypatch):
    # every block is pinned on the int64 arrays the powers hold: no integer
    # form, no Bareiss elimination and no Bareiss rank
    held = {n: _ParityPowers(build_Y(n)) for n in range(2, 11)}

    def refuse(*args, **kwargs):
        raise AssertionError("Python-int route called on a pinned block")

    for name in ("integer_form", "rank", "eliminate"):
        monkeypatch.setattr(xm, name, refuse)
    for n, powers in held.items():
        assert rank_check(n, powers).ok, n


def test_rank_check_reads_powers_without_changing_them():
    for n in range(4, 9):
        powers = _ParityPowers(build_Y(n))
        blocks = [block.copy() for block in powers.blocks]
        assert annihilation_check(n, powers=powers).ok, n
        assert trace_moment_check(n, powers=powers).ok, n
        assert rank_check(n, powers=powers).ok, n
        assert all(map(np.array_equal, powers.blocks, blocks)), n


def test_dense_checks_refuse_n_with_their_messages():
    # one guard serves the three dense checks and the certificate
    for check, n, message in (
        (annihilation_check, 13, "n must be an int in [0, 12], got 13"),
        (annihilation_check, 1, "need n >= 2, got 1"),
        (trace_moment_check, 1, "need n >= 2, got 1"),
        (rank_check, 11, "n must be an int in [0, 10], got 11"),
        (rank_check, 1, "need n >= 2, got 1"),
        (exact_spectrum_certificate, 13, "n must be an int in [0, 12], got 13"),
        (exact_spectrum_certificate, 1, "need n >= 2, got 1"),
    ):
        with pytest.raises(ValueError) as excinfo:
            check(n)
        assert str(excinfo.value) == message, check.__name__


def test_fraction_fallback_without_gmpy2():
    # gmpy2 is made unimportable before the package loads, so scalars.Q must
    # fall back to fractions.Fraction and the exact routes must still pass;
    # on a machine without gmpy2 this is the configuration every test runs in
    package_root = str(Path(cubemoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, fractions\n"
        "sys.modules['gmpy2'] = None\n"
        "from cubemoments import scalars, spectrum\n"
        "assert scalars.Q is fractions.Fraction\n"
        "assert spectrum.exact_spectrum_certificate(6).ok\n"
        "assert spectrum.rank_check(7).ok\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()


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
    assert cert6.ok and not distinctness_and_order_report(6).distinct


def test_certificate_fails_on_swapped_eigenvalues(monkeypatch):
    # at odd n the lambda_{n,d} are distinct and lambda_0, lambda_1 have
    # multiplicities 1 and n - 1: swapping them keeps the set of values, so
    # annihilation passes, and only the trace moments can refuse it
    n = 5
    closed = sp.lambda_closed
    monkeypatch.setattr(sp, "lambda_closed", lambda n, d: closed(n, {0: 1, 1: 0}.get(d, d)))
    cert = exact_spectrum_certificate(n)
    assert cert.annihilation_ok and cert.rank_ok
    assert not cert.traces_ok
    assert not cert.ok
    report = sp.exact_certificate_check(n)
    assert not report.ok
    assert report.details[0].startswith(f"trace moment m=1 at n={n}: ")
    assert report.details[-1] == (
        f"certificate failed at n={n}: annihilation=True, traces=False, rank=True"
    )


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_trace_moments_refuse_multiplicities_shifted_in_the_vandermonde_kernel(monkeypatch, n):
    # at odd n the values v = (0, lambda_0..lambda_dmax) are distinct, and
    # delta_j, an integer multiple of 1 / prod_{i != j} (v_j - v_i), is
    # orthogonal to the rows v^m for m = 0..dmax: shifting the multiplicities
    # by delta keeps their total and every trace up to dmax, so only
    # m = dmax + 1 can refuse it
    dmax = cb.d_max(n)
    values = [Q(0)] + [lambda_closed(n, d) for d in range(dmax + 1)]
    assert len(set(values)) == len(values)
    weights = [1 / math.prod(v - w for w in values if w != v) for v in values]
    scale = math.lcm(*(w.denominator for w in weights))
    delta = [int(w * scale) for w in weights]
    assert all(sum(x * v**m for x, v in zip(delta, values)) == 0 for m in range(dmax + 1))
    mult, zero = sp.multiplicity, sp.zero_multiplicity
    monkeypatch.setattr(sp, "multiplicity", lambda n, d: mult(n, d) + delta[d + 1])
    monkeypatch.setattr(sp, "zero_multiplicity", lambda n: zero(n) + delta[0])
    total = sum(sp.multiplicity(n, d) for d in range(dmax + 1)) + sp.zero_multiplicity(n)
    assert total == cb.binomial_le(n, dmax)
    powers = _ParityPowers(build_Y(n))
    assert annihilation_check(n, powers=powers).ok
    traces = trace_moment_check(n, powers=powers)
    assert traces.details[0].startswith(f"trace moment m={dmax + 1} at n={n}: ")
    cert = exact_spectrum_certificate(n)
    assert cert.annihilation_ok and not cert.traces_ok
    assert f"multiplicity total mismatch at n={n}" not in cert.report.details
    assert not cert.ok


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


def test_contraction_vanishes_below_the_harmonic_degree():
    # the zeros frame_tables takes for |S| < |R|, by direct contraction
    for n in range(2, 9):
        tables = sp.frame_tables(n)
        for d in range(cb.d_max(n) + 1):
            for dp in range(d):
                for ell, s, r in cb.overlap_pairs(n, dp, d):
                    assert contract_x_h(n, s, r) == 0, (n, dp, d, ell)
                    assert tables[d][0][dp, ell] == 0


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


def test_gram_reconstruction_fails_on_corrupted_moment(monkeypatch):
    def corrupted(n, d_prime, d, ell):
        value = E_xS_hT_closed(n, d_prime, d, ell)
        return value + Q(1, 1000) if (d_prime, d, ell) == (2, 1, 1) else value

    monkeypatch.setattr(sp, "E_xS_hT_closed", corrupted)
    for n in range(4, 8):
        report = gram_reconstruction_check(n)
        assert not report.ok, n
        assert report.details == [f"frame reconstruction does not reproduce Y at n={n}"]


def test_gram_reconstruction_fails_on_wrong_degree_weight(monkeypatch):
    # sigma_1^2 + 1 changes only the weight of the degree-1 columns of U
    original = sp.sigma_sq

    def corrupted(n, d):
        return original(n, d) + (1 if d == 1 else 0)

    monkeypatch.setattr(sp, "sigma_sq", corrupted)
    for n in range(4, 7):
        report = gram_reconstruction_check(n)
        assert not report.ok, n
        assert report.details == [f"frame reconstruction does not reproduce Y at n={n}"]


def _reconstruction_by_rational_product(n):
    # the dense route: U and U W filled entry by entry from the same tables,
    # (U W) U^T as one rational product, compared with Y entrywise
    y = sp.build_Y(n)
    u, uw = [[] for _ in y.subsets], [[] for _ in y.subsets]
    for d, (values, weighted) in enumerate(sp.frame_tables(n)):
        for row, wrow, s in zip(u, uw, y.subsets):
            keys = [(s.bit_count(), (s & r).bit_count()) for r in cb.subsets_of_size(n, d)]
            row.extend(values[key] for key in keys)
            wrow.extend(weighted[key] for key in keys)
    return xm.rational_product(uw, list(zip(*u))) == rational_rows(y)


def _corrupt_moment(monkeypatch):
    def corrupted(n, d_prime, d, ell):
        value = E_xS_hT_closed(n, d_prime, d, ell)
        return value + Q(1, 1000) if (d_prime, d, ell) == (2, 1, 1) else value

    monkeypatch.setattr(sp, "E_xS_hT_closed", corrupted)


def _corrupt_degree_weight(monkeypatch):
    original = sp.sigma_sq
    monkeypatch.setattr(sp, "sigma_sq", lambda n, d: original(n, d) + (1 if d == 1 else 0))


def _corrupt_Y_entry(monkeypatch):
    original = sp.build_Y

    def corrupted(n):
        y = original(n)
        return add_to_entries(y, Q(1, 7), [(y.size - 1, 1)])

    monkeypatch.setattr(sp, "build_Y", corrupted)


@pytest.mark.parametrize(
    "corrupt", [None, _corrupt_moment, _corrupt_degree_weight, _corrupt_Y_entry]
)
def test_gram_reconstruction_zero_test_matches_the_rational_product(monkeypatch, corrupt):
    if corrupt:
        corrupt(monkeypatch)
    for n in range(2, sp.RECONSTRUCTION_MAX_N + 1):
        want = _reconstruction_by_rational_product(n)
        assert gram_reconstruction_check(n).ok == want, n
        # the corrupted (d', d, ell) = (2, 1, 1) moment is read only from n = 4
        assert want == (corrupt is None or (corrupt is _corrupt_moment and n < 4)), n


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


def test_block_guard_refuses_inconsistent_blocks():
    for n in (4, 7, 8):
        (a,), _ = xm.integer_form([[a_coeff(n, k) for k in range(n + 1)]])
        blocks = sp.terwilliger_blocks(n, a)
        sp._block_guard(n, a, blocks)
        k, mult, m, c = blocks[1]
        raised = [row[:] for row in m]
        raised[0][1] += 1
        raised[1][0] += 1
        for corrupt in (
            (k, mult, raised, c),  # one symmetric pair of entries raised
            (k, mult, [row[:-1] for row in m[:-1]], c[:-1]),  # one row and column dropped
            (k, mult + 1, m, c),  # a multiplicity off by one
        ):
            bad = blocks[:1] + [corrupt] + blocks[2:]
            with pytest.raises(InconsistentBlockError, match=f"at n={n}$"):
                sp._block_guard(n, a, bad)


def test_block_guard_refuses_a_beta_off_by_one(monkeypatch):
    # a_2 added to g[1][2] adds a_2 to M_1[1][1], the term beta^0_{1,1,1} + 1
    # would add (and n a_2 to M_0[1][1]), before the guard sees it; the same
    # entry is the alternating sum a_0 - a_2 the closed form is checked against
    original = pm.difference_table

    def off_by_one(n, a):
        g = original(n, a)
        g[1][2] += a[2]
        return g

    monkeypatch.setattr(pm, "difference_table", off_by_one)
    monkeypatch.setattr(sp, "difference_table", off_by_one)
    for n in (4, 7, 8):
        with pytest.raises(InconsistentBlockError, match=f"at n={n}$"):
            numeric_eigensolve(n)
        report = pm.finite_difference_check(n)
        assert not report.ok, n
        closed = pm.finite_difference_a(n, 1, 0)
        assert report.details == [f"difference routes at n={n}, a=1, k=0: {closed} != 1"]
    assert pm.finite_difference_a(7, 1, 0) == Q(7, 6)


def test_pair_counts_match_enumeration():
    # the guard's reference norm sum_k a_k^2 P[k] rests on these counts
    for n in range(2, 11):
        masks = cb.enumerate_subsets(n, cb.d_max(n))
        want = [0] * (n + 1)
        for s in masks:
            for t in masks:
                want[(s ^ t).bit_count()] += 1
        assert sp._pair_counts(n) == want, n


def test_block_spectrum_matches_dense_eigvalsh(monkeypatch):
    # a random moment vector, not the paper's, odd a_k kept: the blocks rest
    # only on Y[S,T] depending on |S xor T|, and each sees the whole Y
    rng = np.random.default_rng(20)
    for n in range(2, 11):
        a = rng.uniform(-1.0, 1.0, n + 1)
        monkeypatch.setattr(sp, "a_coeff", lambda _n, k: a[k])
        got = numeric_eigensolve(n)
        masks = np.array(cb.enumerate_subsets(n, cb.d_max(n)), dtype=np.int16)
        want = np.linalg.eigvalsh(a[np.bitwise_count(masks[:, None] ^ masks[None, :])])[::-1]
        assert len(got) == len(want) == cb.binomial_le(n, cb.d_max(n))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (n, g, w)


def test_block_diagonal_is_the_frame_table():
    # B_k[i][i] = sigma_k^2 f_{i,k} and tr B_k = lambda_{n,k}, exactly: the
    # block route read against the paper's Gram construction
    for n in range(2, 31):
        (a,), scale = xm.integer_form([[a_coeff(n, k) for k in range(n + 1)]])
        for k, mult, m, c in sp.terwilliger_blocks(n, a):
            assert mult == multiplicity(n, k)
            assert all(type(x) is int for row in m for x in row), (n, k)
            diagonal = [Q(m[r][r], scale * c[r]) for r in range(len(m))]
            frames = [sigma_sq(n, k) * frame_const(n, i, k) for i in range(k, cb.d_max(n) + 1)]
            assert diagonal == frames, (n, k)
            assert sum(diagonal) == lambda_closed(n, k), (n, k)


def _beta(n, k, i, j, t):
    """Schrijver's beta^t_{i,j,k} = sum_u (-1)^(u-t) C(u,t) C(n-2k,u-k)
    C(n-k-u,i-u) C(n-k-u,j-u), over ints, the sign by a parity test.  Terms
    vanish outside max(k, t) <= u <= min(i, j), and inside it every argument
    of math.comb is nonnegative."""
    total = 0
    for u in range(max(k, t), min(i, j) + 1):
        rest = n - k - u
        term = math.comb(u, t) * math.comb(n - 2 * k, u - k)
        term *= math.comb(rest, i - u) * math.comb(rest, j - u)
        total += -term if (u - t) & 1 else term
    return total


def test_terwilliger_blocks_are_symmetric_and_match_a_full_fill():
    # the builder sums over the overlap u outside t and mirrors the upper
    # triangle; the reference computes every entry M_k[i][j] on its own from
    # Schrijver's definition, sum_t beta^t_{i,j,k} a_{i+j-2t}, over ints
    for n in [*range(2, 21), 62]:
        (a,), _ = xm.integer_form([[a_coeff(n, k) for k in range(n + 1)]])
        for k, _, m, _ in sp.terwilliger_blocks(n, a):
            sizes = range(k, cb.d_max(n) + 1)
            full = [
                [
                    sum(_beta(n, k, i, j, t) * a[i + j - 2 * t] for t in range(min(i, j) + 1))
                    for j in sizes
                ]
                for i in sizes
            ]
            assert m == [list(row) for row in zip(*m)], (n, k)
            assert m == full, (n, k)


def test_numeric_agreement_fails_on_corrupted_a2(monkeypatch):
    # the float side sees a_2 + 1/1000, the closed side keeps the paper's a
    closed = {(n, d): lambda_closed(n, d) for n in range(4, 9) for d in range(cb.d_max(n) + 1)}
    monkeypatch.setattr(sp, "lambda_closed", lambda n, d: closed[(n, d)])
    monkeypatch.setattr(
        sp, "a_coeff", lambda n, k: a_coeff(n, k) + (Q(1, 1000) if k == 2 else 0)
    )
    for n in range(4, 9):
        report = sp.numeric_agreement_check(n)
        assert not report.ok, n
        assert report.details[0].startswith("numeric spectrum off by"), report.details


def test_numeric_eigensolve_names_failing_block(monkeypatch):
    def diverge(block):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    with pytest.raises(ConvergenceError, match="at n=5, block k=0, size 3: no convergence"):
        numeric_eigensolve(5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_forms_return_exact_rationals(data):
    # every closed form is a Q, never a float, at any n up to the guard
    n = data.draw(st.integers(2, sp.ORDER_MAX_N), label="n")
    d = data.draw(st.integers(0, cb.d_max(n)), label="d")
    d_prime = data.draw(st.integers(d, cb.d_max(n)), label="d_prime")
    ell = data.draw(st.integers(0, d), label="ell")
    overlap = data.draw(st.integers(max(0, 2 * d - n), d), label="overlap")
    a = data.draw(st.integers(0, n // 2), label="a")
    k = data.draw(st.integers(0, n // 2 - a), label="k")
    values = {
        "lambda_closed": lambda_closed(n, d),
        "E_xS_hT_closed": E_xS_hT_closed(n, d_prime, d, ell),
        "eta_sq": eta_sq(n, d_prime, d),
        "sigma_sq": sigma_sq(n, d),
        "frame_const": frame_const(n, d_prime, d),
        "lambda_via_frames": lambda_via_frames(n, d),
        "E_hS_squared": E_hS_squared(n, d),
        "isotypic_coefficient": isotypic_coefficient(n, d, overlap),
        "finite_difference_a": finite_difference_a(n, a, k),
        "a_coeff": a_coeff(n, data.draw(st.integers(0, n), label="moment")),
    }
    assert {name: type(v) for name, v in values.items()} == dict.fromkeys(values, Q)
