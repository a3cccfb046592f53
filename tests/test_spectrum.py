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
    # the dense pass and rank_check read parity_blocks' int64 blocks den * Y
    for n, scale in ((8, 35), (9, 128)):
        y = build_Y(n)
        parts, den = parity_blocks(y)
        assert den == scale
        for (masks, block), rational in zip(parts, _split(y)):
            assert block.dtype == np.int64
            assert masks == [s for s in y.subsets if s.bit_count() & 1 == masks[0].bit_count() & 1]
            assert block.tolist() == [[int(x * den) for x in row] for row in rational]
    assert xm.integer_form([[Q(6, 3), Q(1, 2)], [Q(-5, 6), 0]]) == ([[12, 3], [-5, 0]], 6)
    assert xm._scaled_int(Q(2, 3), 3) == 2
    with pytest.raises(InconsistentBlockError):
        xm._scaled_int(Q(7, 3), 1)  # refused, never truncated to 2


def _rational_powers(y, top):
    # [I, B, ..., B^top] in Fractions for each unscaled parity block of Y
    out = []
    for block in _split(y):
        base = [[Fraction(str(x)) for x in row] for row in block]
        size = len(base)
        plist = [[[Fraction(int(i == j)) for j in range(size)] for i in range(size)], base]
        while len(plist) <= top:
            plist.append(xm.mat_mul(plist[-1], base))
        out.append(plist)
    return out


def _annihilation_witness(rational, eigenvalues):
    # the first nonzero entry of Y prod_d (Y - lambda_d I), in block then
    # row-major order, from the Fraction powers, as the pass words it
    coeffs = [Fraction(str(c)) for c in _poly_from_roots([Q(0), *eigenvalues])]
    for b, plist in enumerate(rational):
        direct = [[Fraction(0)] * len(plist[0]) for _ in plist[0]]
        for c, power in zip(coeffs, plist):
            direct = [[x + c * y for x, y in zip(rd, rp)] for rd, rp in zip(direct, power)]
        for i, row in enumerate(direct):
            for j, v in enumerate(row):
                if v:
                    return f"block {b} entry ({i},{j}) = {Q(v.numerator, v.denominator)}"
    return None


def test_parity_powers_match_rational_products():
    # independent oracle: Fraction powers of the unscaled parity blocks.
    # Raising lambda_0 > 0 by 1 raises every right-hand side, so each trace
    # the pass takes is written into its report and read back here.
    for n in range(2, 8):
        y = build_Y(n)
        dmax = cb.d_max(n)
        rational = _rational_powers(y, dmax + 3)
        mults = [multiplicity(n, d) for d in range(dmax + 1)]
        exact = [lambda_closed(n, d) for d in range(dmax + 1)]
        for values in (exact, [exact[0] + 1, *exact[1:]]):
            ann, traces = sp._dense_pass(n, values, parity_blocks(y))
            details = []
            for m in range(1, dmax + 4):
                want = sum(sum(p[m][i][i] for i in range(len(p[m]))) for p in rational)
                rhs = sum(mu * lam**m for mu, lam in zip(mults, values))
                if want != rhs:
                    details.append(f"trace moment m={m} at n={n}: {Q(want)} != {rhs}")
            assert traces.details == details, n
            assert len(details) == (0 if values is exact else dmax + 3), n
            witness = _annihilation_witness(rational, values)
            # a collision keeps lambda_0 a root of the shifted polynomial
            assert (witness is None) == (values is exact or exact.count(exact[0]) > 1), n
            assert ann.details == [] if witness is None else [
                f"annihilating polynomial nonzero at n={n}: {witness}"
            ], n


def test_parity_powers_detect_tiny_perturbation():
    # a shift far below the scale's resolution must still be seen exactly
    for n in range(2, 9):
        parity = parity_blocks(build_Y(n))
        dmax = cb.d_max(n)
        eps = Q(1, parity[1] ** (dmax + 2))
        exact = [lambda_closed(n, d) for d in range(dmax + 1)]
        for d in range(dmax + 1):
            bad = exact[:d] + [exact[d] + eps] + exact[d + 1 :]
            ann, traces = sp._dense_pass(n, bad, parity)
            assert not traces.ok, (n, d)
            if exact.count(exact[d]) == 1:  # a collision keeps the true root
                assert not ann.ok, (n, d)


def test_parity_powers_witness_needs_several_primes():
    # lambda_0 + 2^40 makes a witness too large for one prime below 2^21;
    # it comes back whole and signed by CRT, equal to the rational entry
    n = 4
    bad = [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
    bad[0] += 2**40
    witness = _annihilation_witness(_rational_powers(build_Y(n), cb.d_max(n) + 3), bad)
    value = Q(witness.rsplit(" = ", 1)[1])
    assert 2 * abs(value.numerator) > xm.POWER_PRIMES[0], witness
    report = annihilation_check(n, eigenvalues=bad)
    assert report.details == [f"annihilating polynomial nonzero at n={n}: {witness}"]


def test_annihilation_takes_as_many_primes_as_the_bound_needs(monkeypatch):
    # the pass decides M_b = sum_j k_j B^j under the primes whose product
    # exceeds 2S, S = |k_0| + sum_{j>=1} |k_j| m^(j-1) T^j; k_0 = 0 here (0
    # is a root), so a bound of |k_0| alone would take one prime, too few
    # from n = 5 on.  Each trace moment takes its own prefix, for 2 sum_b
    # size_b^m T^m.
    original = xm.primes_exceeding
    taken = []

    def recorded(bound):
        taken.append(original(bound))
        return taken[-1]

    for n in range(2, 10):
        parity = parity_blocks(build_Y(n))
        (parts, scale), dmax = parity, cb.d_max(n)
        coeffs = _poly_from_roots([Q(0)] + [lambda_closed(n, d) for d in range(dmax + 1)])
        scaled = [Q(c) / Q(scale) ** j for j, c in enumerate(coeffs)]
        common = math.lcm(*(int(q.denominator) for q in scaled))
        k = [int(q * common) for q in scaled]
        m = max(len(block) for _, block in parts)
        t = max(int(np.abs(block).max()) for _, block in parts)
        bound = abs(k[0]) + sum(abs(k[j]) * m ** (j - 1) * t**j for j in range(1, len(k)))
        traces = [
            original(2 * sum(len(block) ** e * t**e for _, block in parts))
            for e in range(1, dmax + 4)
        ]
        taken.clear()
        monkeypatch.setattr(xm, "primes_exceeding", recorded)
        ann, moments = sp._dense_pass(n, None, parity)
        monkeypatch.setattr(xm, "primes_exceeding", original)
        assert ann.ok and moments.ok, n
        assert k[0] == 0 and taken == [original(2 * bound), *traces], n
        assert n < 5 or len(taken[0]) > 1, n


def test_certificate_forms_the_frozen_count_of_power_products(monkeypatch):
    # the counts of the per-prime power cache this pass replaced: each
    # prime forms the powers the quantities taken there read, no more
    frozen = {2: 4, 3: 4, 4: 10, 5: 12, 6: 16, 7: 22, 8: 32, 9: 38}
    product = xm.power_product
    calls = []

    def counted(a, b, p):
        calls.append(p)
        return product(a, b, p)

    monkeypatch.setattr(xm, "power_product", counted)
    for n, want in frozen.items():
        calls.clear()
        assert exact_spectrum_certificate(n).ok, n
        assert len(calls) == want, n


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
        (masks, block), _ = parity_blocks(y)[0]
        assert sp._pinned_rank(n, 0, masks, block) is None, n
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
        parity = parity_blocks(build_Y(n))
        parts, _ = parity
        last = subsets(n, cb.d_max(n) - 1)[-1]
        b = 1 - (last.bit_count() & 1)  # the block whose kernel holds v_last
        other = sp._pinned_rank(n, 1 - b, *parts[1 - b])
        with monkeypatch.context() as patch:
            patch.setattr(cb, "enumerate_subsets", lambda n, d: [*subsets(n, d), last])
            patch.setattr(xm, "rank", counted)
            assert sp._pinned_rank(n, b, *parts[b]) is None, n
            assert sp._pinned_rank(n, 1 - b, *parts[1 - b]) == other, n
            sizes.clear()
            assert rank_check(n, parity).ok, n
            assert sizes == [len(parts[b][1])], n


def test_rank_check_needs_no_bareiss_rank_on_a_true_Y(monkeypatch):
    # every block is pinned on parity_blocks' int64 arrays: no integer form,
    # no Bareiss elimination and no Bareiss rank
    held = {n: parity_blocks(build_Y(n)) for n in range(2, 11)}

    def refuse(*args, **kwargs):
        raise AssertionError("Python-int route called on a pinned block")

    for name in ("integer_form", "rank", "eliminate"):
        monkeypatch.setattr(xm, name, refuse)
    for n, parity in held.items():
        assert rank_check(n, parity).ok, n


def test_rank_check_reads_powers_without_changing_them():
    # the dense pass and rank_check read the blocks they are given as they are
    for n in range(4, 9):
        parity = parity_blocks(build_Y(n))
        blocks = [block.copy() for _, block in parity[0]]
        ann, traces = sp._dense_pass(n, None, parity)
        assert ann.ok and traces.ok, n
        assert rank_check(n, parity).ok, n
        assert all(np.array_equal(block, copy) for (_, block), copy in zip(parity[0], blocks)), n


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
    assert annihilation_check(n).ok
    traces = trace_moment_check(n)
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
    _corrupt_moment(monkeypatch)
    for n in range(4, 8):
        report = gram_reconstruction_check(n)
        assert not report.ok, n
        assert report.details == [_reconstruction_miss(n)], n
    assert report.details == [
        "frame reconstruction does not reproduce Y at n=7: entry S=1, T=11 is off by 1/1400"
    ]


def test_gram_reconstruction_fails_on_wrong_degree_weight(monkeypatch):
    # sigma_1^2 + 1 changes only the weight of the degree-1 columns of U
    _corrupt_degree_weight(monkeypatch)
    for n in range(4, 7):
        report = gram_reconstruction_check(n)
        assert not report.ok, n
        assert report.details == [_reconstruction_miss(n)], n


def _reconstruction_miss(n):
    # the dense route: U and U W filled entry by entry from the same tables,
    # (U W) U^T as one rational product, compared with Y entrywise; the
    # witness of its first entry off Y in row-major order, or None
    y = sp.build_Y(n)
    u, uw = [[] for _ in y.subsets], [[] for _ in y.subsets]
    for d, (values, weighted) in enumerate(sp.frame_tables(n)):
        for row, wrow, s in zip(u, uw, y.subsets):
            keys = [(s.bit_count(), (s & r).bit_count()) for r in cb.subsets_of_size(n, d)]
            row.extend(values[key] for key in keys)
            wrow.extend(weighted[key] for key in keys)
    product = xm.rational_product(uw, list(zip(*u)))
    for s, got_row, want_row in zip(y.subsets, product, rational_rows(y)):
        for t, got, want in zip(y.subsets, got_row, want_row):
            if got != want:
                return (
                    f"frame reconstruction does not reproduce Y at n={n}: "
                    f"entry S={s:b}, T={t:b} is off by {got - want}"
                )
    return None


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
        miss = _reconstruction_miss(n)
        assert gram_reconstruction_check(n).details == ([] if miss is None else [miss]), n
        # the corrupted (d', d, ell) = (2, 1, 1) moment is read only from n = 4
        assert (miss is None) == (corrupt is None or (corrupt is _corrupt_moment and n < 4)), n


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
