"""Eigenvalues of the pseudomoment matrices and their exact certification.

The matrix Y indexed by subsets of size at most floor(n/2) has exactly
d_max + 2 distinct eigenvalues: zero, and one positive value lambda_{n,d}
for each degree d.  This module carries the closed form for lambda_{n,d},
the cross-level recursion lambda_{n,d} = (n/(n-1)) lambda_{n-2,d-1}, the
multiplicity counts, and three independent verification routes:

* exact annihilation: Y prod_d (Y - lambda_{n,d} I) = 0, so the spectrum is
  contained in the claimed set;
* exact trace moments: tr(Y^m) matches sum_d mult_d lambda_d^m, which pins
  the multiplicities (a Vandermonde argument on distinct values);
* a floating eigensolver on the parity blocks as a numeric cross-check.

Annihilation plus traces plus positivity of the closed-form values is an
exact proof that Y is positive semidefinite.

The frame-constant route rebuilds the same eigenvalues from the harmonic
frame: eta^2_{d',d} is the apolar norm of the degree-d harmonic component
of a size-d' monomial, f_{d',d} the associated frame constant, and
lambda_{n,d} = sigma_d^2 sum_{d'>=d} f_{d',d}.  gram_reconstruction_check
rebuilds Y itself as sum_d sigma_d^2 G_d from rank-one sums of the values
E[x^S h_R], each G_d a scaled exact Gram matrix.

Two cautions, both verified by this module's own exact arithmetic.  The
claimed strict chain (lambda decreasing in d) is refuted by the closed form
already at n = 3, where lambda_{3,1} = 3/2 > lambda_{3,0} = 1.  And the
nonzero values are not always pairwise distinct: at every even n from 6 to
40 some coincide exactly (lambda_{6,0} = lambda_{6,2} = 8/5; lambda_{10,0} =
lambda_{10,2} = lambda_{10,4} = 128/63), while all odd n <= 39 are distinct.
distinctness_and_order_report therefore asserts only positivity and reports
distinctness and the observed order as observations; the annihilation and
trace certificates are unaffected (they never assumed distinctness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import combinatorics as cb
from . import exactmat as xm
from .apolar import sigma_sq
from .errors import ConvergenceError, InconsistentBlockError
from .pseudomoments import (
    PseudomomentMatrix,
    a_coeff,
    build_Y,
    isotypic_h,
    pseudo_expect,
    x_monomial,
)
from .report import Report
from .scalars import Q, QZERO

ANNIHILATION_MAX_N = 12
RANK_MAX_N = 10
ORDER_MAX_N = 40
RECONSTRUCTION_MAX_N = 8
NUMERIC_MAX_N = 14


def lambda_closed(n: int, d: int):
    """Closed form for the degree-d eigenvalue:

    lambda_{n,d} = n! sum_{k=d}^{d_max} a_{k-d}^2 / ((n-d-k)! (k-d)!)
                   prod_{i<d} 1/(n-2i-1-k+d)^2
    """
    cb.check_n(n, cap=cb.MAX_N)
    if n < 1 or not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need n >= 1 and 0 <= d <= n/2, got n={n}, d={d}")
    total = QZERO
    for k in range(d, cb.d_max(n) + 1):
        term = a_coeff(n, k - d) ** 2 / Q(
            math.factorial(n - d - k) * math.factorial(k - d)
        )
        for i in range(d):
            term = term / Q((n - 2 * i - 1 - k + d) ** 2)
        total = total + term
    return math.factorial(n) * total


def multiplicity(n: int, d: int) -> int:
    """Eigenvalue multiplicity C(n,d) - C(n,d-1), the two-row irrep dimension."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    return cb.binomial(n, d) - cb.binomial(n, d - 1)


def zero_multiplicity(n: int) -> int:
    """Dimension of the kernel of Y: C(n, <= d_max - 1)."""
    return cb.binomial_le(n, cb.d_max(n) - 1)


def lambda_recursion_check(n_max: int) -> Report:
    """lambda_{n,d} = (n/(n-1)) lambda_{n-2,d-1} from the closed form alone,
    for all 3 <= n <= n_max and every admissible d."""
    if n_max > ORDER_MAX_N:
        raise ValueError(f"guarded at n <= {ORDER_MAX_N}, got {n_max}")
    report = Report()
    for n in range(3, n_max + 1):
        for d in range(1, cb.d_max(n) + 1):
            if d - 1 > cb.d_max(n - 2):
                continue
            lhs = lambda_closed(n, d)
            rhs = Q(n, n - 1) * lambda_closed(n - 2, d - 1)
            report.expect(lhs == rhs, f"recursion fails at n={n}, d={d}: {lhs} != {rhs}")
    return report


@dataclass
class OrderReport:
    """Positivity verdict plus observed distinctness and eigenvalue order.

    claimed_chain_holds records whether the strict chain lambda_{n,0} >
    lambda_{n,1} > ... > lambda_{n,d_max} > 0 happens to hold at this n, and
    distinct whether the nonzero values are pairwise distinct.  Both are
    observations, not assertions: the chain fails at small odd n and the
    distinctness at every even n >= 6, documented discrepancies between the
    stated theorem and its own closed form.  Only positivity feeds report.ok.
    """

    n: int
    values: list
    positive: bool
    distinct: bool
    observed_order: tuple
    claimed_chain_holds: bool
    report: Report = field(default_factory=Report)


def distinctness_and_order_report(n: int) -> OrderReport:
    cb.check_n(n, cap=ORDER_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    values = [(d, lambda_closed(n, d)) for d in range(cb.d_max(n) + 1)]
    report = Report()
    positive = all(v > 0 for _, v in values)
    report.expect(positive, f"non-positive eigenvalue at n={n}")
    distinct = len({v for _, v in values}) == len(values)
    report.count()  # distinctness observed, not asserted
    order = tuple(
        d for d, _ in sorted(values, key=lambda item: item[1], reverse=True)
    )
    chain = order == tuple(range(cb.d_max(n) + 1)) and distinct
    return OrderReport(
        n=n,
        values=values,
        positive=positive,
        distinct=distinct,
        observed_order=order,
        claimed_chain_holds=chain,
        report=report,
    )


# ---------------------------------------------------------------------------
# exact matrix certification: annihilation, traces, rank


def _parity_split(y: PseudomomentMatrix):
    """Split Y into its even- and odd-degree diagonal blocks.  Cross-parity
    entries are a_{odd} = 0; any leakage would falsify the split."""
    groups = ([], [])
    for i, s in enumerate(y.subsets):
        groups[s.bit_count() & 1].append(i)
    for i in groups[0]:
        row = y.rows[i]
        for j in groups[1]:
            if row[j] != 0:
                raise InconsistentBlockError(
                    f"cross-parity entry ({i},{j}) nonzero at n={y.n}"
                )
    return [
        [[y.rows[i][j] for j in idx] for i in idx] for idx in groups if idx
    ]


def _exact_int(value, where: str) -> int:
    """value as a Python int, refusing any value that is not an integer."""
    value = Q(value)
    if value.denominator != 1:
        raise InconsistentBlockError(f"{where} = {value} is not an integer")
    return int(value.numerator)


class _ParityPowers:
    """Powers of the parity blocks of Y, extended on demand and shared
    between the annihilation and trace-moment checks.

    The blocks are stored scaled by D, the lcm of the denominators of Y's
    entries, so B = D Y holds only ints and its powers are taken over the
    integers (rational products are the dominant cost otherwise).  Results
    come back in Y's own rational units: tr(Y^m) = tr(B^m) / D^m.
    """

    def __init__(self, y: PseudomomentMatrix):
        self.n = y.n
        blocks = _parity_split(y)
        entries = {x for block in blocks for row in block for x in row}
        self.scale = math.lcm(*(int(Q(x).denominator) for x in entries))
        scaled = {x: _exact_int(x * self.scale, f"scaled entry {x}") for x in entries}
        self.blocks = [[[scaled[x] for x in row] for row in block] for block in blocks]
        self.powers = [
            [[[int(i == j) for j in range(len(block))] for i in range(len(block))], block]
            for block in self.blocks
        ]

    def ensure(self, m: int) -> None:
        for base, plist in zip(self.blocks, self.powers):
            while len(plist) <= m:
                plist.append(xm.mat_mul(plist[-1], base))

    def trace(self, m: int):
        self.ensure(m)
        return Q(sum(xm.mat_trace(plist[m]) for plist in self.powers), self.scale**m)

    def polynomial(self, coeffs):
        """sum_j coeffs[j] Y^j as (L, blocks): integer blocks M_b with M_b / L
        the exact value on parity block b.

        sum_j c_j Y^j = sum_j (c_j / D^j) B^j, and L is the lcm of the
        denominators of the c_j / D^j, so every M_b = sum_j k_j B^j has
        integer weights k_j = L c_j / D^j."""
        self.ensure(len(coeffs) - 1)
        scaled = [Q(c) / Q(self.scale) ** j for j, c in enumerate(coeffs)]
        common = math.lcm(*(int(w.denominator) for w in scaled))
        weights = [_exact_int(w * common, f"weight {j}") for j, w in enumerate(scaled)]
        values = []
        for plist in self.powers:
            used = plist[: len(weights)]
            values.append([
                [sum(map(mul, weights, column)) for column in zip(*(p[r] for p in used))]
                for r in range(len(plist[0]))
            ])
        return common, values

    def polynomial_is_zero(self, coeffs):
        """Whether sum_j coeffs[j] Y^j vanishes; returns (ok, witness)."""
        common, values = self.polynomial(coeffs)
        for block_index, block in enumerate(values):
            for i, row in enumerate(block):
                for j, total in enumerate(row):
                    if total != 0:
                        value = Q(total, common)
                        return False, f"block {block_index} entry ({i},{j}) = {value}"
        return True, None


def _poly_from_roots(roots):
    """Coefficients of prod (t - r), ascending in t."""
    coeffs = [Q(1)]
    for r in roots:
        nxt = [QZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - r * c
        coeffs = nxt
    return coeffs


def annihilation_check(n: int, eigenvalues=None, powers: "_ParityPowers" = None) -> Report:
    """Y prod_d (Y - lambda_{n,d} I) = 0 exactly, placing the spectrum inside
    {0} union {lambda_{n,d}}.  Passing explicit eigenvalues substitutes them
    for the closed form (used for fault injection in the verifier)."""
    cb.check_n(n, cap=ANNIHILATION_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if eigenvalues is None:
        eigenvalues = [lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
    if powers is None:
        powers = _ParityPowers(build_Y(n))
    report = Report()
    coeffs = _poly_from_roots([QZERO] + list(eigenvalues))
    ok, witness = powers.polynomial_is_zero(coeffs)
    report.expect(ok, f"annihilating polynomial nonzero at n={n}: {witness}")
    return report


def trace_moment_check(n: int, spectrum=None, powers: "_ParityPowers" = None) -> Report:
    """tr(Y^m) = sum_d mult(n,d) lambda_{n,d}^m for m = 1..d_max + 3.  Together
    with annihilation this pins the multiplicity of each distinct eigenvalue
    (Vandermonde system on the distinct values); where closed-form values
    coincide, as happens at even n >= 6, the certified quantity is the total
    multiplicity of the shared value."""
    cb.check_n(n, cap=ANNIHILATION_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    dmax = cb.d_max(n)
    if spectrum is None:
        spectrum = [lambda_closed(n, d) for d in range(dmax + 1)]
    if powers is None:
        powers = _ParityPowers(build_Y(n))
    report = Report()
    mults = [multiplicity(n, d) for d in range(dmax + 1)]
    for m in range(1, dmax + 4):
        lhs = powers.trace(m)
        rhs = sum((mu * lam**m for mu, lam in zip(mults, spectrum)), QZERO)
        report.expect(lhs == rhs, f"trace moment m={m} at n={n}: {lhs} != {rhs}")
    return report


def rank_check(n: int) -> Report:
    """Exact rank of Y equals C(n, d_max), i.e. the kernel has dimension
    C(n, <= d_max - 1); computed per parity block."""
    cb.check_n(n, cap=RANK_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    report = Report()
    blocks = _parity_split(build_Y(n))
    observed = sum(xm.rank(b) for b in blocks)
    expected = cb.binomial(n, cb.d_max(n))
    report.expect(observed == expected, f"rank(Y) = {observed} != {expected} at n={n}")
    return report


@dataclass
class SpectrumReport:
    """Full exact certificate for the spectrum of one Y."""

    n: int
    eigenvalues: list  # (d, lambda_{n,d}, multiplicity)
    zero_multiplicity: int
    annihilation_ok: bool
    traces_ok: bool
    rank_ok: bool | None  # None when n is beyond the exact-rank guard
    distinct_ok: bool
    positive_ok: bool
    observed_order: tuple
    claimed_chain_holds: bool
    report: Report = field(default_factory=Report)

    @property
    def ok(self) -> bool:
        return self.report.ok


def exact_spectrum_certificate(n: int) -> SpectrumReport:
    """Annihilation, trace moments, rank, distinctness, and positivity in one
    pass, sharing the matrix powers between checks."""
    cb.check_n(n, cap=ANNIHILATION_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    dmax = cb.d_max(n)
    values = [lambda_closed(n, d) for d in range(dmax + 1)]
    mults = [multiplicity(n, d) for d in range(dmax + 1)]
    report = Report()
    report.expect(
        sum(mults) + zero_multiplicity(n) == cb.binomial_le(n, dmax),
        f"multiplicity total mismatch at n={n}",
    )

    powers = _ParityPowers(build_Y(n))
    ann = annihilation_check(n, powers=powers)
    traces = trace_moment_check(n, powers=powers)
    report.absorb(ann)
    report.absorb(traces)

    rank_ok = None
    if n <= RANK_MAX_N:
        rank_rep = rank_check(n)
        report.absorb(rank_rep)
        rank_ok = rank_rep.ok

    order = distinctness_and_order_report(n)
    report.absorb(order.report)

    return SpectrumReport(
        n=n,
        eigenvalues=[(d, values[d], mults[d]) for d in range(dmax + 1)],
        zero_multiplicity=zero_multiplicity(n),
        annihilation_ok=ann.ok,
        traces_ok=traces.ok,
        rank_ok=rank_ok,
        distinct_ok=order.distinct,
        positive_ok=order.positive,
        observed_order=order.observed_order,
        claimed_chain_holds=order.claimed_chain_holds,
        report=report,
    )


def exact_certificate_check(n: int) -> Report:
    """exact_spectrum_certificate(n) as one report: its comparisons plus the
    verdict of annihilation, trace moments, rank and positivity together."""
    cert = exact_spectrum_certificate(n)
    report = Report()
    report.absorb(cert.report)
    report.expect(
        cert.ok,
        f"certificate failed at n={n}: annihilation={cert.annihilation_ok}, "
        f"traces={cert.traces_ok}, rank={cert.rank_ok}",
    )
    return report


# ---------------------------------------------------------------------------
# frame constants


def E_xS_hT_closed(n: int, d_prime: int, d: int, ell: int):
    """Closed form for E[x^S h_T] with |S| = d', |T| = d, |S cap T| = ell:

    (-1)^(d+ell) dim C(d,ell) C(n-2d, d'-d) a_{d'-d}
        prod_{i<d} (n-2i)/(n-d'+d-2i-1)
        / multinomial(n; ell, d-ell, d'-ell, n-d-d'+ell)

    Zero whenever d'-d is odd.  The sign factor is required for exact
    agreement with the direct contraction through Y; dropping it leaves all
    squared quantities (eta^2, the eigenvalues) unchanged.
    """
    if not (0 <= d <= d_prime <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= d' <= n/2, got d'={d_prime}, d={d}")
    if not (0 <= ell <= d):
        raise ValueError(f"need 0 <= ell <= d, got ell={ell}")
    # overlap ell is always realizable here: d - ell <= d_max <= n - d'
    if (d_prime - d) % 2 == 1:
        return QZERO
    value = (
        Q((-1) ** (d + ell))
        * multiplicity(n, d)
        * cb.binomial(d, ell)
        * cb.binomial(n - 2 * d, d_prime - d)
        * a_coeff(n, d_prime - d)
    )
    for i in range(d):
        value = value * Q(n - 2 * i, n - d_prime + d - 2 * i - 1)
    return value / cb.multinomial(
        n, (ell, d - ell, d_prime - ell, n - d - d_prime + ell)
    )


def contract_x_h(n: int, s_mask: int, t_mask: int):
    """E[x^S h_T] by direct contraction: the pseudoexpectation of the
    product x^S h_T; no size restriction on S."""
    return pseudo_expect(n, x_monomial(n, s_mask) * isotypic_h(n, t_mask))


def eta_sq(n: int, d_prime: int, d: int):
    """Closed form for eta^2_{d',d} = ||h_{S,d}||^2 with |S| = d':

    a_{d'-d}^2 (n/(n-1))^d (prod_{i<d} (n-2i-1)/(n-2i-1-d'+d))^2 dim^2
        * d! d'! (n-d')! (n-2d)!^2 / (n!^2 (n-d-d')! (d'-d)!) * C(n-d+1, d)
    """
    if not (0 <= d <= d_prime <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= d' <= n/2, got d'={d_prime}, d={d}")
    a_val = a_coeff(n, d_prime - d)
    if a_val == 0:
        return QZERO
    dim = multiplicity(n, d)
    prod = Q(1)
    for i in range(d):
        prod = prod * Q(n - 2 * i - 1, n - 2 * i - 1 - d_prime + d)
    return (
        a_val**2
        * Q(n, n - 1) ** d
        * prod**2
        * Q(dim) ** 2
        * Q(
            math.factorial(d)
            * math.factorial(d_prime)
            * math.factorial(n - d_prime)
            * math.factorial(n - 2 * d) ** 2,
            math.factorial(n) ** 2
            * math.factorial(n - d - d_prime)
            * math.factorial(d_prime - d),
        )
        * cb.binomial(n - d + 1, d)
    )


def eta_sq_summation(n: int, d_prime: int, d: int):
    """eta^2_{d',d} by the tight-frame expansion: (1/(sigma_d^4 f_{d,d}))
    sum over T of E[x^S h_T]^2, grouped by the overlap |S cap T|."""
    if not (0 <= d <= d_prime <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= d' <= n/2, got d'={d_prime}, d={d}")
    f_dd = Q(n, n - 1) ** d / math.factorial(d)
    total = QZERO
    for ell in range(0, d + 1):
        count = cb.binomial(d_prime, ell) * cb.binomial(n - d_prime, d - ell)
        if count == 0:
            continue
        total = total + count * E_xS_hT_closed(n, d_prime, d, ell) ** 2
    return total / (sigma_sq(n, d) ** 2 * f_dd)


def frame_const(n: int, d_prime: int, d: int):
    """f_{d',d} = C(n,d') / dim * eta^2_{d',d}."""
    return Q(cb.binomial(n, d_prime), multiplicity(n, d)) * eta_sq(n, d_prime, d)


def lambda_via_frames(n: int, d: int):
    """lambda_{n,d} = sigma_d^2 sum_{d' >= d} f_{d',d}: the eigenvalue
    reassembled from frame constants, an independent route to lambda_closed."""
    if not (0 <= d <= cb.d_max(n)):
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    total = sum(
        (frame_const(n, dp, d) for dp in range(d, cb.d_max(n) + 1)), QZERO
    )
    return sigma_sq(n, d) * total


def eta_routes_check(n: int) -> Report:
    """Closed frame coefficients against the overlap summation."""
    report = Report()
    for dp in range(cb.d_max(n) + 1):
        report.expect(
            eta_sq(n, dp, 0) == a_coeff(n, dp) ** 2,
            f"eta^2(d'={dp}, d=0) != a_d'^2 at n={n}",
        )
        for d in range(dp + 1):
            closed = eta_sq(n, dp, d)
            summed = eta_sq_summation(n, dp, d)
            report.expect(
                closed == summed,
                f"eta^2 routes at n={n}, d'={dp}, d={d}: {closed} != {summed}",
            )
    return report


def frame_decomposition_check(n: int) -> Report:
    """Eigenvalues reassemble from the tight-frame coefficient table, and
    the diagonal frame constant is (n/(n-1))^d / d!."""
    report = Report()
    for d in range(cb.d_max(n) + 1):
        via = lambda_via_frames(n, d)
        closed = lambda_closed(n, d)
        report.expect(via == closed, f"frame route at n={n}, d={d}: {via} != {closed}")
        want = Q(n**d, math.factorial(d) * (n - 1) ** d)
        report.expect(
            frame_const(n, d, d) == want,
            f"diagonal frame constant at n={n}, d={d}",
        )
    return report


def moment_contractions_check(n: int) -> Report:
    """Closed E[x^S h_T] against direct contraction."""
    report = Report()
    for dp in range(cb.d_max(n) + 1):
        s_mask = (1 << dp) - 1  # the x monomial side has size d'
        for d in range(dp + 1):
            for ell in range(max(0, d + dp - n), d + 1):
                t_mask = ((1 << ell) - 1) | (((1 << (d - ell)) - 1) << dp)
                closed = E_xS_hT_closed(n, dp, d, ell)
                direct = contract_x_h(n, s_mask, t_mask)
                report.expect(
                    closed == direct,
                    f"contraction at n={n}, d'={dp}, d={d}, l={ell}: "
                    f"{closed} != {direct}",
                )
    return report


def gram_reconstruction_check(n: int) -> Report:
    """Y = sum_d sigma_d^2 G_d exactly, where (G_d)_{S,T} is rebuilt from the
    tight-frame expansion (1/(f_{d,d} sigma_d^4)) sum_R E[x^S h_R] E[x^T h_R].
    Each G_d is a scaled product U U^T of a rational matrix with its own
    transpose, hence positive semidefinite by construction."""
    cb.check_n(n, cap=RECONSTRUCTION_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    report = Report()
    y = build_Y(n)
    size = y.size
    total = [[QZERO] * size for _ in range(size)]
    for d in range(cb.d_max(n) + 1):
        # E[x^S h_R] depends only on (|S|, |S cap R|); build that table once
        values = {}
        for dp in range(cb.d_max(n) + 1):
            rep_s = (1 << dp) - 1
            for ell in range(min(d, dp) + 1):
                if d - ell > n - dp:
                    continue
                if dp >= d:
                    values[(dp, ell)] = E_xS_hT_closed(n, dp, d, ell)
                else:
                    rep_t = ((1 << ell) - 1) | (((1 << (d - ell)) - 1) << dp)
                    values[(dp, ell)] = contract_x_h(n, rep_s, rep_t)
        r_masks = cb.subsets_of_size(n, d)
        u = [
            [
                values[(s.bit_count(), (s & r).bit_count())]
                for r in r_masks
            ]
            for s in y.subsets
        ]
        scale = sigma_sq(n, d) / (
            (Q(n, n - 1) ** d / math.factorial(d)) * sigma_sq(n, d) ** 2
        )
        for i in range(size):
            for j in range(i, size):
                entry = scale * sum(
                    (a * b for a, b in zip(u[i], u[j]) if a != 0 and b != 0), QZERO
                )
                total[i][j] = total[i][j] + entry
                if i != j:
                    total[j][i] = total[j][i] + entry
    report.expect(
        xm.mat_eq(total, y.rows),
        f"frame reconstruction does not reproduce Y at n={n}",
    )
    return report


# ---------------------------------------------------------------------------
# floating cross-check


def numeric_eigensolve(n: int) -> list:
    """Floating eigenvalues of Y, sorted descending.

    The matrix is assembled per parity block (the blocks are exact direct
    summands) and handed to a dense symmetric eigensolver, which converges
    to machine precision; failure to converge raises ConvergenceError.
    """
    cb.check_n(n, cap=NUMERIC_MAX_N)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a_table = np.array(
        [float(a_coeff(n, k)) for k in range(n + 1)], dtype=np.float64
    )
    out = []
    for parity in (0, 1):
        masks = [
            m
            for size in range(parity, cb.d_max(n) + 1, 2)
            for m in cb.subsets_of_size(n, size)
        ]
        if not masks:
            continue
        marr = np.array(masks, dtype=np.int16)
        size = marr.shape[0]
        block = np.empty((size, size), dtype=np.float64)
        chunk = 512
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            xor = marr[start:stop, None] ^ marr[None, :]
            block[start:stop] = a_table[np.bitwise_count(xor)]
        try:
            eigs = np.linalg.eigvalsh(block)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"eigensolver failed at n={n}, parity {parity}, size {size}: {exc}"
            ) from exc
        out.extend(float(v) for v in eigs)
    out.sort(reverse=True)
    return out


def numeric_agreement(n: int):
    """(got, want, worst): the float eigenvalues of Y, the closed-form
    multiset as floats, both sorted descending, and the largest relative
    deviation max |g - w| / max(|w|, 1) over the sorted pairs."""
    got = numeric_eigensolve(n)
    want = []
    for d in range(cb.d_max(n) + 1):
        want += [float(lambda_closed(n, d))] * multiplicity(n, d)
    want += [0.0] * zero_multiplicity(n)
    want.sort(reverse=True)
    worst = max(abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want))
    return got, want, worst


def numeric_agreement_check(n: int) -> Report:
    """The float eigensolver agrees with the closed multiset to 1e-9
    relative, eigenvalue by eigenvalue."""
    report = Report()
    got, want, worst = numeric_agreement(n)
    report.expect(len(got) == len(want), f"eigenvalue count at n={n}")
    report.expect(
        worst <= 1e-9,
        f"numeric spectrum off by {worst:.3e} relative at n={n}",
    )
    return report
