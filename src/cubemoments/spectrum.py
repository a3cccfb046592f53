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
* a floating eigensolver as a numeric cross-check: Y commutes with S_n, so
  Schrijver's Terwilliger-algebra blocks (one of d_max - k + 1 rows per k,
  multiplicity C(n,k) - C(n,k-1)) hold its spectrum; terwilliger_blocks
  builds them over ints from pseudomoments.difference_table, the step-2
  difference table of a that finite_difference_check reads against its
  closed form, for a dense symmetric eigensolver; blocks whose rows or
  squared Frobenius norm do not add up to Y's, exactly, are refused.

The two exact routes work on the integer parity blocks B = D Y and take
their powers modulo primes below 2^21, as float64 matrix products that stay
exact (exactmat's modular kernels).  Each quantity takes primes until their
product exceeds twice a proven bound on the integers it decides, so a
modular zero is a true zero, and a trace or a failure's witness comes back
whole by signed CRT.  _dense_pass takes both routes in one walk over the
primes, and drops each block's powers before the next block or prime.

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

import numpy as np

from . import combinatorics as cb
from . import exactmat as xm
from .apolar import sigma_sq
from .errors import ConvergenceError, InconsistentBlockError
from .pseudomoments import (
    BUILD_MAX_N,
    a_coeff,
    build_Y,
    contract_x_h,
    difference_table,
    parity_blocks,
)
from .report import Report, verified
from .scalars import Q, QZERO

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
    return cb.two_row_tableau_count(n, d)


def zero_multiplicity(n: int) -> int:
    """Dimension of the kernel of Y: C(n, <= d_max - 1)."""
    return cb.binomial_le(n, cb.d_max(n) - 1)


@verified("spectrum.eigenvalue_recursion", 3, ORDER_MAX_N, "closed form", ORDER_MAX_N)
def eigenvalue_recursion_check(n: int) -> Report:
    """lambda_{n,d} = (n/(n-1)) lambda_{n-2,d-1} from the closed form alone,
    for every admissible d at one n >= 3."""
    if not 3 <= n <= ORDER_MAX_N:
        raise ValueError(f"need 3 <= n <= {ORDER_MAX_N}, got {n}")
    report = Report()
    for d in range(1, cb.d_max(n) + 1):  # d - 1 <= d_max(n - 2) = d_max(n) - 1
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


@verified("spectrum.positivity_and_order", 2, ORDER_MAX_N, "closed form", ORDER_MAX_N)
def distinctness_and_order_report(n: int) -> OrderReport:
    cb.check_n(n, cap=ORDER_MAX_N, lo=2)
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


def _dense_pass(n: int, eigenvalues, parity) -> tuple:
    """(annihilation report, trace report) for Y(n), from parity =
    pseudomoments.parity_blocks(Y) in one walk over exactmat.POWER_PRIMES;
    eigenvalues None means the closed form.  The blocks, each int64 B = D Y,
    stay intact; T is their largest |entry| and r their largest size.

    Annihilation, Y prod_d (Y - lambda_d I) = sum_j c_j Y^j = sum_j (c_j /
    D^j) B^j: L, the lcm of the denominators of the c_j / D^j, makes it M_b /
    L on block b with M_b = sum_j k_j B^j for integers k_j.  No entry of M_b
    passes S = |k_0| + sum_{j>=1} |k_j| r^(j-1) T^j, so M_b is taken modulo
    primes_exceeding(2S): it is zero exactly when every residue is, and its
    first nonzero entry, in block then row-major order, comes back by signed
    CRT.  With h = ceil(len/2), M_b = sum_{j<h} k_j B^j + B^h sum_j k_{h+j}
    B^j, one product past B..B^h.

    Traces, tr(Y^m) = tr(B^m) / D^m summed over blocks for m = 1..d_max + 3:
    tr(B^m) is the sum over rows i of (B^a)_i . (B^(m-a))^T_i, a = ceil(m/2),
    taken modulo primes whose product exceeds 2 sum_b size_b^m T^m and
    returned by signed CRT.

    Each quantity keeps its own prefix of the primes.  Under each prime the
    powers B, ..., B^top of one block at a time are formed (power_product),
    top the highest power a quantity taken there reads, and dropped before
    the next block."""
    parts, scale = parity
    blocks = [block for _, block in parts]
    dmax = cb.d_max(n)
    if eigenvalues is None:
        eigenvalues = [lambda_closed(n, d) for d in range(dmax + 1)]
    rows = max(map(len, blocks))
    xm.require_float_exact(rows)
    top_entry = max(int(np.abs(block).max()) for block in blocks)

    scaled = [c / Q(scale) ** j for j, c in enumerate(_poly_from_roots([QZERO, *eigenvalues]))]
    (weights,), common = xm.integer_form([scaled])
    bound = abs(weights[0]) + sum(
        abs(k) * rows ** (j - 1) * top_entry**j for j, k in enumerate(weights) if j
    )
    ann_primes = xm.primes_exceeding(2 * bound)
    h = (len(weights) + 1) // 2
    moments = range(1, dmax + 4)
    trace_primes = {
        m: xm.primes_exceeding(2 * sum(len(block) ** m * top_entry**m for block in blocks))
        for m in moments
    }

    nonzero = [{} for _ in blocks]  # prime -> residues of M_b, when not all zero
    traces = {m: [] for m in moments}  # residues of tr(B^m), one per prime
    for i, p in enumerate(xm.POWER_PRIMES[: max(map(len, [ann_primes, *trace_primes.values()]))]):
        annihilate = i < len(ann_primes)
        sums = {m: 0 for m in moments if i < len(trace_primes[m])}
        top = max([(m + 1) // 2 for m in sums] + [h] * annihilate)
        for b, block in enumerate(blocks):
            plist = [(block % p).astype(np.float64)]
            while len(plist) < top:
                plist.append(xm.power_product(plist[-1], plist[0], p))
            for m in sums:
                a = (m + 1) // 2
                if a == m:
                    sums[m] += int(np.trace(plist[0]))
                else:
                    row_sums = np.einsum("ij,ji->i", plist[a - 1], plist[m - a - 1])
                    sums[m] += int(np.fmod(row_sums, p).sum())
            if annihilate:
                value = xm.mod_combination(weights[:h], plist, p)
                if len(weights) > h:
                    high = xm.mod_combination(weights[h:], plist, p)
                    value = np.fmod(value + xm.power_product(plist[h - 1], high, p), p)
                if value.any():
                    nonzero[b][p] = value
        for m, total in sums.items():
            traces[m].append(total % p)

    witness = None
    for b, residues in enumerate(nonzero):
        if residues:
            i, j, value = xm.first_nonzero(residues, ann_primes)
            witness = f"block {b} entry ({i},{j}) = {Q(value, common)}"
            break
    annihilation = Report()
    annihilation.expect(witness is None, f"annihilating polynomial nonzero at n={n}: {witness}")

    moment_report = Report()
    mults = [multiplicity(n, d) for d in range(dmax + 1)]
    for m in moments:
        lhs = Q(xm.crt_signed(traces[m], trace_primes[m]), scale**m)
        rhs = sum((mu * lam**m for mu, lam in zip(mults, eigenvalues)), QZERO)
        moment_report.expect(lhs == rhs, f"trace moment m={m} at n={n}: {lhs} != {rhs}")
    return annihilation, moment_report


def _parity(n: int):
    """parity_blocks of a fresh Y(n), behind the guard of the dense exact
    checks, 2 <= n <= BUILD_MAX_N."""
    cb.check_n(n, cap=BUILD_MAX_N, lo=2)
    return parity_blocks(build_Y(n))


def dense_checks(n: int, eigenvalues=None) -> tuple:
    """(annihilation_check, trace_moment_check) of n with these eigenvalues,
    from one _dense_pass over a fresh Y(n): every power is formed once."""
    return _dense_pass(n, eigenvalues, _parity(n))


def annihilation_check(n: int, eigenvalues=None) -> Report:
    """Y prod_d (Y - lambda_{n,d} I) = 0 exactly, placing the spectrum inside
    {0} union {lambda_{n,d}}.  Passing explicit eigenvalues substitutes them
    for the closed form, as verify's fault injection does in dense_checks."""
    return dense_checks(n, eigenvalues)[0]


def trace_moment_check(n: int, eigenvalues=None) -> Report:
    """tr(Y^m) = sum_d mult(n,d) lambda_{n,d}^m for m = 1..d_max + 3.  Together
    with annihilation this pins the multiplicity of each distinct eigenvalue
    (Vandermonde system on the distinct values); where closed-form values
    coincide, as happens at even n >= 6, the certified quantity is the total
    multiplicity of the shared value.  Passing explicit eigenvalues
    substitutes them for the closed form, as in annihilation_check."""
    return dense_checks(n, eigenvalues)[1]


def _pinned_rank(n: int, b: int, masks: list, block: np.ndarray):
    """len(B) - |V|, the rank of the int64 parity block B = block on the
    subsets masks (b = 0 even, 1 odd), when three exact facts pin it, else
    None.  V holds the kernel vectors v_K of (sum x) x^K for |K| <= d_max - 1
    of parity other than b, v_K having ones at K xor {i} for i = 1..n.  The
    facts: rank(B) >= len(B) - |V| modulo POWER_PRIMES[0]; B v_K = 0 for
    every K, one gather-sum of n entries of |x| <= T each, exact in int64 as
    n T < 2^63; and rank(V) = |V| modulo the same prime, V a 0/1 array."""
    index = {s: i for i, s in enumerate(masks)}
    kernel = np.array(
        [
            [index[k ^ (1 << i)] for i in range(n)]
            for k in cb.enumerate_subsets(n, cb.d_max(n) - 1)
            if k.bit_count() & 1 != b
        ],
        dtype=np.intp,
    ).reshape(-1, n)
    rank = len(block) - len(kernel)
    p = xm.POWER_PRIMES[0]
    if not xm.rank_mod_at_least(block, p, rank):
        return None
    top_entry = int(np.abs(block).max())
    assert n * top_entry < 2**63, (n, top_entry)
    if block[:, kernel].sum(axis=2).any():
        return None
    vectors = np.zeros((len(kernel), len(block)), dtype=np.int64)
    np.put_along_axis(vectors, kernel, 1, axis=1)
    return rank if xm.rank_mod_at_least(vectors, p, len(kernel)) else None


def rank_check(n: int, parity=None) -> Report:
    """Exact rank of Y equals C(n, d_max), i.e. the kernel has dimension
    C(n, <= d_max - 1); computed per parity block, on the int64 blocks D Y
    of parity (pseudomoments.parity_blocks of Y(n), built when None), which
    stay intact.  Each block's rank is pinned by a modular lower bound and a
    basis of kernel vectors (_pinned_rank); a block that is not pinned has
    its rank taken by the Bareiss kernel, so a failure's witness holds the
    exact rank."""
    cb.check_n(n, cap=RANK_MAX_N, lo=2)
    parts, _ = parity_blocks(build_Y(n)) if parity is None else parity
    report = Report()
    observed = 0
    for b, (masks, block) in enumerate(parts):
        pinned = _pinned_rank(n, b, masks, block)
        observed += xm.rank(block.tolist()) if pinned is None else pinned
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
    positive_ok: bool
    report: Report = field(default_factory=Report)

    @property
    def ok(self) -> bool:
        return self.report.ok


def exact_spectrum_certificate(n: int) -> SpectrumReport:
    """Annihilation, trace moments, rank, distinctness, and positivity in one
    pass: Y's parity blocks are built once, for _dense_pass and rank_check,
    and the closed-form values are shared between checks."""
    parity = _parity(n)
    order = distinctness_and_order_report(n)
    dmax = cb.d_max(n)
    values = [v for _, v in order.values]
    mults = [multiplicity(n, d) for d in range(dmax + 1)]
    report = Report()
    report.expect(
        sum(mults) + zero_multiplicity(n) == cb.binomial_le(n, dmax),
        f"multiplicity total mismatch at n={n}",
    )

    ann, traces = _dense_pass(n, values, parity)
    report.absorb(ann)
    report.absorb(traces)

    rank_ok = None
    if n <= RANK_MAX_N:
        rank_rep = rank_check(n, parity)
        report.absorb(rank_rep)
        rank_ok = rank_rep.ok

    report.absorb(order.report)

    return SpectrumReport(
        n=n,
        eigenvalues=[(d, values[d], mults[d]) for d in range(dmax + 1)],
        zero_multiplicity=zero_multiplicity(n),
        annihilation_ok=ann.ok,
        traces_ok=traces.ok,
        rank_ok=rank_ok,
        positive_ok=order.positive,
        report=report,
    )


@verified("spectrum.exact_certificate", 2, 9, "exact matrix-power budget",
          BUILD_MAX_N)
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


@verified("spectrum.eta_routes", 2, 10, "overlap summation")
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


@verified("spectrum.frame_decomposition", 2, 12, "frame table")
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


@verified("spectrum.moment_contractions", 2, 8, "contraction sweep")
def moment_contractions_check(n: int) -> Report:
    """Closed E[x^S h_T] against direct contraction."""
    report = Report()
    for dp in range(cb.d_max(n) + 1):
        for d in range(dp + 1):
            # the x monomial side S has size d'
            for ell, s_mask, t_mask in cb.overlap_pairs(n, dp, d):
                closed = E_xS_hT_closed(n, dp, d, ell)
                direct = contract_x_h(n, s_mask, t_mask)
                report.expect(
                    closed == direct,
                    f"contraction at n={n}, d'={dp}, d={d}, l={ell}: "
                    f"{closed} != {direct}",
                )
    return report


def frame_tables(n: int) -> list:
    """[(values, weighted)] for d = 0..d_max: values[(d', ell)] = E[x^S h_R]
    for |S| = d', |R| = d and |S cap R| = ell, which depends only on those
    sizes, and weighted[(d', ell)] the same times 1 / (f_{d,d} sigma_d^2).
    For d' < d it is zero by Schur's lemma: x^S lies in components (n-j, j)
    with j <= d' < d, which the S_n-invariant pairing keeps apart from h_R.
    No verdict rests on it: product_equals certifies Y = (U W) U^T anyway."""
    tables = []
    for d in range(cb.d_max(n) + 1):
        values = {
            (dp, ell): E_xS_hT_closed(n, dp, d, ell) if dp >= d else QZERO
            for dp in range(cb.d_max(n) + 1)
            for ell, _, _ in cb.overlap_pairs(n, dp, d)
        }
        scale = sigma_sq(n, d) / (
            (Q(n, n - 1) ** d / math.factorial(d)) * sigma_sq(n, d) ** 2
        )
        tables.append((values, {key: value * scale for key, value in values.items()}))
    return tables


@verified("spectrum.gram_reconstruction", 2, RECONSTRUCTION_MAX_N,
          "Gram reconstruction", RECONSTRUCTION_MAX_N)
def gram_reconstruction_check(n: int) -> Report:
    """Y = sum_d sigma_d^2 G_d exactly, where (G_d)_{S,T} is rebuilt from the
    tight-frame expansion (1/(f_{d,d} sigma_d^4)) sum_R E[x^S h_R] E[x^T h_R].
    Each G_d is a scaled product U_d U_d^T of a rational matrix with its own
    transpose, hence positive semidefinite by construction.  The whole sum
    is one product (U W) U^T: U holds the columns U_d side by side, and U W
    is U with the columns of degree d scaled by 1 / (f_{d,d} sigma_d^2).
    Both are gathered from frame_tables: their entries, scaled to ints over
    all degrees at once, are indexed by (d, |S|, |S cap R|), so U's index
    array comes from popcounts and no entry of U is built; Y is gathered
    from its distinct values in den * Y.  The claim is one exact zero test,
    exactmat.product_equals of (U W) U^T against Y on float64 residues; a
    failure names the first entry (S, T) off Y and by how much."""
    cb.check_n(n, cap=RECONSTRUCTION_MAX_N, lo=2)
    report = Report()
    y = build_Y(n)
    tables = frame_tables(n)
    (u_values,), den_u = xm.integer_form([[x for v, _ in tables for x in v.values()]])
    (uw_values,), den_uw = xm.integer_form([[x for _, w in tables for x in w.values()]])
    subsets = np.array(y.subsets)
    sizes = np.bitwise_count(subsets)
    blocks, offset = [], 0
    for d, (values, _) in enumerate(tables):
        position = np.zeros((cb.d_max(n) + 1, d + 1), dtype=np.intp)
        for k, (dp, ell) in enumerate(values):
            position[dp, ell] = offset + k
        offset += len(values)
        r_masks = np.array(cb.subsets_of_size(n, d))
        blocks.append(position[sizes[:, None], np.bitwise_count(subsets[:, None] & r_masks)])
    index = np.hstack(blocks)
    y_values, y_index = np.unique(y.ints, return_inverse=True)
    target = (y_values.tolist(), y_index.reshape(y.ints.shape))
    miss = xm.product_equals((uw_values, index), (u_values, index.T), target, den_uw * den_u, y.den)
    report.count()
    if miss is not None:
        i, j, value = miss
        report.fail(
            f"frame reconstruction does not reproduce Y at n={n}: entry "
            f"S={y.subsets[i]:b}, T={y.subsets[j]:b} is off by {Q(value, den_uw * den_u * y.den)}"
        )
    return report


# ---------------------------------------------------------------------------
# floating cross-check


def _pair_counts(n: int) -> list:
    """P[k], the pairs (S, T) of subsets of size <= d_max with |S xor T| = k:
    C(n,i) C(i,l) C(n-i,j-l) of them have sizes i, j and overlap l."""
    counts = [0] * (n + 1)
    for i in range(cb.d_max(n) + 1):
        for ell in range(i + 1):
            pairs = math.comb(n, i) * math.comb(i, ell)
            for j in range(ell, cb.d_max(n) + 1):
                counts[i + j - 2 * ell] += pairs * math.comb(n - i, j - ell)
    return counts


def terwilliger_blocks(n: int, a: list) -> list:
    """[(k, multiplicity, M_k, c_k)] for k = 0..d_max: Schrijver's block
    diagonalization of the Terwilliger algebra of the binary Hamming scheme
    (IEEE Trans. IT 51, 2005) for Y[S,T] = a_|S xor T|, integer a.  Y is
    orthogonally similar to the direct sum of M_k[i][j] / sqrt(c_i c_j) over
    i, j in k..d_max, c_k[i] = C(n-2k, i-k), block k taken C(n,k) - C(n,k-1)
    times.  M_k[i][j] = sum_t beta^t_{i,j,k} a_{i+j-2t} over overlaps t and
    beta^t = sum_u (-1)^(u-t) C(u,t) C(n-2k,u-k) C(n-k-u,i-u) C(n-k-u,j-u),
    max(k,t) <= u <= min(i,j).  C(u,t) = 0 for t > u, so the t sum moves
    inside: M_k[i][j] = sum_{u=k}^{min(i,j)} C(n-2k,u-k) C(n-k-u,i-u)
    C(n-k-u,j-u) g[u][i+j], one g = difference_table(n, a) for every k;
    over ints, O(d^4) products for all blocks, not O(d^5)."""
    cb.check_n(n)
    top, g = cb.d_max(n), difference_table(n, a)
    blocks = []
    for k in range(top + 1):
        m = [[0] * (top - k + 1) for _ in range(k, top + 1)]
        for u in range(k, top + 1):  # overlap u's term, upper triangle only
            right = [math.comb(n - k - u, x) for x in range(top - u + 1)]
            for i in range(u, top + 1):
                left, row = math.comb(n - 2 * k, u - k) * right[i - u], m[i - k]
                for j in range(i, top + 1):
                    row[j - k] += left * right[j - u] * g[u][i + j]
        m = [[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))]
        c = [cb.binomial(n - 2 * k, i - k) for i in range(k, top + 1)]
        blocks.append((k, multiplicity(n, k), m, c))
    return blocks


def _block_guard(n: int, a: list, blocks: list) -> None:
    """Raise InconsistentBlockError unless the blocks, counted with their
    multiplicities, hold Y's C(n, <= d_max) rows and, exactly, its squared
    Frobenius norm sum_k a_k^2 P[k] (_pair_counts), compared over ints as
    numerators over the square of one lcm of every c_i: the change of basis
    is orthogonal and Y block-diagonal."""
    size = cb.binomial_le(n, cb.d_max(n))
    rows = sum(mult * len(c) for _, mult, _, c in blocks)
    want = sum(x * x * count for x, count in zip(a, _pair_counts(n)))
    # sum_k mult_k sum_ij M_k[i][j]^2 / (c_i c_j), held as its numerator over lcm^2
    lcm = math.lcm(*(ci for *_, c in blocks for ci in c))
    held = 0
    for _, mult, m, c in blocks:
        weights = [lcm // ci for ci in c]
        held += mult * sum(
            x * x * wi * wj for row, wi in zip(m, weights) for x, wj in zip(row, weights)
        )
    if rows != size:
        problem = f"hold {rows} of {size} rows"
    elif held != want * lcm * lcm:
        problem = f"hold squared Frobenius norm {Q(held, lcm * lcm)}, not {want}"
    else:
        return
    raise InconsistentBlockError(f"Terwilliger blocks {problem} at n={n}")


def numeric_eigensolve(n: int) -> list:
    """Floating eigenvalues of Y, sorted descending: each block of
    terwilliger_blocks, checked by _block_guard, goes to a dense symmetric
    eigensolver as M_k / (scale sqrt(c_i c_j)), its eigenvalues counted
    once per copy of the block; failure to converge raises ConvergenceError
    naming n, k and the block size."""
    cb.check_n(n, cap=NUMERIC_MAX_N, lo=2)
    (a,), scale = xm.integer_form([[Q(a_coeff(n, k)) for k in range(n + 1)]])
    blocks = terwilliger_blocks(n, a)
    _block_guard(n, a, blocks)
    out = []
    for k, mult, m, c in blocks:
        block = np.array([[x / scale for x in row] for row in m]) / np.sqrt(np.outer(c, c))
        try:
            eigs = np.linalg.eigvalsh(block)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"eigensolver failed at n={n}, block k={k}, size {len(m)}: {exc}"
            ) from exc
        out.extend(eigs.tolist() * mult)
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


@verified("spectrum.numeric_agreement", 2, NUMERIC_MAX_N, "float eigensolve",
          NUMERIC_MAX_N)
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
