"""Named verification checks bundled into suites.

Every cross-route identity the package proves is registered here exactly
once, under a stable dotted name (suite.check).  run_verify executes the
selected suites over an n range, clamping each check to its own guard:
values of n beyond a guard are simply not covered, and a check whose guard
excludes the whole requested range reports "skipped" with the reason rather
than failing.  Overall success is the conjunction of the non-skipped checks.

Randomized checks draw from a SplitMix64 seeded per check, so reports are
reproducible and independent of execution order; results are sorted by
check name before they are returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import __version__
from . import apolar as ap
from . import characters as ch
from . import combinatorics as cb
from . import exactmat as xm
from . import pseudomoments as pm
from . import schur as su
from . import spectrum as sp
from .report import Report
from .rng import SplitMix64
from .scalars import Q

DEFAULT_SEED = 42

SUITE_NAMES = (
    "apolar",
    "appendix",
    "characters",
    "pseudomoments",
    "schur",
    "spectrum",
)


@dataclass(frozen=True)
class VerifyContext:
    n_min: int
    n_max: int
    seed: int


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str = ""
    checked: int = 0
    elapsed_s: float = 0.0

    @property
    def suite(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class VerificationReport:
    version: str
    n_min: int
    n_max: int
    seed: int
    suites: tuple
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "tool": "cubemoments",
            "version": self.version,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "seed": self.seed,
            "suites": list(self.suites),
            "overall": "pass" if self.ok else "fail",
            "counts": self.counts(),
            "checks": [
                {
                    "name": c.name,
                    "suite": c.suite,
                    "status": c.status,
                    "checked": c.checked,
                    "witness": c.witness,
                    "elapsed_s": round(c.elapsed_s, 3),
                }
                for c in self.checks
            ],
        }


class _Skipped(Exception):
    """Raised by a check whose guard excludes the whole requested range."""


def _span(ctx: VerifyContext, rep: Report, lo: int, hi: int, guard: str) -> range:
    """The n values to cover: the requested range clamped to [lo, hi]."""
    start, stop = max(ctx.n_min, lo), min(ctx.n_max, hi)
    if start > stop:
        raise _Skipped(
            f"no n in [{ctx.n_min}, {ctx.n_max}] within the {guard} guard "
            f"[{lo}, {hi}]"
        )
    if ctx.n_max > hi:
        rep.note(f"n capped at {hi} ({guard} guard)")
    return range(start, stop + 1)


_CHECKS: list = []


def _check(name: str):
    def registrar(fn):
        _CHECKS.append((name, fn))
        return fn

    return registrar


# ---------------------------------------------------------------------------
# characters


@_check("characters.dimension_identity")
def _dimension_identity(ctx, rep):
    """chi_(n-d,d) at the identity equals C(n,d) - C(n,d-1)."""
    for n in _span(ctx, rep, 2, 20, "character table"):
        ident = (1,) * n
        for d in range(cb.d_max(n) + 1):
            got = ch.char_two_row(n, d, ident)
            want = cb.binomial(n, d) - (cb.binomial(n, d - 1) if d else 0)
            rep.expect(got == want, f"dim chi at n={n}, d={d}: {got} != {want}")


@_check("characters.two_row_routes")
def _two_row_routes(ctx, rep):
    """Fixed-subset-count route agrees with the generating-function route."""
    for n in _span(ctx, rep, 2, 10, "class enumeration"):
        for ct, _ in cb.conjugacy_classes(n):
            for d in range(cb.d_max(n) + 1):
                a = ch.char_two_row(n, d, ct)
                b = ch.char_two_row_frobenius(n, d, ct)
                rep.expect(a == b, f"routes differ at n={n}, d={d}, type={ct}")


@_check("characters.orthonormality")
def _orthonormality(ctx, rep):
    for n in _span(ctx, rep, 2, 8, "class-function inner product"):
        chars = {d: ch.char_class_function(n, d) for d in range(cb.d_max(n) + 1)}
        for d, chi in chars.items():
            for e in range(d, cb.d_max(n) + 1):
                got = chi.inner(chars[e])
                want = 1 if d == e else 0
                rep.expect(
                    got == want, f"<chi_{d}, chi_{e}> = {got} at n={n}"
                )


@_check("characters.restricted_sums")
def _restricted_sums(ctx, rep):
    """Closed restricted character sums against full S_n enumeration."""
    for n in _span(ctx, rep, 2, 7, "S_n sweep"):
        for d in range(1, cb.d_max(n) + 1):
            for a in range(d + 1):
                for b in range(d + 1):
                    for ov in range(max(0, a + b - n), min(a, b) + 1):
                        a_mask = (1 << a) - 1
                        b_mask = ((1 << ov) - 1) | (((1 << (b - ov)) - 1) << a)
                        for k in range(min(a, b) + 1):
                            closed = ch.restricted_char_sum_closed(n, d, a, b, ov, k)
                            brute = ch.restricted_char_sum_bruteforce(
                                n, d, a_mask, b_mask, k
                            )
                            rep.expect(
                                closed == brute,
                                f"restricted sum at n={n}, d={d}, a={a}, b={b}, "
                                f"ov={ov}, k={k}: {closed} != {brute}",
                            )


# ---------------------------------------------------------------------------
# appendix: subset-pair statistics f and g


@_check("appendix.g_to_f_expansion")
def _g_to_f_expansion(ctx, rep):
    for n in _span(ctx, rep, 2, 6, "subset-pair enumeration"):
        for a in range(n + 1):
            for b in range(a, n + 1):
                for k in range(a + 1):
                    for l in range(a + 1):
                        expanded = ch.g_to_f_expand(n, a, b, k, l).as_dict()
                        direct = ch.class_fn_g(n, a, b, k, l).as_dict()
                        rep.expect(
                            expanded == direct,
                            f"expansion differs at n={n}, a={a}, b={b}, k={k}, l={l}",
                        )


@_check("appendix.euler_transform")
def _euler_transform(ctx, rep):
    for n in _span(ctx, rep, 2, 6, "subset enumeration"):
        for a in range(n + 1):
            rep.absorb(ch.euler_transform_check(n, a))


@_check("appendix.char_inner")
def _char_inner(ctx, rep):
    """Closed <g, chi> inner products against direct class sums."""
    for n in _span(ctx, rep, 2, 6, "subset-pair enumeration"):
        chars = {d: ch.char_class_function(n, d) for d in range(1, cb.d_max(n) + 1)}
        for d, chi in chars.items():
            for a in range(d + 1):
                for b in range(a, n + 1):
                    for k in range(a + 1):
                        for l in range(a + 1):
                            closed = ch.char_g_inner(n, d, a, b, k, l)
                            direct = ch.class_fn_g(n, a, b, k, l).inner(chi)
                            rep.expect(
                                closed == direct,
                                f"<g, chi> at n={n}, d={d}, a={a}, b={b}, "
                                f"k={k}, l={l}: {closed} != {direct}",
                            )


# ---------------------------------------------------------------------------
# pseudomoments


@_check("pseudomoments.moment_recursion")
def _moment_recursion(ctx, rep):
    for n in _span(ctx, rep, 2, 30, "moment recursion"):
        rep.absorb(pm.a_recursion_check(n))


@_check("pseudomoments.matrix_structure")
def _matrix_structure(ctx, rep):
    """Symmetry, unit diagonal, moment first row, parity zeros of Y."""
    for n in _span(ctx, rep, 2, 10, "dense matrix scan"):
        y = pm.build_Y(n)
        rep.expect(xm.is_symmetric(y.rows), f"Y not symmetric at n={n}")
        rep.expect(
            all(y.rows[i][i] == 1 for i in range(y.size)),
            f"non-unit diagonal at n={n}",
        )
        for s in y.subsets:
            rep.expect(
                y.entry(0, s) == pm.a_coeff(n, s.bit_count()),
                f"first row of Y differs from the moment vector at n={n}, S={s:b}",
            )
        bad = sum(
            1
            for i, s in enumerate(y.subsets)
            for j, t in enumerate(y.subsets)
            if (s.bit_count() ^ t.bit_count()) & 1 and y.rows[i][j] != 0
        )
        rep.expect(bad == 0, f"{bad} nonzero odd-parity entries at n={n}")
        rep.count()


@_check("pseudomoments.ideal_annihilation")
def _ideal_annihilation(ctx, rep):
    """The pseudoexpectation kills (sum x_i) x^S for every |S| < n; the
    full-set monomial sits outside the three-term recursion's range."""
    for n in _span(ctx, rep, 2, 10, "monomial sweep"):
        xs = pm.x_sum(n)
        rep.expect(
            pm.pseudo_expect(n, xs * xs) == 0, f"E[(sum x)^2] != 0 at n={n}"
        )
        for mask in range(1 << n):
            if mask.bit_count() == n:
                continue
            val = pm.pseudo_expect(n, xs * pm.x_monomial(n, mask))
            rep.expect(val == 0, f"E[(sum x) x^S] = {val} at n={n}, S={mask:b}")


@_check("pseudomoments.isotypic_projection")
def _isotypic_projection(ctx, rep):
    for n in _span(ctx, rep, 2, 6, "S_n average"):
        for d in range(cb.d_max(n) + 1):
            for mask in cb.subsets_of_size(n, d):
                closed = pm.isotypic_h(n, mask)
                brute = pm.isotypic_h_bruteforce(n, mask)
                rep.expect(
                    closed.coeffs == brute.coeffs,
                    f"h_S projection differs at n={n}, S={mask:b}",
                )


@_check("pseudomoments.harmonic_norms")
def _harmonic_norms(ctx, rep):
    for n in _span(ctx, rep, 2, 12, "contraction sweep"):
        for d in range(cb.d_max(n) + 1):
            closed = pm.E_hS_squared(n, d)
            direct = pm.E_hS_squared_direct(n, d)
            rep.expect(
                closed == direct,
                f"E[h_S^2] routes differ at n={n}, d={d}: {closed} != {direct}",
            )


@_check("pseudomoments.balanced_moments")
def _balanced_moments(ctx, rep):
    """Closed balanced-measure moments vs enumeration and the a_k table."""
    ns = [n for n in _span(ctx, rep, 2, 12, "balanced enumeration") if n % 2 == 0]
    if not ns:
        raise _Skipped(
            f"the balanced measure exists only for even n; none in "
            f"[{ctx.n_min}, {ctx.n_max}]"
        )
    for n in ns:
        for k in range(n + 1):
            mask = (1 << k) - 1
            closed = pm.balanced_measure_moment(n, mask)
            rep.expect(
                closed == pm.balanced_measure_moment_enum(n, mask),
                f"balanced moment enum differs at n={n}, k={k}",
            )
            rep.expect(
                closed == pm.a_coeff(n, k),
                f"balanced moment is not a_k at n={n}, k={k}",
            )


@_check("pseudomoments.finite_difference")
def _finite_difference(ctx, rep):
    for n in _span(ctx, rep, 2, 12, "alternating sum"):
        for a in range(n // 2 + 1):
            for k in range(n // 2 - a + 1):
                closed = pm.finite_difference_a(n, a, k)
                direct = pm.finite_difference_a_direct(n, a, k)
                rep.expect(
                    closed == direct,
                    f"difference routes at n={n}, a={a}, k={k}: "
                    f"{closed} != {direct}",
                )


@_check("pseudomoments.hypercube_decomposition")
def _hypercube_decomposition(ctx, rep):
    for n in _span(ctx, rep, 2, 8, "exact rank"):
        rep.absorb(pm.hypercube_decomposition_check(n))


# ---------------------------------------------------------------------------
# apolar


@_check("apolar.harmonicity")
def _harmonicity(ctx, rep):
    """Specht products and subset projections are frame harmonic."""
    for n in _span(ctx, rep, 2, 7, "harmonicity sweep"):
        for d in range(1, cb.d_max(n) + 1):
            for p in ap.specht_basis(n, d):
                rep.expect(
                    ap.is_frame_harmonic(p), f"Specht product not harmonic, n={n}, d={d}"
                )
            for mask in cb.subsets_of_size(n, d):
                rep.expect(
                    ap.is_frame_harmonic(ap.hS_span(n, mask)),
                    f"h_S span not harmonic at n={n}, S={mask:b}",
                )


@_check("apolar.specht_gram")
def _specht_gram(ctx, rep):
    for n in _span(ctx, rep, 2, 7, "Gram rank"):
        for d in range(1, cb.d_max(n) + 1):
            basis = ap.specht_basis(n, d)
            dim = cb.binomial(n, d) - cb.binomial(n, d - 1)
            rep.expect(len(basis) == dim, f"Specht count at n={n}, d={d}")
            gram = [[ap.apolar_ip(p, q) for q in basis] for p in basis]
            rep.expect(
                xm.rank(gram) == dim,
                f"singular Specht Gram at n={n}, d={d}",
            )


@_check("apolar.projection_consistency")
def _projection_consistency(ctx, rep):
    for n in _span(ctx, rep, 2, 7, "projection solve"):
        for d in range(cb.d_max(n) + 1):
            rep.absorb(ap.harmonic_projection_consistency(n, d))


@_check("apolar.johnson_slice")
def _johnson_slice(ctx, rep):
    """Slice Grams are PSD with spectrum floor n - 2d + 2."""
    for n in _span(ctx, rep, 2, 10, "slice Gram"):
        for d in range(1, cb.d_max(n) + 1):
            g = ap.johnson_slice_gram(n, d)
            ok, witness = xm.psd_pivots(g)
            rep.expect(ok, f"slice Gram not PSD at n={n}, d={d}: {witness}")
            floor = Q(n - 2 * d + 2)
            shifted = [
                [g[i][j] - (floor if i == j else 0) for j in range(len(g))]
                for i in range(len(g))
            ]
            ok, witness = xm.psd_pivots(shifted)
            rep.expect(
                ok, f"slice Gram below floor {floor} at n={n}, d={d}: {witness}"
            )


@_check("apolar.sigma_bridge")
def _sigma_bridge(ctx, rep):
    """sigma_d^2 <h_S, h_T> equals E[h_S h_T] for all same-size pairs,
    and both sides vanish for pairs of different sizes."""
    for n in _span(ctx, rep, 2, 7, "pairwise bridge"):
        dm = cb.d_max(n)
        for d in range(dm + 1):
            scale = ap.sigma_sq(n, d)
            masks = cb.subsets_of_size(n, d)
            spans = {s: ap.hS_span(n, s) for s in masks}
            polys = {s: pm.isotypic_h(n, s) for s in masks}
            for s in masks:
                for t in masks:
                    lhs = scale * ap.apolar_ip(spans[s], spans[t])
                    rhs = pm.pseudo_expect(n, polys[s] * polys[t])
                    rep.expect(
                        lhs == rhs,
                        f"bridge fails at n={n}, S={s:b}, T={t:b}: {lhs} != {rhs}",
                    )
        for d in range(dm + 1):
            for e in range(d + 1, dm + 1):
                s, t = (1 << d) - 1, (1 << e) - 1
                cross = pm.pseudo_expect(
                    n, pm.isotypic_h(n, s) * pm.isotypic_h(n, t)
                )
                rep.expect(cross == 0, f"E[h_S h_T] != 0 for |S|={d}, |T|={e}, n={n}")
                rep.expect(
                    ap.apolar_ip(ap.hS_span(n, s), ap.hS_span(n, t)) == 0,
                    f"cross-degree pairing nonzero at n={n}, d={d}, e={e}",
                )


@_check("apolar.ideal_kernel")
def _ideal_kernel(ctx, rep):
    """Multiples of the frame sum are semantically zero."""
    for n in _span(ctx, rep, 2, 7, "kernel sweep"):
        total = ap.frame_sum(n)
        for d in range(cb.d_max(n)):
            for mask in cb.subsets_of_size(n, d):
                p = total * ap.span_monomial(n, cb.elements_of_mask(mask))
                rep.expect(
                    ap.equals_zero(p),
                    f"(sum v_i) z^K not in the kernel at n={n}, K={mask:b}",
                )


@_check("apolar.adjointness")
def _adjointness(ctx, rep):
    """<pq, r> = (a! / (a+b)!) <p, q(del) r> on random span polynomials."""
    rng = SplitMix64(ctx.seed)

    def random_span(n, degree, terms=3):
        p = ap.SpanPoly(n, degree, {})
        for _ in range(terms):
            key = tuple(sorted(rng.randint(1, n) for _ in range(degree)))
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            p = p + ap.span_monomial(n, key, coeff)
        return p

    for n in _span(ctx, rep, 2, 6, "random triple"):
        for _ in range(5):
            a = rng.randint(1, 2)
            b = rng.randint(1, 2)
            rep.absorb(
                ap.adjointness_check(
                    random_span(n, a), random_span(n, b), random_span(n, a + b)
                )
            )


@_check("apolar.beta_identity")
def _beta_identity(ctx, rep):
    """Alternating overlap sums collapse to (-1)^d (n/(n-1))^d / d!."""
    for n in _span(ctx, rep, 2, 10, "pairing table"):
        for d in range(1, cb.d_max(n) + 1):
            total = sum(
                (-1) ** k * cb.binomial(d, k) * ap.beta(n, d, k) for k in range(d + 1)
            )
            want = Q((-1) ** d * n**d, math.factorial(d) * (n - 1) ** d)
            rep.expect(
                total == want,
                f"alternating beta sum at n={n}, d={d}: {total} != {want}",
            )


# ---------------------------------------------------------------------------
# spectrum


@_check("spectrum.eigenvalue_recursion")
def _eigenvalue_recursion(ctx, rep):
    top = min(ctx.n_max, sp.ORDER_MAX_N)
    if top < 3:
        raise _Skipped(f"the eigenvalue recursion needs n >= 3, got n_max={ctx.n_max}")
    if ctx.n_max > sp.ORDER_MAX_N:
        rep.note(f"n capped at {sp.ORDER_MAX_N} (closed form guard)")
    rep.absorb(sp.lambda_recursion_check(top))


@_check("spectrum.positivity_and_order")
def _positivity_and_order(ctx, rep):
    """Positivity is asserted; distinctness and order are recorded."""
    collisions = []
    chain_fails = []
    for n in _span(ctx, rep, 2, sp.ORDER_MAX_N, "closed form"):
        orep = sp.distinctness_and_order_report(n)
        rep.absorb(orep.report)
        if not orep.distinct:
            collisions.append(n)
        if not orep.claimed_chain_holds:
            chain_fails.append(n)
    if collisions or chain_fails:
        parts = []
        if chain_fails:
            parts.append(f"the strict ordering chain fails at n={chain_fails}")
        if collisions:
            parts.append(f"eigenvalues collide at even n={collisions}")
        rep.note(
            "documented discrepancy, not a failure: "
            + " and ".join(parts)
            + "; values, positivity, and multiplicities all verify"
        )


@_check("spectrum.eta_routes")
def _eta_routes(ctx, rep):
    """Closed frame coefficients against the overlap summation."""
    for n in _span(ctx, rep, 2, 10, "overlap summation"):
        for dp in range(cb.d_max(n) + 1):
            rep.expect(
                sp.eta_sq(n, dp, 0) == pm.a_coeff(n, dp) ** 2,
                f"eta^2(d'={dp}, d=0) != a_d'^2 at n={n}",
            )
            for d in range(dp + 1):
                closed = sp.eta_sq(n, dp, d)
                summed = sp.eta_sq_summation(n, dp, d)
                rep.expect(
                    closed == summed,
                    f"eta^2 routes at n={n}, d'={dp}, d={d}: {closed} != {summed}",
                )


@_check("spectrum.frame_decomposition")
def _frame_decomposition(ctx, rep):
    """Eigenvalues reassemble from the tight-frame coefficient table."""
    for n in _span(ctx, rep, 2, 12, "frame table"):
        for d in range(cb.d_max(n) + 1):
            via = sp.lambda_via_frames(n, d)
            closed = sp.lambda_closed(n, d)
            rep.expect(
                via == closed, f"frame route at n={n}, d={d}: {via} != {closed}"
            )
            want = Q(n**d, math.factorial(d) * (n - 1) ** d)
            rep.expect(
                sp.frame_const(n, d, d) == want,
                f"diagonal frame constant at n={n}, d={d}",
            )


@_check("spectrum.exact_certificate")
def _exact_certificate(ctx, rep):
    """Annihilation, trace moments, rank, and positivity, all exact."""
    for n in _span(ctx, rep, 2, 9, "exact matrix-power budget"):
        cert = sp.exact_spectrum_certificate(n)
        rep.absorb(cert.report)
        rep.expect(
            cert.ok,
            f"certificate failed at n={n}: annihilation={cert.annihilation_ok}, "
            f"traces={cert.traces_ok}, rank={cert.rank_ok}",
        )


@_check("spectrum.moment_contractions")
def _moment_contractions(ctx, rep):
    """Closed E[x^S h_T] against direct contraction."""
    for n in _span(ctx, rep, 2, 8, "contraction sweep"):
        for dp in range(cb.d_max(n) + 1):
            s_mask = (1 << dp) - 1  # the x monomial side has size d'
            for d in range(dp + 1):
                for ell in range(max(0, d + dp - n), d + 1):
                    t_mask = ((1 << ell) - 1) | (((1 << (d - ell)) - 1) << dp)
                    closed = sp.E_xS_hT_closed(n, dp, d, ell)
                    direct = sp.contract_x_h(n, s_mask, t_mask)
                    rep.expect(
                        closed == direct,
                        f"contraction at n={n}, d'={dp}, d={d}, l={ell}: "
                        f"{closed} != {direct}",
                    )


@_check("spectrum.gram_reconstruction")
def _gram_reconstruction(ctx, rep):
    for n in _span(ctx, rep, 2, sp.RECONSTRUCTION_MAX_N, "Gram reconstruction"):
        rep.absorb(sp.gram_reconstruction_check(n))


@_check("spectrum.numeric_agreement")
def _numeric_agreement(ctx, rep):
    """Float eigensolver agrees with the closed multiset to 1e-9 relative."""
    for n in _span(ctx, rep, 2, 12, "float eigensolve"):
        got, want, worst = sp.numeric_agreement(n)
        rep.expect(len(got) == len(want), f"eigenvalue count at n={n}")
        rep.expect(
            worst <= 1e-9,
            f"numeric spectrum off by {worst:.3e} relative at n={n}",
        )


# ---------------------------------------------------------------------------
# schur


@_check("schur.gram_property")
def _gram_property(ctx, rep):
    out = su.gram_schur_property_check(ctx.seed, trials=100)
    rep.absorb(out)
    rep.expect(out.checked >= 100, "gram property check was vacuous")


@_check("schur.volume_identity")
def _volume_identity(ctx, rep):
    out = su.volume_identity_check(ctx.seed, trials=50)
    rep.absorb(out)
    rep.expect(out.checked >= 50, "volume identity check was vacuous")


@_check("schur.iterated_elimination")
def _iterated_elimination(ctx, rep):
    for n in _span(ctx, rep, 2, su.ITERATED_MAX_N, "iterated elimination"):
        blocks, out = su.iterated_schur_on_Y(n)
        rep.absorb(out)
        rep.expect(blocks[0] == [[Q(1)]], f"degree-0 block is not [[1]] at n={n}")
        for k, block in enumerate(blocks):
            rep.expect(
                len(block) == cb.binomial(n, k),
                f"step {k} block size at n={n}: {len(block)}",
            )


# ---------------------------------------------------------------------------
# fault injection (only materialized on request)


def _fault_injection(ctx, rep):
    """Feed deliberately corrupted eigenvalues to the exact certificate
    machinery; the run must fail with a witness, proving the harness can
    tell a wrong spectrum from a right one."""
    n = min(max(ctx.n_min, 2), 6)
    corrupted = [sp.lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
    corrupted[0] = corrupted[0] + 1
    powers = sp._ParityPowers(pm.build_Y(n))
    ann = sp.annihilation_check(n, eigenvalues=corrupted, powers=powers)
    tr = sp.trace_moment_check(n, spectrum=corrupted, powers=powers)
    rep.count(ann.checked + tr.checked)
    if ann.ok and tr.ok:
        rep.fail(f"corrupted eigenvalues went undetected at n={n}")
    else:
        detected = (ann.details + tr.details)[0]
        rep.fail(f"injected fault detected as intended at n={n}: {detected}")


# ---------------------------------------------------------------------------
# driver


def normalize_suites(selection) -> tuple:
    """Expand and validate a suite selection into a sorted tuple."""
    if isinstance(selection, str):
        selection = [selection]
    chosen = set()
    for name in selection:
        if name == "all":
            chosen.update(SUITE_NAMES)
        elif name in SUITE_NAMES:
            chosen.add(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from "
                f"{', '.join(('all',) + SUITE_NAMES)}"
            )
    if not chosen:
        raise ValueError("no suites selected")
    return tuple(sorted(chosen))


def _witness_text(rep: Report, cap: int = 6) -> str:
    if len(rep.details) > cap:
        extra = len(rep.details) - cap
        return "; ".join(rep.details[:cap]) + f"; (+{extra} more)"
    return "; ".join(rep.details)


def _run_check(name: str, fn, ctx: VerifyContext) -> CheckResult:
    rep = Report()
    start = time.perf_counter()
    try:
        fn(ctx, rep)
        status = "pass" if rep.ok else "fail"
    except _Skipped as reason:
        return CheckResult(name, "skipped", str(reason), 0, time.perf_counter() - start)
    except Exception as exc:  # a crashed check is a failed check
        rep.fail(f"unhandled {type(exc).__name__}: {exc}")
        status = "fail"
    return CheckResult(
        name, status, _witness_text(rep), rep.checked, time.perf_counter() - start
    )


def run_verify(
    suites=("all",),
    n_min: int = 2,
    n_max: int = 7,
    seed: int = DEFAULT_SEED,
    inject_fault: bool = False,
) -> VerificationReport:
    """Run every check of the selected suites over [n_min, n_max]."""
    chosen = normalize_suites(suites)
    if n_min < 2:
        raise ValueError(f"pseudomoment matrices need n >= 2, got n_min={n_min}")
    if n_max < n_min:
        raise ValueError(f"empty range [{n_min}, {n_max}]")
    ctx = VerifyContext(n_min, n_max, seed)
    results = [
        _run_check(name, fn, ctx)
        for name, fn in _CHECKS
        if name.split(".", 1)[0] in chosen
    ]
    if inject_fault:
        results.append(_run_check("spectrum.fault_injection", _fault_injection, ctx))
    results.sort(key=lambda c: c.name)
    return VerificationReport(
        version=__version__,
        n_min=n_min,
        n_max=n_max,
        seed=seed,
        suites=chosen,
        checks=results,
    )


def format_text(report: VerificationReport) -> str:
    """Plain-text rendering: one line per check, then a summary line."""
    lines = []
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        lines.append(
            f"{c.name:<{width}}  {c.status:<7}  "
            f"checked={c.checked}  {c.elapsed_s:.3f}s"
        )
        if c.witness:
            lines.append(f"{'':<{width}}  {c.witness}")
    counts = report.counts()
    lines.append(
        f"overall: {'pass' if report.ok else 'FAIL'} "
        f"({counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped']} skipped)"
    )
    return "\n".join(lines)
