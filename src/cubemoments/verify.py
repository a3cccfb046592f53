"""Named verification checks bundled into suites.

Each cross-route identity is implemented once, as a function
<identity>_check(n) -> Report in the module that owns its routes; the
acceptance tests call the same functions.  Beside its definition,
report.verified declares its stable dotted name (suite.check), the n range
verify covers and the guard that bounds it, so raising a cap is a one-line
edit there; this module adds the few checks that are not one call per n.
run_verify executes the selected suites over an n range, clamping each
check to its span: values of n beyond it are simply not covered, and a
check whose span excludes the whole requested range reports "skipped" with
the reason rather than failing.  Overall success is the conjunction of the
non-skipped checks.

Randomized checks draw from a SplitMix64 seeded per check, so reports are
reproducible and independent of execution order; results are sorted by
check name before they are returned.  That independence lets run_verify
spread the checks over every usable CPU: this process and one forked child
per further CPU claim check indices from one shared pipe, and each child
streams its results back over a pipe of its own (_run_tasks).  A check's
elapsed_s is measured inside the process that ran it.  With one usable
CPU (taskset -c 0), without os.fork or while another thread runs, every
check runs here, one after another.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass

from . import __version__
# importing a check module declares its checks' spans in report.SPANS
from . import apolar as ap
from . import characters  # noqa: F401
from . import combinatorics as cb
from . import pseudomoments as pm
from . import schur as su
from . import spectrum as sp
from .report import SPANS, Report
from .rng import SplitMix64

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


_SPANS = {span.name: span for span in SPANS}


def _span(ctx: VerifyContext, rep: Report, name: str) -> range:
    """The n values to cover: the requested range clamped to the span
    declared beside the check."""
    span = _SPANS[name]
    start, stop = max(ctx.n_min, span.lo), min(ctx.n_max, span.cap)
    if start > stop:
        raise _Skipped(
            f"no n in [{ctx.n_min}, {ctx.n_max}] within the {span.guard} guard "
            f"[{span.lo}, {span.cap}]"
        )
    if ctx.n_max > span.cap:
        rep.note(f"n capped at {span.cap} ({span.guard} guard)")
    return range(start, stop + 1)


def _per_n(span):
    module, attr = sys.modules[span.check.__module__], span.check.__name__

    def run(ctx, rep):
        for n in _span(ctx, rep, span.name):
            # looked up per call, so a rebound module attribute is what runs
            rep.absorb(getattr(module, attr)(n))

    return run


# (name, fn(ctx, rep)); a module-level list that tools may rewrite in place
_CHECKS: list = []


def _check(name: str):
    def registrar(fn):
        _CHECKS.append((name, fn))
        return fn

    return registrar


@_check("pseudomoments.balanced_moments")
def _balanced_moments(ctx, rep):
    """Closed balanced-measure moments vs enumeration and the a_k table."""
    ns = [n for n in _span(ctx, rep, "pseudomoments.balanced_moments") if n % 2 == 0]
    if not ns:
        raise _Skipped(
            f"the balanced measure exists only for even n; none in "
            f"[{ctx.n_min}, {ctx.n_max}]"
        )
    for n in ns:
        rep.absorb(pm.balanced_moments_check(n))


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

    for n in _span(ctx, rep, "apolar.adjointness"):
        for _ in range(5):
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            p, q, r = random_span(n, a), random_span(n, b), random_span(n, a + b)
            rep.absorb(ap.adjointness_check(p, q, r))


@_check("spectrum.positivity_and_order")
def _positivity_and_order(ctx, rep):
    """Positivity is asserted; distinctness and order are recorded."""
    collisions, chain_fails = [], []
    for n in _span(ctx, rep, "spectrum.positivity_and_order"):
        orep = sp.distinctness_and_order_report(n)
        rep.absorb(orep.report)
        if not orep.distinct:
            collisions.append(n)
        if not orep.claimed_chain_holds:
            chain_fails.append(n)
    parts = [f"the strict ordering chain fails at n={chain_fails}"] if chain_fails else []
    parts += [f"eigenvalues collide at even n={collisions}"] if collisions else []
    if parts:
        rep.note(
            f"documented discrepancy, not a failure: {' and '.join(parts)}; "
            "values, positivity, and multiplicities all verify"
        )


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


# every other declared span runs as one call of its check per n
_CHECKS[:0] = [(s.name, _per_n(s)) for s in SPANS if s.name not in dict(_CHECKS)]


# ---------------------------------------------------------------------------
# fault injection (only materialized on request)


def _fault_injection(ctx, rep):
    """Feed a corrupted lambda_0 to the exact certificate machinery; the
    run must fail with a witness from annihilation and from the trace
    moments each, proving that both can tell a wrong spectrum from a right
    one.  n stays at most 5, where the lambda_{n,d} are pairwise distinct:
    at n = 6 lambda_{n,0} = lambda_{n,2}, so lambda_0 stays a root of the
    annihilating polynomial and only the traces could see the fault."""
    n = min(max(ctx.n_min, 2), 5)
    corrupted = [sp.lambda_closed(n, d) for d in range(cb.d_max(n) + 1)]
    corrupted[0] = corrupted[0] + 1
    ann = sp.annihilation_check(n, eigenvalues=corrupted)
    tr = sp.trace_moment_check(n, eigenvalues=corrupted)
    rep.count(ann.checked + tr.checked)
    routes = (("annihilation", ann), ("traces", tr))
    missed = " and ".join(name for name, r in routes if r.ok)
    if missed:
        rep.fail(f"corrupted eigenvalues went undetected by {missed} at n={n}")
    else:
        rep.fail(f"injected fault detected as intended at n={n}: {ann.details[0]}")


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


def _witness_text(rep: Report) -> str:
    if len(rep.details) > 6:
        return "; ".join(rep.details[:6]) + f"; (+{len(rep.details) - 6} more)"
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


def _worker_count() -> int:
    """Processes that may share a run: one per CPU in this process's
    affinity mask, where os.fork and os.sched_getaffinity exist (Linux).
    1 elsewhere, and while another thread runs, since a forked child holds
    a copy of every lock that thread may have held."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


_INDEX_BYTES = 4  # one task index in the claim pipe


def _claims(claim_r: int):
    """Task indices read from the shared claim pipe until it is empty; each
    read takes one whole index, since every index was written before any
    worker started."""
    while chunk := os.read(claim_r, _INDEX_BYTES):
        yield int.from_bytes(chunk, "little")


def _serve(tasks: list, ctx: VerifyContext, claim_r: int, out_w: int) -> None:
    """A forked child's whole life: one (i, result) record per claimed
    index, then os._exit, so the child never returns into its caller's code."""
    code = 1
    try:
        with os.fdopen(out_w, "wb") as out:
            for i in _claims(claim_r):
                pickle.dump((i, _run_check(*tasks[i], ctx)), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _records(source):
    """(index, result) records from one child's pipe, up to its end or to
    the last whole record."""
    while True:
        try:
            yield pickle.load(source)
        except (EOFError, pickle.UnpicklingError):
            return


def _run_tasks(tasks: list, ctx: VerifyContext) -> list:
    """One CheckResult per (name, fn) task, in no particular order.  Every
    index goes into one pipe, one child is forked per further worker, and
    this process and the children claim indices until the pipe is empty;
    with one worker nothing is forked.  A check whose child ended before
    reporting it fails by name.  Every child is reaped before this returns
    or raises."""
    workers = min(_worker_count(), len(tasks))
    claim_r, claim_w = os.pipe()
    with os.fdopen(claim_w, "wb") as claim:
        claim.write(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(tasks))))
    results, children, finished = {}, {}, False
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers so far share the run
                os.close(out_r)
                os.close(out_w)
                break
            if pid == 0:
                _serve(tasks, ctx, claim_r, out_w)
            os.close(out_w)
            children[pid] = os.fdopen(out_r, "rb")
        for i in _claims(claim_r):
            results[i] = _run_check(*tasks[i], ctx)
        for source in children.values():
            results.update(_records(source))
        finished = True
    finally:
        for pid, source in children.items():
            if not finished:  # this process raised: stop the children's work too
                import signal  # not loaded at startup, so imported only on this path

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            source.close()
        os.close(claim_r)
    for i, (name, _) in enumerate(tasks):
        if i not in results:
            results[i] = CheckResult(
                name, "fail", f"{name} lost: its worker process ended before reporting it"
            )
    return list(results.values())


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
    tasks = [(name, fn) for name, fn in _CHECKS if name.split(".", 1)[0] in chosen]
    if inject_fault:
        tasks.append(("spectrum.fault_injection", _fault_injection))
    results = _run_tasks(tasks, ctx)
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
