"""The benchmark's workloads and the oracle that judges each operation.

A workload is a fixed list of calls into the package's public functions.
One pass runs the whole list once, in one closed loop: each call starts
after the previous one returns.  Every call is then judged against
oracle.json, the results frozen when the benchmark was defined, so a wrong
answer counts as a failed operation however fast it came.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from cubemoments import cli
from cubemoments import pseudomoments as pm
from cubemoments import schur as su
from cubemoments import spectrum as sp

CERTIFY_NS = range(2, 8)
ELIMINATE_NS = range(2, 8)
RANK_NS = range(2, 9)
FLOAT_NS = range(2, 14)
VERIFY_N_MIN, VERIFY_N_MAX = 2, 6

ORACLE_PATH = Path(__file__).with_name("oracle.json")

@dataclass(frozen=True)
class Reference:
    """A fixed computation of the same kind as a workload (exact rationals,
    or LAPACK), written here and never in the package.  The host's speed
    drifts by a fifth or more over tens of seconds, so the reference runs
    around every pass and before every operation, and the pass's times are
    scaled by how fast it ran.  nominal_s is its median time on the machine
    the benchmark was defined on (Intel Xeon at 2.1 GHz, 2 vCPUs, one BLAS
    thread)."""

    run: Callable[[], object]
    nominal_s: float


_REF_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 7 + 2) for j in range(12)]
    for i in range(12)
]
_REF_SYMMETRIC = np.cos(np.add.outer(np.arange(480), 2 * np.arange(480)) * 0.37)
_REF_SYMMETRIC = _REF_SYMMETRIC + _REF_SYMMETRIC.T


def _fraction_work():
    """Two products of a fixed 12 x 12 rational matrix, in plain Python."""
    out, cols = _REF_MATRIX, list(zip(*_REF_MATRIX))
    for _ in range(2):
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in out]
    return out


_EIGVALSH = np.linalg.eigvalsh  # bound before a traced run wraps it


def _lapack_work():
    """Eigenvalues of a fixed dense symmetric 480 x 480 matrix."""
    return _EIGVALSH(_REF_SYMMETRIC)


FRACTION_REFERENCE = Reference(_fraction_work, 0.016)
LAPACK_REFERENCE = Reference(_lapack_work, 0.0135)


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))


@dataclass
class OpRecord:
    """One judged operation: its time, its exact comparisons, and a witness
    when it failed (raised, reported not ok, or disagreed with the oracle)."""

    label: str
    seconds: float
    checked: int = 0
    problem: str | None = None


@dataclass
class PassResult:
    """One pass: program time, its operations, and the factor that scales
    its times to the reference machine (set by the caller)."""

    wall_s: float
    ops: list = field(default_factory=list)
    scale: float = 1.0

    @property
    def checked(self) -> int:
        return sum(op.checked for op in self.ops)


class _Calls:
    """A workload made of (label, module, function name, arg) calls; the
    subclass sets calls and reference and defines judge and corrupt."""

    def run_pass(self, inject_fault: bool = False, before_op=None) -> PassResult:
        """Time each call, then judge its result outside the timed region.
        The function is looked up at call time, so a traced run reaches the
        wrapped one.  With inject_fault the first result of the pass is
        corrupted before judging, to show the oracle catches it.  before_op,
        when given, runs ahead of every operation, outside its timed region."""
        result_pass = PassResult(0.0)
        for index, (label, module, name, arg) in enumerate(self.calls):
            if before_op:
                before_op()
            fn = getattr(module, name)
            start = perf_counter()
            try:
                result = fn(arg)
            except Exception as exc:  # a crashed operation is a failed one
                seconds = perf_counter() - start
                result_pass.wall_s += seconds
                result_pass.ops.append(
                    OpRecord(label, seconds, 0, f"raised {type(exc).__name__}: {exc}")
                )
                continue
            seconds = perf_counter() - start
            result_pass.wall_s += seconds
            if inject_fault and index == 0:
                self.corrupt(result)
            checked, problem = self.judge(label, arg, result)
            result_pass.ops.append(OpRecord(label, seconds, checked, problem))
        return result_pass


def _shuffled(values, seed: int) -> list:
    out = list(values)
    random.Random(seed).shuffle(out)
    return out


def _expected_float_spectrum(entry: dict) -> list:
    want = []
    for _, value, mult in entry["eigenvalues"]:
        want += [float(Fraction(value))] * mult
    want += [0.0] * entry["zero_multiplicity"]
    want.sort(reverse=True)
    return want


class Certify(_Calls):
    """spectrum.exact_spectrum_certificate(n), one operation per n."""

    reference = FRACTION_REFERENCE

    def __init__(self, seed: int, oracle: dict, out_dir: Path):
        self.oracle = oracle
        self.calls = [
            (f"n={n}", sp, "exact_spectrum_certificate", n)
            for n in _shuffled(CERTIFY_NS, seed)
        ]

    def judge(self, label, n, cert):
        want = self.oracle["spectra"][str(n)]
        got = [[d, str(v), m] for d, v, m in cert.eigenvalues]
        problems = []
        if not cert.ok:
            problems.append("report not ok: " + "; ".join(cert.report.details[:3]))
        if got != want["eigenvalues"]:
            problems.append(f"eigenvalues {got} != {want['eigenvalues']}")
        if cert.zero_multiplicity != want["zero_multiplicity"]:
            problems.append(f"zero multiplicity {cert.zero_multiplicity}")
        flags = (cert.annihilation_ok, cert.traces_ok, cert.rank_ok, cert.positive_ok)
        if flags != (True, True, True, True):
            problems.append(f"annihilation/traces/rank/positive = {flags}")
        return cert.report.checked, "; ".join(problems) or None

    @staticmethod
    def corrupt(cert) -> None:
        d, value, mult = cert.eigenvalues[0]
        cert.eigenvalues[0] = (d, value + 1, mult)


class Eliminate(_Calls):
    """Iterated Schur elimination, Gram reconstruction and hypercube
    decomposition per n, plus the exact rank of Y per n."""

    reference = FRACTION_REFERENCE

    def __init__(self, seed: int, oracle: dict, out_dir: Path):
        self.oracle = oracle
        ns = _shuffled(sorted(set(ELIMINATE_NS) | set(RANK_NS)), seed)
        self.calls = []
        for n in ns:
            if n in ELIMINATE_NS:
                self.calls += [
                    (f"schur n={n}", su, "iterated_schur_on_Y", n),
                    (f"gram n={n}", sp, "gram_reconstruction_check", n),
                    (f"hypercube n={n}", pm, "hypercube_decomposition_check", n),
                ]
            if n in RANK_NS:
                self.calls.append((f"rank n={n}", sp, "rank_check", n))

    def judge(self, label, n, result):
        problems = []
        if isinstance(result, tuple):  # iterated_schur_on_Y: (blocks, report)
            blocks, report = result
            sizes = [len(b) for b in blocks]
            want = self.oracle["schur_block_sizes"][str(n)]
            if sizes != want:
                problems.append(f"block sizes {sizes} != {want}")
        else:
            report = result
        if not report.ok:
            problems.append("report not ok: " + "; ".join(report.details[:3]))
        return report.checked, "; ".join(problems) or None

    @staticmethod
    def corrupt(result) -> None:
        report = result[1] if isinstance(result, tuple) else result
        report.fail("injected fault")


class Float(_Calls):
    """spectrum.numeric_eigensolve(n), judged against the frozen exact
    spectrum at the package's float tolerance."""

    reference = LAPACK_REFERENCE

    def __init__(self, seed: int, oracle: dict, out_dir: Path):
        self.tol = oracle["float_rel_tol"]
        self.want = {n: _expected_float_spectrum(oracle["spectra"][str(n)]) for n in FLOAT_NS}
        self.calls = [
            (f"n={n}", sp, "numeric_eigensolve", n) for n in _shuffled(FLOAT_NS, seed)
        ]

    def judge(self, label, n, got):
        want = self.want[n]
        if len(got) != len(want):
            return 1, f"{len(got)} eigenvalues, expected {len(want)}"
        worst = max(abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want))
        problem = None if worst <= self.tol else f"off by {worst:.3e} relative"
        return len(want), problem

    @staticmethod
    def corrupt(values) -> None:
        values[0] += 1.0


class Verify:
    """One `cubemoments verify --suite all` call through the CLI entry point;
    each registered check in its JSON report is one operation."""

    reference = FRACTION_REFERENCE

    def __init__(self, seed: int, oracle: dict, out_dir: Path):
        self.want = oracle["verify_statuses"]
        self.out = out_dir / f"verify-seed{seed}.json"
        self.argv = [
            "verify", "--suite", "all",
            "--n-min", str(VERIFY_N_MIN), "--n-max", str(VERIFY_N_MAX),
            "--seed", str(seed), "--out", str(self.out),
        ]

    def run_pass(self, inject_fault: bool = False, before_op=None) -> PassResult:
        argv = self.argv + (["--inject-fault"] if inject_fault else [])
        self.out.unlink(missing_ok=True)
        if before_op:
            before_op()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crashed CLI fails every check
            wall = perf_counter() - start
            return PassResult(wall, [
                OpRecord(name, 0.0, 0, f"cli raised {type(exc).__name__}: {exc}")
                for name in self.want
            ])
        wall = perf_counter() - start
        try:
            checks = json.loads(self.out.read_text(encoding="utf-8"))["checks"]
        except (OSError, ValueError, KeyError) as exc:
            return PassResult(wall, [
                OpRecord(name, 0.0, 0, f"no report (exit {code}): {exc}")
                for name in self.want
            ])
        seen = {c["name"]: c for c in checks}
        ops = []
        for name in sorted(set(self.want) | set(seen)):
            got = seen.get(name)
            if got is None:
                ops.append(OpRecord(name, 0.0, 0, "check missing from the report"))
                continue
            problem = None
            if got["status"] != self.want.get(name):
                problem = f"status {got['status']} != {self.want.get(name)}: {got['witness']}"
            ops.append(OpRecord(name, got["elapsed_s"], got["checked"], problem))
        if code != 0 and all(op.problem is None for op in ops):
            ops.append(OpRecord("cli.exit", 0.0, 0, f"exit code {code}"))
        return PassResult(wall, ops)


WORKLOADS = {
    "certify": Certify,
    "verify": Verify,
    "eliminate": Eliminate,
    "float": Float,
}
