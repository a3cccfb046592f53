"""Benchmark of the cubemoments package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

One process runs one workload in a closed loop: whole passes over the
workload's operations, back to back, until the next pass would overrun
--seconds.  The package's caches are emptied before every pass, so each
pass costs what one fresh CLI call costs.  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it runs the first half of its time
untraced and the second half traced, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every operation matched the oracle.  With --workload all each workload
runs in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
# set before numpy loads: one BLAS thread keeps runs on a shared machine
# comparable, and the float workload is the only one that uses BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify", "verify", "eliminate", "float")
SETUP_REPEATS = 9
REFERENCE_CALLS = 4
TAIL_PERCENT = 80
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checked", "count"),
]


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    """Import numpy and the package from this checkout's src/, timing each."""
    if not (SRC / "cubemoments" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'cubemoments'}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy

    mid = perf_counter()
    import cubemoments.cli

    end = perf_counter()
    if not Path(cubemoments.cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"cubemoments was imported from {cubemoments.cli.__file__}, not {SRC}")
    return {"import.numpy.s": mid - start, "import.cubemoments.s": end - mid}


def measure_setup(reference) -> tuple:
    """Median time for a fresh interpreter to import numpy and the package,
    unscaled and scaled like wall_s by the reference run around and between
    the starts.  One unmeasured start first writes the bytecode caches, as
    an install would."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, cubemoments.cli"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, cwd=ROOT, check=True)
    ref_times = _reference_times(reference, REFERENCE_CALLS)
    times = []
    for _ in range(SETUP_REPEATS):
        ref_times += _reference_times(reference, 1)
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    ref_times += _reference_times(reference, REFERENCE_CALLS)
    raw = statistics.median(times)
    return raw, raw * reference.nominal_s / statistics.median(ref_times)


def environment() -> dict:
    import numpy

    from cubemoments.scalars import Q

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubemoments").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "scalar_backend": f"{Q.__module__}.{Q.__qualname__}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def cache_clearers() -> list:
    """Functions that empty the package's memo caches (lru caches and
    module-level cache dicts), collected before tracing wraps anything."""
    out = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("cubemoments"):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                out.append(value.cache_clear)
            elif isinstance(value, dict) and attr.startswith("_") and "cache" in attr:
                out.append(value.clear)
    return out


def _reference_times(reference, calls: int) -> list:
    times = []
    for _ in range(calls):
        start = perf_counter()
        reference.run()
        times.append(perf_counter() - start)
    return times


def run_passes(workload, budget: float, clearers, inject_fault: bool, tracer=None):
    """Whole passes until the next one would end after budget seconds;
    always at least one.  The workload's reference computation runs
    REFERENCE_CALLS times before and after each pass and once before each
    operation, outside the timed regions; the median of those times sets
    the pass's scale.  Returns the PassResults and, when traced, each pass's
    span summary with its times scaled."""
    reference = workload.reference
    passes, summaries = [], []
    start = perf_counter()
    while True:
        for clear in clearers:
            clear()
        gc.collect()
        ref_times = _reference_times(reference, REFERENCE_CALLS)

        def before_op():
            if tracer:
                tracer.next_op()
            ref_times.extend(_reference_times(reference, 1))

        first = tracer.mark() if tracer else 0
        result = workload.run_pass(inject_fault, before_op)
        summary = tracer.summarize(first) if tracer else {}
        ref_times.extend(_reference_times(reference, REFERENCE_CALLS))
        result.scale = reference.nominal_s / statistics.median(ref_times)
        passes.append(result)
        if tracer:
            summaries.append({
                k: v * result.scale if k.endswith((".s", ".self_s")) else v
                for k, v in summary.items()
            })
        if perf_counter() - start + result.wall_s > budget:
            return passes, summaries


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(samples: list) -> tuple:
    """The TAIL_PERCENT percentile of the samples and how many lie above it."""
    if len(samples) < 2:
        return (samples[0] if samples else 0.0), 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENT - 1]
    return value, sum(1 for s in samples if s > value)


def _counts_repeat(summaries) -> bool:
    exact = [
        {k: v for k, v in s.items() if not k.endswith((".s", ".self_s"))}
        for s in summaries
    ]
    return all(e == exact[0] for e in exact)


def run_one(args) -> int:
    imports = _import_package()
    import tracing
    import workloads

    oracle = workloads.load_oracle()
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        # interpreter start-up is plain Python work, like the exact workloads
        raw_setup, setup_s = measure_setup(workloads.FRACTION_REFERENCE)
        print(f"setup: unscaled median {raw_setup:.4f} s, scaled {setup_s:.4f} s")
    workload = workloads.WORKLOADS[args.workload](args.seed, oracle, OUT_DIR)
    clearers = cache_clearers()

    if args.trace:
        plain, _ = run_passes(workload, args.seconds / 2, clearers, args.inject_fault)
        tracer = tracing.Tracer()
        tracer.install()
        traced, summaries = run_passes(
            workload, args.seconds / 2, clearers, args.inject_fault, tracer
        )
        passes = plain + traced
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        if not _counts_repeat(summaries):
            print("warning: exact counts differ between traced passes")
        series = {}
        for summary in summaries:
            for key, value in summary.items():
                series.setdefault(key, []).append(value)
        values = {key: _median(v) for key, v in series.items()}
        values.update(imports)
        plain_wall = _median([p.wall_s * p.scale for p in plain])
        traced_wall = _median([p.wall_s * p.scale for p in traced])
        values["trace.overhead_s"] = traced_wall - plain_wall
        print(
            f"tracing overhead: {traced_wall - plain_wall:+.4f} s per pass "
            f"({traced_wall:.4f} traced, {plain_wall:.4f} untraced, "
            f"{len(traced)} and {len(plain)} passes); spans in {spans_path.name}"
        )
        specs = tracing.per_layer_metrics(oracle["verify_statuses"])
        metrics = {
            name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in specs
        }
    else:
        passes, _ = run_passes(workload, args.seconds, clearers, args.inject_fault)
        samples = [op.seconds * p.scale * 1000 for p in passes for op in p.ops]
        tail, beyond = _tail(samples)
        checked = passes[0].checked
        if any(p.checked != checked for p in passes):
            print("warning: checked differs between passes")
        values = {
            "setup_s": setup_s,
            "wall_s": _median([p.wall_s * p.scale for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "checked": checked,
        }
        print(
            f"{len(passes)} passes; unscaled median pass "
            f"{_median([p.wall_s for p in passes]):.4f} s, median scale "
            f"{_median([p.scale for p in passes]):.4f}; operation latency "
            f"median {_median(samples):.4f} ms, p{TAIL_PERCENT} {tail:.4f} ms "
            f"({len(samples)} samples, {beyond} above p{TAIL_PERCENT})"
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(len(p.ops) for p in passes)
    failures = [(op.label, op.problem) for p in passes for op in p.ops if op.problem]
    for label, problem in failures[:10]:
        print(f"FAILED {label}: {problem}")
    print(f"fail_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, one at a time."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--inject-fault"] if args.inject_fault else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt the first result of every pass; the run must then fail",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
