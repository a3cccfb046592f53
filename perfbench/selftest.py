"""Self-test of the benchmark: a corrupted result must count as a failure.

    python3 perfbench/selftest.py

For every workload one pass runs with its first result corrupted (for
certify lambda_0 + 1, for verify the CLI's own --inject-fault) and the
oracle must count it as failed.  The benchmark command must then exit
non-zero on a corrupted run and zero on a clean one, and must exit non-zero
without printing a result in a directory that holds only BENCHMARK.json
and perfbench/.  The metric names in BENCHMARK.json must be the ones the
benchmark reports.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads


def _bench(cwd, *extra):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "certify",
        "--seed", "1", "--seconds", "1", "--trace", "0", *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main() -> int:
    run._import_package()
    import tracing
    import workloads

    problems = []
    oracle = workloads.load_oracle()
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        result = workload(1, oracle, run.OUT_DIR).run_pass(inject_fault=True)
        failed = [op for op in result.ops if op.problem]
        print(f"{name}: {len(failed)} of {len(result.ops)} operations failed with a fault injected")
        if not failed:
            problems.append(f"{name}: a corrupted result passed the oracle")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in spec["end_to_end"]] != [name for name, _ in run.END_TO_END]:
        problems.append("end_to_end names in BENCHMARK.json differ from the reported ones")
    reported = [name for name, _, _ in tracing.per_layer_metrics(oracle["verify_statuses"])]
    if [m["name"] for m in spec["per_layer"]] != reported:
        problems.append("per_layer names in BENCHMARK.json differ from the reported ones")

    code, result = _bench(run.ROOT)
    print(f"clean run: exit {code}, failed {result and result['failed']}")
    if code != 0 or not result or result["failed"] != 0 or not result["correct"]:
        problems.append("a clean run did not pass")
    code, result = _bench(run.ROOT, "--inject-fault")
    print(f"corrupted run: exit {code}, failed {result and result['failed']}")
    if code == 0 or not result or result["failed"] == 0 or result["correct"]:
        problems.append("a corrupted run was not counted as failed")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _bench(bare)
    shutil.rmtree(bare)
    print(f"run without the package: exit {code}, result printed: {result is not None}")
    if code == 0 or result is not None:
        problems.append("a run without the package source exited 0 or printed a result")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
