"""Write perfbench/oracle.json: the expected results the benchmark judges
every operation against.

The file was written once from the commit the benchmark was defined on and
is committed; rerunning this script on a later commit would let a wrong
result vouch for itself, so do that only when a change is meant to alter
what the package computes, and say so in the change.

    python3 perfbench/freeze_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cubemoments import combinatorics as cb  # noqa: E402
from cubemoments import schur as su  # noqa: E402
from cubemoments import spectrum as sp  # noqa: E402
from cubemoments.verify import run_verify  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    spectra = {
        str(n): {
            "eigenvalues": [
                [d, str(sp.lambda_closed(n, d)), sp.multiplicity(n, d)]
                for d in range(cb.d_max(n) + 1)
            ],
            "zero_multiplicity": sp.zero_multiplicity(n),
        }
        for n in range(2, max(workloads.FLOAT_NS) + 1)
    }
    blocks = {
        str(n): [len(b) for b in su.iterated_schur_on_Y(n)[0]]
        for n in workloads.ELIMINATE_NS
    }
    report = run_verify(
        n_min=workloads.VERIFY_N_MIN, n_max=workloads.VERIFY_N_MAX, seed=42
    )
    oracle = {
        "spectra": spectra,
        "schur_block_sizes": blocks,
        "verify_statuses": {c.name: c.status for c in report.checks},
        "float_rel_tol": 1e-9,
    }
    path = HERE / "oracle.json"
    path.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
