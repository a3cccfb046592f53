"""Command-line front end.

Subcommands: matrix (export one pseudomoment matrix as CSV or JSON),
spectrum (exact eigenvalue listing, optionally cross-checked against the
float eigensolver), verify (run the named check suites over an n range),
characters (two-row character table with fixed-subset counts), and schur
(iterated block elimination plus the randomized Schur property checks).

Output is deterministic: the same invocation, including --seed, writes the
same bytes, except for the wall-clock fields in verify reports.  Exact
values are serialized as lowest-terms fraction strings, never floats.
Exit codes: 0 success, 1 verification failure, 2 usage or capacity error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import __version__
from . import combinatorics as cb
from . import characters as ch
from . import pseudomoments as pm
from . import schur as su
from . import spectrum as sp
from .scalars import Q
from .verify import DEFAULT_SEED, SUITE_NAMES, format_text, run_verify


def _format_set(mask: int) -> str:
    """Subset rendering: ascending indices joined by dashes, "0" for empty."""
    if mask == 0:
        return "0"
    return "-".join(str(i) for i in cb.elements_of_mask(mask))


def _format_cycle_type(ct) -> str:
    return "-".join(str(part) for part in ct)


def _destination(out_path):
    """The --out file to write through once, or stdout, which stays open."""
    if out_path:
        return open(out_path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit_json(payload, out_path) -> None:
    with _destination(out_path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _emit_table(args, header, rows, key, meta) -> None:
    """Write rows, which may be a generator, one at a time: as CSV under
    header, or as JSON, meta plus key -> one {column: value} object per row."""
    with _destination(args.out) as handle:
        if args.format == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            handle.writelines(_json_table(header, rows, key, meta))


def _json_table(header, rows, key, meta):
    """The pieces of json.dumps({**meta, key: [dict(zip(header, row)) for
    row in rows]}, indent=2) + "\\n", one row object at a time, for scalar
    meta values and row entries, laid out by hand: json.dumps with indent=2
    runs the pure-Python encoder, while a scalar encoded on its own goes
    through the C encoder."""
    head = "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in meta.items())
    names = [json.dumps(h).replace("%", "%%") for h in header]
    template = "    {\n" + ",\n".join(f"      {name}: %s" for name in names) + "\n    }"
    yield f"{{\n{head}  {json.dumps(key)}: ["
    separator = "\n"
    for row in rows:
        yield separator + template % tuple(map(json.dumps, row))
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_matrix(args) -> int:
    y = pm.build_Y(args.n)
    labels = [_format_set(s) for s in y.subsets]
    # den * Y holds at most n + 1 distinct values: render each once, and
    # walk Y one int64 row at a time
    text = {x: str(Q(x, y.den)) for x in np.unique(y.ints).tolist()}
    rows = (
        (s, t, text[x])
        for s, row in zip(labels, y.ints)
        for t, x in zip(labels, row.tolist())
    )
    header = ("row_set", "col_set", "value")
    _emit_table(args, header, rows, "entries", {"n": y.n, "d_max": y.d_max})
    return 0


def _cmd_spectrum(args) -> int:
    n = args.n
    if not (2 <= n <= sp.ORDER_MAX_N):
        raise ValueError(
            f"closed-form spectra are audited for 2 <= n <= {sp.ORDER_MAX_N}, got {n}"
        )
    payload = {
        "n": n,
        "d_max": cb.d_max(n),
        "eigenvalues": [
            {
                "d": d,
                "value": str(sp.lambda_closed(n, d)),
                "multiplicity": sp.multiplicity(n, d),
            }
            for d in range(cb.d_max(n) + 1)
        ],
        "zero_multiplicity": sp.zero_multiplicity(n),
    }
    if args.mode == "float":
        numeric, _, worst = sp.numeric_agreement(n)
        payload["numeric"] = numeric
        payload["max_relative_deviation"] = worst
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(
        suites=args.suite or ["all"],
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    sys.stdout.write(format_text(report) + "\n")
    if args.out:
        _emit_json(report.to_dict(), args.out)
    return 0 if report.ok else 1


def _cmd_characters(args) -> int:
    n, d = args.n, args.d
    if not (2 <= n <= cb.PARTITION_MAX_N):
        raise ValueError(f"character tables need 2 <= n <= {cb.PARTITION_MAX_N}, got {n}")
    if not (0 <= 2 * d <= n):
        raise ValueError(f"two-row shape needs 0 <= d <= n/2, got d={d}")
    # identity first, so the table reads in ascending class order
    rows = []
    for ct, size in reversed(cb.conjugacy_classes(n)):
        counts = ch.fixed_subset_counts(n, ct)
        c_prev = counts[d - 1] if d >= 1 else 0
        rows.append(
            (_format_cycle_type(ct), size, c_prev, counts[d], counts[d] - c_prev)
        )
    header = ("cycle_type", "class_size", "c_d_minus_1", "c_d", "chi")
    _emit_table(args, header, rows, "rows", {"n": n, "d": d})
    return 0


def _cmd_schur(args) -> int:
    blocks, elimination = su.iterated_schur_on_Y(args.n, args.steps)
    gram = su.gram_schur_property_check(args.seed, trials=args.trials)
    volume = su.volume_identity_check(args.seed, trials=args.trials)
    ok = elimination.ok and gram.ok and volume.ok
    lines = [
        f"iterated elimination on Y(n={args.n}): "
        f"block sizes {', '.join(str(len(b)) for b in blocks)}; "
        f"{'ok' if elimination.ok else 'FAIL'}",
        f"gram property over {args.trials} trials: "
        f"{'ok' if gram.ok else 'FAIL'}",
        f"volume identity over {args.trials} trials: "
        f"{'ok' if volume.ok else 'FAIL'}",
    ]
    for rep in (elimination, gram, volume):
        lines.extend(f"  {d}" for d in rep.details)
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        payload = {
            "n": args.n,
            "steps": len(blocks) - 1,
            "seed": args.seed,
            "trials": args.trials,
            "block_sizes": [len(b) for b in blocks],
            "elimination_ok": elimination.ok,
            "gram_property_ok": gram.ok,
            "volume_identity_ok": volume.ok,
            "overall": "pass" if ok else "fail",
        }
        _emit_json(payload, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemoments",
        description="Exact pseudomoment matrices on the hypercube",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="export a pseudomoment matrix")
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--format", choices=("csv", "json"), default="csv")
    matrix.add_argument("--out", default=None, help="write here instead of stdout")
    matrix.set_defaults(func=_cmd_matrix)

    spectrum = sub.add_parser("spectrum", help="list exact eigenvalues")
    spectrum.add_argument("--n", type=int, required=True)
    spectrum.add_argument("--mode", choices=("exact", "float"), default="exact")
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(func=_cmd_spectrum)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=("all",) + SUITE_NAMES,
        help="repeatable; defaults to all",
    )
    verify.add_argument("--n-min", type=int, default=2)
    verify.add_argument("--n-max", type=int, default=7)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--out", default=None, help="also write a JSON report")
    verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one eigenvalue to prove the harness catches it",
    )
    verify.set_defaults(func=_cmd_verify)

    characters = sub.add_parser("characters", help="two-row character table")
    characters.add_argument("--n", type=int, required=True)
    characters.add_argument("--d", type=int, required=True)
    characters.add_argument("--format", choices=("csv", "json"), default="csv")
    characters.add_argument("--out", default=None)
    characters.set_defaults(func=_cmd_characters)

    schur = sub.add_parser("schur", help="iterated Schur elimination checks")
    schur.add_argument("--n", type=int, required=True)
    schur.add_argument("--steps", type=int, default=None)
    schur.add_argument("--seed", type=int, default=DEFAULT_SEED)
    schur.add_argument("--trials", type=int, default=100)
    schur.add_argument("--out", default=None)
    schur.set_defaults(func=_cmd_schur)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # exact machinery refuting itself is a verification failure
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
