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
import csv
import io
import json
import sys

from . import __version__
from . import combinatorics as cb
from . import characters as ch
from . import pseudomoments as pm
from . import schur as su
from . import spectrum as sp
from .verify import DEFAULT_SEED, SUITE_NAMES, format_text, run_verify


def _format_set(mask: int) -> str:
    """Subset rendering: ascending indices joined by dashes, "0" for empty."""
    if mask == 0:
        return "0"
    return "-".join(str(i) for i in cb.elements_of_mask(mask))


def _format_cycle_type(ct) -> str:
    return "-".join(str(part) for part in ct)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit_table(args, header, rows, key, meta) -> None:
    """Write rows as CSV under header, or as JSON: meta plus key -> one
    {column: value} object per row."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _json_text({**meta, key: [dict(zip(header, row)) for row in rows]})
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_matrix(args) -> int:
    y = pm.build_Y(args.n)
    rows = [
        (_format_set(s), _format_set(t), str(y.rows[i][j]))
        for i, s in enumerate(y.subsets)
        for j, t in enumerate(y.subsets)
    ]
    header = ("row_set", "col_set", "value")
    _emit_table(args, header, rows, "entries", {"n": y.n, "d_max": y.d_max})
    return 0


SPECTRUM_EXACT_MAX_N = sp.ORDER_MAX_N


def _cmd_spectrum(args) -> int:
    n = args.n
    if not (2 <= n <= SPECTRUM_EXACT_MAX_N):
        raise ValueError(
            f"closed-form spectra are audited for 2 <= n <= "
            f"{SPECTRUM_EXACT_MAX_N}, got {n}"
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
    _emit(_json_text(payload), args.out)
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
        _emit(_json_text(report.to_dict()), args.out)
    return 0 if report.ok else 1


CHARACTERS_MAX_N = cb.PARTITION_MAX_N


def _cmd_characters(args) -> int:
    n, d = args.n, args.d
    if not (2 <= n <= CHARACTERS_MAX_N):
        raise ValueError(
            f"character tables need 2 <= n <= {CHARACTERS_MAX_N}, got {n}"
        )
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
        _emit(_json_text(payload), args.out)
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
