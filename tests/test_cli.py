"""Command-line interface: formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubemoments
import cubemoments.cli as cli
import cubemoments.combinatorics as cb
import cubemoments.pseudomoments as pm
from cubemoments.cli import main
from cubemoments.errors import InconsistentBlockError
from cubemoments.pseudomoments import build_Y
from cubemoments.scalars import Q


def _mask(label: str) -> int:
    if label == "0":
        return 0
    return sum(1 << (int(part) - 1) for part in label.split("-"))


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_matrix_csv_frozen(tmp_path):
    out = tmp_path / "y3.csv"
    assert main(["matrix", "--n", "3", "--format", "csv", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["row_set", "col_set", "value"]
    assert len(rows) - 1 == 16  # dense 4x4
    table = {(r, c): v for r, c, v in rows[1:]}
    assert table[("0", "0")] == "1"
    assert table[("1", "2")] == "-1/2"
    assert table[("1", "1")] == "1"
    # integers are serialized without a denominator
    assert not any(v.endswith("/1") for v in table.values())


def test_matrix_csv_roundtrip(tmp_path):
    out = tmp_path / "y5.csv"
    assert main(["matrix", "--n", "5", "--out", str(out)]) == 0
    y = build_Y(5)
    rows = _read_csv(out)
    assert len(rows) - 1 == y.size**2
    for row_label, col_label, value in rows[1:]:
        assert y.entry(_mask(row_label), _mask(col_label)) == Q(value)
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings
    raw.decode("utf-8")


def test_matrix_json_roundtrip(tmp_path):
    out = tmp_path / "y4.json"
    assert main(["matrix", "--n", "4", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    y = build_Y(4)
    assert payload["n"] == 4 and payload["d_max"] == 2
    assert len(payload["entries"]) == y.size**2
    for entry in payload["entries"]:
        got = Q(entry["value"])
        assert got == y.entry(_mask(entry["row_set"]), _mask(entry["col_set"]))


def test_matrix_export_matches_reference_rendering(tmp_path):
    # each entry rendered on its own, with no label shared between entries
    def label(n, mask):
        return "-".join(str(i + 1) for i in range(n) if mask >> i & 1) or "0"

    for n in range(2, 8):
        y = build_Y(n)
        entries = [
            (label(n, s), label(n, t), str(y.entry(s, t)))
            for s in y.subsets
            for t in y.subsets
        ]
        header = ("row_set", "col_set", "value")
        want = {
            "csv": "".join(",".join(row) + "\n" for row in [header, *entries]),
            "json": json.dumps(
                {"n": n, "d_max": n // 2, "entries": [dict(zip(header, e)) for e in entries]},
                indent=2,
            )
            + "\n",
        }
        for fmt, text in want.items():
            out = tmp_path / f"y{n}.{fmt}"
            assert main(["matrix", "--n", str(n), "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == text.encode("utf-8"), (n, fmt)


def test_json_table_layout_matches_the_indent_2_encoder():
    # columns of one type, mixed types (1, True and 1.0 are equal keys but
    # encode apart), escapes, a "%" in a header and an empty table
    header = ("label", "count", "mixed", "100%")
    rows = [
        ("1-2", 3, 1, 'q"uo\\te'),
        ("\u00e9", -4, True, None),
        ("1-2", 3, 1.0, 0.5),
    ]
    meta = {"n": 4, "d": 2}
    for table in (rows, rows[:1], []):
        want = json.dumps({**meta, "rows": [dict(zip(header, r)) for r in table]}, indent=2)
        assert "".join(cli._json_table(header, table, "rows", meta)) == want + "\n"


def test_matrix_capacity_error(tmp_path):
    assert main(["matrix", "--n", "99"]) == 2
    assert main(["matrix", "--n", "13"]) == 2  # dense export ends at n = 12
    out = tmp_path / "f"
    assert main(["matrix", "--n", "13", "--out", str(out)]) == 2
    assert not out.exists()  # refused before the file is opened


def test_matrix_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["matrix", "--n", "6", "--out", str(a)]) == 0
    assert main(["matrix", "--n", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_exact_frozen(tmp_path):
    out = tmp_path / "s3.json"
    assert main(["spectrum", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["eigenvalues"] == [
        {"d": 0, "value": "1", "multiplicity": 1},
        {"d": 1, "value": "3/2", "multiplicity": 2},
    ]
    assert payload["zero_multiplicity"] == 1


def test_spectrum_float_deviation(tmp_path):
    out = tmp_path / "s10.json"
    assert main(["spectrum", "--n", "10", "--mode", "float", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["max_relative_deviation"] <= 1e-9
    assert len(payload["numeric"]) == cb.binomial_le(10, 5)
    assert payload["numeric"] == sorted(payload["numeric"], reverse=True)


def test_spectrum_usage_errors():
    assert main(["spectrum", "--n", "3", "--mode", "bogus"]) == 2
    assert main(["spectrum", "--n", "99"]) == 2
    assert main(["spectrum", "--n", "5", "--mode", "float", "--tol", "0"]) == 2


def test_verify_small_range(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "--suite",
            "all",
            "--n-min",
            "2",
            "--n-max",
            "4",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["overall"] == "pass"
    assert payload["counts"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names) and len(names) == len(set(names))
    assert payload["suites"] == [
        "apolar",
        "appendix",
        "characters",
        "pseudomoments",
        "schur",
        "spectrum",
    ]
    # no check ran vacuously
    assert all(c["checked"] > 0 for c in payload["checks"] if c["status"] == "pass")


def test_verify_skipped_not_failed(tmp_path):
    out = tmp_path / "skip.json"
    code = main(
        ["verify", "--suite", "appendix", "--n-min", "7", "--n-max", "7",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["overall"] == "pass"
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses == {"skipped"}
    assert all(c["witness"] for c in payload["checks"])


def test_verify_inject_fault(tmp_path):
    out = tmp_path / "fault.json"
    code = main(
        ["verify", "--suite", "spectrum", "--n-min", "2", "--n-max", "3",
         "--inject-fault", "--out", str(out)]
    )
    assert code == 1
    payload = json.loads(out.read_text(encoding="utf-8"))
    by_name = {c["name"]: c for c in payload["checks"]}
    fault = by_name["spectrum.fault_injection"]
    assert fault["status"] == "fail" and fault["witness"]
    others = [c for c in payload["checks"] if c["name"] != "spectrum.fault_injection"]
    assert all(c["status"] == "pass" for c in others)


def test_verify_usage_errors():
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["verify", "--n-min", "1"]) == 2
    assert main(["verify", "--n-min", "5", "--n-max", "4"]) == 2


def test_verify_determinism(tmp_path):
    def scrubbed(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        for check in payload["checks"]:
            check.pop("elapsed_s")
        return payload

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "schur", "--n-min", "2", "--n-max", "4",
            "--seed", "7", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert scrubbed(a) == scrubbed(b)


def test_characters_frozen_table(tmp_path):
    out = tmp_path / "chars.csv"
    assert main(["characters", "--n", "4", "--d", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["cycle_type", "class_size", "c_d_minus_1", "c_d", "chi"]
    assert [r[0] for r in rows[1:]] == ["1-1-1-1", "2-1-1", "2-2", "3-1", "4"]
    assert [int(r[4]) for r in rows[1:]] == [2, 0, 2, -1, 0]
    sizes = [int(r[1]) for r in rows[1:]]
    assert sum(sizes) == 24
    assert sum(s * int(r[4]) for s, r in zip(sizes, rows[1:])) == 0


def test_characters_trivial_and_weighted_sums(tmp_path):
    out = tmp_path / "chars.json"
    assert main(
        ["characters", "--n", "6", "--d", "0", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert all(row["chi"] == 1 for row in payload["rows"])
    for d in (1, 2, 3):
        assert main(
            ["characters", "--n", "6", "--d", str(d), "--format", "json",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        total = sum(row["class_size"] * row["chi"] for row in payload["rows"])
        assert total == 0


def test_characters_usage_errors():
    assert main(["characters", "--n", "31", "--d", "1"]) == 2
    assert main(["characters", "--n", "4", "--d", "3"]) == 2
    assert main(["characters", "--n", "4", "--d", "-1"]) == 2


def test_schur_subcommand(tmp_path):
    out = tmp_path / "schur.json"
    assert main(
        ["schur", "--n", "4", "--trials", "20", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["block_sizes"] == [1, 4, 6]
    assert payload["overall"] == "pass"
    assert main(["schur", "--n", "4", "--steps", "5"]) == 2
    assert main(["schur", "--n", "9"]) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_schur_without_trials_is_usage_error(trials, capsys):
    assert main(["schur", "--n", "4", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one trial" in captured.err


def test_matrix_writes_stdout_without_out(capsys):
    assert main(["matrix", "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("row_set,col_set,value\n0,0,1\n")
    assert captured.err == ""


def test_arithmetic_error_is_verification_failure(monkeypatch, capsys):
    def refuted(n):
        raise InconsistentBlockError(f"refuted at n={n}")

    monkeypatch.setattr(pm, "build_Y", refuted)
    assert main(["matrix", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: refuted at n=3\n"


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_module_invocation():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(cubemoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cubemoments.cli", "matrix", "--n", "2"],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"row_set,col_set,value\n")
    assert b"\r" not in proc.stdout
    proc.stdout.decode("utf-8")
