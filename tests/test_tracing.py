"""The benchmark's traced layer names resolve in the package, its exact
counters read the results their targets really return, and every field its
workloads judge exists on those results, so a renamed or deleted function or
field fails here rather than only in a traced benchmark run."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from cubemoments import exactmat as xm
from cubemoments import spectrum as sp
from cubemoments.pseudomoments import build_Y
from cubemoments.report import Report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _tracing()
    missing = []
    for module_name, attr, _ in tracing.SPANNED + tracing.COUNTED_ONLY:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_counters_read_real_results():
    tracing = _tracing()
    a = [[1, 2], [3, 4]]
    block = np.array([[2.0, 1.0], [1.0, 2.0]])
    calls = {
        "pseudomoments.build_Y": ((4,), build_Y(4)),
        "exactmat.mat_mul": ((a, a), xm.mat_mul(a, a)),
        "numpy.linalg.eigvalsh": ((block,), np.linalg.eigvalsh(block)),
    }
    assert set(calls) == set(tracing.COUNTERS)
    counts = Counter()
    for name, (args, result) in calls.items():
        tracing.COUNTERS[name](counts, args, result)
    assert counts == {
        "pseudomoments.build_Y.entries": 11**2,  # C(4, <= 2) = 11 rows
        "exactmat.mat_mul.scalar_mults": 2 * 2 * 2,
        "exactmat.mat_mul.max_bits": 5,  # [[7, 10], [15, 22]]
        "numpy.linalg.eigvalsh.flops_computed": 4 * 2**3 // 3,
        "spectrum.numeric_eigensolve.block_bytes_computed": block.nbytes,
    }


def _reads_off(cls: ast.ClassDef, root: str) -> set:
    """Dotted attribute paths a workload class reads off the name root."""
    paths = set()
    for node in ast.walk(cls):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            paths.add(".".join(reversed(parts)))
    return paths


def _resolves(obj, path: str) -> bool:
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_judged_fields_exist_on_real_results():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    reads = [
        (sp.exact_spectrum_certificate(3), _reads_off(classes["Certify"], "cert")),
        (Report(), _reads_off(classes["Eliminate"], "report")),
    ]
    assert all(paths for _, paths in reads)
    missing = [
        f"{type(result).__name__}.{path}"
        for result, paths in reads
        for path in sorted(paths)
        if not _resolves(result, path)
    ]
    assert missing == []
