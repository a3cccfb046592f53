"""What src holds matches what uses it and what it declares: every
definition in the package is reached from the package itself or from the
benchmark, so code that only the tests call does not stay in src, and every
import is the standard library, the package or a dependency pyproject.toml
declares.

The caller audit is a lower bound: a name counts as used wherever it
appears, so a method sharing its name with one called elsewhere
(random.Random.shuffle in perfbench, say) passes unseen."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cubemoments").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
# a check registered with verify's table is reached through the table
REGISTRARS = {"verified", "_check"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _registered(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in node.decorator_list
    )


def _definitions(path: Path):
    """(qualified name, name) of each top-level function and class and each
    method of a top-level class, dunders and registered checks aside."""
    for node in _parse(path).body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, FUNCTIONS)]
        for qualname, member in members:
            dunder = member.name.startswith("__") and member.name.endswith("__")
            if not dunder and not _registered(member):
                yield f"{path.stem}.{qualname}", member.name


def _used_names(path: Path) -> set:
    """Names read as a Name, an Attribute, an import or the last dotted part
    of a string (perfbench names its traced targets as strings)."""
    used = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value.rsplit(".", 1)[-1])
    return used


def test_every_definition_has_a_caller_outside_the_tests():
    used = set().union(*map(_used_names, USERS))
    unused = sorted(
        qualname
        for path in PACKAGE
        for qualname, name in _definitions(path)
        if name not in used
    )
    assert not unused, f"no caller outside the tests: {', '.join(unused)}"


def _imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in a module, nested ones too."""
    out = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_imports_match_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    runtime = names(project["dependencies"])
    declared = runtime | names(project["optional-dependencies"]["fast"])
    imported = set().union(*map(_imported_modules, PACKAGE))
    undeclared = imported - set(sys.stdlib_module_names) - {"cubemoments"} - declared
    assert not undeclared, f"imported but not declared: {sorted(undeclared)}"
    assert runtime <= imported, f"declared but never imported: {sorted(runtime - imported)}"
