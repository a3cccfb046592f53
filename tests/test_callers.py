"""What src holds matches what uses it and what it declares: every
definition in the package is reached from the package itself or from the
benchmark, so code that only the tests call does not stay in src, and every
import is the standard library, the package or a dependency pyproject.toml
declares.

The caller audit counts functions, classes, class-body and module-level
assignments as definitions that something must name, plain methods (not
properties) as ones that something must call as an attribute or name in a
dotted string, and annotated class-body names (dataclass fields) as
attributes that something must read; the acceptance criteria count as
readers of fields, since they are the binding contract.  It repeats with
the flagged definitions' bodies left out until nothing new is flagged, so
a definition that only dead code uses fails too.  An import alone is not a
use: it counts where the importing module also reads the name it binds, or
in an __init__.py, which re-exports it.  It is a lower bound: a name counts
as used wherever it appears in its kind of use, so a method sharing its
name with one called elsewhere (random.Random.shuffle in perfbench, say)
passes unseen; but an attribute of that name read without a call
(SpanPoly.degree) or a bare string (the "degree" of SpanPoly._SHAPE) does
not make a method used."""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cubemoments").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
FIELD_READERS = USERS + [ROOT / "tests" / "test_acceptance.py"]
# a check registered with verify's table is reached through the table
REGISTRARS = {"verified", "_check"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _registered(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in getattr(node, "decorator_list", ())
    )


def _assigned(node) -> list:
    """The plain names an assignment statement binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _is_property(node) -> bool:
    """Decorated @property, or as a property's setter or deleter."""
    return any(
        isinstance(d, ast.Name) and d.id == "property"
        or isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
        for d in node.decorator_list
    )


def _members(nodes, prefix=""):
    """(qualified name, name, node, kind) of each definition and assignment
    among nodes, kind "field", "method" or "name" for the use it needs; a
    class's body is searched one level down."""
    for node in nodes:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            method = bool(prefix) and isinstance(node, FUNCTIONS) and not _is_property(node)
            yield prefix + node.name, node.name, node, "method" if method else "name"
            if isinstance(node, ast.ClassDef) and not prefix:
                yield from _members(node.body, f"{node.name}.")
        else:
            field = bool(prefix) and isinstance(node, ast.AnnAssign)
            for name in _assigned(node):
                yield prefix + name, name, node, "field" if field else "name"


def _definitions(path: Path):
    """(qualified name, name, node, kind) of each audited definition,
    dunders and registered checks aside."""
    for qualname, name, node, kind in _members(_parse(path).body):
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and not _registered(node):
            yield f"{path.stem}.{qualname}", name, node, kind


def _walk(node, skip):
    if node in skip:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, skip)


def _used_names(path: Path, skip) -> dict:
    """The names a module uses outside the skipped nodes, by the kind of
    definition they reach: "name" as a Name, an Attribute or the last
    dotted part of a string (perfbench names its traced targets as
    strings), and an imported name when the module reads the name it
    binds, or always in an __init__.py, whose imports are re-exports;
    "method" as an Attribute called or the last part of a dotted string;
    "field" as an Attribute read or updated in place."""
    names, methods, attributes = set(), set(), set()
    imported = []
    for node in _walk(_parse(path), skip):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if not isinstance(node.ctx, ast.Store):
                attributes.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            attributes.add(node.target.attr)
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
            imported.append((node.asname or name, name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.rsplit(".", 1)[-1])
            if "." in node.value:
                methods.add(node.value.rsplit(".", 1)[-1])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            methods.add(node.func.attr)
    reexports = path.name == "__init__.py"
    names.update(name for bound, name in imported if reexports or bound in names)
    return {"name": names, "method": methods, "field": attributes}


def _unused(skip, package, users, field_readers) -> list:
    reads = {path: _used_names(path, skip) for path in {*users, *field_readers}}
    used = {
        kind: set().union(*(reads[path][kind] for path in readers))
        for kind, readers in (("name", users), ("method", users), ("field", field_readers))
    }
    return [
        (qualname, node)
        for path in package
        for qualname, name, node, kind in _definitions(path)
        if name not in used[kind]
    ]


def _flagged(package, users, field_readers) -> list:
    """The audited definitions of package that nothing in users reaches,
    directly or through other flagged definitions only."""
    flagged = {}
    while True:
        unused = _unused(set(flagged.values()), package, users, field_readers)
        new = {q: node for q, node in unused if q not in flagged}
        if not new:
            return sorted(flagged)
        flagged.update(new)


def test_every_definition_has_a_caller_outside_the_tests():
    flagged = _flagged(PACKAGE, USERS, FIELD_READERS)
    assert not flagged, f"no caller outside the tests: {', '.join(flagged)}"


def test_an_import_alone_is_not_a_caller(tmp_path):
    # a name one module imports and never reads is flagged; an import in
    # __init__.py re-exports the name, and an alias counts when it is read
    sources = {
        "__init__.py": "from .defs import exported\n",
        "defs.py": "def exported():\n    pass\n\n\ndef only_imported():\n    pass\n\n\n"
        "def read():\n    pass\n\n\ndef renamed():\n    pass\n\n\nUNREAD = 1\n",
        "user.py": "from .defs import UNREAD, only_imported, read, renamed as alias\n\n"
        "read()\nalias()\n",
    }
    paths = []
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
        paths.append(tmp_path / name)
    assert _flagged(paths, paths, paths) == ["defs.UNREAD", "defs.only_imported"]


def test_a_method_counts_only_where_it_is_called(tmp_path):
    # a plain method is used where it is called as an attribute or named in
    # a dotted string; a same-named attribute read or a bare string is no
    # use of it, while a property counts wherever its name is read
    sources = {
        "defs.py": "class Poly:\n    SHAPE = ('degree',)\n\n"
        "    def degree(self):\n        pass\n\n"
        "    def called(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n\n"
        "    @property\n    def size(self):\n        pass\n",
        "user.py": "from .defs import Poly\n\n"
        "p = Poly()\np.called()\nprint(p.degree, p.size, p.SHAPE, 'Poly.traced')\n",
    }
    paths = []
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
        paths.append(tmp_path / name)
    assert _flagged(paths, paths, paths) == ["defs.Poly.degree"]


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
