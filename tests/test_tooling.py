"""The benchmark harness under perfbench/ finds the program's functions by
name.  Its tracer skips a name it cannot find, so a rename in framednet
would silently zero a per-layer metric; these tests make it an error.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", PERFBENCH / "traced_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_test_names():
    """(module, attribute) for every framednet attribute test_perfbench.py reads."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "framednet"
        for alias in node.names
    }
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
    })


# traced_cli also wraps Z4Code._compute_profile when it exists.  That was
# the numpy profile sweep, deleted with numpy, and the "words" counter it
# fed reads 0 by design, so it is not checked here.
TRACED = _traced_cli()


@pytest.mark.parametrize(
    "module, name", sorted(set(TRACED.FUNCTIONS) | set(_perfbench_test_names()))
)
def test_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"framednet.{module}"), name, None))


@pytest.mark.parametrize("module, cls, method, metric", TRACED.METHODS)
def test_method_resolves(module, cls, method, metric):
    owner = getattr(importlib.import_module(f"framednet.{module}"), cls, None)
    assert callable(getattr(owner, method, None)), metric


def test_perfbench_test_names_found():
    assert ("fusion", "framed_structure") in _perfbench_test_names()


SRC = Path(__file__).resolve().parent.parent / "src" / "framednet"


@pytest.mark.parametrize("module", ["cli", "netchar", "orbifold", "fusion", "selftest"])
def test_uses_only_public_code_surface(module):
    """Only codes knows how rows are packed: the other modules import no
    private name from it and read no private attribute except their own,
    on self or cls."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = [
        f"{node.lineno}: from .codes import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "codes"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    found += [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "qseries"], ids=lambda p: p.name
)
def test_only_qseries_knows_the_series_storage(path):
    """Only qseries knows that a series keeps its exponents and order as
    numerators over 48, in a dict `terms`: no other module imports DEN or
    to_num, or reads a .terms attribute.  The rest pass and read
    exponents, so the series kernel can change inside qseries alone."""
    tree = ast.parse(path.read_text())
    found = [
        f"{node.lineno}: import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("DEN", "to_num")
    ]
    found += [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("DEN", "to_num", "terms")
    ]
    assert found == []


def _public_definitions(tree):
    """(name, node) of every public top-level function or class of a module,
    and every public method of those classes as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, lineno) of every name read in a module: ast.Name ids,
    ast.Attribute attributes and the names a from-import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_has_a_caller():
    """Each public function, class and method in src/framednet is named in
    src outside its own definition, or perfbench names it (its traced
    functions and methods and what test_perfbench.py reads).  So the
    library keeps no surface that only the tests reach.

    The match is by name alone: a method counts as called when any
    attribute of that name is read anywhere, so it cannot catch a member
    that shares its name with another one: a second `coeff` on another
    class would pass on QSeries.coeff's callers alone.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {
        module: list(_references(tree)) for module, tree in trees.items()
    }
    pinned = {(m, n) for m, n in TRACED.FUNCTIONS} | set(_perfbench_test_names())
    pinned |= {(m, f"{cls}.{method}") for m, cls, method, _ in TRACED.METHODS}
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            called = any(
                ref == name and (other != module or not node.lineno <= line <= node.end_lineno)
                for other, refs in references.items()
                for ref, line in refs
            )
            if not called and (module, qualname) not in pinned:
                uncalled.append(f"{module}.{qualname}")
    assert uncalled == []


PYPROJECT = SRC.parent.parent / "pyproject.toml"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_declared_python_floor(path):
    """No module uses syntax newer than pyproject.toml's requires-python."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert floor, "requires-python not found"
    ast.parse(path.read_text(), feature_version=tuple(map(int, floor.groups())))


def _enclosing_calls(tree, name):
    """The top-level function (or "<module>") around each call of `name`."""
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    yield where


def test_net_character_is_only_a_vacuum_character():
    """A NetCharacter is only ever a code's whole vacuum character, built in
    one place, `netchar._vacuum_character`, which checks its leading term
    1 * q^{-d/24}.  Building blocks, orbifold traces and sectors are plain
    series."""
    built = [
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in _enclosing_calls(ast.parse(path.read_text()), "NetCharacter")
    ]
    assert built == [("netchar", "_vacuum_character")]
