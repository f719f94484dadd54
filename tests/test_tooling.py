"""The benchmark harness under perfbench/ finds the program's functions by
name.  Its tracer skips a name it cannot find, so a rename in framednet
would silently zero a per-layer metric; these tests make it an error.
"""

import ast
import importlib
import importlib.util
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
