"""The package as a whole: its root exports and its source files."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import chanrate

SRC = Path(chanrate.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))

# What README's library example and the benchmark import from the root,
# plus ``emit_outputs``, which writes the artifacts README documents.
ROOT_EXPORTS = {
    "ExperimentConfig",
    "PolicySpec",
    "RateSet",
    "accounting_check",
    "demo_model",
    "emit_outputs",
    "run_experiment",
    "__version__",
}


def test_root_exports_exactly_the_documented_api():
    assert len(chanrate.__all__) == len(ROOT_EXPORTS)
    assert set(chanrate.__all__) == ROOT_EXPORTS
    for name in chanrate.__all__:
        assert getattr(chanrate, name) is not None, name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_each_submodule_all_resolves(path):
    module = importlib.import_module("chanrate" if path.stem == "__init__" else f"chanrate.{path.stem}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), (path.name, name)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the names its ``__all__`` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
