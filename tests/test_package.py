"""The package as a whole: its root exports and its source files."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import chanrate

SRC = Path(chanrate.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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


def test_readme_python_examples_run(tmp_path, monkeypatch):
    """Each ```python block of README runs as it stands, in a fresh namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_harness_reads_no_private_name_of_environments():
    """The harness sizes a tape through ``OutcomeTape.nbytes`` and owns its
    lane tile: it neither reads an ``environments._`` attribute nor imports
    a private name from the module."""
    tree = ast.parse((SRC / "harness.py").read_text())
    private = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "environments"
        and node.attr.startswith("_")
    ]
    private += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("environments")
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert not private, f"harness.py reads private names of environments at lines {private}"


def test_harness_reads_no_policy_layout():
    """The harness sizes a policy through its kind's ``nbytes``: it reads no
    ``policies._`` attribute, imports no private name of the module and
    names no learning kind, so a new kind cannot slip into the memory
    check."""
    tree = ast.parse((SRC / "harness.py").read_text())
    private = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "policies"
            and node.attr.startswith("_")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("policies")
            and any(alias.name.startswith("_") for alias in node.names)
        )
    ]
    assert not private, f"harness.py reads private names of policies at lines {private}"
    kinds = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("kl-ucb", "crs-t", "kl-ucb-u")
    ]
    assert not kinds, f"harness.py names a learning kind at lines {kinds}"


def _chanrate_bindings() -> dict:
    """Every name each chanrate module binds, and every attribute of each
    class it defines, keyed by module, name and attribute."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "chanrate" or mod_name.startswith("chanrate.")):
            continue
        for attr, value in vars(module).items():
            out[mod_name, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                out.update({(mod_name, attr, k): v for k, v in vars(value).items()})
    return out


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ beside the package")
def test_perfbench_tracer_installs_and_uninstalls():
    """The benchmark's tracer rebinds chanrate functions and methods by
    name: it installs against the package as it is, and ``uninstall`` puts
    back every original it rebound."""
    for path in MODULES:
        if not path.stem.startswith("__"):
            importlib.import_module(f"chanrate.{path.stem}")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = _chanrate_bindings()
    tracer = module.Tracer()
    tracer.install()
    try:
        during = _chanrate_bindings()
    finally:
        tracer.uninstall()
    rebound = {key for key, value in before.items() if during[key] is not value}
    assert ("chanrate.harness", "run_experiment") in rebound
    after = _chanrate_bindings()
    assert after.keys() == before.keys()
    assert [key for key in rebound if after[key] is not before[key]] == []
