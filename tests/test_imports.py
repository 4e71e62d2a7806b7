"""Every chibound module imports on its own, each in a fresh interpreter, so no
module leans on another having been imported first. The package's __init__,
which imports every module, is replaced by an empty package object with the
same path, so a module loads only what it imports itself. No module imports
inside a function or class body, where an import cycle could hide. Engines a
module shares with another are imported by public names; the private names
one module takes from another are listed here, and a new one fails. The
search engines are built only in the places listed here too, and no
validator names one: every validator sits in certify, which loads no engine
module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import chibound

PACKAGE = Path(chibound.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Imports chibound.<module> under a bare package and prints the chibound
# modules that ended up loaded.
ALONE = """
import importlib, sys, types
package = types.ModuleType("chibound")
package.__path__ = [{path!r}]
sys.modules["chibound"] = package
importlib.import_module("chibound.{module}")
print(" ".join(sorted(m for m in sys.modules if m.startswith("chibound."))))
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = subprocess.run(
        [sys.executable, "-c", ALONE.format(path=str(PACKAGE), module=module)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f"chibound.{module}" in done.stdout.split()


def test_certify_loads_no_engine():
    done = subprocess.run(
        [sys.executable, "-c", ALONE.format(path=str(PACKAGE), module="certify")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["chibound.certify", "chibound.errors", "chibound.graphs"]


def test_imports_sit_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [
                    f"{path.stem}.{node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


# importer <- module.name for every private chibound name a module imports
# from another one, or reads off a chibound module it imports
PRIVATE_IMPORTS = {
    "cli<-codec._load_json",
    "coloring<-invariants._max_clique_mask",
    "minors<-coloring._search",
}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add(f"{path.stem}<-{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                found.add(f"{path.stem}<-{node.value.id}.{node.attr}")
    assert found == PRIVATE_IMPORTS


# caller -> constructor for every place in the package that builds a search
# engine: the solve context (`_search` and the search's own solver) and the
# chi check whose search must leave that context alone
ENGINE_BUILDS = {
    "coloring._search -> _ColoringSearch",
    "coloring._ColoringSearch.__init__ -> TreedepthSolver",
    "coloring.chromatic_at_least -> _ColoringSearch",
}


def test_engines_are_built_only_by_the_solve_context():
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("TreedepthSolver", "_ColoringSearch"):
                    found.add(f"{where} -> {name}")
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == ENGINE_BUILDS


# the search engines and their deciders; a validator re-checks a certificate
# by its definition, so it shares no search code with the solver it checks
ENGINES = {
    "TreedepthSolver",
    "_ColoringSearch",
    "_search",
    "map_search",
    "chromatic_at_least",
    "td_at_most",
    "component_td_at_most",
}


def test_validators_name_no_engine():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("validate_"):
                for inner in ast.walk(node):
                    name = inner.attr if isinstance(inner, ast.Attribute) else getattr(inner, "id", None)
                    if name in ENGINES:
                        found.add(f"{path.stem}.{node.name} -> {name}")
    assert found == set()


def test_validators_sit_in_certify_only():
    # every top-level validator, and the tree-depth rule validate_coloring
    # decides its color unions by
    placed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and (
                node.name.startswith("validate_") or node.name == "_td_at_most"
            ):
                placed.add((path.stem, node.name))
    assert {module for module, _ in placed} == {"certify"}
    assert ("certify", "_td_at_most") in placed
