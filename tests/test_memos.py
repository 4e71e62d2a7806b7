"""Module-level memos stay bounded.

A module-level name bound to an empty dict, list or set is a memo that can
grow for the life of the process; only the two below are allowed, and the
caps bound their keys. A function cache must be an lru_cache with an int
literal maxsize.
"""

import ast
from pathlib import Path

import chibound

PACKAGE = Path(chibound.__file__).resolve().parent

# corpus graphs keyed by the corpus sizes, critical patterns by (chi, size)
# under the critical_catalogue cap
BOUNDED = {("corpus", "_memory_cache"), ("minors", "_critical_cache")}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _int_literal(node):
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def test_module_level_containers_are_known_memos():
    found = set()
    for module, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if _is_empty_container(value):
                found.update((module, t.id) for t in targets if isinstance(t, ast.Name))
    assert found == BOUNDED


def test_function_caches_have_an_int_maxsize():
    bad = []
    for module, tree in _modules():
        sized = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad += [(module, a.name) for a in node.names if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                if _name(node.value) == "functools":
                    bad.append((module, "functools.cache"))
            elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
                sized.add(id(node.func))
                size = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "maxsize"), None
                )
                if not _int_literal(size):
                    bad.append((module, f"lru_cache at line {node.lineno}"))
        for node in ast.walk(tree):
            if _name(node) == "lru_cache" and id(node) not in sized:
                bad.append((module, f"bare lru_cache at line {node.lineno}"))
    assert bad == []
