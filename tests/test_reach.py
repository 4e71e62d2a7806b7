"""Every public name reaches a claim, and every defaulted parameter of a public
function is passed by some call in the package, or is pinned here with its
reason.

A name-reachability walk over the package's syntax trees starts from the CLI
entry point, the suite runners and the module-level tables they read. A
reached definition reaches every definition its body names, matched by bare
name (an attribute x.f names f), so the walk over-approximates and a name it
misses is named nowhere on the way from a command or a suite. A class
reaches its bases, decorators, class-level statements and dunder methods;
its other methods are reached by name like functions.
"""

import ast
from pathlib import Path

import chibound

PACKAGE = Path(chibound.__file__).resolve().parent

ROOTS = {
    "cli.main",
    "suites.run_suite",
    "suites.run_all",
    "suites.SUITES",
    "cli._INVARIANTS",
    "errors.CAPS",
}

# public names no command or suite reaches, each kept for a stated reason
UNREACHED = {
    "minors.enumerate_ITM_exact": "checked by acceptance criterion C9c",
    "minors.is_induced_exact_subdivision": "checked by acceptance criterion C9c",
    "minors.critical_patterns": (
        "the public catalogue; chi_TM reads the same per-size lists one size at a time"
    ),
    "certify.validate_topo_embedding": "checked by acceptance criterion C9c",
    "homomorphism.walk_power": "checked by acceptance criterion C9d",
    "errors.WalkLoopError": "checked by acceptance criterion C9d",
    "corpus.canonical_form": (
        "the reference of the tests' isomorphism helpers (oracles.canonical_graph,"
        " oracles.are_isomorphic) and of test_fresh_corpus_is_canonically_labeled"
    ),
    "certify.validate_hole": "the hole certificate check a hole suite will use",
    "homomorphism.directed_cycle": "a digraph test family",
    "graphs.Digraph.is_oriented": "a digraph test family property",
}


# defaulted parameters of public functions that no call in the package
# passes, each kept for a stated reason
UNPASSED = {
    "cli.main.argv": "the console entry point reads sys.argv; tests pass argv",
    "invariants.clique_number.cap": "passed through cli._INVARIANTS from --cap-n",
    "invariants.biclique_number.cap": "passed through cli._INVARIANTS from --cap-n",
    "coloring.tree_depth.cap": "passed through cli._INVARIANTS from --cap-n",
    "homomorphism.homomorphism.budget": "a node budget on every search (ROADMAP aim 3)",
    "certify.validate_topo_embedding.exact": "checked by acceptance criterion C9c",
    "certify.validate_topo_embedding.induced": "checked by acceptance criterion C9c",
}


def _definitions():
    """qualified name -> (bare name, the nodes its body is)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{stmt.name}"] = (stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                own = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
                for item in stmt.body:
                    if not isinstance(item, ast.FunctionDef):
                        own.append(item)
                    elif item.name.startswith("__"):
                        own.append(item)
                    else:
                        defs[f"{module}.{stmt.name}.{item.name}"] = (item.name, [item])
                defs[f"{module}.{stmt.name}"] = (stmt.name, own)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[f"{module}.{t.id}"] = (t.id, [stmt])
    return defs


def _names(nodes):
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _reached(defs):
    by_name = {}
    for qual, (name, _nodes) in defs.items():
        by_name.setdefault(name, []).append(qual)
    seen = set(ROOTS)
    todo = list(ROOTS)
    while todo:
        for name in _names(defs[todo.pop()][1]):
            for qual in by_name.get(name, ()):
                if qual not in seen:
                    seen.add(qual)
                    todo.append(qual)
    return seen


def _public(qual):
    module, *rest = qual.split(".")
    return module not in ("__init__", "__main__") and not any(
        part.startswith("_") for part in rest
    )


def test_roots_are_defined():
    assert ROOTS <= set(_definitions())


def test_every_public_name_is_reached_or_pinned():
    defs = _definitions()
    reached = _reached(defs)
    # constants named in capitals (exit codes, class counts) are data, not API
    unreached = {
        q
        for q in defs
        if _public(q) and q not in reached and not q.rsplit(".", 1)[1].isupper()
    }
    assert unreached == set(UNREACHED)


def _passes(call, index, keyword):
    """Whether a call may pass the parameter at `index` (None: keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, keyword) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed_or_pinned():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = set()
    for qual, (name, nodes) in _definitions().items():
        fn = nodes[0] if nodes else None
        if not (_public(qual) and isinstance(fn, ast.FunctionDef) and fn.name == name):
            continue
        offset = qual.count(".") - 1  # a method's self is not passed in the call
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = [
            (i - offset, p.arg)
            for i, p in enumerate(positional)
            if i >= len(positional) - len(a.defaults)
        ]
        defaulted += [
            (None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        unpassed |= {
            f"{qual}.{arg}"
            for index, arg in defaulted
            if not any(_passes(c, index, arg) for c in calls.get(name, ()))
        }
    assert unpassed == set(UNPASSED)
