"""The table of size caps: its values, one entry point per row raising at one
past the limit before any search, and the single place SizeCapError is raised."""

import ast
import sys
from pathlib import Path

import pytest

import chibound
from chibound.certify import validate_chi_lower_bound
from chibound.coloring import chi_p, tree_depth
from chibound.errors import CAPS, SizeCapError, check_cap
from chibound.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    cycle,
    generate,
    high_girth,
    mycielskian,
    path,
    random_gnp,
    star,
)
from chibound.graphs import Digraph, Graph, orientations
from chibound.holes import enumerate_holes
from chibound.homomorphism import homomorphism
from chibound.invariants import biclique_number, clique_number
from chibound.minors import (
    _critical_of_size,
    chi_TM,
    enumerate_ITM_exact,
    find_subdivided_clique,
    find_topo_embedding,
)

PACKAGE = Path(chibound.__file__).resolve().parent

PINNED = {
    "chi_1": (32, "vertices"),
    "chi_2": (14, "vertices"),
    "chi_3": (12, "vertices"),
    "tree_depth": (16, "vertices"),
    "tree_depth_hard": (24, "vertices"),
    "clique": (64, "vertices"),
    "biclique": (24, "vertices"),
    "homomorphism": (12, "vertices per side"),
    "hole_host": (60, "vertices"),
    "orientation": (20, "edges"),
    "tm_host": (40, "vertices"),
    "pattern": (8, "vertices"),
    "itm_host": (24, "vertices"),
    "critical_catalogue": (8, "vertices"),
    "chi_witness": (16, "vertices"),
    "generate": (1024, "vertices"),
}

# row -> size -> the calls (entry point, args) with the input one size over the row
CASES = {
    "chi_1": lambda s: [(chi_p, (Graph(s), 1))],
    "chi_2": lambda s: [(chi_p, (Graph(s), 2))],
    "chi_3": lambda s: [(chi_p, (Graph(s), 4))],
    "tree_depth": lambda s: [(tree_depth, (Graph(s),))],
    "tree_depth_hard": lambda s: [(tree_depth, (Graph(s), 100))],
    "clique": lambda s: [(clique_number, (Graph(s),))],
    "biclique": lambda s: [(biclique_number, (Graph(s),))],
    "homomorphism": lambda s: [(homomorphism, (Digraph(1), Digraph(s)))],
    "hole_host": lambda s: [(enumerate_holes, (Graph(s), 4))],
    "orientation": lambda s: [(lambda g: next(orientations(g)), (path(s + 1),))],
    "tm_host": lambda s: [
        (find_topo_embedding, (Graph(1), Graph(s), 1)),
        (chi_TM, (Graph(s), 1)),
    ],
    "pattern": lambda s: [(find_subdivided_clique, (Graph(1), s, 1))],
    "itm_host": lambda s: [(enumerate_ITM_exact, (Graph(s), 1, 2))],
    "critical_catalogue": lambda s: [(_critical_of_size, (4, s))],
    "chi_witness": lambda s: [
        (validate_chi_lower_bound, (Graph(s), ("critical_subgraph", tuple(range(s))), 2))
    ],
    "generate": lambda s: [
        (complete, (s,)),
        (complete_bipartite, (s - 1, 1)),
        (cycle, (s,)),
        (path, (s,)),
        (star, (s - 1,)),
        (mycielskian, (Graph((s - 1) // 2),)),
        (random_gnp, (s, 0.5, SplitMix64(0))),
        (high_girth, (s, 2, 3, SplitMix64(0))),
        (generate, ("mycielski_iterate", {"k": 1, "base": Graph((s - 1) // 2)})),
    ],
}

# the entry points above and the functions they pass through to the check
BEFORE_SEARCH = {
    "check_cap",
    "check_int",
    "is_int",
    "chi_p",
    "chromatic_number",
    "_least_assignment",
    "tree_depth",
    "clique_number",
    "biclique_number",
    "homomorphism",
    "enumerate_holes",
    "_iter_holes",
    "orientations",
    "Graph.m",
    "Graph.m.<locals>.<genexpr>",
    "find_topo_embedding",
    "find_subdivided_clique",
    "chi_TM",
    "enumerate_ITM_exact",
    "_critical_of_size",
    "validate_chi_lower_bound",
    "generate",
    "generate.<locals>.<listcomp>",
    "SplitMix64.__init__",
    "SplitMix64.split",
    "SplitMix64.next_u64",
    "_fnv1a64",
    "_mycielski_family",
    "mycielski_iterate",
    "mycielskian",
    "complete",
    "complete_bipartite",
    "cycle",
    "path",
    "star",
    "random_gnp",
    "high_girth",
}


def test_table_values_are_pinned():
    assert CAPS == PINNED
    assert set(CASES) == set(CAPS)


@pytest.mark.parametrize("name", sorted(CAPS))
def test_row_raises_one_past_its_limit_before_any_search(name):
    limit, unit = CAPS[name]
    check_cap(name, limit)  # the limit itself is allowed
    for fn, args in CASES[name](limit + 1):
        called = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and Path(code.co_filename).parent == PACKAGE:
                called.add(code.co_qualname)

        sys.setprofile(profile)
        try:
            with pytest.raises(SizeCapError) as info:
                fn(*args)
        finally:
            sys.setprofile(None)
        assert f"{name} is capped at {limit} {unit}, got {limit + 1}" in str(info.value)
        assert "check_cap" in called
        assert called <= BEFORE_SEARCH, called - BEFORE_SEARCH


def test_caller_cap_overrides_the_table():
    check_cap("clique", 100, cap=100)
    with pytest.raises(SizeCapError, match="clique is capped at 5 vertices, got 6"):
        check_cap("clique", 6, cap=5)


def _is_size_cap_error(node):
    return (isinstance(node, ast.Name) and node.id == "SizeCapError") or (
        isinstance(node, ast.Attribute) and node.attr == "SizeCapError"
    )


class _SizeCapSites(ast.NodeVisitor):
    """The enclosing function of every SizeCapError built or raised bare."""

    def __init__(self):
        self.scope = ["<module>"]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _is_size_cap_error(node.func):
            self.sites.append(self.scope[-1])
        self.generic_visit(node)

    def visit_Raise(self, node):
        if _is_size_cap_error(node.exc):
            self.sites.append(self.scope[-1])
        self.generic_visit(node)


def test_size_cap_error_is_raised_only_by_check_cap():
    sites = []
    constants = []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        visitor = _SizeCapSites()
        visitor.visit(tree)
        sites += [(source.name, scope) for scope in visitor.sites]
        # no module keeps a cap of its own beside the table
        for node in tree.body:
            if isinstance(node, ast.Assign):
                constants += [
                    (source.name, t.id)
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith("_CAP")
                ]
    assert sites == [("errors.py", "check_cap")]
    assert constants == [("cli.py", "EXIT_CAP")]
