"""The integer-parameter rule: every entry point rejects a float, a bool and an
int one below its least value with ParameterError before any search, and
errors.is_int is the only place that spells the test."""

import ast
import sys
from pathlib import Path

import pytest

import chibound
from chibound.coloring import (
    chi_p,
    chromatic_at_least,
    product_chi_p_coloring,
    subdivision_chi_p_coloring,
    tree_depth,
    tree_depth_at_most,
    uniform_subdivision_coloring,
)
from chibound.corpus import all_graphs, connected_graphs
from chibound.errors import ParameterError, check_int
from chibound.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    cycle,
    generate,
    high_girth,
    mycielski_iterate,
    path,
    random_gnp,
    star,
)
from chibound.graphs import Digraph, blow_up, power, subdivide_exact
from chibound.holes import count_holes, enumerate_holes, verify_hole_density
from chibound.homomorphism import (
    directed_cycle,
    directed_path,
    homomorphism,
    transitive_tournament,
    walk_power,
)
from chibound.invariants import biclique_number, clique_number
from chibound.minors import (
    chi_TM,
    critical_patterns,
    enumerate_ITM_exact,
    find_subdivided_clique,
    find_topo_embedding,
    is_induced_exact_subdivision,
    omega_TM,
)
from chibound.suites import SuiteSpec, run_suite

PACKAGE = Path(chibound.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# arguments built here, outside the profiled calls
C5 = cycle(5)
K3 = complete(3)
D1 = Digraph(1)
D2 = Digraph(2, [(0, 1)])

# case id -> (call with the parameter set to v, the least value allowed)
ENTRIES = {
    "chi_p.p": (lambda v: chi_p(C5, v), 1),
    "chi_p.cap": (lambda v: chi_p(C5, 2, cap=v), 0),
    "chromatic_at_least.chi": (lambda v: chromatic_at_least(C5, v), 1),
    "uniform_subdivision_coloring.p": (lambda v: uniform_subdivision_coloring(C5, v), 1),
    "subdivision_chi_p_coloring.p": (lambda v: subdivision_chi_p_coloring(C5, v, None), 0),
    "product_chi_p_coloring.p": (lambda v: product_chi_p_coloring(C5, v, None, {}), 1),
    "subdivide_exact.p": (lambda v: subdivide_exact(C5, v), 0),
    "blow_up.k": (lambda v: blow_up(C5, v), 1),
    "power.d": (lambda v: power(C5, v), 1),
    "tree_depth_at_most.k": (lambda v: tree_depth_at_most(C5, v), 0),
    "tree_depth.cap": (lambda v: tree_depth(C5, cap=v), 0),
    "clique_number.cap": (lambda v: clique_number(C5, cap=v), 0),
    "biclique_number.cap": (lambda v: biclique_number(C5, cap=v), 0),
    "all_graphs.n": (all_graphs, 1),
    "connected_graphs.n": (connected_graphs, 1),
    "verify_hole_density.g": (lambda v: verify_hole_density(v, 2, 1), 5),
    "verify_hole_density.omega": (lambda v: verify_hole_density(5, v, 1), 2),
    "verify_hole_density.copies": (lambda v: verify_hole_density(5, 2, v), 1),
    "enumerate_holes.max_len": (lambda v: enumerate_holes(C5, v), 0),
    "count_holes.length": (lambda v: count_holes(C5, v), 0),
    "transitive_tournament.k": (transitive_tournament, 1),
    "directed_path.k": (directed_path, 1),
    "directed_cycle.k": (directed_cycle, 2),
    "walk_power.length": (lambda v: walk_power(D2, v), 1),
    "homomorphism.cap": (lambda v: homomorphism(D1, D1, cap=v), 0),
    "homomorphism.budget": (lambda v: homomorphism(D1, D1, budget=v), 0),
    "find_topo_embedding.r": (lambda v: find_topo_embedding(K3, C5, v), 0),
    "find_subdivided_clique.k": (lambda v: find_subdivided_clique(C5, v, 1), 0),
    "find_subdivided_clique.r": (lambda v: find_subdivided_clique(C5, 3, v), 0),
    "omega_TM.r": (lambda v: omega_TM(C5, v), 0),
    "chi_TM.r": (lambda v: chi_TM(C5, v), 0),
    "is_induced_exact_subdivision.r": (lambda v: is_induced_exact_subdivision(K3, v, C5), 0),
    "critical_patterns.chi": (lambda v: critical_patterns(v, 5), 1),
    "critical_patterns.max_size": (lambda v: critical_patterns(4, v), 0),
    "enumerate_ITM_exact.r": (lambda v: enumerate_ITM_exact(C5, v, 3), 0),
    "enumerate_ITM_exact.max_pattern_size": (lambda v: enumerate_ITM_exact(C5, 1, v), 0),
    "complete.n": (complete, 0),
    "complete_bipartite.s": (lambda v: complete_bipartite(v, 2), 0),
    "complete_bipartite.t": (lambda v: complete_bipartite(2, v), 0),
    "cycle.n": (cycle, 3),
    "path.n": (path, 1),
    "star.t": (star, 0),
    "mycielski_iterate.k": (lambda v: mycielski_iterate(C5, v), 0),
    "random_gnp.n": (lambda v: random_gnp(v, 0.5, SplitMix64(0)), 0),
    "high_girth.n": (lambda v: high_girth(v, 2, 4, SplitMix64(0)), 1),
    "high_girth.d": (lambda v: high_girth(8, v, 4, SplitMix64(0)), 0),
    "high_girth.g": (lambda v: high_girth(8, 2, v, SplitMix64(0)), 3),
    "SplitMix64.randrange.n": (lambda v: SplitMix64(0).randrange(v), 1),
    "SplitMix64.seed": (SplitMix64, 0),
    "generate.seed": (lambda v: generate("complete", {"n": 3}, seed=v), 0),
    "run_suite.seed": (lambda v: run_suite(SuiteSpec("S7", seed=v)), 0),
    "run_suite.jobs": (lambda v: run_suite(SuiteSpec("S7", jobs=v)), 1),
}

# the checks, and what an entry point runs before it reaches its check
BEFORE_CHECK = {
    "is_int",
    "check_int",
    "check_cap",
    "chi_p",
    "_least_assignment",
    "chromatic_at_least",
    "uniform_subdivision_coloring",
    "subdivision_chi_p_coloring",
    "product_chi_p_coloring",
    "subdivide_exact",
    "blow_up",
    "power",
    "tree_depth_at_most",
    "tree_depth",
    "clique_number",
    "biclique_number",
    "all_graphs",
    "connected_graphs",
    "_corpus",
    "verify_hole_density",
    "blown_up_cycle",
    "enumerate_holes",
    "count_holes",
    "transitive_tournament",
    "directed_path",
    "directed_cycle",
    "walk_power",
    "homomorphism",
    "find_topo_embedding",
    "find_subdivided_clique",
    "Graph.__init__",
    "omega_TM",
    "chi_TM",
    "critical_patterns",
    "enumerate_ITM_exact",
    "is_induced_exact_subdivision",
    "complete",
    "complete_bipartite",
    "cycle",
    "path",
    "star",
    "mycielski_iterate",
    "random_gnp",
    "high_girth",
    "SplitMix64.__init__",
    "SplitMix64.randrange",
    "generate",
    "generate.<locals>.<listcomp>",
    "run_suite",
}


def _bad_values(least):
    return [("float", 1.5), ("bool", True), ("below", least - 1)]


@pytest.mark.parametrize(
    "entry, kind, value",
    [
        (entry, kind, value)
        for entry, (_, least) in ENTRIES.items()
        for kind, value in _bad_values(least)
    ],
)
def test_entry_rejects_a_bad_int_before_any_search(entry, kind, value):
    fn, least = ENTRIES[entry]
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == PACKAGE:
            called.add(code.co_qualname)

    sys.setprofile(profile)
    try:
        with pytest.raises(ParameterError) as info:
            fn(value)
    finally:
        sys.setprofile(None)
    name = entry.rsplit(".", 1)[1]
    assert f"{name} must be an int >= {least}, got {value!r}" in str(info.value)
    assert "check_int" in called
    assert called <= BEFORE_CHECK, called - BEFORE_CHECK


@pytest.mark.parametrize(
    "call",
    [
        lambda: chi_TM(C5, 1.5),
        lambda: chi_TM(C5, True),
        lambda: count_holes(C5, 5.0),
        lambda: chi_p(C5, 2, cap=True),
        lambda: tree_depth(path(4), cap=2.5),
        lambda: blow_up(C5, 2.0),
        lambda: subdivide_exact(C5, 1.0),
        lambda: power(C5, 1.5),
        lambda: critical_patterns(4, 7.5),
    ],
)
def test_values_that_were_accepted_or_crashed_now_raise(call):
    with pytest.raises(ParameterError):
        call()


def test_check_int_returns_the_value_and_names_the_parameter():
    assert check_int("n", 0, 0) == 0
    with pytest.raises(ParameterError, match=r"^n must be an int >= 0, got -1$"):
        check_int("n", -1, 0)
    with pytest.raises(ParameterError, match=r"^p must be a number in \[0, 1\], got True$"):
        random_gnp(3, True, SplitMix64(0))


def test_the_int_rule_is_spelled_only_in_errors():
    bool_tests = []
    is_int_defs = []
    for source in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_is_int", "is_int"):
                is_int_defs.append((source.name, node.name))
            if (
                source.parent == PACKAGE
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    isinstance(n, ast.Name) and n.id == "bool"
                    for n in ast.walk(node.args[1])
                )
            ):
                bool_tests.append(source.name)
    assert is_int_defs == [("errors.py", "is_int")]
    assert bool_tests == ["errors.py"]
