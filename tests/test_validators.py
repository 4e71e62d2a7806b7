"""Every rejection branch of the certificate validators fires: one hand-made
bad certificate per branch, each with the reason it must be rejected for. The
verdicts do not rest on the search engines: with the tree-depth engine and
the coloring search made to answer wrongly, every verdict stays the same."""

import json

import pytest

from chibound import corpus, treedepth
from chibound.certify import (
    validate_biclique,
    validate_chi_lower_bound,
    validate_clique,
    validate_coloring,
    validate_degeneracy_order,
    validate_elimination_forest,
    validate_hole,
    validate_homomorphism,
    validate_topo_embedding,
)
from chibound.codec import graph_from_graph6
from chibound.coloring import (
    Coloring,
    _ColoringSearch,
    chi_p,
    chromatic_number,
    subdivision_chi_p_coloring,
    tree_depth,
    uniform_subdivision_coloring,
)
from chibound.generators import complete, complete_bipartite, cycle, mycielskian, path, star
from chibound.graphs import Graph, orientations, subdivide_exact
from chibound.holes import enumerate_holes
from chibound.homomorphism import directed_path, homomorphism, transitive_tournament
from chibound.minors import find_topo_embedding
from chibound.suites import SuiteSpec, _instances_s11
from chibound.treedepth import TreedepthSolver
from conftest import connected_corpus_graphs

K3 = complete(3)
C4 = cycle(4)
C5 = cycle(5)
C7 = cycle(7)
P3 = path(3)
DP3 = directed_path(3)
T3 = transitive_tournament(3)
# K3 in C4 at depth 1: the edge (0, 2) runs through 3
K3_PATHS = {(0, 1): (0, 1), (1, 2): (1, 2), (0, 2): (0, 3, 2)}
# K3 in C5 at depth 2 as (branch, paths), one path per edge of
# K3.sorted_edges() in that order: the edge (0, 2) runs through 4 and 3
K3_IN_C5 = ((0, 1, 2), ((0, 1), (0, 4, 3, 2), (1, 2)))


def _k3_in_c4(branch=(0, 1, 2), edits=None):
    """K3 in C4 as (branch, paths), with the paths of K3_PATHS replaced by
    edits; a None path drops its edge."""
    paths = {**K3_PATHS, **(edits or {})}
    return branch, tuple(paths[e] for e in K3.sorted_edges() if paths[e] is not None)


# case id -> (validator call, the reason it returns)
CASES = {
    "topo.not_injective": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(branch=(0, 0, 2)), 1),
        "branch map is not injective",
    ),
    "topo.branch_outside_host": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(branch=(0, 1, 7)), 1),
        "branch vertex outside host",
    ),
    "topo.edges_uncovered": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): None}), 1),
        "paths do not cover the pattern edge set",
    ),
    "topo.path_leaves_host": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): (0, 9, 2)}), 1),
        "path for (0, 2) leaves the host",
    ),
    "topo.wrong_ends": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): (0, 3, 1)}), 1),
        "path for (0, 2) joins the wrong branch vertices",
    ),
    "topo.exact_length": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(), 1, exact=True),
        "path for (0, 1) has 0 internal vertices, not 1",
    ),
    "topo.too_long": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(), 0),
        "path for (0, 2) exceeds 0 internal vertices",
    ),
    "topo.not_a_host_edge": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(1, 2): (1, 3, 2)}), 1),
        "(1, 3) along path (1, 2) is not a host edge",
    ),
    "topo.repeats_a_vertex": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): (0, 3, 0, 3, 2)}), 3),
        "path for (0, 2) repeats a vertex",
    ),
    "topo.interior_on_a_branch_vertex": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): (0, 1, 2)}), 1),
        "path interior touches a branch vertex",
    ),
    "topo.shared_interior": (
        lambda: validate_topo_embedding(star(3), P3, ((1, 2, 3), ((1, 0, 2), (2, 0, 3))), 1),
        "paths share an interior vertex",
    ),
    "topo.empty_path": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 2): ()}), 1),
        "path for (0, 2) joins the wrong branch vertices",
    ),
    "topo.depth_not_an_int": (
        lambda: validate_topo_embedding(C5, K3, K3_IN_C5, 2.5),
        "depth 2.5 is not an int",
    ),
    # the paths follow the pattern's sorted edges: in another order the first
    # path, (1, 2), does not join the images of the edge (0, 1)
    "topo.paths_out_of_order": (
        lambda: validate_topo_embedding(C5, K3, (K3_IN_C5[0], K3_IN_C5[1][::-1]), 2),
        "path for (0, 1) joins the wrong branch vertices",
    ),
    "topo.not_induced": (
        lambda: validate_topo_embedding(K3, P3, ((0, 1, 2), ((0, 1), (1, 2))), 0, induced=True),
        "embedded subdivision is not induced (extra host edges)",
    ),
    "biclique.not_a_vertex": (
        lambda: validate_biclique(complete_bipartite(2, 2), ((0,), (9,))),
        "9 is not a vertex",
    ),
    "biclique.sides_overlap": (
        lambda: validate_biclique(complete_bipartite(2, 2), ((0, 2), (2, 3))),
        "sides are not disjoint",
    ),
    "biclique.repeated_vertex": (
        lambda: validate_biclique(complete_bipartite(2, 2), ((0, 0), (2, 3))),
        "repeated vertex",
    ),
    "biclique.sizes_differ": (
        lambda: validate_biclique(complete_bipartite(2, 2), ((0, 1), (2,))),
        "sides differ in size",
    ),
    "biclique.missing_cross_edge": (
        lambda: validate_biclique(complete_bipartite(2, 2), ((0, 2), (1, 3))),
        "missing cross edge (0, 1)",
    ),
    "hole.not_a_vertex": (
        lambda: validate_hole(cycle(5), (0, 1, 2, 9)),
        "9 is not a vertex",
    ),
    "hole.too_short": (
        lambda: validate_hole(cycle(5), (0, 1, 2)),
        "not a simple cycle of length >= 4",
    ),
    "hole.missing_cycle_edge": (
        lambda: validate_hole(cycle(5), (0, 1, 2, 4)),
        "missing cycle edge (2, 4)",
    ),
    "hole.chord": (
        lambda: validate_hole(complete(4), (0, 1, 2, 3)),
        "chord (0, 2)",
    ),
    "forest.size_mismatch": (
        lambda: validate_elimination_forest(P3, (-1, 0)),
        "parent array size mismatch",
    ),
    "forest.parent_not_a_vertex": (
        lambda: validate_elimination_forest(P3, (-1, 0, 9)),
        "parent 9 of vertex 2 is not a vertex",
    ),
    "forest.float_root_marker": (
        lambda: validate_elimination_forest(P3, (1, -1.0, 1), 2),
        "parent -1.0 of vertex 1 is not a vertex",
    ),
    "forest.parent_cycle": (
        lambda: validate_elimination_forest(P3, (1, 0, -1)),
        "parent cycle through vertex 0",
    ),
    "forest.edge_across_branches": (
        lambda: validate_elimination_forest(P3, (-1, -1, 1)),
        "edge (0, 1) is not ancestor-descendant",
    ),
    "forest.height": (
        lambda: validate_elimination_forest(P3, (1, -1, 1), 3),
        "height 2 != claimed 3",
    ),
    "forest.claim_not_an_int": (
        lambda: validate_elimination_forest(P3, (1, -1, 1), 2.0),
        "claimed height 2.0 is not an int",
    ),
    "degeneracy.not_a_permutation": (
        lambda: validate_degeneracy_order(C7, 2, (0, 1, 2, 3, 4, 5, 5)),
        "order is not a vertex permutation",
    ),
    "degeneracy.back_degree": (
        lambda: validate_degeneracy_order(C7, 1, tuple(range(7))),
        "max back-degree 2 != claimed 1",
    ),
    "degeneracy.claim_not_an_int": (
        lambda: validate_degeneracy_order(C7, 2.0, tuple(range(7))),
        "claimed value 2.0 is not an int",
    ),
    "homomorphism.not_into_the_target": (
        lambda: validate_homomorphism(DP3, T3, (0, 1, 5)),
        "mapping is not a function into the target",
    ),
    "homomorphism.arc_to_non_arc": (
        lambda: validate_homomorphism(DP3, T3, (0, 2, 1)),
        "arc (1, 2) maps to non-arc (2, 1)",
    ),
    "clique.not_a_vertex": (lambda: validate_clique(K3, (0, 5)), "5 is not a vertex"),
    "clique.repeated_vertex": (lambda: validate_clique(K3, (0, 0)), "repeated vertex"),
    "clique.missing_edge": (lambda: validate_clique(P3, (0, 1, 2)), "missing edge (0, 2)"),
    "coloring.monochromatic_edge": (
        lambda: validate_coloring(path(2), Coloring((0, 0), 1)),
        ("monochromatic_edge", (0, 1)),
    ),
    "coloring.depth_3_p4": (
        lambda: validate_coloring(path(4), Coloring((0, 1, 0, 1), 2, 3)),
        ("subset_treedepth", (0, 1)),
    ),
    "coloring.bicolored_p4": (
        lambda: validate_coloring(path(4), Coloring((0, 1, 0, 1), 2, 2)),
        ("subset_treedepth", (0, 1)),
    ),
    "chi_lower_bound.claim_not_an_int": (
        lambda: validate_chi_lower_bound(C5, ("critical_subgraph", (0, 1, 2, 3, 4)), 3.0),
        "claimed value 3.0 is not an int",
    ),
    "chi_lower_bound.clique_size": (
        lambda: validate_chi_lower_bound(K3, ("clique", (0, 1)), 3),
        "clique has 2 vertices, not 3",
    ),
    "chi_lower_bound.not_a_clique": (
        lambda: validate_chi_lower_bound(P3, ("clique", (0, 1, 2)), 3),
        "missing edge (0, 2)",
    ),
    "chi_lower_bound.unknown_kind": (
        lambda: validate_chi_lower_bound(C5, ("hole", (0, 1, 2, 3, 4)), 3),
        "unknown witness kind 'hole'",
    ),
    "chi_lower_bound.not_a_vertex": (
        lambda: validate_chi_lower_bound(C5, ("critical_subgraph", (0, 1, 9)), 3),
        "9 is not a vertex",
    ),
    "chi_lower_bound.repeated_vertex": (
        lambda: validate_chi_lower_bound(C5, ("critical_subgraph", (0, 1, 2, 3, 4, 4)), 3),
        "repeated vertex",
    ),
    "chi_lower_bound.colorable": (
        lambda: validate_chi_lower_bound(C5, ("critical_subgraph", (0, 1, 2, 3)), 3),
        "the subgraph on (0, 1, 2, 3) is 2-colorable",
    ),
    # a certificate read from JSON may come in any shape: each wrong one is
    # refused with a reason rather than an exception
    "clique.not_a_sequence": (lambda: validate_clique(K3, 5), "5 is not a vertex sequence"),
    "biclique.not_a_pair": (lambda: validate_biclique(K3, 5), "5 is not a pair of sides"),
    "biclique.one_side": (lambda: validate_biclique(K3, (0,)), "(0,) is not a pair of sides"),
    "chi_lower_bound.not_a_pair": (
        lambda: validate_chi_lower_bound(K3, 5, 3),
        "witness 5 is not a (kind, vertices) pair",
    ),
    "chi_lower_bound.vertices_not_a_sequence": (
        lambda: validate_chi_lower_bound(K3, ("clique", 5), 3),
        "witness ('clique', 5) is not a (kind, vertices) pair",
    ),
    "degeneracy.order_not_a_sequence": (
        lambda: validate_degeneracy_order(K3, 2, 5),
        "order is not a vertex permutation",
    ),
    "hole.not_a_sequence": (lambda: validate_hole(C5, 5), "5 is not a vertex sequence"),
    "forest.not_a_forest": (
        lambda: validate_elimination_forest(P3, {"parent": [1, -1, 1], "height": 2}, 2),
        "{'parent': [1, -1, 1], 'height': 2} is not an elimination forest",
    ),
    "topo.not_an_embedding": (
        lambda: validate_topo_embedding(C5, K3, None, 1),
        "None is not a topological-minor embedding",
    ),
    "topo.branch_not_a_vertex": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(branch=([0], 1, 2)), 1),
        "branch vertex outside host",
    ),
    "topo.path_not_a_sequence": (
        lambda: validate_topo_embedding(C4, K3, _k3_in_c4(edits={(0, 1): 5}), 1),
        "path for (0, 1) is not a vertex sequence",
    ),
    "coloring.not_a_coloring": (
        lambda: validate_coloring(path(3), None),
        "None is not a coloring",
    ),
    "coloring.assignment_not_a_sequence": (
        lambda: validate_coloring(path(3), Coloring(None, 2)),
        "Coloring(assignment=None, num_colors=2, p=None) is not a coloring",
    ),
    # a coloring of the right shape whose contents are wrong is refused too
    "coloring.short_assignment": (
        lambda: validate_coloring(K3, Coloring((0, 1), 2)),
        "assignment must cover every vertex",
    ),
    "coloring.float_color": (
        lambda: validate_coloring(path(5), Coloring((0, 1, 0, 1, 2.0), 3)),
        "colors must be ints",
    ),
    "coloring.bool_color": (
        lambda: validate_coloring(path(4), Coloring((0, True, 0, 1), 2)),
        "colors must be ints",
    ),
    "coloring.depth_0": (
        lambda: validate_coloring(path(4), Coloring((0, 1, 0, 1), 2, 0)),
        "p must be an int >= 1, got 0",
    ),
    "coloring.bool_depth": (
        lambda: validate_coloring(path(4), Coloring((0, 1, 0, 1), 2, p=True)),
        "p must be an int >= 1, got True",
    ),
    "coloring.float_num_colors": (
        lambda: validate_coloring(path(2), Coloring((0, 1), 2.0)),
        "num_colors must be an int, got 2.0",
    ),
    "coloring.no_num_colors": (
        lambda: validate_coloring(P3, Coloring((0, 1, 0), None)),
        "num_colors must be an int, got None",
    ),
    "coloring.color_out_of_range": (
        lambda: validate_coloring(P3, Coloring((0, 1, 5), 2)),
        "colors must be 0..num_colors-1 with every color used",
    ),
    "coloring.color_skipped": (
        lambda: validate_coloring(K3, Coloring((0, 1, 3), 4)),
        "colors must be 0..num_colors-1 with every color used",
    ),
    "coloring.color_unused": (
        lambda: validate_coloring(Graph(0), Coloring((), 3)),
        "colors must be 0..num_colors-1 with every color used",
    ),
    "homomorphism.not_a_sequence": (
        lambda: validate_homomorphism(DP3, T3, None),
        "mapping is not a function into the target",
    ),
    # every color pair of P8 colored a, b, c, a, b, c, a, b spans a matching,
    # but the three classes together are P8, of tree-depth 4
    "coloring.three_classes": (
        lambda: validate_coloring(path(8), Coloring((0, 1, 2, 0, 1, 2, 0, 1), 3, 3)),
        ("subset_treedepth", (0, 1, 2)),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_validator_rejects_with_its_reason(case):
    call, reason = CASES[case]
    ok, why = call()
    assert ok is False
    assert why == reason


def test_the_hand_made_certificates_differ_from_valid_ones_only_in_the_fault():
    assert validate_topo_embedding(C4, K3, _k3_in_c4(), 1) == (True, None)
    assert validate_topo_embedding(C5, K3, K3_IN_C5, 2) == (True, None)
    assert validate_biclique(complete_bipartite(2, 2), ((0, 1), (2, 3))) == (True, None)
    assert validate_hole(cycle(5), (0, 1, 2, 3, 4)) == (True, None)
    assert validate_elimination_forest(P3, (1, -1, 1), 2) == (True, None)
    assert validate_clique(K3, (0, 1, 2)) == (True, None)
    assert validate_chi_lower_bound(K3, ("clique", (0, 1, 2)), 3) == (True, None)
    assert validate_chi_lower_bound(C5, ("critical_subgraph", (0, 1, 2, 3, 4)), 3) == (True, None)
    assert validate_degeneracy_order(C7, 2, tuple(range(7))) == (True, None)
    assert validate_homomorphism(DP3, T3, (0, 1, 2)) == (True, None)
    assert validate_coloring(path(8), Coloring((0, 1, 2, 0, 1, 2, 0, 1), 3, 2)) == (True, None)


def test_certificates_validate_from_their_json_form():
    """A certificate read back from JSON is lists and numbers; every coloring,
    elimination forest, embedding, hole and homomorphism the solvers give
    validates in that form."""

    def round_trip(x):
        return json.loads(json.dumps(x))

    embeddings = 0
    for g in connected_corpus_graphs(6):
        for res in (chromatic_number(g), chi_p(g, 2), chi_p(g, 3)):
            cert = round_trip(res.certificate.to_jsonable())
            coloring = Coloring(cert["assignment"], cert["num_colors"], cert["p"])
            assert validate_coloring(g, coloring) == (True, None)
        td = tree_depth(g)
        assert validate_elimination_forest(g, round_trip(td.certificate), td.value) == (True, None)
        for h in (K3, C4, C5, complete(4)):
            for r in range(3):
                emb = find_topo_embedding(h, g, r)
                if emb is not None:
                    assert validate_topo_embedding(g, h, round_trip(emb), r) == (True, None)
                    embeddings += 1
        for hole in enumerate_holes(g, g.n):
            assert validate_hole(g, round_trip(list(hole))) == (True, None)
    assert embeddings == 1101
    # the search pairs of S9
    samples = [d for n in range(1, 5) for g in corpus.all_graphs(n) for d in orientations(g)]
    found = 0
    for k in range(1, 4):
        for sample in samples:
            for f, g in ((directed_path(k + 1), sample), (sample, transitive_tournament(k))):
                mapping = homomorphism(f, g)
                if mapping is not None:
                    assert validate_homomorphism(f, g, round_trip(list(mapping))) == (True, None)
                    found += 1
    assert found == 546


def _solved_certificates():
    """Validator calls, one per certificate the solvers and constructions
    build, each of which accepts its certificate."""
    calls = []
    for g in (path(8), cycle(7), complete_bipartite(2, 3), mycielskian(cycle(5))):
        for p in (1, 2, 3, 4):
            coloring = chi_p(g, p).certificate
            calls.append(lambda g=g, c=coloring: validate_coloring(g, c))
        td = tree_depth(g)
        calls.append(lambda g=g, td=td: validate_elimination_forest(g, td.certificate, td.value))
        chi = chromatic_number(g)
        calls.append(lambda g=g, chi=chi: validate_chi_lower_bound(g, chi.lower_bound, chi.value))
    k4 = complete(4)
    base = chromatic_number(k4).certificate
    for p in (1, 2, 3):
        gs = subdivide_exact(k4, p)
        for coloring in (uniform_subdivision_coloring(k4, p), subdivision_chi_p_coloring(k4, p, base)):
            calls.append(lambda gs=gs, c=coloring: validate_coloring(gs, c))
    return calls


@pytest.mark.parametrize("answer, hubs", [(True, 0), (False, None)], ids=["yes", "no"])
def test_verdicts_stand_when_the_engine_answers_wrongly(monkeypatch, answer, hubs):
    calls = _solved_certificates()
    monkeypatch.setattr(TreedepthSolver, "td_at_most", lambda self, mask, k: answer)
    monkeypatch.setattr(TreedepthSolver, "_td_conn_at_most", lambda self, comp, k: answer)
    monkeypatch.setattr(treedepth, "_star_hubs", lambda rows, mask: hubs)
    monkeypatch.setattr(
        _ColoringSearch, "run", lambda self, comp, k, p: [0] * comp.bit_count() if answer else None
    )
    for case, (call, reason) in CASES.items():
        assert call() == (False, reason), case
    for call in calls:
        assert call() == (True, None)


def test_chi_witness_check_rejects_each_s11_critical_witness_less_a_vertex():
    # the critical-subgraph witnesses of the seed-0 S11 graphs are minimal:
    # each passes, and each with one vertex removed is (chi - 1)-colorable
    witnesses = []
    for task in _instances_s11(SuiteSpec(claim="S11")):
        g = graph_from_graph6(task["graph6"])
        chi = chromatic_number(g)
        if chi.lower_bound[0] == "critical_subgraph":
            witnesses.append((g, chi.lower_bound[1], chi.value))
    assert len(witnesses) == 51
    for g, verts, value in witnesses:
        assert validate_chi_lower_bound(g, ("critical_subgraph", verts), value) == (True, None)
        for v in verts:
            rest = tuple(u for u in verts if u != v)
            ok, why = validate_chi_lower_bound(g, ("critical_subgraph", rest), value)
            assert not ok and why == f"the subgraph on {rest} is {value - 1}-colorable"
