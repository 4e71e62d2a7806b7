import hashlib
import json
import weakref

import pytest

from chibound import coloring, minors
from chibound.certify import validate_coloring
from chibound.codec import graph_to_graph6
from chibound.coloring import (
    Coloring,
    _ColoringSearch,
    chi_p,
    chromatic_number,
    chromatic_number_value,
    make_coloring,
    product_chi_p_coloring,
    subdivision_chi_p_coloring,
    tree_depth,
    uniform_subdivision_coloring,
)
from chibound.corpus import all_graphs, connected_graphs
from chibound.errors import ParameterError, SizeCapError, ValidationError
from chibound.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_gnp,
)
from chibound.graphs import Graph, disjoint_union, induced_subgraph, subdivide_exact
from chibound.minors import chi_TM, find_topo_embedding, omega_TM
from chibound.suites import build_sub_colorings
from chibound.treedepth import TreedepthSolver
from conftest import connected_corpus_graphs
from oracles import naive_chi_p, naive_chromatic, naive_is_star_coloring, naive_star_chromatic

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_chromatic_examples():
    assert chromatic_number(complete(5)).value == 5
    assert chromatic_number(cycle(5)).value == 3
    assert chromatic_number(PETERSEN).value == 3


def test_chromatic_certificates():
    res = chromatic_number(PETERSEN)
    ok, _ = validate_coloring(PETERSEN, res.certificate)
    assert ok
    kind, verts = res.lower_bound
    assert kind == "critical_subgraph"  # omega=2 < chi=3: needs an odd-cycle core
    sub, _ = induced_subgraph(PETERSEN, verts)
    assert naive_chromatic(sub) == 3
    res = chromatic_number(complete(4))
    assert res.lower_bound[0] == "clique" and len(res.lower_bound[1]) == 4


def test_chromatic_against_oracle_small_connected(small_connected):
    for g in small_connected:
        assert chromatic_number(g).value == naive_chromatic(g)


def test_star_examples():
    assert chi_p(cycle(4), 2).value == 3
    for n in range(2, 6):
        assert chi_p(complete(n), 2).value == n
    assert chi_p(cycle(5), 2).value == 4
    # one-subdivided triangle: three colors, matching chi_1 of the triangle
    assert chi_p(subdivide_exact(complete(3), 1), 2).value == 3


def test_star_certificate_and_oracle():
    rng = SplitMix64(21)
    for _ in range(15):
        g = random_gnp(6, 0.5, rng)
        res = chi_p(g, 2)
        assert naive_is_star_coloring(g, res.certificate.assignment)
        assert res.value == naive_star_chromatic(g)


def test_validate_coloring_witnesses():
    g = complete(2)
    bad = Coloring((0, 0), 1, "proper")
    ok, witness = validate_coloring(g, bad)
    assert not ok and witness == ("monochromatic_edge", (0, 1))

    c4 = cycle(4)
    alternating = Coloring((0, 1, 0, 1), 2, "chi_p", p=2)
    ok, witness = validate_coloring(c4, alternating)
    assert not ok and witness[0] == "subset_treedepth"

    p4 = path(4)
    two = Coloring((0, 1, 0, 1), 2, "chi_p", p=3)
    ok, witness = validate_coloring(p4, two)
    assert not ok and witness[0] == "subset_treedepth"


def test_validate_coloring_structure_errors():
    with pytest.raises(ValidationError):
        validate_coloring(complete(3), Coloring((0, 1), 2, "proper"))
    with pytest.raises(ValidationError):
        validate_coloring(complete(3), Coloring((0, 1, 3), 4, "proper"))
    with pytest.raises(ValidationError):
        validate_coloring(Graph(0), Coloring((), 3, "proper"))


@pytest.mark.parametrize(
    "g, coloring",
    [
        (path(5), Coloring((0, 1, 0, 1, 2.0), 3, "proper")),
        (path(4), Coloring((0, True, 0, 1), 2, "proper")),
        (path(4), Coloring((0, 1, 0, 1), 2, "chi_p", p=True)),
        (path(2), Coloring((0, 1), 2.0, "proper")),
    ],
)
def test_validate_coloring_rejects_non_int_colors_and_p(g, coloring):
    with pytest.raises(ValidationError):
        validate_coloring(g, coloring)


def test_solver_outputs_revalidate(small_connected):
    for g in small_connected[::5]:
        for res in (
            chromatic_number(g),
            chi_p(g, 2),
            chi_p(g, 3),
        ):
            ok, why = validate_coloring(g, res.certificate)
            assert ok, (g, res.name, why)


def test_chi_p_identities(small_connected):
    for g in small_connected[::3]:
        assert chi_p(g, 1).value == chromatic_number(g).value


def test_chi_p_examples():
    assert chi_p(subdivide_exact(complete(4), 2), 2, cap=16).value == 3
    assert chi_p(complete_bipartite(2, 3), 3).value == 3
    assert chi_p(complete_bipartite(2, 3), 4).value <= 3
    # chain up to tree-depth
    g = cycle(6)
    td = tree_depth(g).value
    assert chi_p(g, g.n).value == td


def test_star_search_node_count():
    # forward checking prunes the doomed subtrees of this 4-coloring search;
    # plain backtracking walks about ten thousand nodes
    g = subdivide_exact(complete(7), 1)
    search = _ColoringSearch(g)
    found = search.run((1 << g.n) - 1, 4, 2)
    assert found is not None and search.nodes <= 2000


def test_depth_search_query_count(monkeypatch):
    # the p = 3 subset checks decide each union once per run, only on the
    # component that holds the vertex just placed, and never for a vertex that
    # opens a new class: 1,258 connected tree-depth queries over the 1,483
    # nodes here, against 6,660 when every check asks the engine
    queries = 0
    decide = TreedepthSolver._td_conn_at_most

    def counting(self, comp, k):
        nonlocal queries
        queries += 1
        return decide(self, comp, k)

    monkeypatch.setattr(TreedepthSolver, "_td_conn_at_most", counting)
    g = subdivide_exact(complete(5), 1)
    search = _ColoringSearch(g)
    found = search.least((1 << g.n) - 1, 3, 3)
    assert max(found) + 1 == 5 and search.nodes == 1483
    assert queries <= 1300


def test_depth_rule_keeps_its_answers_per_subset_size():
    # the 8-vertex path has tree-depth 4: as the union of three classes it
    # breaks the rule, as the union of four it meets it, within one run
    g = path(8)
    masks = [0] * 4
    depth_ok = coloring._depth_rule(g.adj_bits, TreedepthSolver(g), masks, 4)

    def color(pattern):
        masks[:] = [0] * 4
        for v, c in enumerate(pattern):
            masks[c] |= 1 << v

    color((0, 1, 2, 0, 1, 2, 0))
    assert not depth_ok(7, 1, 3)
    color((0, 1, 2, 3, 0, 1, 2))
    assert depth_ok(7, 3, 4)


def test_chi_p_at_p_3_and_4_against_the_partition_oracle(small_connected):
    # no pin reaches p = 4: this holds the values of the depth rule to the
    # definition
    for g in small_connected:
        for p in (3, 4):
            assert chi_p(g, p).value == naive_chi_p(g, p)


def test_one_search_per_graph(monkeypatch):
    # every coloring question asked of one graph in a row runs on one search,
    # and tree_depth on that search's TreedepthSolver, and the shallow-minor
    # questions read the same search; the chromatic_number shrink on C5 + K2
    # (omega 2 < chi 3) colors its vertex masks on that search too, and the
    # level-4 pattern catalogue the prism's climbs build from an empty cache
    # colors its candidates with searches of their own and leaves the graph's
    # alone
    built = []
    solvers = []
    init = _ColoringSearch.__init__
    solver_init = TreedepthSolver.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    def counting_solver_init(self, g):
        solvers.append(g)
        solver_init(self, g)

    monkeypatch.setattr(_ColoringSearch, "__init__", counting_init)
    monkeypatch.setattr(TreedepthSolver, "__init__", counting_solver_init)
    monkeypatch.setattr(minors, "_critical_cache", {})
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    for g, chi_tm_1 in (
        (disjoint_union([cycle(5), complete(4)]), 4),
        (disjoint_union([cycle(5), complete(2)]), 3),
        (complete_bipartite(2, 3), 3),
        (prism, 4),
    ):
        coloring._search.cache_clear()
        built.clear()
        solvers.clear()
        chi = chromatic_number(g).value
        assert chi_p(g, 1).value == chi
        assert chi <= chi_p(g, 2).value <= chi_p(g, 3).value <= tree_depth(g).value
        assert chromatic_number_value(g) == chi
        assert chi_TM(g, 0) == chi
        assert chi_TM(g, 1) == chi_tm_1
        omega_tm_1 = omega_TM(g, 1)
        assert omega_tm_1 <= chi_tm_1
        assert (find_topo_embedding(complete(3), g, 1) is not None) == (omega_tm_1 >= 3)
        assert built.count(g) == 1
        assert solvers.count(g) == 1


def test_critical_shrink_runs_on_the_graph_search(monkeypatch):
    # omega 2 < chi 3, so the witness is a shrunk vertex set, and every mask
    # the shrink tries is colored on the graph's one search
    built = []
    init = _ColoringSearch.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(_ColoringSearch, "__init__", counting_init)
    coloring._search.cache_clear()
    g = disjoint_union([cycle(5), complete(2)])
    res = chromatic_number(g)
    assert res.value == 3
    assert res.lower_bound == ("critical_subgraph", (0, 1, 2, 3, 4))
    assert built == [g]


def test_chi_3_climbs_from_chi_2(monkeypatch):
    # a depth-3 coloring is a star coloring, so chi_3 asked right after chi_2
    # runs no search below chi_2
    asked = []
    run = _ColoringSearch.run

    def recording_run(self, comp, k, p):
        asked.append((k, p))
        return run(self, comp, k, p)

    monkeypatch.setattr(_ColoringSearch, "run", recording_run)
    rng = SplitMix64(7)
    graphs = [PETERSEN, complete_bipartite(3, 3), subdivide_exact(complete(4), 1)]
    graphs += [random_gnp(8, 0.4, rng) for _ in range(10)]
    for g in graphs:
        coloring._search.cache_clear()
        chi_2 = chi_p(g, 2).value
        asked.clear()
        assert chi_p(g, 3).value >= chi_2
        assert asked and all(k >= chi_2 for k, _ in asked)


def test_depth_checks_skip_a_placed_vertex_alone(monkeypatch):
    # a color subset none of whose other colors sits next to the vertex just
    # placed leaves that vertex alone in its component, which meets any bound
    alone = 0
    decide = TreedepthSolver.component_td_at_most

    def counting(self, mask, v, k):
        nonlocal alone
        alone += not self.adj_bits[v] & mask
        return decide(self, mask, v, k)

    monkeypatch.setattr(TreedepthSolver, "component_td_at_most", counting)
    for g in (subdivide_exact(complete(5), 1), PETERSEN):
        found = _ColoringSearch(g).least((1 << g.n) - 1, 3, 3)
        assert validate_coloring(g, make_coloring(found, "chi_p", 3))[0]
    assert alone == 0


def test_search_is_freed_by_the_next_graph():
    g = disjoint_union([cycle(5), complete(4)])
    assert chi_p(g, 2).value == 4
    for h in connected_graphs(5)[:10]:
        ref = weakref.ref(coloring._search(g))
        assert chromatic_number_value(h) == naive_chromatic(h)
        assert ref() is None
        g = h


def test_certificates_do_not_depend_on_call_order():
    # a cold search, and warm ones whose memos hold earlier climbs at other p
    rng = SplitMix64(13)
    graphs = [random_gnp(5 + i % 6, 0.3 + 0.1 * (i % 4), rng) for i in range(30)]
    for i in range(10):
        parts = [random_gnp(3 + (i + j) % 4, 0.5, rng) for j in range(2)]
        graphs.append(disjoint_union(parts))
    ps = (1, 2, 3, 4)
    for g in graphs:
        cold = {}
        for p in ps:
            coloring._search.cache_clear()
            cold[p] = chi_p(g, p)
        for order in ((4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2), (1, 2, 3, 4)):
            for p in order:
                assert chi_p(g, p) == cold[p]


def test_tree_depth_does_not_depend_on_call_order():
    # tree_depth shares the graph's solver with its coloring search and
    # starts from the least colorings found before it; the forest is the
    # cold one whatever was asked first, and chi_p asked after tree_depth is
    # the cold chi_p
    rng = SplitMix64(13)
    graphs = [random_gnp(5 + i % 6, 0.3 + 0.1 * (i % 4), rng) for i in range(30)]
    for i in range(10):
        parts = [random_gnp(3 + (i + j) % 4, 0.5, rng) for j in range(2)]
        graphs.append(disjoint_union(parts))
    ps = (1, 2, 3, 4)
    for g in graphs:
        coloring._search.cache_clear()
        cold = tree_depth(g)
        cold_chi = {}
        for p in ps:
            coloring._search.cache_clear()
            cold_chi[p] = chi_p(g, p)
        for order in ((4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2)):
            coloring._search.cache_clear()
            for p in order:
                chi_p(g, p)
            assert tree_depth(g) == cold
        coloring._search.cache_clear()
        assert tree_depth(g) == cold
        for p in ps:
            assert chi_p(g, p) == cold_chi[p]


def test_chi_p_caps():
    with pytest.raises(SizeCapError):
        chi_p(complete(15), 2)
    with pytest.raises(SizeCapError):
        chi_p(complete(13), 3)
    assert chi_p(complete(13), 2, cap=13).value == 13
    with pytest.raises(SizeCapError):
        chi_p(complete(10), 1, cap=5)
    with pytest.raises(SizeCapError):
        chromatic_number(complete(33))


def test_chi_p_rejects_a_p_that_is_not_an_int():
    with pytest.raises(ParameterError):
        chi_p(cycle(5), 1.5)
    with pytest.raises(ParameterError):
        chi_p(cycle(5), True)


def test_uniform_subdivision_coloring():
    for (n, p) in [(3, 1), (4, 1), (4, 2), (3, 3)]:
        g = complete(n)
        coloring = uniform_subdivision_coloring(g, p)
        assert coloring.num_colors == p + 1
        ok, why = validate_coloring(subdivide_exact(g, p), coloring)
        assert ok, why
    rng = SplitMix64(31)
    for _ in range(8):
        g = random_gnp(6, 0.5, rng)
        if g.m == 0:
            continue
        coloring = uniform_subdivision_coloring(g, 2)
        ok, why = validate_coloring(subdivide_exact(g, 2), coloring)
        assert ok, why


def test_subdivision_coloring_construction():
    g = complete(4)
    base = chromatic_number(g).certificate
    col = subdivision_chi_p_coloring(g, 1, base)
    assert col.num_colors <= max(4, 3)
    ok, why = validate_coloring(subdivide_exact(g, 1), col)
    assert ok, why

    g = complete(3)
    base = chromatic_number(g).certificate
    col = subdivision_chi_p_coloring(g, 2, base)
    assert col.num_colors <= max(3, 4)
    ok, why = validate_coloring(subdivide_exact(g, 2), col)
    assert ok, why

    col0 = subdivision_chi_p_coloring(g, 0, base)
    assert col0.assignment == base.assignment


def test_subdivision_coloring_rejects_improper_base():
    g = complete(3)
    with pytest.raises(ValidationError):
        subdivision_chi_p_coloring(g, 1, Coloring((0, 0, 1), 2, "proper"))


def test_product_coloring_collapses_at_p1():
    g = cycle(5)
    base = chromatic_number(g).certificate
    subs = {
        frozenset({c}): {
            v: 0 for v in range(g.n) if base.assignment[v] == c
        }
        for c in range(base.num_colors)
    }
    zeta = product_chi_p_coloring(g, 1, base, subs)
    assert zeta.num_colors == base.num_colors


def test_product_coloring_validates_and_counts():
    from math import comb

    g = cycle(5)
    base = chromatic_number(g).certificate
    subs = build_sub_colorings(g, base, 2)
    zeta = product_chi_p_coloring(g, 2, base, subs)
    ok, why = validate_coloring(g, zeta)
    assert ok, why
    a = max(max(m.values()) + 1 for m in subs.values())
    assert zeta.num_colors <= base.num_colors * a ** comb(base.num_colors - 1, 1)


def test_product_coloring_names_missing_subset():
    g = cycle(5)
    base = chromatic_number(g).certificate
    with pytest.raises(ValidationError) as info:
        product_chi_p_coloring(g, 2, base, {})
    assert "missing sub-coloring" in str(info.value)


def test_make_coloring_normalizes():
    col = make_coloring([5, 5, 9], "proper")
    assert col.assignment == (0, 0, 1) and col.num_colors == 2


# SHA-256 of every certificate below; recorded before the forward-checking search
CERTIFICATES_SHA256 = "a8d0b8b9eb45e89b6da5d8d873a0952665df39f22d512364515ee3ce93b3faae"


def test_certificate_bytes_are_pinned():
    h = hashlib.sha256()

    def add(g, res):
        text = json.dumps(res.to_jsonable(), sort_keys=True, separators=(",", ":"))
        h.update(f"{graph_to_graph6(g)} {text}\n".encode())

    for n in range(1, 7):
        for g in all_graphs(n):
            add(g, chromatic_number(g))
            for p in (1, 2, 3):
                add(g, chi_p(g, p))
    for n in range(1, 6):
        for g in connected_graphs(n):
            sub = subdivide_exact(g, 1)
            add(sub, chi_p(sub, 2, cap=44))
    assert h.hexdigest() == CERTIFICATES_SHA256


# SHA-256 of every construction below over the connected graphs on up to six
# vertices; recorded before the product coloring lost its fewer-colors branch
CONSTRUCTIONS_SHA256 = "2304d0bbadeab0205b3d92169e85493443294b78f76ece89a7dbd822bed2187e"


def test_construction_bytes_are_pinned():
    h = hashlib.sha256()
    built = below = 0

    def add(g, name, p, col):
        nonlocal built
        built += 1
        text = json.dumps(col.to_jsonable(), sort_keys=True, separators=(",", ":"))
        h.update(f"{graph_to_graph6(g)} {name} {p} {text}\n".encode())

    for g in connected_corpus_graphs(6):
        base = chromatic_number(g).certificate
        for p in (2, 3):
            below += base.num_colors < p
            add(g, "product", p, product_chi_p_coloring(g, p, base, build_sub_colorings(g, base, p)))
        for p in (0, 1, 2):
            add(g, "subdivision", p, subdivision_chi_p_coloring(g, p, base))
    assert (built, below) == (715, 29)
    assert h.hexdigest() == CONSTRUCTIONS_SHA256


# SHA-256 of every coloring search run above the tree-depth range (k > p):
# its component mask, k, p, the coloring returned and the nodes it took;
# recorded before the search moved onto one local-variable kernel
SEARCH_SHA256 = "ded1d6f2c92b6b6818946d6f5b3f0807fb91d38425ab7f5e7e3c487c970ae6c7"


def test_search_runs_are_pinned(monkeypatch):
    h = hashlib.sha256()
    runs = 0
    run = _ColoringSearch.run

    def recording_run(self, comp, k, p):
        nonlocal runs
        before = self.nodes
        found = run(self, comp, k, p)
        if k > p:
            runs += 1
            h.update(f"{comp} {k} {p} {found} {self.nodes - before}\n".encode())
        return found

    monkeypatch.setattr(_ColoringSearch, "run", recording_run)
    coloring._search.cache_clear()
    for g in connected_corpus_graphs(6):
        for p in (1, 2, 3):
            chi_p(g, p)
    for g in connected_corpus_graphs(5):
        chi_p(subdivide_exact(g, 1), 2, cap=44)
    assert runs == 540
    assert h.hexdigest() == SEARCH_SHA256


# SHA-256 of every p = 4 coloring search run above the tree-depth range
# (k > 4) of chi_p(g, 4) over the connected graphs on up to seven vertices:
# its component mask, k, the coloring returned and the nodes it took
SEARCH_P4_SHA256 = "f9f138bb7e436795996f9e021fd6879695c56e70581bf626f6eb43b6bcbe52c6"


def test_p_4_search_runs_are_pinned(monkeypatch):
    h = hashlib.sha256()
    runs = refuting = 0
    run = _ColoringSearch.run

    def recording_run(self, comp, k, p):
        nonlocal runs, refuting
        before = self.nodes
        found = run(self, comp, k, p)
        if p == 4 and k > 4:
            runs += 1
            refuting += found is None
            h.update(f"{comp} {k} {found} {self.nodes - before}\n".encode())
        return found

    monkeypatch.setattr(_ColoringSearch, "run", recording_run)
    coloring._search.cache_clear()
    for g in connected_corpus_graphs(7):
        chi_p(g, 4)
    assert (runs, refuting) == (474, 41)
    assert h.hexdigest() == SEARCH_P4_SHA256
