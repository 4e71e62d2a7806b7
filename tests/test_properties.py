"""Property-based checks with hypothesis: structural invariants that must hold
on every graph, not just the worked examples."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from chibound.certify import (
    _td_at_most,
    validate_coloring,
    validate_elimination_forest,
    validate_topo_embedding,
)
from chibound.codec import (
    graph6_lines_pattern,
    graph_from_graph6,
    graph_to_graph6,
    parse_graph,
    serialize_graph,
)
from chibound.coloring import (
    _normalize,
    _star_rules,
    chi_p,
    chromatic_at_least,
    chromatic_number,
    make_coloring,
    tree_depth,
    tree_depth_at_most,
)
from chibound.corpus import canonical_form
from chibound.errors import ParseError
from chibound.generators import complete, cycle
from chibound.graphs import (
    Digraph,
    Graph,
    bits,
    blow_up,
    component_masks,
    disjoint_union,
    distance_balls,
    graph_of_columns,
    induced_subgraph,
    orientations,
    shortest_cycle,
    subdivide_exact,
    walk_masks,
)
from chibound.invariants import biclique_number, clique_number, degeneracy
from chibound.minors import critical_patterns, find_topo_embedding
from chibound.treedepth import (
    TreedepthSolver,
    _degeneracy,
    _star_hubs,
)
from oracles import (
    _components_of,
    naive_canonical_form,
    naive_chi_p,
    naive_chromatic,
    naive_is_star_coloring,
    naive_star_chromatic,
    naive_topo_embedding,
    naive_treedepth,
    walk_count_matrix,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    return Graph(n, edges)


common = settings(max_examples=60, deadline=None)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_canonical_form_is_the_least_column_tuple(g):
    assert canonical_form(g) == naive_canonical_form(g)


@st.composite
def edge_lists(draw, max_n=12):
    """(n, model edge set, the same edges listed in a drawn order and orientation)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    model = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    listed = draw(st.permutations(sorted(model)))
    flips = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    return n, model, [(v, u) if f else (u, v) for (u, v), f in zip(listed, flips)]


@st.composite
def arc_lists(draw, max_n=10):
    """(n, model arc set, the same arcs listed in a drawn order)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    model = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, model, draw(st.permutations(sorted(model)))


@common
@given(edge_lists(), st.data())
def test_graph_views_match_the_edge_set(case, data):
    n, model, listed = case
    g = Graph(n, listed)
    assert g.edges == frozenset(model)
    assert g.sorted_edges() == sorted(model)
    assert g.m == len(model)
    for v in range(n):
        nbrs = sorted(u for e in model if v in e for u in e if u != v)
        assert g.neighbors(v) == tuple(nbrs)
        assert g.degree(v) == len(nbrs)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in model)
    same = Graph(n, data.draw(st.permutations(listed)))
    assert same == g and hash(same) == hash(g)
    if listed:
        assert Graph(n, listed[1:]) != g


@common
@given(arc_lists(), st.data())
def test_digraph_views_match_the_arc_set(case, data):
    n, model, listed = case
    d = Digraph(n, listed)
    assert d.arcs == frozenset(model)
    assert d.sorted_arcs() == sorted(model)
    assert d.m == len(model)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert d.has_arc(u, v) == ((u, v) in model)
    assert d.is_oriented == all((v, u) not in model for u, v in model)
    same = Digraph(n, data.draw(st.permutations(listed)))
    assert same == d and hash(same) == hash(d)
    if listed:
        assert Digraph(n, listed[1:]) != d


@common
@given(arc_lists(), st.data())
def test_walk_layers_match_the_oracles(case, data):
    n, model, listed = case
    d = Digraph(n, listed)
    radius = data.draw(st.integers(min_value=0, max_value=n + 1))
    g = Graph(n, {(min(a), max(a)) for a in model})
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(nxg))
    balls = distance_balls(g, radius)
    assert len(balls) == min(radius, n) + 1
    for i in range(radius + 1):
        layer = balls[min(i, n)]
        for v in range(n):
            assert set(bits(layer[v])) == {u for u, k in lengths[v].items() if k <= i}
    walks = walk_masks(d.out_bits, radius)
    assert len(walks) == radius + 1
    for i, layer in enumerate(walks):
        counts = walk_count_matrix(d, i)
        for v in range(n):
            assert set(bits(layer[v])) == {u for u in range(n) if counts[v][u] > 0}


@common
@given(graphs(max_n=8))
def test_codec_roundtrip(g):
    assert graph_from_graph6(graph_to_graph6(g)) == g
    assert parse_graph(serialize_graph(g, "json")) == g


@st.composite
def graph6_lines(draw, n):
    """The graph6 of a graph on n vertices, as it is or with one fault: a byte
    changed, padding bits set, a wrong or long-form N(n), or a trailing
    carriage return or space."""
    pairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << pairs) - 1))
    columns = [(mask >> (j * (j - 1) // 2)) & ((1 << j) - 1) for j in range(1, n)]
    line = graph_to_graph6(graph_of_columns(n, columns))
    if draw(st.booleans()):
        return line
    fault = draw(st.sampled_from(["byte", "padding", "count", "long", "tail"]))
    if fault == "byte":
        i = draw(st.integers(min_value=0, max_value=len(line) - 1))
        line = line[:i] + draw(st.characters(max_codepoint=255)) + line[i + 1 :]
    elif fault == "padding":
        pad = (-pairs) % 6
        if pad:
            raised = draw(st.integers(min_value=1, max_value=(1 << pad) - 1))
            line = line[:-1] + chr(63 + ((ord(line[-1]) - 63) | raised))
    elif fault == "count":
        line = chr(63 + draw(st.integers(min_value=0, max_value=62))) + line[1:]
    elif fault == "long":
        line = "~??" + line
    elif fault == "tail":
        line += draw(st.sampled_from(["\r", " "]))
    return line


def _round_trips_on(line, n):
    try:
        g = graph_from_graph6(line)
    except ParseError:
        return False
    return g.n == n and graph_to_graph6(g) == line


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.data())
def test_graph6_lines_pattern_accepts_exactly_the_round_tripping_files(n, data):
    text = "".join(line + "\n" for line in data.draw(st.lists(graph6_lines(n), max_size=4)))
    # a changed byte may be a line feed, which splits its line in two
    expected = all(_round_trips_on(line, n) for line in text.split("\n")[:-1])
    assert (graph6_lines_pattern(n).fullmatch(text) is not None) == expected


@common
@given(graphs(max_n=9))
def test_shortest_cycle_is_a_cycle_of_girth_length(g):
    cyc = shortest_cycle(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    if cyc is None:
        assert nx.is_forest(h)
        return
    assert len(set(cyc)) == len(cyc)
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    assert len(cyc) == nx.girth(h)


@common
@given(graphs(max_n=6), st.integers(min_value=0, max_value=3))
def test_subdivision_counting(g, p):
    s = subdivide_exact(g, p)
    assert s.n == g.n + p * g.m
    assert s.m == (p + 1) * g.m


@common
@given(graphs(max_n=5))
def test_every_orientation_covers_each_edge_once(g):
    for d in orientations(g):
        assert d.is_oriented
        assert len(d.arcs) == g.m
        for u, v in g.edges:
            assert ((u, v) in d.arcs) != ((v, u) in d.arcs)


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=6), st.integers(min_value=1, max_value=3))
def test_blow_up_clique_number_multiplies(g, k):
    assert clique_number(blow_up(g, k)).value == k * clique_number(g).value


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6), st.data())
def test_vertex_deletion_is_monotone(g, data):
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    rest = [u for u in range(g.n) if u != v]
    sub, _ = induced_subgraph(g, rest)
    assert chromatic_number(sub).value <= chromatic_number(g).value
    assert chi_p(sub, 2).value <= chi_p(g, 2).value
    assert chi_p(sub, 3).value <= chi_p(g, 3).value
    assert tree_depth(sub).value <= tree_depth(g).value
    assert clique_number(sub).value <= clique_number(g).value
    assert biclique_number(sub).value <= biclique_number(g).value


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_chain_and_floor(g):
    chi = chromatic_number(g).value
    chi2 = chi_p(g, 2).value
    chi3 = chi_p(g, 3).value
    td = tree_depth(g).value
    assert chi <= chi2 <= chi3 <= td
    assert chi_p(g, g.n).value == td
    assert biclique_number(g).value >= clique_number(g).value // 2


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6))
def test_chi_2_is_the_star_chromatic_number(g):
    res = chi_p(g, 2)
    assert res.value == naive_star_chromatic(g)
    assert naive_is_star_coloring(g, res.certificate.assignment)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(lambda a, b: disjoint_union([a, b]), graphs(max_n=4), graphs(max_n=3)),
    st.integers(min_value=3, max_value=4),
)
def test_chi_p_of_a_disjoint_union_is_its_least_partition(g, p):
    res = chi_p(g, p)
    assert res.value == naive_chi_p(g, p)
    assert validate_coloring(g, res.certificate)[0]


def _star_valid(g, colors, vertices):
    sub, verts = induced_subgraph(g, vertices)
    return naive_is_star_coloring(sub, [colors[v] for v in verts])


@common
@given(st.one_of(
    graphs(max_n=8),
    st.builds(lambda a, b: disjoint_union([a, b]), graphs(max_n=4), graphs(max_n=4)),
))
def test_components_color_as_their_own_graphs(g):
    # one search object colors every component exactly as it colors a copy
    chi = chromatic_number(g).value
    assert chi == naive_chromatic(g)
    assert chromatic_at_least(g, chi) and not chromatic_at_least(g, chi + 1)
    for p in range(1, 4):
        colors = chi_p(g, p).certificate.assignment
        for comp in component_masks(g.adj_bits, (1 << g.n) - 1):
            sub, verts = induced_subgraph(g, list(bits(comp)))
            own = chi_p(sub, p).certificate.assignment
            assert _normalize(colors[v] for v in verts) == _normalize(own)


def _star_partial(g, k, data):
    """A random star-valid partial coloring with colors 0..k-1 (-1 uncolored):
    each vertex in a random order gets a drawn color, or none, and keeps it
    only if the colored part stays valid."""
    colors = [-1] * g.n
    for v in data.draw(st.permutations(range(g.n))):
        c = data.draw(st.integers(min_value=-1, max_value=k - 1))
        if c < 0:
            continue
        colors[v] = c
        if not _star_valid(g, colors, [u for u in range(g.n) if colors[u] >= 0]):
            colors[v] = -1
    return colors


class _RunState:
    """The state a coloring run keeps for a partial coloring, with the star
    rules the search reads over it."""

    def __init__(self, g, colors, k):
        self.nbrs = [g.neighbors(v) for v in range(g.n)]
        self.a = [-1] * g.n
        self.color_masks = [0] * k
        self.sat = [0] * g.n
        self.forbidden, self.frontier = _star_rules(
            self.nbrs, g.adj_bits, self.a, self.color_masks, self.sat
        )
        for v, c in enumerate(colors):
            if c >= 0:
                self.color(v, c)

    def color(self, v, c):
        self.a[v] = c
        self.color_masks[c] |= 1 << v
        for u in self.nbrs[v]:
            self.sat[u] |= 1 << c


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7), st.integers(min_value=1, max_value=5), st.data())
def test_forbidden_colors_are_the_star_violations(g, k, data):
    colors = _star_partial(g, k, data)
    forbidden = _RunState(g, colors, k).forbidden
    colored = [v for v in range(g.n) if colors[v] >= 0]
    for u in range(g.n):
        if colors[u] >= 0:
            continue
        taken = forbidden(u)
        for c in range(k):
            colors[u] = c
            assert (taken >> c & 1) == (not _star_valid(g, colors, colored + [u]))
        colors[u] = -1


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7), st.integers(min_value=1, max_value=5), st.data())
def test_coloring_a_vertex_changes_forbidden_colors_only_on_its_frontier(g, k, data):
    # the forward check looks at the frontier of the vertex just colored
    # only, so every other uncolored vertex must keep its forbidden colors;
    # the rare case is a path u-w-y-v whose w and v share a color, where
    # coloring v changes u's forbidden colors, hence the larger example count
    colors = _star_partial(g, k, data)
    uncolored = [v for v in range(g.n) if colors[v] < 0]
    forbidden = _RunState(g, colors, k).forbidden
    before = {u: forbidden(u) for u in uncolored}
    balls = distance_balls(g, 3)[-1]
    for v in uncolored:
        for c in range(k):
            state = _RunState(g, colors, k)
            state.color(v, c)
            front = state.frontier(v, c)
            assert not front & ~balls[v]
            for u in uncolored:
                if u != v and not front >> u & 1:
                    assert state.forbidden(u) == before[u]


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=9), st.data())
def test_tree_depth_matches_the_naive_oracle(g, data):
    res = tree_depth(g)
    assert res.value == naive_treedepth(g)
    for k in range(g.n + 2):
        assert tree_depth_at_most(g, k) == (k >= res.value)
    ok, why = validate_elimination_forest(g, res.certificate, res.value)
    assert ok, why
    for _ in range(4):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
        vertices = [v for v in range(g.n) if mask >> v & 1]
        comps = [frozenset(v for v in range(g.n) if c >> v & 1)
                 for c in component_masks(g.adj_bits, mask)]
        assert comps == _components_of(g, vertices)


# graphs up to 9 vertices, disconnected ones drawn on purpose as well
small_graphs = st.one_of(
    graphs(max_n=9),
    st.builds(lambda a, b: disjoint_union([a, b]), graphs(max_n=5), graphs(max_n=4)),
)


def _nonzero_masks(g):
    return st.integers(min_value=1, max_value=(1 << g.n) - 1)


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.data())
def test_bounded_decision_on_induced_masks(g, data):
    # one solver, and so one memo, answers every mask and k
    solver = TreedepthSolver(g)
    for _ in range(4):
        mask = data.draw(_nonzero_masks(g))
        sub, _ = induced_subgraph(g, list(bits(mask)))
        td = naive_treedepth(sub)
        ks = list(range(mask.bit_count() + 2))
        for k in data.draw(st.permutations(ks)):
            assert solver.td_at_most(mask, k) == (k >= td)
        assert solver.treedepth(mask) == td


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.data())
def test_component_check_decides_the_component_of_v(g, data):
    solver = TreedepthSolver(g)
    for _ in range(4):
        mask = data.draw(_nonzero_masks(g))
        v = data.draw(st.sampled_from(list(bits(mask))))
        k = data.draw(st.integers(min_value=0, max_value=mask.bit_count()))
        (comp,) = [c for c in _components_of(g, list(bits(mask))) if v in c]
        decided = solver.component_td_at_most(mask, v, k)
        assert decided == (k >= naive_treedepth(induced_subgraph(g, comp)[0]))
        assert decided == solver.td_at_most(sum(1 << u for u in comp), k)


def _naive_star_forest(g, vertices):
    # every component is a star or has at most 2 vertices
    for comp in _components_of(g, vertices):
        sub, _ = induced_subgraph(g, sorted(comp))
        degrees = sorted(sub.degree(v) for v in range(sub.n))
        if sub.n > 2 and degrees != [1] * (sub.n - 1) + [sub.n - 1]:
            return False
    return True


def test_star_hubs_explicit_cases():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    two_stars = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
    assert _star_hubs(triangle.adj_bits, 0b111) is None
    assert _star_hubs(p4.adj_bits, 0b1111) is None
    assert _star_hubs(p4.adj_bits, 0b0111) == 0b0010
    assert _star_hubs(p4.adj_bits, 0b1011) == 0
    assert _star_hubs(two_stars.adj_bits, 0b1111111) == 0b0100001
    for g in (triangle, p4, two_stars):
        full = (1 << g.n) - 1
        assert (_star_hubs(g.adj_bits, full) is not None) == _naive_star_forest(g, range(g.n))


@settings(max_examples=60, deadline=None)
@given(small_graphs, st.data())
def test_star_tests_decide_depth_two_and_three(g, data):
    # td <= 2 is a star test and a root scan at k = 3 tests star forests. A
    # fresh solver asks them with no memo entry for the mask's components; a
    # solver primed at k = 4 already has entries left open at 2 and 3
    for _ in range(4):
        mask = data.draw(_nonzero_masks(g))
        vertices = list(bits(mask))
        hubs = _star_hubs(g.adj_bits, mask)
        assert (hubs is not None) == _naive_star_forest(g, vertices)
        if hubs is not None:
            degrees = {v: (g.adj_bits[v] & mask).bit_count() for v in vertices}
            assert hubs == sum(1 << v for v in vertices if degrees[v] >= 2)
        td = naive_treedepth(induced_subgraph(g, vertices)[0])
        v = data.draw(st.sampled_from(vertices))
        (comp,) = [c for c in _components_of(g, vertices) if v in c]
        comp_td = naive_treedepth(induced_subgraph(g, sorted(comp))[0])
        primed = TreedepthSolver(g)
        primed.td_at_most(mask, 4)
        for solver in (TreedepthSolver(g), primed):
            for k in data.draw(st.permutations([2, 3])):
                assert solver.td_at_most(mask, k) == (k >= td)
                assert solver.component_td_at_most(mask, v, k) == (k >= comp_td)
            assert solver.treedepth(mask) == td
        full = (1 << g.n) - 1
        ok, why = validate_elimination_forest(g, primed.forest(full), naive_treedepth(g))
        assert ok, why


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.data())
def test_degeneracy_bounds_tree_depth(g, data):
    # td >= tw + 1 >= degeneracy + 1, and the engine's peeling shortcut gives
    # the degeneracy of the full min-degree peeling
    assert degeneracy(g)[0] + 1 <= naive_treedepth(g)
    for _ in range(4):
        mask = data.draw(_nonzero_masks(g))
        sub, _ = induced_subgraph(g, list(bits(mask)))
        assert _degeneracy(g.adj_bits, mask) == degeneracy(sub)[0]


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.data())
def test_the_validators_tree_depth_check_agrees_with_the_engine(g, data):
    # validate_coloring decides its color unions by the definition, with no
    # engine code, and answers as the engine does
    for _ in range(4):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
        k = data.draw(st.integers(min_value=2, max_value=4))
        assert _td_at_most(g.adj_bits, mask, k) == TreedepthSolver(g).td_at_most(mask, k)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.data())
def test_star_validator_matches_the_naive_check(g, data):
    # colorings drawn mostly proper, so the bicolored-path check has work
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    colors = [-1] * g.n
    for v in data.draw(st.permutations(range(g.n))):
        free = [c for c in range(k) if all(colors[u] != c for u in g.neighbors(v))]
        colors[v] = data.draw(st.sampled_from(free or list(range(k))))
    coloring = make_coloring(colors, 2)
    ok, witness = validate_coloring(g, coloring)
    assert ok == naive_is_star_coloring(g, coloring.assignment)
    if witness is not None and witness[0] == "subset_treedepth":
        classes = [[] for _ in range(coloring.num_colors)]
        for v, c in enumerate(coloring.assignment):
            classes[c].append(v)
        bad = [
            (a, b)
            for a in range(coloring.num_colors)
            for b in range(a + 1, coloring.num_colors)
            if naive_treedepth(induced_subgraph(g, classes[a] + classes[b])[0]) > 2
        ]
        assert witness[1] == bad[0]


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_topo_embedding_search_agrees_with_the_naive_oracle(g):
    patterns = [complete(3), cycle(5), complete(4), complete(5)] + critical_patterns(4, 6)
    for h in patterns:
        for r in range(4):
            emb = find_topo_embedding(h, g, r)
            assert (emb is None) == (naive_topo_embedding(h, g, r) is None), (h, r)
            if emb is not None:
                ok, why = validate_topo_embedding(g, emb, r)
                assert ok, why
