import copy
import pickle

import pytest

from chibound.errors import ParameterError, SizeCapError, ValidationError
from chibound.generators import complete, complete_bipartite, cycle, path, star
from chibound.graphs import (
    Digraph,
    Graph,
    acyclic_orientation,
    blow_up,
    component_masks,
    disjoint_union,
    graph_of_columns,
    induced_subgraph,
    orientations,
    power,
    shortest_cycle,
    subdivide_exact,
)
from oracles import are_isomorphic


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph(True)
    with pytest.raises(ValidationError):
        Graph(2.0)
    with pytest.raises(ValidationError):
        Digraph(True)
    assert Digraph(2, [(0, 1), (1, 0)]).m == 2
    for arcs in ([(0, 1), (0, 1)], [(1, 1)], [(0, 2)]):
        with pytest.raises(ValidationError):
            Digraph(2, arcs)


def test_graph_immutable():
    g = complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_subdivide_counts():
    k4 = subdivide_exact(complete(4), 1)
    assert (k4.n, k4.m) == (10, 12)
    g = complete(4)
    assert subdivide_exact(g, 0) == g
    # n + p*m vertices and (p+1)*m edges
    for p in range(4):
        s = subdivide_exact(g, p)
        assert s.n == g.n + p * g.m
        assert s.m == (p + 1) * g.m


def test_subdivide_triangle_gives_c5():
    assert are_isomorphic(subdivide_exact(complete(3), 1), cycle(6))


def test_original_vertices_keep_indices():
    g = subdivide_exact(path(3), 2)
    assert g.has_edge(0, 3) and g.has_edge(4, 1)
    assert not g.has_edge(0, 1)


def test_edge_and_arc_queries_take_only_vertices():
    # a bool or a float is no vertex, so no end of an edge or arc
    g = path(3)
    assert g.has_edge(0, 1) and not g.has_vertex(True)
    assert not g.has_edge(True, 0) and not g.has_edge(0, True)
    assert not g.has_edge(0.5, 1) and not g.has_edge(1, 2.0)
    d = Digraph(2, [(0, 1)])
    assert d.has_arc(0, 1)
    assert not d.has_arc(0, 1.0) and not d.has_arc(False, 1) and not d.has_arc(0.5, 1)


def test_graph_of_columns_reads_graph6_bit_order():
    # column j holds the vertices i < j adjacent to j
    assert graph_of_columns(4, [1, 0b11, 0b100]) == Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert graph_of_columns(0, []) == Graph(0) and graph_of_columns(1, []) == Graph(1)
    with pytest.raises(ValidationError, match="^column 2 has a vertex at or above 2$"):
        graph_of_columns(3, [1, 0b100])
    # an empty extra column adds no edge, and is refused all the same
    with pytest.raises(ValidationError, match="^3 vertices take at most 2 columns$"):
        graph_of_columns(3, [1, 0b11, 0])
    with pytest.raises(ValidationError, match="^0 vertices take at most 0 columns$"):
        graph_of_columns(0, [0])
    with pytest.raises(ValidationError, match="^vertex count must be a non-negative int"):
        graph_of_columns(-1, [])
    assert graph_of_columns(3, [1]) == Graph(3, [(0, 1)])


def test_blow_up():
    assert blow_up(cycle(5), 1) == cycle(5)
    b = blow_up(cycle(5), 2)
    assert (b.n, b.m) == (10, 25)
    with pytest.raises(ParameterError):
        blow_up(cycle(5), 0)


def test_power():
    assert are_isomorphic(power(path(3), 2), complete(3))
    g = cycle(6)
    assert power(g, 1) == g
    sq = power(cycle(6), 2)
    assert all(sq.degree(v) == 4 for v in range(6))
    # the radius is clamped at n, so a huge exponent costs no more than n
    assert power(path(5), 10**9) == complete(5)


def test_orientations():
    assert len(list(orientations(complete(2)))) == 2
    assert len(list(orientations(path(3)))) == 4
    digs = list(orientations(complete(3)))
    assert len(digs) == 8
    cyclic = [d for d in digs if all((v, (v + 1) % 3) in d.arcs for v in range(3))
              or all(((v + 1) % 3, v) in d.arcs for v in range(3))]
    assert len(cyclic) == 2
    for d in digs:
        assert d.is_oriented
        for u, v in complete(3).edges:
            assert ((u, v) in d.arcs) != ((v, u) in d.arcs)


def test_orientations_cap():
    with pytest.raises(SizeCapError):
        next(orientations(complete(7)))  # 21 edges


def test_acyclic_orientation():
    t3 = acyclic_orientation(complete(3), [0, 1, 2])
    assert t3.arcs == frozenset({(0, 1), (0, 2), (1, 2)})
    d = acyclic_orientation(cycle(4), [0, 1, 2, 3])
    # no directed cycle: some vertex has no outgoing arc along every walk
    from chibound.homomorphism import longest_directed_path_order

    assert longest_directed_path_order(d) is not None
    with pytest.raises(ParameterError):
        acyclic_orientation(cycle(4), [0, 1, 2])


def test_girth():
    assert len(shortest_cycle(cycle(5))) == 5
    assert shortest_cycle(path(9)) is None
    assert len(shortest_cycle(complete(4))) == 3
    assert len(shortest_cycle(complete_bipartite(2, 3))) == 4


def test_components_and_union():
    g = disjoint_union([cycle(3), path(2)])
    assert g.n == 5 and g.m == 4
    assert [c.bit_count() for c in component_masks(g.adj_bits, (1 << g.n) - 1)] == [3, 2]
    sub, verts = induced_subgraph(g, [3, 4])
    assert sub == complete(2) and verts == [3, 4]


def test_graphs_pickle_and_copy():
    g = Graph(4, [(0, 1), (3, 1), (2, 3)])
    d = Digraph(3, [(0, 1), (1, 0), (2, 1)])
    for x in (g, d, Graph(0), Digraph(0)):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert pickle.loads(pickle.dumps(d)).in_bits == d.in_bits
    with pytest.raises(AttributeError):
        copy.copy(g).n = 5


def test_star_generator():
    s = star(4)
    assert s.n == 5 and s.m == 4 and s.degree(0) == 4
