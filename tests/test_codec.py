import networkx as nx
import pytest

from chibound.codec import (
    digraph_from_digraph6,
    digraph_to_digraph6,
    graph_from_graph6,
    graph_to_graph6,
    parse_digraph,
    parse_graph,
    serialize_digraph,
    serialize_graph,
)
from chibound.errors import ParseError, SizeCapError, ValidationError
from chibound.generators import SplitMix64, complete, cycle, random_gnp
from chibound.graphs import Digraph, Graph


def test_known_graph6_values():
    # cross-checked against an independent reference codec
    assert graph_to_graph6(complete(3)) == "Bw"
    assert graph_to_graph6(complete(2)) == "A_"
    assert graph_to_graph6(Graph(1)) == "@"
    k3 = graph_from_graph6("Bw")
    assert k3.n == 3 and k3.m == 3


def test_json_roundtrip():
    g = parse_graph('{"n":2,"edges":[[0,1]]}')
    assert g == complete(2)
    assert serialize_graph(g, "json") == '{"edges":[[0,1]],"n":2}'
    assert parse_graph(serialize_graph(g, "json")) == g


def test_json_rejects_loop_and_duplicate():
    with pytest.raises(ValidationError):
        parse_graph('{"n":3,"edges":[[0,0]]}')
    with pytest.raises(ValidationError):
        parse_graph('{"n":3,"edges":[[0,1],[1,0]]}')


def test_json_malformed():
    with pytest.raises(ParseError):
        parse_graph('{"n":3')
    with pytest.raises(ParseError, match='^JSON graph requires "n" and "edges" fields$'):
        parse_graph('{"edges":[[0,1]]}')
    with pytest.raises(ParseError):
        parse_graph('{"n":2,"edges":[[0,1,2]]}')


def test_graph6_parse_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        graph_from_graph6("B" + chr(30))
    assert info.value.offset == 1
    with pytest.raises(ParseError):
        graph_from_graph6("C")  # truncated adjacency block


def test_graph6_nonzero_padding_rejected():
    # K_2's byte with a padding bit flipped
    bad = "A" + chr(ord("_") + 1)
    with pytest.raises(ParseError):
        graph_from_graph6(bad)


def test_roundtrip_against_networkx():
    rng = SplitMix64(2024)
    for n in range(1, 10):
        for _ in range(12):
            g = random_gnp(n, 0.4, rng)
            text = graph_to_graph6(g)
            back = nx.from_graph6_bytes(text.encode())
            assert {tuple(sorted(e)) for e in back.edges} == g.edges
            again = nx.to_graph6_bytes(back, header=False).decode().strip()
            assert graph_from_graph6(again) == g


def test_long_form_header_and_large_n():
    g = Graph(63, [(0, 62)])
    text = graph_to_graph6(g)
    assert text.startswith("~")
    assert graph_from_graph6(text) == g
    back = nx.from_graph6_bytes(text.encode())
    assert {tuple(sorted(e)) for e in back.edges} == g.edges
    with pytest.raises(SizeCapError):
        graph_to_graph6(Graph(1 << 18))


@pytest.mark.parametrize("parse", [parse_graph, parse_digraph])
def test_json_vertex_count_has_the_graph6_cap(parse):
    # one past the long-form graph6 limit; an unbounded n would build the graph
    with pytest.raises(SizeCapError):
        parse('{"n": 262144, "edges": [], "arcs": []}')


def test_optional_header_accepted():
    assert graph_from_graph6(">>graph6<<Bw") == complete(3)


def test_digraph6_known_value():
    # '&' + N(2) + row-major bits 0100 padded: 0b010000 + 63 = 'O'
    single_arc = Digraph(2, [(0, 1)])
    assert digraph_to_digraph6(single_arc) == "&AO"
    assert digraph_from_digraph6("&AO") == single_arc


def test_digraph6_roundtrip():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    text = digraph_to_digraph6(d)
    assert text.startswith("&")
    assert digraph_from_digraph6(text) == d
    t3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert digraph_from_digraph6(digraph_to_digraph6(t3)) == t3


def test_digraph_json_roundtrip():
    d = Digraph(2, [(0, 1), (1, 0)])
    text = serialize_digraph(d, "json")
    assert text == '{"arcs":[[0,1],[1,0]],"n":2}'
    assert parse_digraph(text) == d
    with pytest.raises(ParseError, match='^JSON digraph requires "n" and "arcs" fields$'):
        parse_digraph('{"n":2,"edges":[[0,1]]}')
    with pytest.raises(ParseError, match="^'arcs' entries must be integer pairs"):
        parse_digraph('{"n":2,"arcs":[[0,1.5]]}')


def test_parse_graph_dispatch():
    assert parse_graph("Bw") == complete(3)
    assert parse_graph('{"n":3,"edges":[[0,1],[0,2],[1,2]]}') == complete(3)
    assert serialize_graph(cycle(4), "json").startswith("{")


def test_roundtrip_generated_families():
    for g in (complete(6), cycle(9), Graph(5)):
        for fmt in ("graph6", "json"):
            assert parse_graph(serialize_graph(g, fmt)) == g
