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
from chibound.corpus import all_graphs
from chibound.errors import ParseError, SizeCapError, ValidationError
from chibound.generators import SplitMix64, complete, cycle, random_gnp
from chibound.graphs import Digraph, Graph, orientations
from oracles import naive_digraph6, naive_graph6


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
    # chr(30) is not ASCII whitespace, so it stays and is read as a byte
    with pytest.raises(ParseError, match=r"^invalid graph6 byte '\\x1e' \(byte offset 1\)$") as info:
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


@pytest.mark.parametrize("n", range(1, 8))
def test_graph6_matches_the_reference_on_every_graph(n):
    for g in all_graphs(n):
        text = naive_graph6(g)
        assert graph_to_graph6(g) == text
        assert graph_from_graph6(text) == g


def test_digraph6_matches_the_reference_on_small_digraphs():
    # every orientation of every graph on <= 4 vertices (S9's samples), and
    # every digraph on <= 3 vertices, 2-cycles included
    samples = [d for n in range(1, 5) for g in all_graphs(n) for d in orientations(g)]
    for n in range(4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            samples.append(Digraph(n, [a for i, a in enumerate(pairs) if mask >> i & 1]))
    samples.append(Digraph(63, [(0, 62), (62, 1), (31, 30)]))  # long-form N(n)
    for d in samples:
        text = naive_digraph6(d)
        assert digraph_to_digraph6(d) == text
        assert digraph_from_digraph6(text) == d


def test_long_form_header_and_large_n():
    g = Graph(63, [(0, 62)])
    text = graph_to_graph6(g)
    assert text.startswith("~")
    assert graph_from_graph6(text) == g
    assert text == naive_graph6(g)
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


# The codec's error contract: input -> exact message and byte offset. Where an
# input breaks two rules, the first check in the order truncated, invalid
# byte, nonzero padding, trailing bytes (then, for digraph6, a loop) names it.
GRAPH6_ERRORS = [
    ("", "truncated input: missing vertex count", 0),
    ("~~??????", "8-byte vertex counts exceed the supported cap of 262143", 0),
    ("~??", "truncated long-form vertex count", 0),
    ("~?!?", "invalid graph6 byte '!'", 2),
    # the long form of N(n) is for n >= 63 only
    ("~??Bw", "long-form vertex count 3 is below 63", 0),
    ("~???", "long-form vertex count 0 is below 63", 0),
    ("~??}", "long-form vertex count 62 is below 63", 0),
    ("~??~", "truncated adjacency data: need 326 bytes, have 0", 4),
    ("!", "invalid graph6 byte '!'", 0),
    ("C", "truncated adjacency data: need 1 bytes, have 0", 1),
    ("D?", "truncated adjacency data: need 2 bytes, have 1", 1),
    ("D!", "truncated adjacency data: need 2 bytes, have 1", 1),
    ("B!", "invalid graph6 byte '!'", 1),
    ("D?\x7f", "invalid graph6 byte '\\x7f'", 2),
    ("D!A", "invalid graph6 byte '!'", 1),
    ("A`", "nonzero padding bits", 1),
    ("D?A", "nonzero padding bits", 2),
    ("A`?", "nonzero padding bits", 1),
    ("Bw?", "trailing bytes after adjacency data", 2),
    # every byte to the end is checked before the padding
    ("A`!", "invalid graph6 byte '!'", 2),
    # only ASCII whitespace is stripped
    ("Bw\x1e", "invalid graph6 byte '\\x1e'", 2),
    ("\x85Bw\xa0", "invalid graph6 byte '\\x85'", 0),
    ("Bw\xa0", "invalid graph6 byte '\\xa0'", 2),
    ("@?", "trailing bytes after adjacency data", 1),
    (">>graph6<<C", "truncated adjacency data: need 1 bytes, have 0", 1),
]

DIGRAPH6_ERRORS = [
    ("", "digraph6 input must start with '&'", 0),
    ("AO", "digraph6 input must start with '&'", 0),
    ("&", "truncated input: missing vertex count", 1),
    ("&~~??????", "8-byte vertex counts exceed the supported cap of 262143", 1),
    ("&~?", "truncated long-form vertex count", 1),
    ("&~??AO", "long-form vertex count 2 is below 63", 1),
    ("&~??}", "long-form vertex count 62 is below 63", 1),
    ("&A", "truncated adjacency data: need 1 bytes, have 0", 2),
    ("&Bo", "truncated adjacency data: need 2 bytes, have 1", 2),
    ("&B!", "truncated adjacency data: need 2 bytes, have 1", 2),
    ("&A!", "invalid graph6 byte '!'", 2),
    ("&B!A", "invalid graph6 byte '!'", 2),
    ("&AP", "nonzero padding bits", 2),
    ("&A`", "nonzero padding bits", 2),
    ("&AP?", "nonzero padding bits", 2),
    ("&AO?", "trailing bytes after adjacency data", 3),
    ("&AO\x1e", "invalid graph6 byte '\\x1e'", 3),
    ("\x85&AO", "digraph6 input must start with '&'", 0),
    ("&A_?", "trailing bytes after adjacency data", 3),
    ("&A_", "digraph6 encodes a loop at vertex 0", 2),
    ("&BA?", "digraph6 encodes a loop at vertex 1", 2),
    ("&Bo?", "digraph6 encodes a loop at vertex 0", 2),
    (">>digraph6<<&A_", "digraph6 encodes a loop at vertex 0", 2),
]


@pytest.mark.parametrize(
    ("parse", "text", "message", "offset"),
    [(graph_from_graph6, *case) for case in GRAPH6_ERRORS]
    + [(digraph_from_digraph6, *case) for case in DIGRAPH6_ERRORS],
)
def test_parse_error_contract(parse, text, message, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (byte offset {offset})"
    assert info.value.offset == offset
