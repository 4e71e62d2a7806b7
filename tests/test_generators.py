import networkx as nx
import pytest

from chibound.cli import main
from chibound.codec import graph_to_graph6
from chibound.errors import ParameterError
from chibound.generators import (
    SplitMix64,
    cycle,
    generate,
    mycielskian,
    mycielski_iterate,
    complete,
)
from chibound.graphs import shortest_cycle


def test_splitmix_reference_values():
    # SplitMix64 from seed 1234567: published reference outputs
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_splitmix_split_streams_differ():
    a = SplitMix64(1).split("x")
    b = SplitMix64(1).split("y")
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_generate_deterministic():
    for family, params in [
        ("random_gnp", {"n": 12, "p": 0.5}),
        ("high_girth", {"n": 24, "d": 3, "g": 5}),
    ]:
        g1 = generate(family, params, seed=99)
        g2 = generate(family, params, seed=99)
        g3 = generate(family, params, seed=100)
        assert g1 == g2
        assert graph_to_graph6(g1) == graph_to_graph6(g2)
        assert g1 != g3 or g1.m == 0


def test_generator_seed_record():
    # a (family, params, seed) triple rebuilds the same graph
    assert generate("cycle", {"n": 5}, seed=7) == cycle(5)


def test_simple_families():
    assert generate("complete_bipartite", {"s": 2, "t": 3}).m == 6
    assert len(shortest_cycle(generate("cycle", {"n": 5}))) == 5
    assert generate("path", {"n": 4}).m == 3
    assert generate("star", {"t": 6}).n == 7
    assert generate("complete", {"n": 5}).m == 10


def test_family_errors():
    with pytest.raises(ParameterError):
        generate("nosuch", {})
    with pytest.raises(ParameterError):
        generate("cycle", {})
    with pytest.raises(ParameterError):
        generate("high_girth", {"n": 5, "d": 3, "g": 5})  # odd n*d
    with pytest.raises(
        ParameterError, match=r"^family 'complete' takes no parameter 'typo'; known: \['n'\]$"
    ):
        generate("complete", {"n": 4, "typo": 3})
    with pytest.raises(
        ParameterError,
        match=r"^family 'mycielski_iterate' takes no parameter 'n'; known: \['base', 'k'\]$",
    ):
        generate("mycielski_iterate", {"k": 1, "n": 3})


def test_generate_command_rejects_a_parameter_its_family_does_not_take(capsys):
    assert main(["generate", "complete", "--param", "n=4", "--param", "typo=3"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: family 'complete' takes no parameter 'typo'; known: ['n']\n"


def test_high_girth_meets_target():
    for seed in range(3):
        g = generate("high_girth", {"n": 64, "d": 3, "g": 6}, seed=seed)
        got = shortest_cycle(g)
        assert got is None or len(got) >= 6
        # independent check
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        try:
            assert nx.girth(h) >= 6
        except nx.NetworkXError:
            pass  # forest: no cycle at all


def test_high_girth_is_pinned():
    # each short cycle loses an edge found by a BFS in ascending neighbour order
    g = generate("high_girth", {"n": 12, "d": 3, "g": 6}, 116)
    assert graph_to_graph6(g) == "KAOccAgO?AC?"


def test_mycielski_chromatic_ladder():
    from chibound.coloring import chromatic_number_value

    g = complete(2)
    for expect in (2, 3, 4):
        assert chromatic_number_value(g) == expect
        got = shortest_cycle(g)
        assert got is None or len(got) >= 3
        g = mycielskian(g)
    assert mycielski_iterate(complete(2), 2).n == 11
    grotzsch = generate("mycielski_iterate", {"k": 2})
    assert chromatic_number_value(grotzsch) == 4


def test_mycielski_base_as_graph6():
    g = generate("mycielski_iterate", {"base": "A_", "k": 1})
    assert g.n == 5
