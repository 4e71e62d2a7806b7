import hashlib
import json
from fractions import Fraction

import pytest

from chibound.certify import validate_biclique, validate_clique, validate_degeneracy_order
from chibound.codec import graph_to_graph6
from chibound.errors import SizeCapError
from chibound.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_gnp,
    star,
)
from chibound.graphs import blow_up, subdivide_exact
from chibound.invariants import (
    average_degree,
    biclique_number,
    clique_number,
    degeneracy,
    max_degree,
)
from conftest import connected_corpus_graphs
from oracles import naive_max_biclique, naive_max_clique


def test_clique_examples():
    assert clique_number(complete_bipartite(3, 3)).value == 2
    assert clique_number(cycle(5)).value == 2
    assert clique_number(complete(6)).value == 6
    assert clique_number(blow_up(cycle(5), 2)).value == 4


def test_clique_witness_validates():
    g = blow_up(cycle(5), 2)
    res = clique_number(g)
    ok, _ = validate_clique(g, res.certificate)
    assert ok and len(res.certificate) == res.value
    assert not validate_clique(g, (0, 1, 2, 3, 4))[0]
    assert not validate_clique(path(3), [99])[0]
    assert not validate_clique(path(3), [-1])[0]


def test_clique_against_oracle():
    rng = SplitMix64(11)
    for _ in range(30):
        g = random_gnp(7, 0.5, rng)
        assert clique_number(g).value == naive_max_clique(g)


def test_biclique_examples():
    assert biclique_number(complete_bipartite(3, 3)).value == 3
    assert biclique_number(cycle(5)).value == 1
    assert biclique_number(blow_up(cycle(5), 2)).value == 2
    for n in range(2, 8):
        assert biclique_number(complete(n)).value == n // 2


def test_biclique_witness_validates():
    g = complete_bipartite(4, 5)
    res = biclique_number(g)
    assert res.value == 4
    ok, _ = validate_biclique(g, res.certificate)
    assert ok
    assert not validate_biclique(g, ((0, 0.5), (4, 5)))[0]


def test_biclique_against_oracle():
    rng = SplitMix64(13)
    for _ in range(25):
        g = random_gnp(7, 0.6, rng)
        assert biclique_number(g).value == naive_max_biclique(g)


def test_biclique_floor_of_clique():
    rng = SplitMix64(17)
    for _ in range(25):
        g = random_gnp(8, 0.5, rng)
        assert biclique_number(g).value >= clique_number(g).value // 2


# SHA-256 of biclique_number(g).to_jsonable() over connected_corpus(7),
# recorded before the search was rewritten as one recursive function
BICLIQUES_SHA256 = "109fa16e0d40579f5233b92795ba8cb20eef8e373a555595498e04a118dd2786"


def test_biclique_certificates_are_pinned():
    h = hashlib.sha256()
    graphs = connected_corpus_graphs(7)
    for g in graphs:
        text = json.dumps(biclique_number(g).to_jsonable(), sort_keys=True, separators=(",", ":"))
        h.update(f"{graph_to_graph6(g)} {text}\n".encode())
    assert len(graphs) == 996
    assert h.hexdigest() == BICLIQUES_SHA256


def test_degeneracy():
    assert degeneracy(path(6))[0] == 1
    assert degeneracy(complete(5))[0] == 4
    # 5-regular: the whole graph is its own min-degree-5 subgraph
    assert degeneracy(blow_up(cycle(5), 2))[0] == 5
    value, order = degeneracy(cycle(7))
    assert value == 2
    assert validate_degeneracy_order(cycle(7), value, order)[0]
    assert not validate_degeneracy_order(cycle(7), 1, order)[0]
    assert not validate_degeneracy_order(cycle(7), 2, [0, 1.0, 2, 3, 4, 5, 6])[0]


def test_degree_stats():
    assert max_degree(star(7)) == 7
    assert average_degree(cycle(9)) == 2
    assert average_degree(subdivide_exact(complete(4), 1)) == Fraction(24, 10)


def test_caps_are_explicit():
    with pytest.raises(SizeCapError):
        clique_number(complete(10), cap=8)
    with pytest.raises(SizeCapError):
        biclique_number(complete_bipartite(13, 13))
