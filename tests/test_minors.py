import hashlib
import json
from itertools import combinations

import pytest

from chibound import corpus, graphs, minors
from chibound.certify import validate_topo_embedding
from chibound.codec import graph_to_graph6
from chibound.corpus import connected_graphs
from chibound.errors import SizeCapError
from chibound.generators import complete, complete_bipartite, cycle, path, star
from chibound.graphs import Graph, subdivide_exact
from chibound.invariants import clique_number
from chibound.coloring import chi_p, chromatic_number_value
from chibound.minors import (
    TopoMinorEmbedding,
    chi_TM,
    critical_patterns,
    enumerate_ITM_exact,
    find_subdivided_clique,
    find_topo_embedding,
    is_induced_exact_subdivision,
    omega_TM,
)
from conftest import connected_corpus_graphs
from oracles import are_isomorphic


def test_subdivided_triangle_in_c5():
    emb = find_subdivided_clique(cycle(5), 3, 1)
    assert emb is not None
    ok, why = validate_topo_embedding(cycle(5), emb, 1)
    assert ok, why
    edge = Graph(2, [(0, 1)])
    bad = TopoMinorEmbedding(edge, (0, 2.5), {(0, 1): (0, 2.5)})
    assert not validate_topo_embedding(cycle(5), bad, 1)[0]


def test_identity_instances():
    for n, p in [(3, 1), (4, 1), (3, 2)]:
        gs = subdivide_exact(complete(n), p)
        emb = find_subdivided_clique(gs, n, p)
        assert emb is not None
        ok, why = validate_topo_embedding(gs, emb, p)
        assert ok, why
        assert find_subdivided_clique(gs, 3, p - 1) is None


def test_trees_have_no_subdivided_triangle():
    for tree in (path(6), star(5)):
        assert find_subdivided_clique(tree, 3, 4) is None


def test_omega_tm_values():
    assert omega_TM(cycle(5), 1) == 3
    assert omega_TM(complete_bipartite(4, 4), 1) == 4
    k99 = omega_TM(complete_bipartite(9, 9), 1)
    assert k99 == 7 and k99 * k99 >= 9  # well above the sqrt(s) floor
    assert omega_TM(complete(8), 0) == 8


def test_omega_tm_depth_zero_is_clique_number(small_connected):
    for g in small_connected[::4]:
        assert omega_TM(g, 0) == clique_number(g).value


def test_omega_tm_monotone_in_depth(small_connected):
    for g in small_connected[::12]:
        values = [omega_TM(g, r) for r in range(3)]
        assert values == sorted(values)


# recorded while is_induced_exact_subdivision still ran a set-based backtracker
# of its own; the embeddings must not change
ITM_SHA256 = "b7bd2e25c23bd5bc772d9b4e340d85194bd6977478510c74e737107b9fc369ad"


def test_itm_embeddings_are_pinned():
    h = hashlib.sha256()
    patterns = [p for n in range(1, 5) for p in corpus.all_graphs(n)]
    count = found = 0
    for g in connected_corpus_graphs(7)[::7]:
        for pattern in patterns:
            for r in range(2):
                emb = is_induced_exact_subdivision(pattern, r, g)
                data = None if emb is None else emb.to_jsonable()
                text = json.dumps(data, sort_keys=True, separators=(",", ":"))
                h.update(f"{graph_to_graph6(g)} {graph_to_graph6(pattern)} {r} {text}\n".encode())
                count += 1
                found += emb is not None
    assert (count, found) == (5148, 2717)
    assert h.hexdigest() == ITM_SHA256


def test_itm_pattern_too_large_for_the_host_is_never_built(monkeypatch):
    # the exact 2000-subdivision of K_3 has 6003 vertices, far more than C_5
    def refuse(h, r):
        raise AssertionError("built a subdivision larger than the host")

    monkeypatch.setattr(minors, "subdivide_exact", refuse)
    assert is_induced_exact_subdivision(complete(3), 2000, cycle(5)) is None


def test_induced_exact_subdivision():
    emb = is_induced_exact_subdivision(complete(3), 1, cycle(6))
    assert emb is not None
    ok, why = validate_topo_embedding(cycle(6), emb, 1, exact=True, induced=True)
    assert ok, why
    assert is_induced_exact_subdivision(complete(3), 1, complete(6)) is None
    host = subdivide_exact(complete(4), 1)
    emb = is_induced_exact_subdivision(complete(4), 1, host)
    assert emb is not None
    ok, why = validate_topo_embedding(host, emb, 1, exact=True, induced=True)
    assert ok, why


def test_enumerate_itm():
    found = enumerate_ITM_exact(cycle(6), 1, 4)
    assert any(are_isomorphic(h, complete(3)) for h in found)
    k5 = enumerate_ITM_exact(complete(5), 1, 4)
    assert all(h.m == 0 for h in k5)
    host = subdivide_exact(complete(4), 1)
    found = enumerate_ITM_exact(host, 1, 4)
    assert max(2 * h.m / h.n for h in found) == 3  # K_4 is the densest


def test_itm_members_reembed():
    host = cycle(6)
    for h in enumerate_ITM_exact(host, 1, 4):
        assert is_induced_exact_subdivision(h, 1, host) is not None


def test_chi_tm():
    host = subdivide_exact(complete(4), 1)
    assert chi_TM(host, 1) == 4
    assert chi_TM(path(6), 3) <= 2


def test_chi_tm_past_level_three_is_capped_by_the_catalogue():
    # Petersen, the Kneser graph K(5, 2), is 3-chromatic and 3-regular, so the
    # climb asks for level 4, whose patterns may have 10 - 4 + 3 = 9 vertices:
    # one past the critical_catalogue cap, far inside the tm_host cap
    pairs = list(combinations(range(5), 2))
    petersen = Graph(
        10, [(i, j) for i, j in combinations(range(10), 2) if not set(pairs[i]) & set(pairs[j])]
    )
    with pytest.raises(
        SizeCapError, match=r"^critical_catalogue is capped at 8 vertices, got 9$"
    ):
        chi_TM(petersen, 1)


def test_chi_tm_depth_zero_is_chromatic(small_connected):
    for g in small_connected[::6]:
        assert chi_TM(g, 0) == chromatic_number_value(g)


def test_critical_patterns():
    threes = critical_patterns(3, 7)
    assert sorted((h.n, h.m) for h in threes) == [(3, 3), (5, 5), (7, 7)]
    fours = critical_patterns(4, 5)
    assert [(h.n, h.m) for h in fours] == [(4, 6)]
    assert all(
        chromatic_number_value(Graph(h.n, h.edges - {e})) == 3
        for h in fours
        for e in h.edges
    )


def test_one_ball_build_per_host(monkeypatch):
    # the chi_TM climb places branch vertices in the balls of the host's
    # coloring search, built on the first placement; chi_p builds none, and a
    # climb that stops before any placement builds none either
    hosts = connected_graphs(7)
    for chi in range(4, 8):
        critical_patterns(chi, 7)  # the catalogue colors graphs of its own
    built = []
    walk = graphs.walk_masks

    def counting_walk(rows, length):
        built.append(length)
        return walk(rows, length)

    monkeypatch.setattr(graphs, "walk_masks", counting_walk)
    placed = 0
    for g in hosts:
        chi_p(g, 2)
        assert not built
        chi_TM(g, 1)
        assert len(built) <= 1
        placed += len(built)
        built.clear()
    assert (placed, len(hosts)) == (472, 853)
    # past depth 2 too, every level of a climb reads the host's one table
    assert omega_TM(subdivide_exact(complete(4), 3), 3) == 4
    assert len(built) == 1
    # a pattern larger than the host is refused before any table is built
    assert find_topo_embedding(complete(6), cycle(5), 1) is None
    assert len(built) == 1


def test_downward_closure_of_embeddings(small_connected):
    # if H embeds, so does H minus one edge (restriction of the same search)
    for g in small_connected[::15]:
        emb = find_subdivided_clique(g, 3, 1)
        if emb is None:
            continue
        h = emb.pattern
        for e in list(h.edges)[:1]:
            smaller = Graph(h.n, h.edges - {e})
            assert find_topo_embedding(smaller, g, 1) is not None


def test_host_cap():
    with pytest.raises(SizeCapError):
        find_topo_embedding(complete(3), cycle(41), 1)
    with pytest.raises(SizeCapError):
        find_subdivided_clique(cycle(5), 9, 1)
    # the climb reaches K_9 on K_10 and must not report 8
    with pytest.raises(SizeCapError):
        omega_TM(complete(10), 0)


# recorded before the distance lookup of find_topo_embedding moved from an
# all-pairs BFS table to graphs.distance_balls; the embeddings must not change
EMBEDDINGS_SHA256 = "d100e014b25bb7b4632dad6a88d7120275295b2c890b3e1e6a6315bacc316c2e"


def test_embedding_bytes_are_pinned():
    h = hashlib.sha256()
    patterns = [("K3", complete(3)), ("C4", cycle(4)), ("C5", cycle(5)), ("K4", complete(4))]
    count = found = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            for name, pattern in patterns:
                for r in range(3):
                    emb = find_topo_embedding(pattern, g, r)
                    data = None if emb is None else emb.to_jsonable()
                    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
                    h.update(f"{graph_to_graph6(g)} {name} {r} {text}\n".encode())
                    count += 1
                    found += emb is not None
    assert (count, found) == (996 * 12, 9683)
    assert h.hexdigest() == EMBEDDINGS_SHA256
