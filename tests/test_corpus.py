import multiprocessing
import os

import pytest

from chibound import corpus
from chibound.codec import graph_to_graph6
from chibound.errors import SizeCapError
from chibound.generators import SplitMix64, complete, cycle, path, random_gnp
from chibound.graphs import Graph


# classical enumeration values: all graphs / connected graphs up to isomorphism
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_the_classical_values(n):
    assert len(corpus.all_graphs(n)) == ALL_COUNTS[n]
    assert len(corpus.connected_graphs(n)) == CONNECTED_COUNTS[n]


def test_counts_n7():
    assert len(corpus.all_graphs(7)) == ALL_COUNTS[7]
    assert len(corpus.connected_graphs(7)) == CONNECTED_COUNTS[7]


def test_canonical_form_is_isomorphism_invariant():
    rng = SplitMix64(5)
    for _ in range(40):
        n = 3 + int(rng.uniform() * 5)
        g = random_gnp(n, 0.5, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert corpus.canonical_form(g) == corpus.canonical_form(relabeled)
        assert corpus.are_isomorphic(g, relabeled)


def test_non_isomorphic_detected():
    assert not corpus.are_isomorphic(path(4), Graph(4, [(0, 1), (2, 3)]))
    assert not corpus.are_isomorphic(cycle(6), complete(3))


def test_canonical_graph_idempotent():
    g = cycle(5)
    cg = corpus.canonical_graph(g)
    assert corpus.canonical_graph(cg) == cg
    assert corpus.are_isomorphic(g, cg)


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    corpus._memory_cache.clear()
    try:
        first = corpus.all_graphs(4)
        assert (tmp_path / "all_4.g6").is_file()
        stamp = (tmp_path / "all_4.g6").read_bytes()
        corpus._memory_cache.clear()
        second = corpus.all_graphs(4)
        assert first == second
        assert (tmp_path / "all_4.g6").read_bytes() == stamp
    finally:
        corpus._memory_cache.clear()


def test_cache_writers_leave_other_temp_files_alone(tmp_path, monkeypatch):
    # every writer has a temp file of its own, so a file another writer left
    # at the cache name plus ".tmp" is never overwritten or renamed into place
    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    stale = tmp_path / "all_3.g6.tmp"
    stale.write_text("stale\n")
    corpus._memory_cache.clear()
    try:
        assert len(corpus.all_graphs(3)) == ALL_COUNTS[3]
    finally:
        corpus._memory_cache.clear()
    assert stale.read_text() == "stale\n"
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["all_1.g6", "all_2.g6", "all_3.g6", "all_3.g6.tmp"]


def _store_many(directory, graphs, times, go):
    os.environ["CHIBOUND_CACHE_DIR"] = directory
    go.wait(60)
    for _ in range(times):
        corpus._store_cached("race.g6", graphs)


def test_concurrent_cache_writers_do_not_collide(tmp_path):
    # more writer processes than cores, all replacing the same cache file
    graphs = corpus.all_graphs(4)
    ctx = multiprocessing.get_context("spawn")
    go = ctx.Event()
    workers = [
        ctx.Process(target=_store_many, args=(str(tmp_path), graphs, 200, go))
        for _ in range(3)
    ]
    try:
        for w in workers:
            w.start()
        go.set()
        for w in workers:
            w.join(timeout=60)
        assert [w.exitcode for w in workers] == [0, 0, 0]
    finally:
        for w in workers:
            if w.is_alive():
                w.kill()
    assert os.listdir(tmp_path) == ["race.g6"]
    expected = "".join(graph_to_graph6(g) + "\n" for g in graphs)
    assert (tmp_path / "race.g6").read_text() == expected


def test_cap():
    with pytest.raises(SizeCapError):
        corpus.all_graphs(corpus.CORPUS_MAX_N + 1)
