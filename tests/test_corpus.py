import hashlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chibound import corpus
from chibound.codec import graph_to_graph6
from chibound.errors import SizeCapError, ValidationError
from chibound.generators import SplitMix64, complete, cycle, path, random_gnp
from chibound.graphs import Graph, is_connected
from conftest import record_pools
from oracles import are_isomorphic, canonical_graph, naive_canonical_form


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


# SHA-256 over FRESH_FILES (each name, a NUL byte, then the file's bytes) as
# written into an empty cache, taken before the corpus moved to orderly
# generation.
CORPUS_SHA256 = "04d989f68cc2fc4d28697c9b3f69b858c8c375c3ec8ea0c19cc80439c4c14dda"
FRESH_FILES = [f"all_{n}.g6" for n in range(1, 8)] + ["connected_7.g6"]


def _fill(directory, mp):
    """all_graphs(1..7) and connected_graphs(7), built into an empty cache."""
    mp.setenv("CHIBOUND_CACHE_DIR", str(directory))
    corpus._memory_cache.clear()
    try:
        return {n: corpus.all_graphs(n) for n in range(1, 8)}, corpus.connected_graphs(7)
    finally:
        corpus._memory_cache.clear()


def _files_digest(directory):
    assert sorted(f.name for f in directory.iterdir()) == sorted(FRESH_FILES)
    h = hashlib.sha256()
    for name in FRESH_FILES:
        h.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def fresh_cache(tmp_path_factory):
    """An empty cache filled by all_graphs(1..7) and connected_graphs(7), with
    the pools the build started and the child processes alive after it."""
    directory = tmp_path_factory.mktemp("fresh-corpus")
    with pytest.MonkeyPatch.context() as mp:
        pools = record_pools(mp)
        graphs, connected = _fill(directory, mp)
        left = multiprocessing.active_children()
    return directory, graphs, connected, pools, left


def test_fresh_corpus_bytes_are_pinned(fresh_cache):
    directory, *_ = fresh_cache
    assert _files_digest(directory) == CORPUS_SHA256


def test_fresh_corpus_level_7_is_built_by_a_pool(fresh_cache):
    # the 156 classes on 6 vertices are split over a process per core, and
    # every process has ended when all_graphs returns
    *_, pools, left = fresh_cache
    workers = min(os.cpu_count() or 1, 156)
    assert pools == ([(workers, 156)] if workers > 1 else [])
    assert left == []


def test_serial_build_matches_the_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pools = record_pools(monkeypatch)
    _fill(tmp_path, monkeypatch)
    assert pools == []
    assert _files_digest(tmp_path) == CORPUS_SHA256


def test_build_without_fork_runs_serially_with_the_pinned_bytes(tmp_path, monkeypatch):
    # as on Windows, where fork is not a start method
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    pools = record_pools(monkeypatch)
    _fill(tmp_path, monkeypatch)
    assert pools == []
    assert _files_digest(tmp_path) == CORPUS_SHA256


UNGUARDED_SCRIPT = """
import multiprocessing
multiprocessing.set_start_method("forkserver")
from chibound import corpus
from chibound.suites import SuiteSpec, run_suite
assert len(corpus.all_graphs(7)) == 1044
assert run_suite(SuiteSpec("S7", jobs=2)).passed
"""


def test_script_without_a_main_guard_builds_and_runs_under_forkserver(tmp_path):
    # a spawned or forkserver worker would re-run this script's top level
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    src = Path(corpus.__file__).resolve().parents[1]
    env = {**os.environ, "CHIBOUND_CACHE_DIR": str(tmp_path / "cache"), "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert len(os.listdir(tmp_path / "cache")) == 7


def _extension(rows, last):
    """The rows of a class with one vertex added, and their own columns."""
    top = 1 << len(rows)
    adj = [row | top if last >> i & 1 else row for i, row in enumerate(rows)] + [last]
    return adj, [adj[j] & ((1 << j) - 1) for j in range(1, len(adj))]


def test_prefilter_skips_only_extensions_the_canonicity_test_rejects(monkeypatch):
    least_columns = corpus._least_columns
    tried = []

    def recording(adj, best, stop_below):
        tried.append(best[-1])
        return least_columns(adj, best, stop_below)

    monkeypatch.setattr(corpus, "_least_columns", recording)
    skipped = {}
    for n in range(1, 7):
        skipped[n] = 0
        for base in corpus.all_graphs(n):
            tried.clear()
            corpus._extend(base.adj_bits)
            for last in sorted(set(range(1 << n)) - set(tried)):
                adj, columns = _extension(base.adj_bits, last)
                assert not least_columns(adj, columns, stop_below=True), (base, last)
                skipped[n] += 1
    # the 156 classes on 6 vertices have 9,984 extensions
    assert (skipped[6], corpus.CLASS_COUNTS["all"][6] * 64) == (7222, 9984)


def test_fresh_corpus_counts(fresh_cache):
    _, graphs, connected, *_ = fresh_cache
    for n in range(1, 8):
        assert corpus.CLASS_COUNTS["all"][n] == ALL_COUNTS[n] == len(graphs[n])
        assert corpus.CLASS_COUNTS["connected"][n] == CONNECTED_COUNTS[n]
        assert sum(1 for g in graphs[n] if is_connected(g)) == CONNECTED_COUNTS[n]
    assert len(connected) == CONNECTED_COUNTS[7]


def test_fresh_corpus_is_canonically_labeled(fresh_cache):
    _, graphs, *_ = fresh_cache
    for n in range(1, 8):
        for g in graphs[n]:
            assert canonical_graph(g) == g


def _graph_of_columns(form):
    n = form[0]
    return Graph(n, [(i, j) for j in range(1, n) for i in range(j) if form[j] >> i & 1])


def test_orderly_generation_matches_extend_and_dedupe(fresh_cache):
    # every neighborhood of a new vertex on every class, deduplicated by the
    # brute-force canonical form
    _, graphs, *_ = fresh_cache
    forms = {naive_canonical_form(Graph(1))}
    for n in range(2, 6):
        extended = set()
        for form in forms:
            edges = _graph_of_columns(form).sorted_edges()
            for mask in range(1 << (n - 1)):
                new = [(i, n - 1) for i in range(n - 1) if mask >> i & 1]
                extended.add(naive_canonical_form(Graph(n, edges + new)))
        forms = extended
        lines = sorted(graph_to_graph6(_graph_of_columns(f)) for f in forms)
        assert lines == [graph_to_graph6(g) for g in graphs[n]]


def test_truncated_cache_file_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    corpus._memory_cache.clear()
    try:
        corpus.all_graphs(4)
        path = tmp_path / "all_4.g6"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
        corpus._memory_cache.clear()
        with pytest.raises(ValidationError, match=r"all_4\.g6: read 10 classes .* expected 11"):
            corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()


def _rewrite_cache_file(tmp_path, monkeypatch, edit):
    """all_4.g6 built into tmp_path, with its lines replaced by edit(lines)."""
    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    corpus._memory_cache.clear()
    try:
        corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()
    path = tmp_path / "all_4.g6"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))


def test_cache_file_of_repeated_lines_is_refused(tmp_path, monkeypatch):
    # eleven lines, so the count alone would pass
    _rewrite_cache_file(tmp_path, monkeypatch, lambda lines: lines[:1] * 11)
    try:
        with pytest.raises(ValidationError, match=r"all_4\.g6: read lines not in strictly ascending"):
            corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()


def test_cache_file_with_a_graph_of_the_wrong_order_is_refused(tmp_path, monkeypatch):
    # a 5-vertex line sorts after every 4-vertex line, so the order holds
    five = graph_to_graph6(Graph(5)) + "\n"
    _rewrite_cache_file(tmp_path, monkeypatch, lambda lines: lines[:-1] + [five])
    try:
        with pytest.raises(ValidationError, match=r"all_4\.g6: read a graph not on 4 vertices"):
            corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()


def test_cache_file_with_a_line_that_is_not_graph6_is_refused(tmp_path, monkeypatch):
    # "C~~" sorts after the last line "C~" (K_4), so the order holds
    _rewrite_cache_file(tmp_path, monkeypatch, lambda lines: lines[:-1] + ["C~~\n"])
    try:
        with pytest.raises(
            ValidationError,
            match=r"all_4\.g6: line 11 is not graph6: trailing bytes after adjacency data "
            r"\(byte offset 2\)$",
        ):
            corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()


def test_cache_file_that_is_not_text_is_refused(tmp_path, monkeypatch):
    _rewrite_cache_file(tmp_path, monkeypatch, lambda lines: lines)
    path = tmp_path / "all_4.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = b"C\xff\n"  # 0xff is in no UTF-8 text; it sorts last, so the order holds
    path.write_bytes(b"".join(lines))
    try:
        with pytest.raises(
            ValidationError,
            match=r"all_4\.g6: line 11 is not graph6: invalid graph6 byte 'ÿ' \(byte offset 1\)$",
        ):
            corpus.all_graphs(4)
    finally:
        corpus._memory_cache.clear()


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    graphs = corpus.all_graphs(4)
    encode = corpus.graph_to_graph6
    encoded = []

    def failing(g):
        if len(encoded) == 5:
            raise OSError("disk full")
        encoded.append(g)
        return encode(g)

    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(corpus, "graph_to_graph6", failing)
    with pytest.raises(OSError, match="disk full"):
        corpus._store_cached("all_4.g6", graphs)
    assert list(tmp_path.iterdir()) == []


def test_miscounted_build_is_refused_and_not_stored(tmp_path, monkeypatch):
    monkeypatch.setenv("CHIBOUND_CACHE_DIR", str(tmp_path))
    built = corpus._orderly_extensions
    monkeypatch.setattr(corpus, "_orderly_extensions", lambda n: built(n)[1:])
    corpus._memory_cache.clear()
    try:
        with pytest.raises(ValidationError, match=r"all_1\.g6: built 0 classes .* expected 1"):
            corpus.all_graphs(1)
    finally:
        corpus._memory_cache.clear()
    assert list(tmp_path.iterdir()) == []


def test_canonical_form_is_isomorphism_invariant():
    rng = SplitMix64(5)
    for _ in range(40):
        n = 3 + int(rng.uniform() * 5)
        g = random_gnp(n, 0.5, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert corpus.canonical_form(g) == corpus.canonical_form(relabeled)
        assert are_isomorphic(g, relabeled)


def test_non_isomorphic_detected():
    assert not are_isomorphic(path(4), Graph(4, [(0, 1), (2, 3)]))
    assert not are_isomorphic(cycle(6), complete(3))


def test_canonical_graph_idempotent():
    g = cycle(5)
    cg = canonical_graph(g)
    assert canonical_graph(cg) == cg
    assert are_isomorphic(g, cg)


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
        corpus.all_graphs(len(corpus.CLASS_COUNTS["all"]))
