"""Canonical forms and the exhaustive small-graph corpus.

A vertex order of a graph gives a column tuple: column j is the set of earlier
positions adjacent to the vertex at position j, as a bit mask, in graph6's bit
order. The canonical form is the least column tuple over all orders. Dropping
the last vertex of a canonical form leaves a canonical form, so the corpus is
generated orderly (Read 1978; McKay 1998): every canonically labeled class on
n - 1 vertices is extended by each possible last column, and an extension is
kept when the canonicity test finds no vertex order with a smaller column tuple.
Before that test, an O(n) prefilter drops a last column that sees less of the
first j positions than position j does, since moving the new vertex to position
j would give a smaller tuple; at n = 7 it drops 7,222 of the 9,984 candidates.
Each class on n vertices comes out exactly once, already canonically labeled,
with no deduplication. From n = 7 on, pool_map splits the level below over a
process per core. The classes are cached on disk as sorted graph6 lines, so
runs are byte-identical on any number of cores and cheap. A list read or built
must hold the classical count, and a file read strictly ascending graph6 lines,
each a graph on n vertices.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .codec import graph_from_graph6, graph_to_graph6
from .errors import ParseError, ValidationError, check_cap, check_int
from .graphs import Graph, graph_of_columns, is_connected

# Isomorphism classes on n = 0..9 vertices: all graphs (OEIS A000088) and
# connected graphs (OEIS A001349). The corpus stops where the counts stop.
CLASS_COUNTS = {
    "all": (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668),
    "connected": (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080),
}

_memory_cache = {}


def _least_columns(adj, best, stop_below):
    """Branch and prune over the vertex orders of the rows adj, against best.

    best[j - 1] is the column of position j, for 1 <= j < n. Vertices are
    placed one position at a time, and only those with the least column can
    start a least order, so only they are tried; an order is dropped once its
    column exceeds best's. When a column falls below best's, the search
    returns False at once if stop_below is set; otherwise best takes that
    column and leaves every later one open, so that best ends as the least
    column tuple. Returns True unless it stopped.
    """
    n = len(adj)
    above = 1 << n  # an open column: larger than any real one

    def place(j, cols, unplaced):
        # cols[v] is the column vertex v would have at position j
        if j == n:
            return True
        if j:
            low = min([cols[v] for v in unplaced])
            if low > best[j - 1]:
                return True
            if low < best[j - 1]:
                if stop_below:
                    return False
                best[j - 1:] = [low] + [above] * (n - 1 - j)
            tried = [v for v in unplaced if cols[v] == low]
        else:
            tried = unplaced
        bit = 1 << j
        done = []
        for v in tried:
            row = adj[v]
            # a twin u of v (the same neighbours apart from u and v) tried
            # already: swapping them is an automorphism, so the subtrees are alike
            if any((adj[u] ^ row) & ~(1 << u | 1 << v) == 0 for u in done):
                continue
            done.append(v)
            nxt = [c | bit if row >> u & 1 else c for u, c in enumerate(cols)]
            if not place(j + 1, nxt, [u for u in unplaced if u != v]):
                return False
        return True

    return place(0, [0] * n, list(range(n)))


def canonical_form(g):
    """(n, col_1, ..., col_{n-1}): the least column tuple over all vertex orders.

    Branch-and-prune over placements; exponential worst case, intended for
    n <= 9 or so.
    """
    best = [1 << g.n] * (g.n - 1)
    _least_columns(g.adj_bits, best, stop_below=False)
    return (g.n, *best)


def _cache_dir():
    env = os.environ.get("CHIBOUND_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chibound"


def _load_cached(name):
    path = _cache_dir() / name
    if not path.is_file():
        return None
    # latin-1 maps each byte to one character, so a byte outside graph6 fails its line
    lines = path.read_bytes().decode("latin-1").splitlines()
    if any(a >= b for a, b in zip(lines, lines[1:])):
        raise ValidationError(f"{path}: read lines not in strictly ascending order")
    graphs = []
    for number, line in enumerate(lines, 1):
        try:
            graphs.append(graph_from_graph6(line))
        except ParseError as exc:
            raise ValidationError(f"{path}: line {number} is not graph6: {exc}") from exc
    return graphs


def _store_cached(name, graphs):
    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    # a temp file per writer, so concurrent writers never rename each other's
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write("".join(graph_to_graph6(g) + "\n" for g in graphs))
        os.replace(tmp, directory / name)
    except BaseException:
        os.unlink(tmp)
        raise


def _corpus(kind, n, build):
    """The graphs of kind on n vertices: from memory, the disk cache or build(n).

    A list read or built with other than CLASS_COUNTS[kind][n] classes, or read
    with a graph not on n vertices, raises ValidationError, and a built one is
    stored only after that check.
    """
    check_int("n", n, 1)
    check_cap("corpus", n, len(CLASS_COUNTS[kind]) - 1)
    key = (kind, n)
    if key not in _memory_cache:
        name = f"{kind}_{n}.g6"
        graphs = _load_cached(name)
        built = graphs is None
        if built:
            graphs = build(n)
        expected = CLASS_COUNTS[kind][n]
        if len(graphs) != expected:
            raise ValidationError(
                f"{_cache_dir() / name}: {'built' if built else 'read'} {len(graphs)} "
                f"classes of {kind} graphs on {n} vertices, expected {expected}"
            )
        if built:
            _store_cached(name, graphs)
        elif any(g.n != n for g in graphs):
            raise ValidationError(f"{_cache_dir() / name}: read a graph not on {n} vertices")
        _memory_cache[key] = graphs
    return _memory_cache[key]


def _extend(rows):
    """The canonical forms of the classes that add one vertex to the rows.

    rows is a canonically labeled class on n - 1 vertices, so its own columns
    are its form. A last column that some earlier position j sees less of than
    the class does (last & mask_j < col_j) is skipped before the canonicity
    test: moving the new vertex to position j keeps the first j - 1 columns
    and lowers the j-th, so the test would reject it too.
    """
    n = len(rows) + 1
    top = 1 << (n - 1)
    checks = [((1 << j) - 1, rows[j] & ((1 << j) - 1)) for j in range(1, n - 1)]
    form = [col for _, col in checks]
    out = []
    for last in range(top):
        if any(last & mask < col for mask, col in checks):
            continue
        adj = [row | top if last >> i & 1 else row for i, row in enumerate(rows)]
        adj.append(last)
        if _least_columns(adj, form + [last], stop_below=True):
            out.append((n, *form, last))
    return out


def pool_map(fn, items, workers):
    """[fn(x) for x in items] over up to workers processes, never more than the
    cores or the items. They fork, so a calling script needs no __main__ guard;
    where fork is no start method (Windows) or a second thread runs, which a
    fork could deadlock, the items run serially."""
    workers = min(workers, os.cpu_count() or 1, len(items))
    forks = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    if workers < 2 or not forks:
        return [fn(x) for x in items]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8))))


def _orderly_extensions(n):
    """Every class on n vertices, from the canonical classes on n - 1.

    From n = 7 on, pool_map splits the classes on n - 1 over a process per
    core (the n = 6 level takes less time than starting the pool), and the
    classes are sorted by graph6, so the bytes do not depend on how they ran.
    """
    if n == 1:
        return [Graph(1)]
    bases = [g.adj_bits for g in all_graphs(n - 1)]
    per_base = pool_map(_extend, bases, len(bases) if n >= 7 else 1)
    result = [graph_of_columns(n, form[1:]) for forms in per_base for form in forms]
    result.sort(key=graph_to_graph6)
    return result


def all_graphs(n):
    """All graphs on exactly n vertices, one canonical representative per class."""
    return _corpus("all", n, _orderly_extensions)


def connected_graphs(n):
    """All connected graphs on exactly n vertices, up to isomorphism."""
    return _corpus("connected", n, lambda n: [g for g in all_graphs(n) if is_connected(g)])


def connected_corpus(max_n):
    """Connected graphs on 1..max_n vertices, smallest first."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out
