"""Canonical forms and the exhaustive small-graph corpus.

A vertex order of a graph gives a column tuple: column j is the set of earlier
positions adjacent to the vertex at position j, as a bit mask, in graph6's bit
order. The canonical form is the least column tuple over all orders. Dropping
the last vertex of a canonical form leaves a canonical form, so the corpus is
generated orderly (Read 1978; McKay 1998): every canonically labeled class on
n - 1 vertices is extended by each possible last column, and an extension is
kept when the canonicity test finds no vertex order with a smaller column
tuple. That test (and canonical_form) branches over vertex orders on bit masks:
a node holds only the mask of its unplaced vertices, and one scan over the
placed positions gives the least next column and the vertices that have it.
Before that test, an O(n) prefilter drops a last column that sees less of the
first j positions than position j does, since moving the new vertex to position
j would give a smaller tuple; at n = 7 it drops 7,222 of the 9,984 candidates.
Each class on n vertices comes out exactly once, already canonically labeled,
with no deduplication. From n = 7 on, pool_map splits the level below over a
process per core. Each class is written as a graph6 line straight from its
canonical form, and the classes are cached on disk as sorted graph6 lines, so
runs are byte-identical on any number of cores and cheap. Memory holds the
lines too: a suite payload takes a line as it is, and all_graphs and
connected_graphs decode them on each call. A list read or built must hold the
classical count, and a file read strictly ascending lines, checked once by one
regex match (codec.graph6_lines_pattern) to be graph6 lines of graphs on n
vertices, each its graph's own encoding; only a file that fails the match is
decoded line by line, to name its first bad line.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .codec import columns_to_graph6, graph6_lines_pattern, graph_from_graph6, graph_to_graph6
from .errors import ParseError, ValidationError, check_cap, check_int
from .graphs import is_connected

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
    start a least order, so only they are tried, lowest vertex first; an
    order is dropped once its column exceeds best's. When a column falls
    below best's, the search returns False at once if stop_below is set;
    otherwise best takes that column and leaves every later one open, so that
    best ends as the least column tuple. Returns True unless it stopped.

    A node holds only the mask of its unplaced vertices; order[i] is the
    vertex at position i, shared by the whole search. The least column at
    position j, and the unplaced vertices that have it, come from one scan
    over positions j - 1 down to 0: the bit of position i is 0 exactly when a
    vertex still in the running misses order[i], and then only the vertices
    that miss it stay in the running.
    """
    n = len(adj)
    above = 1 << n  # an open column: larger than any real one
    order = [0] * n

    def place(j, unplaced):
        tried = unplaced  # none left at j == n: a leaf
        if 0 < j < n:
            low, cap = 0, best[j - 1]
            for i in range(j - 1, -1, -1):
                miss = tried & ~adj[order[i]]
                if miss:
                    tried = miss
                else:
                    low |= 1 << i
                    if low > cap:  # the lower bits can only add to it
                        return True
            if low < cap:
                if stop_below:
                    return False
                best[j - 1:] = [low] + [above] * (n - 1 - j)
        done = []
        while tried:
            v = (tried & -tried).bit_length() - 1
            tried ^= 1 << v
            row = adj[v]
            # a twin u of v (the same neighbours apart from u and v) tried
            # already: swapping them is an automorphism, so the subtrees are alike
            if any((adj[u] ^ row) & ~(1 << u | 1 << v) == 0 for u in done):
                continue
            done.append(v)
            order[j] = v
            if not place(j + 1, unplaced ^ 1 << v):
                return False
        return True

    return place(0, (1 << n) - 1)


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
    """The lines of the cache file name ("<kind>_<n>.g6"), or None when it is
    missing. One match of graph6_lines_pattern(n) checks the file's format;
    only a file that fails it is decoded line by line, to name its fault."""
    path = _cache_dir() / name
    if not path.is_file():
        return None
    n = int(name.removesuffix(".g6").rpartition("_")[2])
    # latin-1 maps each byte to one character, so a byte outside graph6 fails its line
    text = path.read_bytes().decode("latin-1")
    lines = text.splitlines()
    if any(a >= b for a, b in zip(lines, lines[1:])):
        raise ValidationError(f"{path}: read lines not in strictly ascending order")
    if not graph6_lines_pattern(n).fullmatch(text):
        _refuse(path, lines, n)
    return lines


def _refuse(path, lines, n):
    """Raise the ValidationError that names the first fault of lines, read from
    path, that graph6_lines_pattern(n) refuses."""
    graphs = []
    for number, line in enumerate(lines, 1):
        try:
            graphs.append(graph_from_graph6(line))
        except ParseError as exc:
            raise ValidationError(f"{path}: line {number} is not graph6: {exc}") from exc
    if any(g.n != n for g in graphs):
        raise ValidationError(f"{path}: read a graph not on {n} vertices")
    for number, (line, g) in enumerate(zip(lines, graphs), 1):
        if line != graph_to_graph6(g):
            raise ValidationError(f"{path}: line {number} is not in graph6's own form")
    raise ValidationError(f"{path}: read lines not each ended by one line feed")


def _store_cached(name, lines):
    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    # a temp file per writer, so concurrent writers never rename each other's
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write("".join(line + "\n" for line in lines))
        os.replace(tmp, directory / name)
    except BaseException:
        os.unlink(tmp)
        raise


def _corpus(kind, n, build):
    """The graph6 lines of kind on n vertices: from memory, the disk cache or
    build(n).

    A list read or built with other than CLASS_COUNTS[kind][n] classes raises
    ValidationError, and a built one is stored only after that check.
    """
    check_int("n", n, 1)
    check_cap("corpus", n, len(CLASS_COUNTS[kind]) - 1)
    key = (kind, n)
    if key not in _memory_cache:
        name = f"{kind}_{n}.g6"
        lines = _load_cached(name)
        built = lines is None
        if built:
            lines = build(n)
        expected = CLASS_COUNTS[kind][n]
        if len(lines) != expected:
            raise ValidationError(
                f"{_cache_dir() / name}: {'built' if built else 'read'} {len(lines)} "
                f"classes of {kind} graphs on {n} vertices, expected {expected}"
            )
        if built:
            _store_cached(name, lines)
        _memory_cache[key] = lines
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
    """The graph6 lines of every class on n vertices, from the canonical
    classes on n - 1.

    From n = 7 on, pool_map splits the classes on n - 1 over a process per
    core (the n = 6 level takes less time than starting the pool). Each line
    is written from its canonical form, and the lines are sorted, so the bytes
    do not depend on how they ran.
    """
    if n == 1:
        return [columns_to_graph6(1, ())]
    bases = [g.adj_bits for g in all_graphs(n - 1)]
    per_base = pool_map(_extend, bases, len(bases) if n >= 7 else 1)
    return sorted(columns_to_graph6(n, form[1:]) for forms in per_base for form in forms)


def _keep_connected(n):
    lines = _corpus("all", n, _orderly_extensions)
    return [line for line in lines if is_connected(graph_from_graph6(line))]


def all_graphs(n):
    """All graphs on exactly n vertices, one canonical representative per
    class, decoded from the corpus lines on each call."""
    return [graph_from_graph6(line) for line in _corpus("all", n, _orderly_extensions)]


def connected_graphs(n):
    """All connected graphs on exactly n vertices, up to isomorphism, decoded
    from the corpus lines on each call."""
    return [graph_from_graph6(line) for line in _corpus("connected", n, _keep_connected)]


def connected_corpus(max_n):
    """The graph6 lines of the connected graphs on 1..max_n vertices, smallest
    first, as the cache holds them: a payload takes them with no decode."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(_corpus("connected", n, _keep_connected))
    return out
