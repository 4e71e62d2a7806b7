"""Canonical forms and the exhaustive small-graph corpus.

The corpus of all graphs up to isomorphism is generated by orderly extension
(add one vertex with every possible neighborhood, deduplicate by canonical
form) and cached on disk as sorted graph6 lines, so repeated runs are
byte-identical and cheap.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .codec import graph_from_graph6, graph_to_graph6
from .errors import SizeCapError
from .graphs import Graph, is_connected

CORPUS_MAX_N = 9

_memory_cache = {}


def canonical_form(g):
    """Lexicographically smallest upper-triangle bit string over all vertex orders.

    Branch-and-prune over placements; exponential worst case, intended for
    n <= 9 or so.
    """
    n = g.n
    adj = g.adj_bits
    best = None

    def extend(cols, chosen, used):
        # cols holds the adjacency columns of positions 1..len(chosen)-1
        nonlocal best
        j = len(chosen)
        if j == n:
            t = tuple(cols)
            if best is None or t < best:
                best = t
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            col = 0
            for i, u in enumerate(chosen):
                if adj[v] >> u & 1:
                    col |= 1 << i
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            new_cols = cols + [col] if j >= 1 else cols
            if best is not None and j >= 1:
                # candidates ascend by col, so the first losing prefix ends the loop
                if tuple(new_cols) > best[:j]:
                    break
            extend(new_cols, chosen + [v], used | 1 << v)

    extend([], [], 0)
    return (n,) + (best if best is not None else ())


def canonical_graph(g):
    """A canonically labeled copy of g (same form for all isomorphic inputs)."""
    return _graph_of_form(canonical_form(g))


def are_isomorphic(g1, g2):
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def _cache_dir():
    env = os.environ.get("CHIBOUND_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chibound"


def _load_cached(name):
    path = _cache_dir() / name
    if not path.is_file():
        return None
    return [graph_from_graph6(line) for line in path.read_text().splitlines() if line]


def _store_cached(name, graphs):
    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    # a temp file per writer, so concurrent writers never rename each other's
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        f.write("".join(graph_to_graph6(g) + "\n" for g in graphs))
    os.replace(tmp, directory / name)


def all_graphs(n):
    """All graphs on exactly n vertices, one canonical representative per class."""
    if n < 1 or n > CORPUS_MAX_N:
        raise SizeCapError(f"corpus enumeration supports 1 <= n <= {CORPUS_MAX_N}")
    key = ("all", n)
    if key in _memory_cache:
        return _memory_cache[key]
    cached = _load_cached(f"all_{n}.g6")
    if cached is not None:
        _memory_cache[key] = cached
        return cached
    if n == 1:
        result = [Graph(1)]
    else:
        result = []
        seen = set()
        for base in all_graphs(n - 1):
            base_edges = base.sorted_edges()
            for mask in range(1 << (n - 1)):
                edges = base_edges + [
                    (i, n - 1) for i in range(n - 1) if mask >> i & 1
                ]
                form = canonical_form(Graph(n, edges))
                if form not in seen:
                    seen.add(form)
                    result.append(_graph_of_form(form))
        result.sort(key=graph_to_graph6)
    _store_cached(f"all_{n}.g6", result)
    _memory_cache[key] = result
    return result


def _graph_of_form(form):
    n = form[0]
    edges = []
    for j in range(1, n):
        col = form[j]
        for i in range(j):
            if col >> i & 1:
                edges.append((i, j))
    return Graph(n, edges)


def connected_graphs(n):
    """All connected graphs on exactly n vertices, up to isomorphism."""
    key = ("connected", n)
    if key in _memory_cache:
        return _memory_cache[key]
    cached = _load_cached(f"connected_{n}.g6")
    if cached is None:
        cached = [g for g in all_graphs(n) if is_connected(g)]
        _store_cached(f"connected_{n}.g6", cached)
    _memory_cache[key] = cached
    return cached


def connected_corpus(max_n):
    """Connected graphs on 1..max_n vertices, smallest first."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out
