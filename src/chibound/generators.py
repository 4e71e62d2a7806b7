"""Seed-reproducible graph generators.

All randomness flows through SplitMix64, a fixed 64-bit PRNG, so identical
(seed, family, parameters) triples rebuild bit-identical graphs on any
platform. Seeds are surfaced in every report that consumed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import parse_graph
from .errors import ParameterError
from .graphs import Graph, girth

_MASK64 = (1 << 64) - 1


def _fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 PRNG; `split(tag)` derives an independent, reproducible stream."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * (2.0**-53)

    def randrange(self, n):
        if n <= 0:
            raise ParameterError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def split(self, tag):
        return SplitMix64(self.next_u64() ^ _fnv1a64(str(tag)))


@dataclass(frozen=True)
class GeneratorSeed:
    """Reproducibility record: family tag, parameters, and the 64-bit seed."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def build(self):
        return generate(self.family, self.params, self.seed)


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(s, t):
    if s < 0 or t < 0:
        raise ParameterError("part sizes must be non-negative")
    return Graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def cycle(n):
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    if n < 1:
        raise ParameterError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(t):
    if t < 0:
        raise ParameterError("leaf count must be non-negative")
    return Graph(t + 1, [(0, i + 1) for i in range(t)])


def mycielskian(g):
    """Mycielski construction: raises the chromatic number by one, keeps it triangle-free."""
    n = g.n
    edges = list(g.sorted_edges())
    for u, v in g.sorted_edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    w = 2 * n
    edges.extend((n + i, w) for i in range(n))
    return Graph(2 * n + 1, edges)


def mycielski_iterate(base, k):
    if k < 0:
        raise ParameterError("iteration count must be non-negative")
    g = base
    for _ in range(k):
        g = mycielskian(g)
    return g


def random_gnp(n, p, rng):
    if n < 0:
        raise ParameterError("vertex count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("edge probability must lie in [0, 1]")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < p
    ]
    return Graph(n, edges)


def _shortest_cycle_below(g, bound):
    """A simple cycle shorter than `bound`, or None. Per-edge BFS: exact."""
    best = None
    nbrs = [g.neighbors(x) for x in range(g.n)]
    for u, v in g.sorted_edges():
        # shortest u-v path avoiding the edge itself
        dist = {u: 0}
        parent = {u: -1}
        frontier = [u]
        found = None
        while frontier and found is None:
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if (x, y) in ((u, v), (v, u)) or y in dist:
                        continue
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    if y == v:
                        found = y
                        break
                    nxt.append(y)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        cyc_len = dist[v] + 1
        if cyc_len < bound and (best is None or cyc_len < len(best)):
            chain = [v]
            while chain[-1] != u:
                chain.append(parent[chain[-1]])
            best = chain
    return best


def high_girth(n, d, g, rng):
    """Near-d-regular random graph with all cycles shorter than g erased.

    Stub pairing builds the random graph; any cycle shorter than g then loses
    one edge (the lexicographically largest), repeatedly, until the girth
    check passes. The output is verified internally to have girth >= g.
    """
    if n <= 0 or d < 0 or g < 3:
        raise ParameterError("need n > 0, d >= 0, girth bound >= 3")
    if d >= n:
        raise ParameterError("degree must be below the vertex count")
    if (n * d) % 2 == 1:
        raise ParameterError("n*d must be even for a d-regular pairing")
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        edges.add(e)
    graph = Graph(n, edges)
    while True:
        cyc = _shortest_cycle_below(graph, g)
        if cyc is None:
            break
        drop = max(
            (min(a, b), max(a, b))
            for a, b in zip(cyc, cyc[1:] + cyc[:1])
        )
        edges.remove(drop)
        graph = Graph(n, edges)
    actual = girth(graph)
    if actual is not None and actual < g:
        raise ParameterError(f"internal girth check failed: {actual} < {g}")
    return graph


_FAMILIES = {
    "complete": ("n",),
    "complete_bipartite": ("s", "t"),
    "cycle": ("n",),
    "path": ("n",),
    "star": ("t",),
    "mycielski_iterate": ("k",),
    "random_gnp": ("n", "p"),
    "high_girth": ("n", "d", "g"),
}


def generate(family, params, seed=0):
    """Build a graph from a named family; deterministic under (family, params, seed)."""
    family = family.replace("-", "_")
    if family not in _FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    required = _FAMILIES[family]
    missing = [k for k in required if k not in params]
    if missing:
        raise ParameterError(f"family {family!r} needs parameters {missing}")
    for key in required:
        value = params[key]
        # p is an edge probability; every other required parameter is a count
        kinds = (int, float) if key == "p" else int
        if not isinstance(value, kinds) or isinstance(value, bool):
            kind = "a number in [0, 1]" if key == "p" else "an integer"
            raise ParameterError(f"parameter {key!r} must be {kind}, got {value!r}")
    rng = SplitMix64(seed).split(family)
    if family == "complete":
        return complete(params["n"])
    if family == "complete_bipartite":
        return complete_bipartite(params["s"], params["t"])
    if family == "cycle":
        return cycle(params["n"])
    if family == "path":
        return path(params["n"])
    if family == "star":
        return star(params["t"])
    if family == "mycielski_iterate":
        base = params.get("base")
        if base is None:
            base = complete(2)
        elif isinstance(base, str):
            base = parse_graph(base)
        return mycielski_iterate(base, params["k"])
    if family == "random_gnp":
        return random_gnp(params["n"], params["p"], rng)
    return high_girth(params["n"], params["d"], params["g"], rng)
