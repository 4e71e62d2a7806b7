"""Seed-reproducible graph generators.

All randomness flows through SplitMix64, a fixed 64-bit PRNG, so identical
(seed, family, parameters) triples rebuild bit-identical graphs on any
platform. Seeds are surfaced in every report that consumed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import parse_graph
from .errors import ParameterError, check_int, is_int
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
        check_int("n", n, 1)
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
    check_int("n", n, 0)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(s, t):
    check_int("s", s, 0)
    check_int("t", t, 0)
    return Graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def cycle(n):
    check_int("n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    check_int("n", n, 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(t):
    check_int("t", t, 0)
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
    check_int("k", k, 0)
    g = base
    for _ in range(k):
        g = mycielskian(g)
    return g


def random_gnp(n, p, rng):
    check_int("n", n, 0)
    if not (is_int(p) or isinstance(p, float)) or not 0 <= p <= 1:
        raise ParameterError(f"p must be a number in [0, 1], got {p!r}")
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
    check_int("n", n, 1)
    check_int("d", d, 0)
    check_int("g", g, 3)
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


def _mycielski_family(params, rng):
    base = params.get("base")
    if base is None:
        base = complete(2)
    elif isinstance(base, str):
        base = parse_graph(base)
    return mycielski_iterate(base, params["k"])


# family -> (builder taking the params dict and the family's rng, required keys)
_FAMILIES = {
    "complete": (lambda q, rng: complete(q["n"]), ("n",)),
    "complete_bipartite": (lambda q, rng: complete_bipartite(q["s"], q["t"]), ("s", "t")),
    "cycle": (lambda q, rng: cycle(q["n"]), ("n",)),
    "path": (lambda q, rng: path(q["n"]), ("n",)),
    "star": (lambda q, rng: star(q["t"]), ("t",)),
    "mycielski_iterate": (_mycielski_family, ("k",)),
    "random_gnp": (lambda q, rng: random_gnp(q["n"], q["p"], rng), ("n", "p")),
    "high_girth": (lambda q, rng: high_girth(q["n"], q["d"], q["g"], rng), ("n", "d", "g")),
}


def generate(family, params, seed=0):
    """Build a graph from a named family; deterministic under (family, params, seed).
    Each family function checks its own parameters."""
    family = family.replace("-", "_")
    if family not in _FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    build, required = _FAMILIES[family]
    missing = [k for k in required if k not in params]
    if missing:
        raise ParameterError(f"family {family!r} needs parameters {missing}")
    return build(params, SplitMix64(seed).split(family))
