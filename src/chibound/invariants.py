"""Exact solvers for clique number, biclique number, degeneracy, and degrees.

Every solver returns an InvariantResult whose certificate can be re-checked by
a validator that knows nothing about the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import check_cap


@dataclass(frozen=True)
class InvariantResult:
    """Exact invariant value plus an independently checkable certificate."""

    name: str
    value: Any
    certificate: Any = None
    lower_bound: Any = None

    def to_jsonable(self):
        def conv(obj):
            if isinstance(obj, (tuple, list)):
                return [conv(x) for x in obj]
            if hasattr(obj, "to_jsonable"):
                return obj.to_jsonable()
            return obj

        return {
            "name": self.name,
            "value": conv(self.value),
            "certificate": conv(self.certificate),
            "lower_bound": conv(self.lower_bound),
        }


def max_degree(g):
    return max((g.degree(v) for v in range(g.n)), default=0)


def average_degree(g):
    if g.n == 0:
        return Fraction(0)
    return Fraction(2 * g.m, g.n)


def _max_clique_mask(adj, candidates):
    """Largest clique inside the `candidates` bitmask; Bron-Kerbosch with pivot."""
    best = 0
    best_count = -1

    def expand(clique, cand, excl):
        nonlocal best, best_count
        if cand == 0 and excl == 0:
            count = clique.bit_count()
            if count > best_count:
                best_count = count
                best = clique
            return
        if clique.bit_count() + cand.bit_count() <= best_count:
            return
        pool = cand | excl
        pivot = (pool & -pool).bit_length() - 1
        # pivot with most candidate neighbors prunes hardest
        best_cover = -1
        m = pool
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cover = (cand & adj[v]).bit_count()
            if cover > best_cover:
                best_cover = cover
                pivot = v
        ext = cand & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            expand(clique | 1 << v, cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand(0, candidates, 0)
    return best


def clique_number(g, cap=None):
    """Exact clique number with a witness vertex set."""
    check_cap("clique", g.n, cap)
    if g.n == 0:
        return InvariantResult("clique_number", 0, certificate=())
    mask = _max_clique_mask(g.adj_bits, (1 << g.n) - 1)
    verts = tuple(v for v in range(g.n) if mask >> v & 1)
    return InvariantResult("clique_number", len(verts), certificate=verts)


def validate_clique(g, vertices):
    verts = list(vertices)
    for v in verts:
        if not g.has_vertex(v):
            return False, f"{v!r} is not a vertex"
    if len(set(verts)) != len(verts):
        return False, "repeated vertex"
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if not g.has_edge(u, v):
                return False, f"missing edge ({u}, {v})"
    return True, None


def biclique_number(g, cap=None):
    """Largest r with K_{r,r} as a (not necessarily induced) subgraph, with witness."""
    check_cap("biclique", g.n, cap)
    adj = g.adj_bits
    best_pair = None

    def exists(r):
        nonlocal best_pair
        if r == 0:
            best_pair = ((), ())
            return True

        def choose(side_a, common, start):
            nonlocal best_pair
            if len(side_a) == r:
                rest = common & ~sum(1 << a for a in side_a)
                if rest.bit_count() >= r:
                    b = []
                    m = rest
                    while len(b) < r:
                        v = (m & -m).bit_length() - 1
                        m &= m - 1
                        b.append(v)
                    best_pair = (tuple(side_a), tuple(b))
                    return True
                return False
            for v in range(start, g.n):
                if len(side_a) + (g.n - v) < r:
                    break
                if g.degree(v) < r:
                    continue
                new_common = common & adj[v] if side_a else adj[v]
                # the B side must fit inside the common neighborhood
                if new_common.bit_count() < r:
                    continue
                if choose(side_a + [v], new_common, v + 1):
                    return True
            return False

        return choose([], (1 << g.n) - 1, 0)

    value = 0
    witness = ((), ())
    r = 1
    while r * 2 <= g.n and exists(r):
        value = r
        witness = best_pair
        r += 1
    return InvariantResult("biclique_number", value, certificate=witness)


def validate_biclique(g, pair):
    a, b = pair
    for v in (*a, *b):
        if not g.has_vertex(v):
            return False, f"{v!r} is not a vertex"
    if set(a) & set(b):
        return False, "sides are not disjoint"
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        return False, "repeated vertex"
    if len(a) != len(b):
        return False, "sides differ in size"
    for u in a:
        for v in b:
            if not g.has_edge(u, v):
                return False, f"missing cross edge ({u}, {v})"
    return True, None


def degeneracy(g):
    """Min-degree peeling: (degeneracy value, elimination order)."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    order = []
    value = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        value = max(value, deg[v])
        order.append(v)
        remaining.remove(v)
        for u in g.neighbors(v):
            if u in remaining:
                deg[u] -= 1
    return value, tuple(order)


def validate_degeneracy_order(g, value, order):
    if not all(g.has_vertex(v) for v in order) or sorted(order) != list(range(g.n)):
        return False, "order is not a vertex permutation"
    seen = 0
    worst = 0
    for v in reversed(order):
        back = (g.adj_bits[v] & seen).bit_count()
        worst = max(worst, back)
        seen |= 1 << v
    if worst != value:
        return False, f"max back-degree {worst} != claimed {value}"
    return True, None


def degeneracy_result(g):
    value, order = degeneracy(g)
    return InvariantResult("degeneracy", value, certificate=order)
