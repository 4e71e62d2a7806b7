"""Exact solvers for clique number, biclique number, degeneracy, and degrees.

Every solver returns an InvariantResult whose certificate can be re-checked by
a validator in certify that knows nothing about the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import check_cap
from .graphs import bits


@dataclass(frozen=True)
class InvariantResult:
    """Exact invariant value plus an independently checkable certificate."""

    name: str
    value: Any
    certificate: Any = None
    lower_bound: Any = None

    def to_jsonable(self):
        certificate = self.certificate
        if self.name == "tree_depth":
            certificate = {"parent": list(certificate), "height": self.value}
        elif hasattr(certificate, "to_jsonable"):
            certificate = certificate.to_jsonable()
        return {
            "name": self.name,
            "value": self.value,
            "certificate": certificate,
            "lower_bound": self.lower_bound,
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
    mask = _max_clique_mask(g.adj_bits, (1 << g.n) - 1)
    verts = tuple(v for v in range(g.n) if mask >> v & 1)
    return InvariantResult("clique_number", len(verts), certificate=verts)


def biclique_number(g, cap=None):
    """Largest r with K_{r,r} as a (not necessarily induced) subgraph, with witness."""
    check_cap("biclique", g.n, cap)
    adj = g.adj_bits

    def find(r, side_a, common, start):
        # a K_{r,r} whose A side extends side_a by vertices from start on, or
        # None; common, the common neighbourhood of side_a, excludes side_a
        # and keeps at least r vertices, so its first r are the B side
        if len(side_a) == r:
            return tuple(side_a), tuple(bits(common))[:r]
        for v in range(start, g.n - r + len(side_a) + 1):
            narrowed = common & adj[v]
            if narrowed.bit_count() >= r:
                found = find(r, side_a + [v], narrowed, v + 1)
                if found is not None:
                    return found
        return None

    value = 0
    witness = ((), ())
    while 2 * (value + 1) <= g.n:
        found = find(value + 1, [], (1 << g.n) - 1, 0)
        if found is None:
            break
        value += 1
        witness = found
    return InvariantResult("biclique_number", value, certificate=witness)


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


def degeneracy_result(g):
    value, order = degeneracy(g)
    return InvariantResult("degeneracy", value, certificate=order)
