"""Exact tree-depth via root-removal recursion over vertex bitmasks.

td(connected G) = 1 + min over v of td(G - v); disconnected graphs take the
max over components. A TreedepthSolver keeps interval bounds per connected
mask so that bounded queries (td <= k?) from many callers share work. The
bounded decision is what the chi_p machinery calls, and it stays cheap even
on graphs far above the exact-solve cap as long as k is small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeCapError
from .graphs import bits

TREEDEPTH_CAP = 16
TREEDEPTH_HARD_CAP = 24


@dataclass(frozen=True)
class EliminationForest:
    """Rooted forest as a parent array (-1 marks roots)."""

    parent: tuple

    @property
    def height(self):
        depths = {}

        def depth(v):
            if v in depths:
                return depths[v]
            p = self.parent[v]
            d = 1 if p == -1 else depth(p) + 1
            depths[v] = d
            return d

        return max((depth(v) for v in range(len(self.parent))), default=0)

    def depths(self):
        out = [0] * len(self.parent)

        def depth(v):
            if out[v]:
                return out[v]
            p = self.parent[v]
            out[v] = 1 if p == -1 else depth(p) + 1
            return out[v]

        for v in range(len(self.parent)):
            depth(v)
        return out

    def to_jsonable(self):
        return {"parent": list(self.parent), "height": self.height}


def validate_elimination_forest(g, forest, claimed_height=None):
    """Structural check: acyclic parents, edges ancestor-descendant, height match."""
    parent = forest.parent
    if len(parent) != g.n:
        return False, "parent array size mismatch"
    for v in range(g.n):
        seen = {v}
        x = parent[v]
        while x != -1:
            if x in seen:
                return False, f"parent cycle through vertex {x}"
            seen.add(x)
            x = parent[x]

    def ancestors(v):
        out = set()
        x = parent[v]
        while x != -1:
            out.add(x)
            x = parent[x]
        return out

    for u, v in g.sorted_edges():
        if u not in ancestors(v) and v not in ancestors(u):
            return False, f"edge ({u}, {v}) is not ancestor-descendant"
    if claimed_height is not None and forest.height != claimed_height:
        return False, f"height {forest.height} != claimed {claimed_height}"
    return True, None


class TreedepthSolver:
    """Shared-bound tree-depth engine for one graph."""

    def __init__(self, g):
        self.g = g
        self.adj_bits = g.adj_bits
        # mask -> [lower, upper] bounds on td of the induced subgraph
        self.bounds = {}

    def _components(self, mask):
        comps = []
        rest = mask
        while rest:
            start = rest & -rest
            comp = start
            frontier = start
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grow = self.adj_bits[v] & mask & ~comp
                comp |= grow
                frontier |= grow
            comps.append(comp)
            rest &= ~comp
        return comps

    def _bounds_for(self, mask):
        b = self.bounds.get(mask)
        if b is None:
            size = mask.bit_count()
            lb = 0 if size == 0 else 1
            b = [lb, size]
            self.bounds[mask] = b
        return b

    def td_at_most(self, mask, k):
        """Decide td(G[mask]) <= k. Sound and complete; memoized."""
        if mask == 0:
            return True
        if k <= 0:
            return False
        for comp in self._components(mask):
            if not self._td_conn_at_most(comp, k):
                return False
        return True

    def _td_conn_at_most(self, comp, k):
        size = comp.bit_count()
        if size <= 1:
            return k >= size
        if size <= k:
            return True
        b = self._bounds_for(comp)
        if b[1] <= k:
            return True
        if b[0] > k:
            return False
        if k == 1:
            b[0] = max(b[0], 2)
            return False
        # root choice: high-degree vertices first gives good separators early
        order = sorted(
            bits(comp),
            key=lambda v: (-(self.adj_bits[v] & comp).bit_count(), v),
        )
        for v in order:
            if self.td_at_most(comp & ~(1 << v), k - 1):
                b[1] = min(b[1], k)
                return True
        b[0] = max(b[0], k + 1)
        return False

    def treedepth(self, mask):
        """Exact td(G[mask]) by iterative deepening over the shared bounds."""
        if mask == 0:
            return 0
        value = 0
        for comp in self._components(mask):
            b = self._bounds_for(comp)
            k = b[0]
            while not self._td_conn_at_most(comp, k):
                k += 1
            value = max(value, k)
        return value

    def forest(self, mask):
        """An optimal elimination forest of G[mask]; vertices outside mask are roots."""
        parent = [-1] * self.g.n

        def build(sub, above):
            for comp in self._components(sub):
                t = self.treedepth(comp)
                root = None
                for v in sorted(
                    bits(comp),
                    key=lambda v: (-(self.adj_bits[v] & comp).bit_count(), v),
                ):
                    if self.td_at_most(comp & ~(1 << v), t - 1):
                        root = v
                        break
                parent[root] = above
                build(comp & ~(1 << root), root)

        build(mask, -1)
        return EliminationForest(tuple(parent))


def tree_depth_at_most(g, k):
    """Bounded decision without the exact-solve size cap (cheap for small k)."""
    return TreedepthSolver(g).td_at_most((1 << g.n) - 1, k)


def tree_depth(g, cap=TREEDEPTH_CAP):
    """Exact tree-depth with an elimination-forest certificate."""
    from .invariants import InvariantResult

    cap = min(cap, TREEDEPTH_HARD_CAP)
    if g.n > cap:
        raise SizeCapError(
            f"exact tree-depth capped at {cap} vertices, got {g.n}"
        )
    solver = TreedepthSolver(g)
    full = (1 << g.n) - 1
    value = solver.treedepth(full)
    return InvariantResult("tree_depth", value, certificate=solver.forest(full))


def depth_coloring(g, forest):
    """Color vertices by depth in an elimination forest.

    With td(G) colors this is a valid chi_p coloring for every p: any union of
    j color classes meets each root-leaf path in at most j vertices, so the
    compressed forest on it has height at most j and still covers every edge.
    """
    return tuple(d - 1 for d in forest.depths())
