"""Exact tree-depth via root-removal recursion over vertex bitmasks.

td(connected G) = 1 + min over v of td(G - v); disconnected graphs take the
max over components, split by graphs.component_masks. A TreedepthSolver keeps
one memo entry per connected mask: lower and upper bounds on its tree-depth
and the root that met the upper bound. The lower bound starts at
degeneracy + 1 (td >= tw + 1 >= degeneracy + 1), so a query below it is
answered without a scan. A connected graph has td <= 2 exactly when it is a
star, so td <= 2 is one pass over the bit rows, with no scan. A root scan
sorts the roots of the component; at k = 3 it asks of each root whether its
removal leaves a star forest, and above that it splits the component at each
root only when the scan reaches it. A first root adjacent to the whole
component is the only one tried, since then td(G) = 1 + td(G - v). Bounded
queries (td <= k?) from many callers share the memo, including queries on
just the component of a mask that holds a given vertex, and elimination
forests are read from the memo without another search. The bounded decision
is what the chi_p machinery calls, and it stays cheap even on graphs far
above the exact-solve cap as long as k is small. `tree_depth(g)` and
`tree_depth_at_most(g, k)` sit beside chi_p in coloring, on the one solver of
g's coloring search, so they share the memo of the chi_p questions asked of
g, and `tree_depth` starts each component's lower bound at its largest chi_p
found when that beats degeneracy + 1 (td >= chi_p for every p). A forest is
its parent tuple, -1 at a root.
"""

from __future__ import annotations

from .graphs import bits, component_masks, component_of


def depths(parent):
    """The depth of each vertex in the elimination forest given by its parent
    tuple (-1 marks a root), 1 at a root."""
    out = [0] * len(parent)

    def depth(v):
        if not out[v]:
            p = parent[v]
            out[v] = 1 if p == -1 else depth(p) + 1
        return out[v]

    for v in range(len(parent)):
        depth(v)
    return out


def _degeneracy(rows, mask):
    """Degeneracy of the subgraph induced on `mask` by min-degree peeling;
    rows[v] is the neighbour mask of v. A vertex of degree at most the value
    found so far lies in no subgraph of larger minimum degree, so it is
    peeled at once, and peeling stops when what is left is too small to
    raise the value."""
    value = 0
    size = mask.bit_count()
    while size - 1 > value:
        least = size
        rest = mask
        while rest:
            low = rest & -rest
            d = (rows[low.bit_length() - 1] & mask).bit_count()
            if d < least:
                least, v = d, low
                if d <= value:
                    break
            rest ^= low
        value = max(value, least)
        mask ^= v
        size -= 1
    return value


def _star_hubs(rows, mask):
    """Mask of the vertices with two or more neighbours in G[mask] (its hubs),
    or None when two hubs are adjacent. G[mask] is a star forest, so every
    component has tree-depth at most 2, exactly when the answer is not None:
    a component on three or more vertices with no two adjacent hubs is a
    star whose one hub is its centre."""
    hubs = 0
    rest = mask
    while rest:
        low = rest & -rest
        row = rows[low.bit_length() - 1] & mask
        if row & (row - 1):
            if row & hubs:
                return None
            hubs |= low
        rest ^= low
    return hubs


class TreedepthSolver:
    """Tree-depth engine for one graph with one memo shared by all queries.

    A depth-2 decision is a star test that creates no memo entry (an entry
    that exists learns the centre or lower = 3), and a depth-3 root scan tests
    star forests instead of recursing; roots, forests and answers are those
    of the plain root-removal recursion.
    """

    def __init__(self, g):
        self.n = g.n
        self.adj_bits = g.adj_bits
        # connected mask -> [lower, upper, root]: bounds on the tree-depth of
        # the induced subgraph (lower starts at degeneracy + 1) and the first
        # vertex in root order whose removal was shown to meet upper (None
        # before any root met it)
        self.memo = {}
        # root scans run, each a pass over the roots of one entry at one k
        self.scans = 0

    def _entry(self, comp):
        e = self.memo.get(comp)
        if e is None:
            lower = _degeneracy(self.adj_bits, comp) + 1
            e = self.memo[comp] = [lower, comp.bit_count(), None]
        return e

    def raise_lower_bound(self, comp, lower):
        """Record td(G[comp]) >= lower for a connected comp, known from outside."""
        e = self._entry(comp)
        e[0] = max(e[0], lower)

    def td_at_most(self, mask, k):
        """Decide td(G[mask]) <= k. Sound and complete; memoized."""
        for comp in component_masks(self.adj_bits, mask):
            if not self._td_conn_at_most(comp, k):
                return False
        return True

    def component_td_at_most(self, mask, v, k):
        """Decide td <= k for the component of G[mask] that holds v (v in mask)."""
        return self._td_conn_at_most(component_of(self.adj_bits, mask, 1 << v), k)

    def _td_conn_at_most(self, comp, k):
        if comp.bit_count() <= k:
            return True
        if k <= 1:
            # a connected graph on two or more vertices has an edge
            return False
        adj = self.adj_bits
        if k == 2:
            # a connected graph has td <= 2 exactly when it is a star, whose
            # one hub is its centre; an entry that does not know the answer
            # yet learns the centre as its root, or lower = 3
            hubs = _star_hubs(adj, comp)
            e = self.memo.get(comp)
            if e is not None and e[0] <= 2 < e[1]:
                if hubs is None:
                    e[0] = 3
                else:
                    e[1], e[2] = 2, hubs.bit_length() - 1
            return hubs is not None
        e = self._entry(comp)
        if e[1] <= k:
            return True
        if e[0] > k:
            return False
        self.scans += 1
        # higher degree in comp first, which gives good separators early,
        # then lower vertex
        order = sorted(bits(comp), key=lambda v: (-(adj[v] & comp).bit_count(), v))
        if comp & ~adj[order[0]] == 1 << order[0]:
            # td(comp) = 1 + td(comp - v) for a v adjacent to all of comp, so
            # no other root can succeed where it fails
            del order[1:]
        below = k - 1
        for v in order:
            rest = comp & ~(1 << v)
            if k == 3:
                # every part of comp - v has td <= 2: comp - v is a star forest
                ok = _star_hubs(adj, rest) is not None
            else:
                ok = all(self._td_conn_at_most(part, below) for part in component_masks(adj, rest))
            if ok:
                e[1], e[2] = k, v
                return True
        e[0] = k + 1
        return False

    def treedepth(self, mask):
        """Exact td(G[mask]) by iterative deepening over the memo's bounds."""
        value = 0
        for comp in component_masks(self.adj_bits, mask):
            k = self._entry(comp)[0]
            while not self._td_conn_at_most(comp, k):
                k += 1
            value = max(value, k)
        return value

    def forest(self, mask):
        """An optimal elimination forest of G[mask]; vertices outside mask are roots.

        Each component's root is the one its memo entry recorded. A component
        whose tree-depth equals its size is a clique, whose vertices tie on
        degree, so the first in root order is its lowest vertex.
        """
        parent = [-1] * self.n

        def build(sub, above):
            for comp in component_masks(self.adj_bits, sub):
                if self.treedepth(comp) < comp.bit_count():
                    root = self.memo[comp][2]
                else:
                    root = (comp & -comp).bit_length() - 1
                parent[root] = above
                build(comp & ~(1 << root), root)

        build(mask, -1)
        return tuple(parent)


def depth_coloring(parent):
    """Color vertices by depth in an elimination forest's parent tuple.

    With td(G) colors this is a valid chi_p coloring for every p: any union of
    j color classes meets each root-leaf path in at most j vertices, so the
    compressed forest on it has height at most j and still covers every edge.
    """
    return tuple(d - 1 for d in depths(parent))
