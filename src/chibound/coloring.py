"""Exact coloring solvers and their certificate checkers.

Every solver is the depth-p chromatic number chi_p for some p: proper coloring
is p = 1 (chromatic_number) and star coloring is p = 2. One search object per
graph decides for every component, p and k whether a depth-p k-coloring
exists (by tree-depth at k <= p), and `_least_assignment` climbs k component
by component. Only the last graph colored keeps its search, so the questions
asked of one graph in a row (chi, then chi_p at several p) share it and find
each component's chi once. The backtracking search uses
saturation-first vertex selection, ascending colors, and first-use
symmetry breaking, so witnesses are deterministic. At p >= 2 it also forward
checks: once all k colors are in use it skips a subtree as soon as an uncolored
vertex near the one just colored has every color forbidden. Forbidden colors
only grow as vertices get colored, so such a subtree holds no coloring, and the
depth-first search still reaches the same first coloring: forward checking
saves nodes and never changes a witness. Validators re-check certificates by
brute enumeration of the defining property and share none of the search
pruning.

Definitions in force:
- depth-p coloring (chi_p): every union of at most p color classes induces a
  subgraph of tree-depth at most the number of classes taken;
- at p = 2 that is star coloring: proper and every 4-vertex path sees at
  least 3 colors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

from .errors import ValidationError, check_cap, check_int, is_int
from .graphs import (
    bits,
    component_masks,
    distance_balls,
    induced_subgraph,
    shrink_to_minimal,
    subdivision_internal_vertices,
)
from .invariants import InvariantResult, _max_clique_mask, clique_number
from .treedepth import TreedepthSolver, depth_coloring


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring plus the guarantee kind it certifies."""

    assignment: tuple
    num_colors: int
    kind: str  # "proper" | "chi_p"
    p: int | None = None

    def color_classes(self):
        classes = [[] for _ in range(self.num_colors)]
        for v, c in enumerate(self.assignment):
            classes[c].append(v)
        return classes

    def to_jsonable(self):
        return {
            "assignment": list(self.assignment),
            "num_colors": self.num_colors,
            "kind": self.kind,
            "p": self.p,
        }


def _normalize(assignment):
    """Renumber colors by first occurrence so colors are 0..k-1, all used."""
    remap = {}
    out = []
    for c in assignment:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out), len(remap)


def make_coloring(assignment, kind, p=None):
    norm, k = _normalize(tuple(assignment))
    return Coloring(norm, k, kind, p)


def _check_structure(g, coloring):
    if len(coloring.assignment) != g.n:
        raise ValidationError("assignment must cover every vertex")
    if not all(map(is_int, coloring.assignment)):
        raise ValidationError("colors must be ints")
    if coloring.p is not None and not is_int(coloring.p):
        raise ValidationError(f"p must be an int, got {coloring.p!r}")
    used = set(coloring.assignment)
    if g.n and used != set(range(coloring.num_colors)):
        raise ValidationError("colors must be 0..num_colors-1 with every color used")


def _first_monochromatic_edge(g, colors):
    for u, v in g.sorted_edges():
        if colors[u] == colors[v]:
            return (u, v)
    return None


def validate_coloring(g, coloring):
    """Check a coloring against its declared kind.

    Returns (True, None) or (False, witness); the witness names the violating
    edge or color subset.
    """
    _check_structure(g, coloring)
    colors = coloring.assignment
    edge = _first_monochromatic_edge(g, colors)
    if edge is not None:
        return False, ("monochromatic_edge", edge)
    if coloring.kind == "proper":
        return True, None
    if coloring.kind != "chi_p":
        raise ValidationError(f"unknown coloring kind {coloring.kind!r}")
    p = coloring.p
    if p is None or p < 1:
        raise ValidationError("chi_p coloring needs its parameter p")
    masks = [0] * coloring.num_colors
    for v, c in enumerate(colors):
        masks[c] |= 1 << v
    if p >= 2:
        pair = _first_bicolored_p4_pair(g, masks)
        if pair is not None:
            return False, ("subset_treedepth", pair)
    if p >= 3:
        solver = TreedepthSolver(g)
        for size in range(3, min(p, coloring.num_colors) + 1):
            for subset in combinations(range(coloring.num_colors), size):
                mask = 0
                for c in subset:
                    mask |= masks[c]
                if not solver.td_at_most(mask, size):
                    return False, ("subset_treedepth", subset)
    return True, None


def _first_bicolored_p4_pair(g, masks):
    """The first color pair, in combinations order, whose union holds a
    4-vertex path, or None. In a proper coloring that path alternates: an edge
    xy with colors a and b, a second b-neighbour at x and a second
    a-neighbour at y. A union of two classes has tree-depth at most 2 exactly
    when it has no such path, so no tree-depth is computed."""
    adj = g.adj_bits
    for a, b in combinations(range(len(masks)), 2):
        for x in bits(masks[a]):
            ys = adj[x] & masks[b]
            if ys & (ys - 1) and any(
                (adj[y] & masks[a]).bit_count() >= 2 for y in bits(ys)
            ):
                return (a, b)
    return None


class _ColoringSearch:
    """Backtracking search for depth-p colorings of one graph, any mask, p and k.

    Built once per graph: neighbour tuples, degree order, distance-3 balls and
    one TreedepthSolver, whose memo every run shares, and `proper`: each
    component mask's least proper coloring, found once. A run colors one vertex
    mask, a component, and its state is bitmasks: one vertex mask per color
    class, the mask of uncolored vertices, and per vertex the mask of colors
    on its colored neighbours (its saturation). `_forbidden` turns them into
    the colors a vertex cannot take: p = 1 forbids neighbour colors, p >= 2
    also colors that close a bicolored 4-vertex path, which is exactly the
    condition on pairs of classes; p >= 3 adds tree-depth checks on every
    color subset of size 3..p that includes the color just placed, each on
    the component of the subset's union that holds the vertex just placed.
    """

    def __init__(self, g):
        self.g = g
        self.n = g.n
        self.nbrs = [g.neighbors(v) for v in range(g.n)]
        self.nbr_bits = g.adj_bits
        # DSATUR ties go to the larger degree, then (stable sort) the smaller vertex
        self.order = sorted(range(g.n), key=lambda v: -len(self.nbrs[v]))
        self.nodes = 0
        # the vertices within distance 3 of v, whose forbidden colors can
        # change when v is colored
        self.near = [
            ball & ~(1 << v) for v, ball in enumerate(distance_balls(g, 3)[-1])
        ]
        self.td = TreedepthSolver(g)
        self.proper = {}

    def _reset(self, comp, k, p):
        self.k = k
        self.p = p
        self.assignment = [-1] * self.n
        self.color_masks = [0] * k
        self.uncolored = comp
        self.sat_mask = [0] * self.n

    def run(self, comp, k, p):
        """A depth-p k-coloring of comp, its colors in vertex order, or None.
        For k <= p one exists exactly when td <= k, and an optimal elimination
        forest colored by depth is one; above p the search colors by first use."""
        if k <= p:
            ok = self.td.td_at_most(comp, k)
            colors = depth_coloring(self.g, self.td.forest(comp)) if ok else None
        else:
            self._reset(comp, k, p)
            colors = self.assignment if self._extend(0) else None
        return None if colors is None else tuple(colors[v] for v in bits(comp))

    def least(self, comp, k, p):
        """A least depth-p coloring of comp, climbing from the lower bound k."""
        for k in range(k, comp.bit_count() + 1):
            found = self.run(comp, k, p)
            if found is not None:
                return found
        raise AssertionError("upper bound for coloring search was not valid")

    def _select(self, max_used):
        """The uncolored vertex of most colored-neighbour colors, first in order."""
        best, best_sat = -1, -1
        uncolored = self.uncolored
        for v in self.order:
            if uncolored >> v & 1:
                sat = self.sat_mask[v].bit_count()
                if sat > best_sat:
                    best, best_sat = v, sat
                    if sat == max_used:
                        break
        return best

    def _forbidden(self, u):
        """Mask of the colors u cannot take next to the colored vertices."""
        sat = self.sat_mask
        forbidden = sat[u]
        if self.p == 1:
            return forbidden
        a = self.assignment
        bits = self.nbr_bits
        for x in self.nbrs[u]:
            cx = a[x]
            if cx < 0:
                continue
            same = self.color_masks[cx]
            xbit = 1 << x
            if bits[u] & same != xbit:
                # x-u-y-d with col(y) == col(x): every color next to x is out
                forbidden |= sat[x]
            for y in self.nbrs[x]:
                cy = a[y]
                if cy >= 0 and bits[y] & same != xbit:
                    # u-x-y-d with col(d) == col(x): col(y) is out
                    forbidden |= 1 << cy
        return forbidden

    def _extend(self, max_used):
        self.nodes += 1
        if not self.uncolored:
            return True
        v = self._select(max_used)
        forbidden = self._forbidden(v)
        for c in range(min(max_used + 1, self.k)):
            if forbidden >> c & 1:
                continue
            if self.p >= 3 and not self._depth_ok(v, c, max_used):
                continue
            used = max(max_used, c + 1)
            self._assign(v, c)
            if not (self.p >= 2 and used == self.k and self._wiped_out(v)):
                if self._extend(used):
                    return True
            self._unassign(v, c)
        return False

    def _depth_ok(self, v, c, max_used):
        """Tree-depth of every 3..p color subset with v in class c (colors in
        use are exactly 0..max_used-1 by first-use symmetry breaking). Before
        v is placed every subset meets its bound, and the components of a
        union that miss v are components of the union without v, so only the
        component holding v is decided."""
        others = [i for i in range(max_used) if i != c]
        new_mask = self.color_masks[c] | 1 << v
        for size in range(3, min(self.p, len(others) + 1) + 1):
            for rest in combinations(others, size - 1):
                mask = new_mask
                for i in rest:
                    mask |= self.color_masks[i]
                if not self.td.component_td_at_most(mask, v, size):
                    return False
        return True

    def _wiped_out(self, v):
        """Forward check once all k colors are in use: is some uncolored vertex
        near v left with no color? Colors only become forbidden as vertices get
        colored, so a wiped-out vertex dooms the subtree, and skipping it keeps
        the first coloring found."""
        full = (1 << self.k) - 1
        rest = self.near[v] & self.uncolored
        while rest:
            low = rest & -rest
            if self._forbidden(low.bit_length() - 1) == full:
                return True
            rest ^= low
        return False

    def _assign(self, v, c):
        self.assignment[v] = c
        self.color_masks[c] |= 1 << v
        self.uncolored &= ~(1 << v)
        bit = 1 << c
        for u in self.nbrs[v]:
            self.sat_mask[u] |= bit

    def _unassign(self, v, c):
        self.assignment[v] = -1
        self.color_masks[c] &= ~(1 << v)
        self.uncolored |= 1 << v
        same = self.color_masks[c]
        for u in self.nbrs[v]:
            if not self.nbr_bits[u] & same:
                self.sat_mask[u] &= ~(1 << c)


@lru_cache(maxsize=1)
def _search(g):
    """The search of g, kept for the last graph colored only."""
    return _ColoringSearch(g)


def _least_assignment(g, p, cap):
    """A least depth-p coloring of g under the vertex cap (default: its CAPS
    row), by component: the least proper coloring, climbed from omega on its
    first request, then at p >= 2 a climb from its chi."""
    check_cap(f"chi_{min(p, 3)}", g.n, cap)
    search = _search(g)
    assignment = [0] * g.n
    for comp in component_masks(g.adj_bits, (1 << g.n) - 1):
        found = search.proper.get(comp)
        if found is None:
            omega = _max_clique_mask(g.adj_bits, comp).bit_count()
            found = search.proper[comp] = search.least(comp, omega, 1)
        if p > 1:
            found = search.least(comp, max(found) + 1, p)
        for v, c in zip(bits(comp), found):
            assignment[v] = c
    return assignment


def chromatic_number_value(g):
    """Exact chromatic number without certificates (hot-path helper)."""
    return max(_least_assignment(g, 1, g.n), default=-1) + 1


def _chromatic_at_least(g, chi):
    """Whether g has no proper coloring with chi - 1 colors. A search of its
    own: the subgraphs a shrink tries must not evict the graph being colored."""
    search = _ColoringSearch(g)
    comps = component_masks(g.adj_bits, (1 << g.n) - 1)
    return any(search.run(comp, chi - 1, 1) is None for comp in comps)


def chromatic_number(g, cap=None):
    """Exact chromatic number, a proper-coloring certificate, and a lower-bound
    witness (max clique, or a chi-critical vertex set when the clique is not tight)."""
    coloring = make_coloring(_least_assignment(g, 1, cap), "proper")
    value = coloring.num_colors
    omega = clique_number(g)
    if omega.value == value:
        witness = ("clique", omega.certificate)
    else:
        critical = shrink_to_minimal(g, lambda sub: _chromatic_at_least(sub, value))
        witness = ("critical_subgraph", critical)
    return InvariantResult(
        "chromatic_number", value, certificate=coloring, lower_bound=witness
    )


def chi_p(g, p, cap=None):
    """Exact depth-p chromatic number chi_p with a certified coloring.

    chi_1 is the chromatic number, with its lower-bound witness; chi_2 the star
    chromatic number. The default vertex cap is the CAPS row chi_1, chi_2 or,
    at every p >= 3, chi_3.
    """
    check_int("p", p, 1)
    if p == 1:
        res = chromatic_number(g, cap)
        return InvariantResult(
            "chi_p",
            res.value,
            certificate=replace(res.certificate, kind="chi_p", p=1),
            lower_bound=res.lower_bound,
        )
    coloring = make_coloring(_least_assignment(g, p, cap), "chi_p", p)
    return InvariantResult("chi_p", coloring.num_colors, certificate=coloring)


def uniform_subdivision_coloring(g, p):
    """A (p+1)-color depth-p coloring of the exact p-subdivision of g.

    Branch vertices all get color 0; the internal vertices of every subdivided
    edge get colors 1..p in path order. Any union of j <= p classes falls
    apart into spiders with legs shorter than j and path segments of at most j
    vertices, so its tree-depth stays at most j. Joining two branch vertices
    would need all p internal colors plus color 0, which exceeds p classes.
    """
    check_int("p", p, 1)
    assignment = [0] * (g.n + p * g.m)
    for chain in subdivision_internal_vertices(g, p).values():
        for i, v in enumerate(chain):
            assignment[v] = i + 1
    return make_coloring(assignment, "chi_p", p)


def subdivision_chi_p_coloring(g, p, base):
    """Depth-(p+1) coloring of the exact p-subdivision from a proper base coloring.

    Keeps the base colors on branch vertices and gives the p internal vertices
    of each subdivided edge p distinct colors different from both endpoint
    colors, drawing from a palette of max(base colors, p+2).
    """
    check_int("p", p, 0)
    ok, witness = validate_coloring(
        g, Coloring(base.assignment, base.num_colors, "proper")
    )
    if not ok:
        raise ValidationError(f"base coloring is not proper: {witness}")
    if p == 0:
        return Coloring(base.assignment, base.num_colors, "chi_p", 1)
    palette = max(base.num_colors, p + 2)
    assignment = [0] * (g.n + p * g.m)
    for v in range(g.n):
        assignment[v] = base.assignment[v]
    chains = subdivision_internal_vertices(g, p)
    for (u, v), chain in chains.items():
        banned = {base.assignment[u], base.assignment[v]}
        avail = [c for c in range(palette) if c not in banned]
        for i, w in enumerate(chain):
            assignment[w] = avail[i]
    return make_coloring(assignment, "chi_p", p + 1)


def product_chi_p_coloring(g, p, base, sub_colorings):
    """Combine a proper base coloring with per-color-subset depth-p colorings.

    For every p-subset I of base colors, sub_colorings[frozenset(I)] must map
    each vertex whose base color lies in I to its color in a valid depth-p
    coloring of that induced subgraph. The combined color of v is the pair
    (base color, tuple of its subset colors), which is a depth-p coloring of g
    using at most chi * a^binom(chi-1, p-1) colors, a being the largest subset
    palette.
    """
    check_int("p", p, 1)
    ok, witness = validate_coloring(
        g, Coloring(base.assignment, base.num_colors, "proper")
    )
    if not ok:
        raise ValidationError(f"base coloring is not proper: {witness}")
    chi = base.num_colors
    size = min(p, chi)
    needed = [frozenset(c) for c in combinations(range(chi), size)]
    gamma = {}
    for subset in needed:
        if subset not in sub_colorings:
            raise ValidationError(f"missing sub-coloring for color subset {sorted(subset)}")
        mapping = dict(sub_colorings[subset])
        members = [v for v in range(g.n) if base.assignment[v] in subset]
        if set(mapping) != set(members):
            raise ValidationError(
                f"sub-coloring for {sorted(subset)} must cover exactly its vertices"
            )
        sub, verts = induced_subgraph(g, members)
        local = make_coloring([mapping[v] for v in verts], "chi_p", p)
        ok, witness = validate_coloring(sub, local)
        if not ok:
            raise ValidationError(
                f"sub-coloring for {sorted(subset)} is not a valid depth-{p} "
                f"coloring: {witness}"
            )
        gamma[subset] = mapping
    if size < p:
        # fewer base colors than p: the single full subset already colors g
        full = frozenset(range(chi))
        combined = [(base.assignment[v], gamma[full][v]) for v in range(g.n)]
    else:
        others = {
            c: [J for J in combinations(range(chi), p - 1) if c not in J]
            for c in range(chi)
        }
        combined = []
        for v in range(g.n):
            c = base.assignment[v]
            key = tuple(
                gamma[frozenset(J) | {c}][v] for J in others[c]
            )
            combined.append((c, key))
    return make_coloring(combined, "chi_p", p)
