"""Exact coloring solvers and tree-depth.

Every solver is the depth-p chromatic number chi_p for some p: proper coloring
is p = 1 (chromatic_number) and star coloring is p = 2. One search object per
graph, `_search(g)`, is the graph's one solve context: it decides for every
component, p and k whether a depth-p k-coloring exists (by tree-depth at
k <= p), and `_least_assignment` climbs k component by component. Only the
last graph asked keeps its search, so the questions asked of one graph in a
row (chi, then chi_p at several p, then tree_depth, and the shallow-minor
climbs and find_topo_embedding, which read its degree masks, neighbour tuples
and per-radius ball tables) share it and record each component's least depth-p
coloring once per p. A depth-p coloring is a depth-p' coloring for every
p' < p, and an optimal elimination forest colored by depth is one for every
p, so chi <= chi_2 <= chi_3 <= td: each climb at p starts at the colors of the
largest p' < p in the component's record (p = 1 at omega), and tree_depth
and tree_depth_at_most, beside chi_p, run on the search's one TreedepthSolver,
tree_depth raising each component's lower bound to its record. The backtracking
search, one kernel per run with its state in local variables, uses
saturation-first vertex selection, ascending colors, and first-use symmetry
breaking, so witnesses are deterministic. At p >= 2 it also forward checks:
once all k colors are in use it skips a subtree as soon as an uncolored vertex
on the change frontier of the one just colored (the only vertices whose
forbidden colors that coloring can change) has every color forbidden.
Forbidden colors only grow as vertices get colored, so such a subtree holds no
coloring, and the depth-first search still reaches the same first coloring:
forward checking saves nodes and never changes a witness. At p >= 3 every
coloring of a run keeps each union of i <= p classes at tree-depth at most i,
so a vertex that opens a new class needs no depth check, and a union's answer
depends only on its vertex mask and size and is decided once per run.

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

from .certify import validate_coloring
from .errors import ValidationError, check_cap, check_int
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
    """Vertex coloring plus the depth p it certifies: None for a proper
    coloring (chromatic_number's), else a depth-p coloring. p = 1 is the same
    rule as None; the JSON names only None "proper"."""

    assignment: tuple
    num_colors: int
    p: int | None = None

    def to_jsonable(self):
        return {
            "assignment": list(self.assignment),
            "num_colors": self.num_colors,
            "kind": "proper" if self.p is None else "chi_p",
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


def make_coloring(assignment, p=None):
    norm, k = _normalize(tuple(assignment))
    return Coloring(norm, k, p)


def _star_rules(nbrs, rows, a, color_masks, sat):
    """The star-coloring rules of one run's partial coloring, as closures over
    its state: nbrs[v] and rows[v] are v's neighbour tuple and mask, a[v] its
    color (-1 uncolored), color_masks[c] the vertex mask of class c and sat[v]
    the mask of the colors on v's colored neighbours.

    forbidden(u) is the mask of the colors an uncolored u cannot take: the
    colors next to it, and the colors that close a bicolored 4-vertex path,
    which is exactly the star condition on pairs of classes. frontier(v, c),
    asked once v is colored c, is the mask of the vertices whose forbidden
    colors that coloring can change: the neighbours of v, the neighbours of
    each colored neighbour x of v (x's saturation grew, and v may now close a
    path through x), and, when x now has exactly two c-neighbours v and w, the
    neighbours u of w (u-w-x-v now forbids u the color of x)."""

    def forbidden(u):
        f = sat[u]
        for x in nbrs[u]:
            cx = a[x]
            if cx < 0:
                continue
            same = color_masks[cx]
            xbit = 1 << x
            if rows[u] & same != xbit:
                # x-u-y-d with col(y) == col(x): every color next to x is out
                f |= sat[x]
            for y in nbrs[x]:
                cy = a[y]
                if cy >= 0 and rows[y] & same != xbit:
                    # u-x-y-d with col(d) == col(x): col(y) is out
                    f |= 1 << cy
        return f

    def frontier(v, c):
        front = rows[v]
        others = color_masks[c] ^ 1 << v
        for x in nbrs[v]:
            if a[x] >= 0:
                front |= rows[x]
                twin = rows[x] & others
                if twin and not twin & (twin - 1):
                    front |= rows[twin.bit_length() - 1]
        return front

    return forbidden, frontier


def _depth_rule(rows, td, color_masks, p):
    """The tree-depth rule of one p >= 3 run, as a closure over its state:
    rows[v] is v's neighbour mask, td the graph's TreedepthSolver and
    color_masks[c] the vertex mask of class c.

    depth_ok(v, c, max_used) decides every 3..p color subset with v in class c
    (colors in use are exactly 0..max_used-1 by first-use symmetry breaking).
    The run keeps an invariant: before v is placed every union of i <= p
    classes has tree-depth at most i. So the components of a union that miss
    v are components of the union without v and meet the bound, and only the
    component holding v is decided; its answer is then whether the whole
    union M of s classes has td <= s, which depends on M and s alone, so it is
    decided once per run and kept in decided[s][M]. A subset none of whose
    other colors is on a neighbour of v leaves v alone in its component, so it
    is skipped. _solve asks only when c is already in use: a vertex that opens
    class c joins s - 1 classes of tree-depth at most s - 1 (by the star rules
    at s = 3, by the invariant above), and one vertex adds at most one level."""
    # subset size -> {union mask: whether its tree-depth is at most that size}
    decided = {}

    def depth_ok(v, c, max_used):
        others = [color_masks[i] for i in range(max_used) if i != c]
        new_mask = color_masks[c] | 1 << v
        row = rows[v]
        for size in range(3, min(p, len(others) + 1) + 1):
            known = decided.setdefault(size, {})
            for rest in combinations(others, size - 1):
                mask = new_mask
                for m in rest:
                    mask |= m
                if row & mask:
                    ok = known.get(mask)
                    if ok is None:
                        ok = known[mask] = td.component_td_at_most(mask, v, size)
                    if not ok:
                        return False
        return True

    return depth_ok


class _ColoringSearch:
    """Backtracking search for depth-p colorings of one graph, any mask, p and k.

    Built once per graph and read by every question asked of it: neighbour
    tuples, degree order and degree masks, one TreedepthSolver, whose memo
    every run and tree_depth share, and `colorings`: per component mask, its
    least depth-p coloring for each p asked, found once. The shallow-minor
    climbs read the neighbour tuples and degree masks too, and
    find_topo_embedding one ball table per radius, built on first read. A run
    above the tree-depth range is one call of `_solve`, whose state is the
    color of each vertex, one vertex mask per color class, per vertex the mask
    of colors on its colored neighbours (its saturation), and the mask of
    uncolored vertices, passed down the recursion. p = 1 forbids neighbour
    colors, p >= 2 also the colors of `_star_rules`; p >= 3 adds the
    `_depth_rule` tree-depth checks on every color subset of size 3..p that
    includes the color just placed, when that color is already in use: each
    decides the component of the subset's union that holds the vertex just
    placed, once per union mask and size in the run. A run's state lives in the
    local variables of `_solve`, which writes back only its node count.
    """

    def __init__(self, g):
        self.g = g
        self.n = g.n
        rows = self.nbr_bits = g.adj_bits
        self.nbrs = [tuple(bits(row)) for row in rows]
        degree = [row.bit_count() for row in rows]
        # DSATUR ties go to the larger degree, then (stable sort) the smaller vertex
        self.order = sorted(range(g.n), key=lambda v: -degree[v])
        # at_least[d]: the mask of the vertices of degree at least d, d = 0..n
        self.at_least = [0] * (g.n + 1)
        for v, d in enumerate(degree):
            self.at_least[d] |= 1 << v
        for d in range(g.n - 1, -1, -1):
            self.at_least[d] |= self.at_least[d + 1]
        self.nodes = 0
        self.td = TreedepthSolver(g)
        # component mask -> {p: least depth-p coloring of that component}
        self.colorings = {}
        self.balls = {}  # radius -> ball(radius)

    def ball(self, radius):
        """Per vertex, the mask of the vertices within distance radius of it."""
        if radius not in self.balls:
            self.balls[radius] = distance_balls(self.g, radius)[-1]
        return self.balls[radius]

    def run(self, comp, k, p):
        """A depth-p k-coloring of comp, its colors in vertex order, or None.
        For k <= p one exists exactly when td <= k, and an optimal elimination
        forest colored by depth is one; above p the search colors by first use."""
        if k <= p:
            ok = self.td.td_at_most(comp, k)
            colors = depth_coloring(self.td.forest(comp)) if ok else None
        else:
            colors = self._solve(comp, k, p)
        return None if colors is None else tuple(colors[v] for v in bits(comp))

    def least(self, comp, k, p):
        """A least depth-p coloring of comp, climbing from the lower bound k."""
        for k in range(k, comp.bit_count() + 1):
            found = self.run(comp, k, p)
            if found is not None:
                return found
        raise AssertionError("upper bound for coloring search was not valid")

    def _solve(self, comp, k, p):
        """The first depth-p k-coloring of comp, as a color per vertex, or None.

        Each node colors the uncolored vertex of most colored-neighbour colors
        (first in degree order) with each allowed color in ascending order, up
        to one past the colors in use (first-use symmetry breaking). At p >= 2,
        once all k colors are in use, it forward checks: it skips the subtree
        when a vertex of the change frontier is left with every color
        forbidden. No uncolored vertex had every color forbidden before
        (colors not yet in use are free, and every later coloring is checked),
        and only frontier vertices' forbidden colors change, so this cuts every
        subtree a check of all uncolored vertices would. Forbidden colors only
        grow as vertices get colored, so such a subtree holds no coloring, and
        the search still reaches the same first coloring."""
        nbrs, rows, order = self.nbrs, self.nbr_bits, self.order
        a = [-1] * self.n
        sat = [0] * self.n
        color_masks = [0] * k
        star, deep = p >= 2, p >= 3
        if star:
            forbidden, frontier = _star_rules(nbrs, rows, a, color_masks, sat)
        if deep:
            depth_ok = _depth_rule(rows, self.td, color_masks, p)
        full = (1 << k) - 1
        nodes = 0

        def extend(uncolored, max_used):
            nonlocal nodes
            nodes += 1
            if not uncolored:
                return True
            v, most = -1, -1
            for u in order:
                if uncolored >> u & 1:
                    s = sat[u].bit_count()
                    if s > most:
                        v, most = u, s
                        if s == max_used:
                            break
            taken = forbidden(v) if star else sat[v]
            vbit = 1 << v
            uncolored ^= vbit
            row = nbrs[v]
            for c in range(min(max_used + 1, k)):
                if taken >> c & 1:
                    continue
                if deep and c < max_used and not depth_ok(v, c, max_used):
                    continue
                used = max_used if c < max_used else c + 1
                cbit = 1 << c
                a[v] = c
                color_masks[c] |= vbit
                for u in row:
                    sat[u] |= cbit
                wiped = 0
                if star and used == k:
                    wiped = frontier(v, c) & uncolored
                    while wiped:
                        low = wiped & -wiped
                        if forbidden(low.bit_length() - 1) == full:
                            break
                        wiped ^= low
                if not wiped and extend(uncolored, used):
                    return True
                a[v] = -1
                same = color_masks[c] = color_masks[c] ^ vbit
                for u in row:
                    if not rows[u] & same:
                        sat[u] ^= cbit
            return False

        found = extend(comp, 0)
        # the recursion refers to itself: break that cycle, so the search is
        # freed as soon as the next graph takes its slot
        del extend
        self.nodes += nodes
        return a if found else None

@lru_cache(maxsize=1)
def _search(g):
    """The search of g, kept for the last graph asked only."""
    return _ColoringSearch(g)


def _least_coloring(search, comp, p):
    """The least depth-p coloring of component comp, found once per search.
    A depth-p coloring is a depth-p' one for every p' < p, so chi_p' <= chi_p
    and the climb starts at the colors of the largest p' < p already found;
    with none, p = 1 climbs from omega and p >= 2 from chi."""
    found = search.colorings.get(comp, {})
    coloring = found.get(p)
    if coloring is None:
        if p == 1:
            floor = _max_clique_mask(search.g.adj_bits, comp).bit_count()
        else:
            below = max((q for q in found if q < p), default=1)
            floor = max(_least_coloring(search, comp, below)) + 1
        coloring = search.least(comp, floor, p)
        search.colorings.setdefault(comp, {})[p] = coloring
    return coloring


def _least_assignment(g, p, cap):
    """A least depth-p coloring of g under the vertex cap (default: its CAPS
    row), component by component."""
    check_cap(f"chi_{min(p, 3)}", g.n, cap)
    search = _search(g)
    assignment = [0] * g.n
    for comp in component_masks(g.adj_bits, (1 << g.n) - 1):
        for v, c in zip(bits(comp), _least_coloring(search, comp, p)):
            assignment[v] = c
    return assignment


def chromatic_number_value(g):
    """Exact chromatic number without certificates (hot-path helper), read
    from the least proper coloring of each component in g's search records."""
    search = _search(g)
    comps = component_masks(g.adj_bits, (1 << g.n) - 1)
    return max((max(_least_coloring(search, c, 1)) + 1 for c in comps), default=0)


def chromatic_at_least(g, chi):
    """Whether g has no proper coloring with chi - 1 colors, on a search of its
    own that leaves the slot of `_search` alone: the critical-pattern
    catalogue colors patterns in the middle of a host's shallow-minor climb."""
    check_int("chi", chi, 1)
    search = _ColoringSearch(g)
    comps = component_masks(g.adj_bits, (1 << g.n) - 1)
    return any(search.run(comp, chi - 1, 1) is None for comp in comps)


def chromatic_number(g, cap=None):
    """Exact chromatic number, a proper-coloring certificate, and a lower-bound
    witness (max clique, or a chi-critical vertex set when the clique is not tight)."""
    coloring = make_coloring(_least_assignment(g, 1, cap))
    value = coloring.num_colors
    omega = clique_number(g)
    if omega.value == value:
        witness = ("clique", omega.certificate)
    else:
        search = _search(g)
        critical = shrink_to_minimal(
            (1 << g.n) - 1, lambda mask: search.run(mask, value - 1, 1) is None
        )
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
        return replace(res, name="chi_p", certificate=replace(res.certificate, p=1))
    coloring = make_coloring(_least_assignment(g, p, cap), p)
    return InvariantResult("chi_p", coloring.num_colors, certificate=coloring)


def tree_depth(g, cap=None):
    """Exact tree-depth with an elimination forest's parent tuple as its
    certificate, on the TreedepthSolver of g's search. Coloring an optimal elimination forest by
    depth gives a depth-p coloring for every p, so td >= chi_p, and each
    component's lower bound is first raised to the colors of its least
    colorings found so far."""
    check_cap("tree_depth", g.n, cap)
    check_cap("tree_depth_hard", g.n)
    search = _search(g)
    for comp, found in search.colorings.items():
        search.td.raise_lower_bound(comp, max(found[max(found)]) + 1)
    full = (1 << g.n) - 1
    value = search.td.treedepth(full)
    return InvariantResult("tree_depth", value, certificate=search.td.forest(full))


def tree_depth_at_most(g, k):
    """Decide td(g) <= k on the TreedepthSolver of g's search, without the
    exact-solve size cap (cheap for small k)."""
    check_int("k", k, 0)
    return _search(g).td.td_at_most((1 << g.n) - 1, k)


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
    return make_coloring(assignment, p)


def _check_proper_base(g, base):
    """Raise ValidationError unless base is a proper coloring of g."""
    ok, witness = validate_coloring(g, replace(base, p=None))
    if not ok:
        raise ValidationError(f"base coloring is not proper: {witness}")


def subdivision_chi_p_coloring(g, p, base):
    """Depth-(p+1) coloring of the exact p-subdivision from a proper base coloring.

    Keeps the base colors on branch vertices and gives the p internal vertices
    of each subdivided edge p distinct colors different from both endpoint
    colors, drawing from a palette of max(base colors, p+2).
    """
    check_int("p", p, 0)
    _check_proper_base(g, base)
    if p == 0:
        return replace(base, p=1)
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
    return make_coloring(assignment, p + 1)


def product_chi_p_coloring(g, p, base, sub_colorings):
    """Combine a proper base coloring with per-color-subset depth-p colorings.

    For every min(p, chi)-subset I of base colors, sub_colorings[frozenset(I)]
    must map each vertex whose base color lies in I to its color in a valid
    depth-p coloring of that induced subgraph. The combined color of v is the
    pair (base color c, its colors in the subsets holding c), which is a
    depth-p coloring of g using at most chi * a^binom(chi-1, p-1) colors, a
    being the largest subset palette.
    """
    check_int("p", p, 1)
    _check_proper_base(g, base)
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
        local = make_coloring([mapping[v] for v in verts], p)
        ok, witness = validate_coloring(sub, local)
        if not ok:
            raise ValidationError(
                f"sub-coloring for {sorted(subset)} is not a valid depth-{p} "
                f"coloring: {witness}"
            )
        gamma[subset] = mapping
    others = {
        c: [J for J in combinations(range(chi), size - 1) if c not in J]
        for c in range(chi)
    }
    combined = []
    for v in range(g.n):
        c = base.assignment[v]
        key = tuple(gamma[frozenset(J) | {c}][v] for J in others[c])
        combined.append((c, key))
    return make_coloring(combined, p)
