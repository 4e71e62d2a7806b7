"""Shallow topological minors: embeddings, omega/chi over TM_r, and exact
induced subdivisions (ITM_r^e).

A TM_r embedding maps pattern vertices to distinct branch vertices and pattern
edges to internally disjoint paths with at most r internal vertices. The
induced variant demands exactly r internal vertices per path and that the
embedded subdivision appear with no extra edges.

find_topo_embedding runs on bit masks throughout. The candidates for a
pattern vertex are the unused host vertices of large enough degree inside the
distance-(r + 1) balls around its placed neighbours' images, tried in
ascending order; the router keeps one mask of the branch images and routed
interiors, and depth 1 matches middle vertices over candidate masks. It reads
the degree masks, neighbour tuples and one ball table per radius of the
host's one coloring search (coloring._search), each table built on its first
read and shared by every pattern tried on that host; a climb that stops
before any placement builds none. The pattern's side, its degrees, placement
order, sorted edges and neighbour tuples, is one immutable plan per pattern
(_plan, a bounded cache shared by every host). omega_TM, chi_TM (one climb,
_climb) and is_induced_exact_subdivision read the same search; chi_TM reads
its critical patterns one size at a time from lists built once per (level,
size), so a host's climb does search work only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .corpus import all_graphs, connected_graphs
from .errors import check_cap, check_int
from .generators import complete, cycle
from .graphs import (
    Graph,
    subdivide_exact,
    subdivision_internal_vertices,
)
from .coloring import _search, chromatic_at_least, chromatic_number_value
from .homomorphism import map_search


@dataclass(eq=False)
class TopoMinorEmbedding:
    """Branch map plus the internally disjoint path system realizing a pattern."""

    pattern: Graph
    branch_map: tuple
    paths: dict  # sorted pattern edge -> host vertex path, endpoints included

    def to_jsonable(self):
        return {
            "branch_map": list(self.branch_map),
            "paths": {f"{u},{v}": list(p) for (u, v), p in sorted(self.paths.items())},
        }


def _paths_up_to(nbrs, source, target, max_edges, blocked):
    """All simple source->target paths with <= max_edges edges whose interiors
    avoid the mask `blocked`, shortest first, then ascending vertex tuples;
    nbrs[v] lists v's neighbours in ascending order."""
    results = []

    def walk(path, seen):
        for nxt in nbrs[path[-1]]:
            if nxt == target:
                results.append(path + (target,))
            elif not seen >> nxt & 1 and len(path) < max_edges:
                walk(path + (nxt,), seen | 1 << nxt)

    walk((source,), blocked | 1 << source)
    results.sort(key=lambda p: (len(p), p))
    return results


@lru_cache(maxsize=64)
def _plan(h):
    """The placement plan of pattern h, built once and read by every host it
    is tried on: its degrees, its placement order (descending degree, then
    ascending vertex), its sorted edges, its neighbour tuples and whether it
    is complete. A complete pattern is vertex-transitive, so its branch images
    may be fixed in ascending order."""
    degrees = tuple(row.bit_count() for row in h.adj_bits)
    order = tuple(sorted(range(h.n), key=lambda v: (-degrees[v], v)))
    nbrs = tuple(h.neighbors(v) for v in range(h.n))
    return degrees, order, tuple(h.sorted_edges()), nbrs, all(d == h.n - 1 for d in degrees)


def find_topo_embedding(pattern, g, r):
    """An embedding witnessing pattern in TM_r(g), or None (complete search)."""
    check_int("r", r, 0)
    check_cap("tm_host", g.n)
    h = pattern
    if h.n > g.n:
        return None
    search = _search(g)
    far = search.ball(r + 1)
    at_least = search.at_least
    hdeg, order, edges, pattern_nbrs, symmetric = _plan(h)

    branch = [-1] * h.n  # pattern vertex -> host image, -1 while unplaced
    paths = [None] * len(edges)

    def place(idx, used):
        # used: the mask of the branch images
        if idx == len(order):
            if r == 1:
                return _route_depth1(g.adj_bits, edges, branch, used)
            return dict(zip(edges, paths)) if route(0, used) else None
        v = order[idx]
        cands = at_least[hdeg[v]] & ~used
        if symmetric:
            cands &= -1 << used.bit_length()
        for w in pattern_nbrs[v]:
            if branch[w] >= 0:
                cands &= far[branch[w]]
        while cands:
            low = cands & -cands
            cands ^= low
            branch[v] = low.bit_length() - 1
            result = place(idx + 1, used | low)
            if result is not None:
                return result
        branch[v] = -1
        return None

    def route(eidx, used):
        # used: the mask of the branch images and the routed interiors, which
        # every new path keeps out of its own interior
        if eidx == len(edges):
            return True
        u, v = edges[eidx]
        for p in _paths_up_to(search.nbrs, branch[u], branch[v], r + 1, used):
            paths[eidx] = p
            if route(eidx + 1, used | sum(1 << x for x in p[1:-1])):
                return True
        return False

    found = place(0, 0)
    if found is None:
        return None
    return TopoMinorEmbedding(pattern=h, branch_map=tuple(branch), paths=found)


def _route_depth1(rows, edges, branch, used):
    """Exact routing for depth 1 on host rows, with used the mask of the branch
    images: host-adjacent pairs take the direct edge (never worse: it consumes
    no interior vertex), every other pattern edge needs its own middle vertex,
    which is a bipartite matching problem."""
    paths = {}
    need = {}  # pattern edge -> the mask of its candidate middles
    for u, v in edges:
        su, sv = branch[u], branch[v]
        if rows[su] >> sv & 1:
            paths[(u, v)] = (su, sv)
        else:
            need[(u, v)] = rows[su] & rows[sv] & ~used
            if not need[(u, v)]:
                return None
    owner = {}  # middle vertex -> the pattern edge it serves

    def augment(edge):
        nonlocal visited
        while free := need[edge] & ~visited:
            low = free & -free
            visited |= low
            w = low.bit_length() - 1
            if w not in owner or augment(owner[w]):
                owner[w] = edge
                return True
        return False

    for edge in sorted(need, key=lambda e: (need[e].bit_count(), e)):
        visited = 0  # the middles this augmenting search has tried
        if not augment(edge):
            return None
    for w, (u, v) in owner.items():
        paths[(u, v)] = (branch[u], w, branch[v])
    return paths


def find_subdivided_clique(g, k, r):
    """Embedding of some (<= r)-subdivision of K_k in g, or None."""
    check_int("k", k, 0)
    check_int("r", r, 0)
    check_cap("pattern", k)
    return find_topo_embedding(complete(k), g, r)


def _climb(g, value, reached):
    """Raise value one level at a time while reached(value + 1) holds. A
    pattern at level k (K_k, or a k-chromatic graph) needs k branch vertices
    of degree >= k - 1 in host g, so the climb stops without asking reached
    once g has too few."""
    at_least = _search(g).at_least
    while at_least[value].bit_count() > value and reached(value + 1):
        value += 1
    return value


def omega_TM(g, r):
    """Largest k with a (<= r)-subdivided K_k subgraph embedding in g. A climb
    past the pattern cap raises SizeCapError rather than stopping short."""
    check_int("r", r, 0)
    check_cap("tm_host", g.n)
    return _climb(g, 0, lambda k: find_subdivided_clique(g, k, r) is not None)


def is_induced_exact_subdivision(h, r, g):
    """Embedding witnessing that the exact r-subdivision of h is an induced
    subgraph of g, or None after a complete search.

    An induced-subgraph isomorphism on homomorphism.map_search: a subdivision
    vertex's domain holds the host vertices of at least its degree, and
    mapping it to x narrows each neighbour's domain to x's neighbours and
    every other vertex's to the vertices distinct from and not adjacent to
    x. Vertices are placed by descending degree, each next one adjacent to
    one already placed when it can be.
    """
    check_int("r", r, 0)
    check_cap("tm_host", g.n)
    if h.n + r * h.m > g.n:
        return None
    sub = subdivide_exact(h, r)
    srows = sub.adj_bits
    sdeg = [row.bit_count() for row in srows]
    order = []
    placed = 0
    pending = sorted(range(sub.n), key=lambda v: (-sdeg[v], v))
    while pending:
        nxt = next((v for v in pending if srows[v] & placed), pending[0])
        order.append(nxt)
        placed |= 1 << nxt
        pending.remove(nxt)
    rows = g.adj_bits
    full = (1 << g.n) - 1
    apart = [full & ~row & ~(1 << x) for x, row in enumerate(rows)]
    arcs = [
        [(w, rows if srows[v] >> w & 1 else apart) for w in range(sub.n) if w != v]
        for v in range(sub.n)
    ]
    at_least = _search(g).at_least
    domains = [at_least[d] for d in sdeg]
    found = map_search(order, arcs, domains, None)
    if found is None:
        return None
    image = [d.bit_length() - 1 for d in found]
    inner = subdivision_internal_vertices(h, r)
    paths = {
        (u, v): tuple(image[x] for x in (u,) + inner[(u, v)] + (v,))
        for u, v in h.sorted_edges()
    }
    return TopoMinorEmbedding(pattern=h, branch_map=tuple(image[: h.n]), paths=paths)


def enumerate_ITM_exact(g, r, max_pattern_size):
    """The patterns (up to isomorphism, up to the size cap) whose exact
    r-subdivision is induced in g, smallest first."""
    check_int("r", r, 0)
    check_int("max_pattern_size", max_pattern_size, 0)
    check_cap("itm_host", g.n)
    check_cap("pattern", max_pattern_size)
    return tuple(
        h
        for size in range(1, max_pattern_size + 1)
        for h in all_graphs(size)
        if is_induced_exact_subdivision(h, r, g) is not None
    )


_critical_cache = {}


def _critical_of_size(chi, size):
    """The connected edge-critical chi-chromatic graphs on exactly size
    vertices, in corpus order, built once per (chi, size). From chi = 4 on
    they come from the corpus, so a size past the critical_catalogue cap
    raises; it is checked on a miss only, since no such size is ever kept."""
    key = (chi, size)
    if key not in _critical_cache:
        if chi <= 2:
            out = (complete(chi),) if size == chi else ()
        elif chi == 3:
            out = (cycle(size),) if size % 2 else ()
        else:
            check_cap("critical_catalogue", size)
            out = tuple(h for h in connected_graphs(size) if _is_critical(h, chi))
        _critical_cache[key] = out
    return _critical_cache[key]


def _is_critical(h, chi):
    """Whether h has chromatic number chi and no edge whose removal keeps it."""
    if min(h.degree(v) for v in range(h.n)) < chi - 1:
        return False
    # an edge lowers chi by at most one, so chi(h) >= chi with no h - e
    # keeping it means chi(h) == chi
    if not chromatic_at_least(h, chi):
        return False
    edges = h.sorted_edges()
    return not any(
        chromatic_at_least(Graph(h.n, [f for f in edges if f != e]), chi) for e in edges
    )


def critical_patterns(chi, max_size):
    """Connected edge-critical graphs with chromatic number chi, up to max_size
    vertices, in ascending size. Any graph of chromatic number chi contains one
    as a subgraph, so these are the only patterns a chi-level TM query must try.

    Levels 1..3 have closed forms (a vertex, an edge, the odd cycles); level 4
    and up filters the corpus, which caps their size at 8 vertices. At every
    level max_size is capped like a tm_host, since no larger pattern embeds in
    a host. The list is the concatenation of the per-size lists, each built
    once per (chi, size) and read by chi_TM one size at a time.
    """
    check_int("chi", chi, 1)
    check_int("max_size", max_size, 0)
    check_cap("tm_host", max_size)
    if chi >= 4:
        check_cap("critical_catalogue", max_size)
    return [h for size in range(chi, max_size + 1) for h in _critical_of_size(chi, size)]


def chi_TM(g, r):
    """max chi(H) over the patterns H in TM_r(g).

    Climbs chromatic levels from chi(g): level c is reachable iff some
    edge-critical c-chromatic pattern embeds, because TM membership is closed
    under pattern subgraphs. Level c walks the sizes c .. g.n - c + chi(g),
    reads each size's critical patterns once, smallest size first, and stops
    at the first pattern that embeds. From level 4 on the catalogue is capped
    at 8 vertices, so only a level c >= 4 that no pattern of up to 8 vertices
    reaches, on a host with g.n - c + chi(g) > 8, raises SizeCapError
    (critical_catalogue): the Petersen graph does at r = 0, while at r = 1 it
    answers 4 from K_4.
    """
    check_int("r", r, 0)
    check_cap("tm_host", g.n)
    host_chi = chromatic_number_value(g)

    def reached(c):
        # reaching level c needs at least c - host_chi subdivided edges, each
        # eating a distinct interior vertex, which bounds |H|; a size past the
        # catalogue is asked for only once every smaller pattern misses
        return any(
            find_topo_embedding(h, g, r) is not None
            for size in range(c, g.n - c + host_chi + 1)
            for h in _critical_of_size(c, size)
        )

    return _climb(g, host_chi, reached)
