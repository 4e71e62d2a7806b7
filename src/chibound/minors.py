"""Shallow topological minors: embeddings, omega/chi over TM_r, and exact
induced subdivisions (ITM_r^e).

A TM_r embedding maps pattern vertices to distinct branch vertices and pattern
edges to internally disjoint paths with at most r internal vertices. The
induced variant demands exactly r internal vertices per path and that the
embedded subdivision appear with no extra edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .corpus import all_graphs, connected_graphs
from .errors import check_cap, check_int
from .generators import complete, cycle
from .graphs import (
    Graph,
    bits,
    distance_balls,
    induced_subgraph,
    subdivide_exact,
    subdivision_internal_vertices,
)
from .invariants import clique_number
from .coloring import _chromatic_at_least, chromatic_number_value


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


def validate_topo_embedding(g, emb, r, exact=False, induced=False):
    """Re-check an embedding: injectivity, endpoints, lengths, disjointness,
    and (for the induced variant) the absence of extra edges."""
    h = emb.pattern
    branch = emb.branch_map
    if len(branch) != h.n or len(set(branch)) != h.n:
        return False, "branch map is not injective"
    if not all(g.has_vertex(b) for b in branch):
        return False, "branch vertex outside host"
    if set(emb.paths) != h.edges:
        return False, "paths do not cover the pattern edge set"
    interiors = []
    for (u, v), p in sorted(emb.paths.items()):
        if not all(g.has_vertex(x) for x in p):
            return False, f"path for ({u}, {v}) leaves the host"
        if p[0] != branch[u] or p[-1] != branch[v]:
            return False, f"path for ({u}, {v}) joins the wrong branch vertices"
        inner = list(p[1:-1])
        if exact and len(inner) != r:
            return False, f"path for ({u}, {v}) has {len(inner)} internal vertices, not {r}"
        if not exact and len(inner) > r:
            return False, f"path for ({u}, {v}) exceeds {r} internal vertices"
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                return False, f"({a}, {b}) along path ({u}, {v}) is not a host edge"
        if len(set(p)) != len(p):
            return False, f"path for ({u}, {v}) repeats a vertex"
        interiors.append(set(inner))
    branch_set = set(branch)
    seen = set()
    for inner in interiors:
        if inner & branch_set:
            return False, "path interior touches a branch vertex"
        if inner & seen:
            return False, "paths share an interior vertex"
        seen |= inner
    if induced:
        used = sorted(branch_set | seen)
        sub, verts = induced_subgraph(g, used)
        path_edges = set()
        for p in emb.paths.values():
            for a, b in zip(p, p[1:]):
                path_edges.add((min(a, b), max(a, b)))
        host_edges = {(verts[a], verts[b]) for a, b in sub.sorted_edges()}
        if host_edges != path_edges:
            return False, "embedded subdivision is not induced (extra host edges)"
    return True, None


def _paths_up_to(nbrs, source, target, max_edges, blocked):
    """All simple source->target paths with <= max_edges edges avoiding `blocked`
    interiors, shortest first, deterministic order; nbrs[v] lists v's neighbours
    in ascending order."""
    results = []

    def walk(pathv, used):
        last = pathv[-1]
        if last == target:
            results.append(tuple(pathv))
            return
        if len(pathv) > max_edges:
            return
        for nxt in nbrs[last]:
            if nxt == target:
                walk(pathv + [nxt], used)
            elif nxt not in used and nxt not in blocked and len(pathv) < max_edges:
                walk(pathv + [nxt], used | {nxt})

    walk([source], {source})
    results.sort(key=lambda p: (len(p), p))
    return results


def find_topo_embedding(pattern, g, r):
    """An embedding witnessing pattern in TM_r(g), or None (complete search)."""
    check_int("r", r, 0)
    check_cap("tm_host", g.n)
    h = pattern
    if h.n > g.n:
        return None
    hdeg = [h.degree(v) for v in range(h.n)]
    order = sorted(range(h.n), key=lambda v: (-hdeg[v], v))
    candidates = {
        v: [x for x in range(g.n) if g.degree(x) >= hdeg[v]] for v in order
    }
    if any(not candidates[v] for v in order):
        return None
    edges = h.sorted_edges()
    nbrs = [g.neighbors(x) for x in range(g.n)]
    pattern_nbrs = [h.neighbors(v) for v in range(h.n)]
    balls = distance_balls(g, r + 1)
    # a complete pattern is vertex-transitive: fix ascending branch images
    symmetric = all(d == h.n - 1 for d in hdeg)

    branch = {}
    interior_budget = g.n - h.n

    def place(idx, interior_demand):
        # interior_demand: sum over placed pattern edges of (host distance - 1),
        # a lower bound on the interior vertices the disjoint paths must use
        if idx == len(order):
            if r == 1:
                return _route_depth1(g, h, branch)
            return route(0, frozenset(branch.values()), {})
        v = order[idx]
        floor = max(branch.values(), default=-1) if symmetric else -1
        for x in candidates[v]:
            if x <= floor or x in branch.values():
                continue
            demand = interior_demand
            ok = True
            for w in pattern_nbrs[v]:
                if w in branch:
                    # d is the host distance to branch[w], if at most r + 1
                    y = 1 << branch[w]
                    for d in range(1, len(balls)):
                        if balls[d][x] & y:
                            break
                    else:
                        ok = False
                        break
                    demand += d - 1
            if not ok or demand > interior_budget:
                continue
            branch[v] = x
            result = place(idx + 1, demand)
            if result is not None:
                return result
            del branch[v]
        return None

    def route(eidx, used, paths):
        if eidx == len(edges):
            return dict(paths)
        u, v = edges[eidx]
        su, sv = branch[u], branch[v]
        blocked = (set(branch.values()) | set(used)) - {su, sv}
        for p in _paths_up_to(nbrs, su, sv, r + 1, blocked):
            inner = set(p[1:-1])
            if inner & used:
                continue
            paths[(u, v)] = p
            result = route(eidx + 1, used | inner, paths)
            if result is not None:
                return result
            del paths[(u, v)]
        return None

    found = place(0, 0)
    if found is None:
        return None
    return TopoMinorEmbedding(
        pattern=h,
        branch_map=tuple(branch[v] for v in range(h.n)),
        paths=found,
    )


def _route_depth1(g, h, branch):
    """Exact routing for depth 1: host-adjacent pairs take the direct edge
    (never worse: it consumes no interior vertex), every other pattern edge
    needs its own middle vertex, which is a bipartite matching problem."""
    branch_mask = sum(1 << b for b in branch.values())
    paths = {}
    need = []
    for u, v in h.sorted_edges():
        su, sv = branch[u], branch[v]
        if g.has_edge(su, sv):
            paths[(u, v)] = (su, sv)
        else:
            cands = list(bits(g.adj_bits[su] & g.adj_bits[sv] & ~branch_mask))
            if not cands:
                return None
            need.append(((u, v), cands))
    need.sort(key=lambda t: (len(t[1]), t[0]))
    middle_of = {}
    edge_owner = {}

    def augment(idx, visited):
        for w in need[idx][1]:
            if w in visited:
                continue
            visited.add(w)
            if w not in edge_owner or augment(edge_owner[w], visited):
                edge_owner[w] = idx
                middle_of[idx] = w
                return True
        return False

    for idx in range(len(need)):
        if not augment(idx, set()):
            return None
    for idx, (edge, _cands) in enumerate(need):
        u, v = edge
        paths[edge] = (branch[u], middle_of[idx], branch[v])
    return paths


def find_subdivided_clique(g, k, r):
    """Embedding of some (<= r)-subdivision of K_k in g, or None."""
    check_int("k", k, 0)
    check_cap("pattern", k)
    pattern = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    return find_topo_embedding(pattern, g, r)


def omega_TM(g, r):
    """Largest k with a (<= r)-subdivided K_k subgraph embedding in g. A climb
    past the pattern cap raises SizeCapError rather than stopping short."""
    check_int("r", r, 0)
    k = 1
    # K_k needs k branch vertices of degree >= k - 1
    while (
        sum(1 for v in range(g.n) if g.degree(v) >= k - 1) >= k
        and find_subdivided_clique(g, k, r) is not None
    ):
        k += 1
    return k - 1


def is_induced_exact_subdivision(h, r, g):
    """Embedding witnessing that the exact r-subdivision of h is an induced
    subgraph of g, or None (backtracking induced-subgraph isomorphism)."""
    check_cap("tm_host", g.n)
    sub = subdivide_exact(h, r)
    if sub.n > g.n:
        return None
    # map the subdivision into g; order pattern vertices to stay connected
    sdeg = [sub.degree(v) for v in range(sub.n)]
    snbrs = [sub.neighbors(v) for v in range(sub.n)]
    order = []
    placed = set()
    pending = sorted(range(sub.n), key=lambda v: (-sdeg[v], v))
    while pending:
        nxt = None
        for v in pending:
            if any(u in placed for u in snbrs[v]):
                nxt = v
                break
        if nxt is None:
            nxt = pending[0]
        order.append(nxt)
        placed.add(nxt)
        pending.remove(nxt)
    mapping = {}
    used = set()

    def extend(idx):
        if idx == sub.n:
            return True
        v = order[idx]
        for x in range(g.n):
            if x in used or g.degree(x) < sdeg[v]:
                continue
            ok = True
            for u in snbrs[v]:
                if u in mapping and not g.has_edge(mapping[u], x):
                    ok = False
                    break
            if ok:
                for u, y in mapping.items():
                    if not sub.has_edge(u, v) and g.has_edge(y, x):
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = x
            used.add(x)
            if extend(idx + 1):
                return True
            del mapping[v]
            used.remove(x)
        return False

    if not extend(0):
        return None
    branch = tuple(mapping[v] for v in range(h.n))
    chains = _subdivision_chains(h, r)
    paths = {
        e: tuple(mapping[x] for x in chain) for e, chain in chains.items()
    }
    return TopoMinorEmbedding(pattern=h, branch_map=branch, paths=paths)


def _subdivision_chains(h, r):
    inner = subdivision_internal_vertices(h, r)
    return {
        (u, v): (u,) + inner[(u, v)] + (v,) for u, v in h.sorted_edges()
    }


@dataclass(frozen=True)
class ITMEnumeration:
    patterns: tuple
    max_average_degree: Fraction
    max_clique: int
    max_chromatic: int


def enumerate_ITM_exact(g, r, max_pattern_size):
    """All patterns (up to isomorphism, up to the size cap) whose exact
    r-subdivision is induced in g, with the density statistics over them."""
    check_int("r", r, 0)
    check_int("max_pattern_size", max_pattern_size, 0)
    check_cap("itm_host", g.n)
    check_cap("pattern", max_pattern_size)
    found = []
    for size in range(1, max_pattern_size + 1):
        for h in all_graphs(size):
            if is_induced_exact_subdivision(h, r, g) is not None:
                found.append(h)
    max_ad = Fraction(0)
    max_om = 0
    max_chi = 0
    for h in found:
        if h.n:
            max_ad = max(max_ad, Fraction(2 * h.m, h.n))
        max_om = max(max_om, clique_number(h).value)
        max_chi = max(max_chi, chromatic_number_value(h))
    return ITMEnumeration(tuple(found), max_ad, max_om, max_chi)


_critical_cache = {}


def _critical_of_size(chi, size):
    if chi <= 2:
        return [complete(chi)] if size == chi else []
    if chi == 3:
        return [cycle(size)] if size % 2 else []
    out = []
    for h in connected_graphs(size):
        if min(h.degree(v) for v in range(h.n)) < chi - 1:
            continue
        if chromatic_number_value(h) != chi:
            continue
        edges = h.sorted_edges()
        if not any(
            _chromatic_at_least(Graph(h.n, [f for f in edges if f != e]), chi)
            for e in edges
        ):
            out.append(h)
    return out


def critical_patterns(chi, max_size):
    """Connected edge-critical graphs with chromatic number chi, up to max_size
    vertices, in ascending size. Any graph of chromatic number chi contains one
    as a subgraph, so these are the only patterns a chi-level TM query must try.

    Levels 1..3 have closed forms (a vertex, an edge, the odd cycles); level 4
    and up filters the corpus, which caps their size at 8 vertices. Each
    (chi, size) list is built once and shared by every max_size.
    """
    check_int("chi", chi, 1)
    check_int("max_size", max_size, 0)
    if chi >= 4:
        check_cap("critical_catalogue", max_size)
    out = []
    for size in range(chi, max_size + 1):
        key = (chi, size)
        if key not in _critical_cache:
            _critical_cache[key] = _critical_of_size(chi, size)
        out += _critical_cache[key]
    return out


@dataclass(frozen=True)
class ChiTMResult:
    value: int
    exact: bool  # False when the pattern-size cap may hide denser patterns
    cap: int


def chi_TM(g, r, max_pattern_size):
    """max chi(H) over patterns H in TM_r(g) with |H| <= max_pattern_size.

    Climbs chromatic levels: level c+1 is reachable iff some edge-critical
    (c+1)-chromatic pattern embeds, because TM membership is closed under
    pattern subgraphs. Exact when the size cap covers the host; otherwise an
    honest lower bound, flagged in the result.
    """
    check_int("r", r, 0)
    check_int("max_pattern_size", max_pattern_size, 0)
    cap = min(max_pattern_size, g.n)
    if g.n == 0:
        return ChiTMResult(0, True, cap)
    host_chi = chromatic_number_value(g)
    value = 1
    if cap >= g.n:
        value = max(value, host_chi)
    while True:
        nxt = value + 1
        # a pattern of chromatic number nxt needs nxt branch vertices of degree >= nxt-1
        if sum(1 for v in range(g.n) if g.degree(v) >= nxt - 1) < nxt:
            break
        # reaching chromatic level nxt needs at least nxt - host_chi subdivided
        # edges, each eating a distinct interior vertex, which bounds |H|
        size_bound = min(cap, g.n - max(0, nxt - host_chi))
        hit = False
        for h in critical_patterns(nxt, size_bound):
            if find_topo_embedding(h, g, r) is not None:
                hit = True
                break
        if not hit:
            break
        value = nxt
    return ChiTMResult(value, max_pattern_size >= g.n, cap)
