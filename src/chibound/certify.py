"""Certificate checkers: every validator re-checks a solver's certificate by
its definition and imports no engine, only errors and graphs, so it shares no
search code with the solver it checks.

Each validator returns (True, None) or (False, reason); validate_coloring's
reason is a witness naming the violating edge or color subset. Certificates
are plain values, as a solver builds them or as JSON gives them back: a vertex
sequence (a clique, a hole, a homomorphism's images, a degeneracy order) is a
tuple or a list, and any other shape is refused with a reason. A Coloring
states its depth once: with p None only its edges are checked, else every
union of 2..p classes, by one definitional rule, `_td_at_most`, which shares
no code with the tree-depth engine or the search it checks. validate_chi_lower_bound checks the lower-bound witness of
chromatic_number: a clique of the claimed size, or a vertex set whose induced
subgraph has no (value - 1)-coloring, decided with no search at all by
inclusion-exclusion over independent sets (Bjorklund, Husfeldt and Koivisto,
"Set partitioning via inclusion-exclusion", SIAM J. Comput. 2009).
"""

from __future__ import annotations

from itertools import combinations

from .errors import ValidationError, check_cap, is_int
from .graphs import Graph, bits, component_masks, induced_subgraph


# the shapes of a vertex sequence: a solver's tuple, or the list JSON gives back
_SEQUENCE = (tuple, list)


def _non_vertex(g, verts):
    """The reason when verts is not a vertex sequence or names a value that is
    not a vertex of g (the first such), or None."""
    if not isinstance(verts, _SEQUENCE):
        return f"{verts!r} is not a vertex sequence"
    for v in verts:
        if not g.has_vertex(v):
            return f"{v!r} is not a vertex"
    return None


def _check_structure(g, coloring):
    if len(coloring.assignment) != g.n:
        raise ValidationError("assignment must cover every vertex")
    if not all(map(is_int, coloring.assignment)):
        raise ValidationError("colors must be ints")
    if coloring.p is not None and not (is_int(coloring.p) and coloring.p >= 1):
        raise ValidationError(f"p must be an int >= 1, got {coloring.p!r}")
    if not is_int(coloring.num_colors):
        raise ValidationError(f"num_colors must be an int, got {coloring.num_colors!r}")
    if set(coloring.assignment) != set(range(coloring.num_colors)):
        raise ValidationError("colors must be 0..num_colors-1 with every color used")


def _first_monochromatic_edge(g, colors):
    for u, v in g.sorted_edges():
        if colors[u] == colors[v]:
            return (u, v)
    return None


def validate_coloring(g, coloring):
    """Check a coloring against its depth p: its edges when p is None, else
    every union of at most p classes.

    Returns (True, None) or (False, witness); the witness names the violating
    edge or color subset.
    """
    _check_structure(g, coloring)
    colors = coloring.assignment
    edge = _first_monochromatic_edge(g, colors)
    if edge is not None:
        return False, ("monochromatic_edge", edge)
    p = coloring.p
    if p is None:
        return True, None
    masks = [0] * coloring.num_colors
    for v, c in enumerate(colors):
        masks[c] |= 1 << v
    for size in range(2, min(p, coloring.num_colors) + 1):
        for subset in combinations(range(coloring.num_colors), size):
            mask = 0
            for c in subset:
                mask |= masks[c]
            if not _td_at_most(g.adj_bits, mask, size):
                return False, ("subset_treedepth", subset)
    return True, None


def _td_at_most(rows, mask, k):
    """Whether G[mask] has tree-depth at most k >= 2, by the definition, with
    no memo. At k = 2: a star forest, so no two adjacent vertices each have
    two or more neighbours in mask. Above: every component has at most k
    vertices or a vertex whose removal leaves tree-depth k - 1."""
    if k == 2:
        hubs = 0
        for v in bits(mask):
            row = rows[v] & mask
            if row & (row - 1):
                if row & hubs:
                    return False
                hubs |= 1 << v
        return True
    return all(
        comp.bit_count() <= k
        or any(_td_at_most(rows, comp ^ 1 << v, k - 1) for v in bits(comp))
        for comp in component_masks(rows, mask)
    )


def validate_chi_lower_bound(g, witness, value):
    """Check chromatic_number's lower-bound witness for chi(g) >= value:
    ("clique", verts) of exactly value vertices, or ("critical_subgraph",
    verts) whose induced subgraph has no (value - 1)-coloring."""
    pair = isinstance(witness, _SEQUENCE) and len(witness) == 2
    if not (pair and isinstance(witness[1], _SEQUENCE)):
        return False, f"witness {witness!r} is not a (kind, vertices) pair"
    kind, verts = witness
    if not is_int(value):
        return False, f"claimed value {value!r} is not an int"
    if kind == "clique":
        ok, reason = validate_clique(g, verts)
        if ok and len(verts) != value:
            return False, f"clique has {len(verts)} vertices, not {value}"
        return ok, reason
    if kind != "critical_subgraph":
        return False, f"unknown witness kind {kind!r}"
    check_cap("chi_witness", len(verts))
    if reason := _non_vertex(g, verts):
        return False, reason
    if len(set(verts)) != len(verts):
        return False, "repeated vertex"
    if _colorable(induced_subgraph(g, verts)[0].adj_bits, value - 1):
        return False, f"the subgraph on {tuple(verts)} is {value - 1}-colorable"
    return True, None


def _colorable(rows, k):
    """Whether the graph of bit rows `rows` has a proper k-coloring, by
    inclusion-exclusion: with i(S) the number of independent sets of G[S],
    the k-tuples of independent sets that cover V number
    sum over S of (-1)^|V - S| i(S)^k. i(S) follows the lowest vertex v of S:
    the sets without v, and those with v and none of its neighbours."""
    if k < 0:
        return False
    n = len(rows)
    count = [1] * (1 << n)
    total = 0
    for s in range(1 << n):
        if s:
            low = s & -s
            rest = s ^ low
            count[s] = count[rest] + count[rest & ~rows[low.bit_length() - 1]]
        total += (-1) ** (n - s.bit_count()) * count[s] ** k
    return total > 0


def validate_elimination_forest(g, forest, claimed_height=None):
    """Structural check: parents are vertices or -1, acyclic parents, edges
    ancestor-descendant, height match."""
    if claimed_height is not None and not is_int(claimed_height):
        return False, f"claimed height {claimed_height!r} is not an int"
    parent = getattr(forest, "parent", None)
    if not isinstance(parent, _SEQUENCE):
        return False, f"{forest!r} is not an elimination forest"
    if len(parent) != g.n:
        return False, "parent array size mismatch"
    for v, p in enumerate(parent):
        if not (g.has_vertex(p) or is_int(p) and p == -1):
            return False, f"parent {p!r} of vertex {v} is not a vertex"
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


def validate_clique(g, verts):
    if reason := _non_vertex(g, verts):
        return False, reason
    if len(set(verts)) != len(verts):
        return False, "repeated vertex"
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if not g.has_edge(u, v):
                return False, f"missing edge ({u}, {v})"
    return True, None


def validate_biclique(g, pair):
    if not (isinstance(pair, _SEQUENCE) and len(pair) == 2):
        return False, f"{pair!r} is not a pair of sides"
    a, b = pair
    if reason := _non_vertex(g, a) or _non_vertex(g, b):
        return False, reason
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


def validate_degeneracy_order(g, value, order):
    if not is_int(value):
        return False, f"claimed value {value!r} is not an int"
    if _non_vertex(g, order) or sorted(order) != list(range(g.n)):
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


def validate_topo_embedding(g, emb, r, exact=False, induced=False):
    """Re-check an embedding: injectivity, endpoints, lengths, disjointness,
    and (for the induced variant) the absence of extra edges."""
    if not is_int(r):
        return False, f"depth {r!r} is not an int"
    h = getattr(emb, "pattern", None)
    branch = getattr(emb, "branch_map", None)
    paths = getattr(emb, "paths", None)
    if not (isinstance(h, Graph) and isinstance(branch, _SEQUENCE) and isinstance(paths, dict)):
        return False, f"{emb!r} is not a topological-minor embedding"
    if not all(g.has_vertex(b) for b in branch):
        return False, "branch vertex outside host"
    if len(branch) != h.n or len(set(branch)) != h.n:
        return False, "branch map is not injective"
    if set(paths) != h.edges:
        return False, "paths do not cover the pattern edge set"
    interiors = []
    for (u, v), p in sorted(paths.items()):
        if not isinstance(p, _SEQUENCE):
            return False, f"path for ({u}, {v}) is not a vertex sequence"
        if not all(g.has_vertex(x) for x in p):
            return False, f"path for ({u}, {v}) leaves the host"
        if not p or p[0] != branch[u] or p[-1] != branch[v]:
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
        for p in paths.values():
            for a, b in zip(p, p[1:]):
                path_edges.add((min(a, b), max(a, b)))
        host_edges = {(verts[a], verts[b]) for a, b in sub.sorted_edges()}
        if host_edges != path_edges:
            return False, "embedded subdivision is not induced (extra host edges)"
    return True, None


def validate_hole(g, vs):
    """Check a hole given as its vertex sequence in cycle order."""
    if reason := _non_vertex(g, vs):
        return False, reason
    if len(vs) < 4 or len(set(vs)) != len(vs):
        return False, "not a simple cycle of length >= 4"
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(vs[i], vs[j])
            consecutive = (j - i == 1) or (i == 0 and j == k - 1)
            if consecutive and not adjacent:
                return False, f"missing cycle edge ({vs[i]}, {vs[j]})"
            if not consecutive and adjacent:
                return False, f"chord ({vs[i]}, {vs[j]})"
    return True, None


def validate_homomorphism(f, g, m):
    """Check a homomorphism f -> g given as its image sequence, m[v] the image
    of v."""
    if _non_vertex(g, m) or len(m) != f.n:
        return False, "mapping is not a function into the target"
    for u, v in f.sorted_arcs():
        if not g.has_arc(m[u], m[v]):
            return False, f"arc ({u}, {v}) maps to non-arc ({m[u]}, {m[v]})"
    return True, None
