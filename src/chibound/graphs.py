"""Immutable graph and digraph types plus the structural operators built on them.

Vertices are dense 0-based integers. Adjacency is stored once, as bit rows:
bit v of `Graph.adj_bits[u]` is set when uv is an edge, and bit v of
`Digraph.out_bits[u]` (bit u of `Digraph.in_bits[v]`) when uv is an arc. Every
other view (edge and arc sets, sorted edge lists, neighbour tuples, degrees) is
derived from the rows on demand, always in ascending vertex order.

Subdivision vertices are appended after the original vertices in a fixed order
(edges sorted, then position along the path) so that certificates and
serializations are stable across runs.
"""

from __future__ import annotations

from .errors import ParameterError, ValidationError, check_cap, check_int, is_int


def _normalize_edge(u, v):
    return (u, v) if u < v else (v, u)


def bits(mask):
    """The set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Finite simple undirected graph. Immutable after construction."""

    __slots__ = ("n", "adj_bits")

    def __init__(self, n, edges=()):
        if not is_int(n) or n < 0:
            raise ValidationError(f"vertex count must be a non-negative int, got {n!r}")
        rows = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise ValidationError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e!r} has an endpoint outside 0..{n - 1}")
            if rows[u] >> v & 1:
                raise ValidationError(f"duplicate edge {_normalize_edge(u, v)!r}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj_bits", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since __setattr__
        # blocks the default restore of slot state
        return (Graph, (self.n, self.sorted_edges()))

    @property
    def edges(self):
        return frozenset(self.sorted_edges())

    @property
    def m(self):
        return sum(row.bit_count() for row in self.adj_bits) // 2

    def has_vertex(self, v):
        """Whether v is a vertex: an int (not a bool) in 0..n-1."""
        return is_int(v) and 0 <= v < self.n

    def has_edge(self, u, v):
        """Whether uv is an edge; False when u or v is not a vertex."""
        return self.has_vertex(u) and self.has_vertex(v) and self.adj_bits[u] >> v & 1 == 1

    def degree(self, v):
        return self.adj_bits[v].bit_count()

    def neighbors(self, v):
        return tuple(bits(self.adj_bits[v]))

    def sorted_edges(self):
        return [
            (u, v)
            for u, row in enumerate(self.adj_bits)
            for v in bits(row >> u + 1 << u + 1)
        ]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj_bits == other.adj_bits

    def __hash__(self):
        return hash(self.adj_bits)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Loopless directed graph; an oriented graph additionally has no 2-cycles."""

    __slots__ = ("n", "out_bits", "in_bits")

    def __init__(self, n, arcs=()):
        if not is_int(n) or n < 0:
            raise ValidationError(f"vertex count must be a non-negative int, got {n!r}")
        out_rows = [0] * n
        in_rows = [0] * n
        for a in arcs:
            u, v = a
            if u == v:
                raise ValidationError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"arc {a!r} has an endpoint outside 0..{n - 1}")
            if out_rows[u] >> v & 1:
                raise ValidationError(f"duplicate arc {(u, v)!r}")
            out_rows[u] |= 1 << v
            in_rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out_bits", tuple(out_rows))
        object.__setattr__(self, "in_bits", tuple(in_rows))

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    has_vertex = Graph.has_vertex

    def __reduce__(self):
        return (Digraph, (self.n, self.sorted_arcs()))

    @property
    def arcs(self):
        return frozenset(self.sorted_arcs())

    @property
    def m(self):
        return sum(row.bit_count() for row in self.out_bits)

    def has_arc(self, u, v):
        """Whether uv is an arc; False when u or v is not a vertex."""
        return self.has_vertex(u) and self.has_vertex(v) and self.out_bits[u] >> v & 1 == 1

    @property
    def is_oriented(self):
        return not any(o & i for o, i in zip(self.out_bits, self.in_bits))

    def sorted_arcs(self):
        return [(u, v) for u, row in enumerate(self.out_bits) for v in bits(row)]

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.out_bits == other.out_bits

    def __hash__(self):
        return hash(self.out_bits)

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


def graph_of_columns(n, columns):
    """The graph on n vertices whose column j, for j = 1..n-1, is the mask of
    the vertices i < j adjacent to j: graph6's bit order, and a canonical form
    (n, col_1, ..., col_{n-1}) is (n, *columns). Missing last columns are
    empty. The rows are built directly, since a column rule admits no loop or
    duplicate edge for the constructor to find."""
    if not is_int(n) or n < 0:
        raise ValidationError(f"vertex count must be a non-negative int, got {n!r}")
    rows = [0] * n
    for j, col in enumerate(columns, 1):
        if j >= n:
            raise ValidationError(f"{n} vertices take at most {max(n - 1, 0)} columns")
        if col >> j:
            raise ValidationError(f"column {j} has a vertex at or above {j}")
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj_bits", tuple(rows))
    return g


def induced_subgraph(g, vertices):
    """Induced subgraph on `vertices` plus the new->old index mapping."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    keep = sum(1 << v for v in verts)
    edges = [
        (i, index[v])
        for i, u in enumerate(verts)
        for v in bits(g.adj_bits[u] & keep)
        if v > u
    ]
    return Graph(len(verts), edges), verts


def shrink_to_minimal(mask, holds):
    """Greedy vertex deletion down to a minimal witness set.

    holds(m) is a property of vertex masks that mask has and that every
    superset of a mask with it keeps, as a lower bound on an invariant of
    the induced subgraph does. One sweep in ascending vertex order deletes
    each vertex whose removal keeps the property; by that monotonicity no
    survivor can be deleted afterwards. Returns the survivors as a sorted
    tuple.
    """
    for v in list(bits(mask)):
        if holds(mask & ~(1 << v)):
            mask &= ~(1 << v)
    return tuple(bits(mask))


def disjoint_union(graphs):
    """Disjoint union; vertex blocks follow the input order."""
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.sorted_edges())
        n += g.n
    return Graph(n, edges)


def subdivision_internal_vertices(g, p):
    """Map each edge of g to the internal-vertex chain it gets in subdivide_exact(g, p).

    The one numbering rule: edges in sorted order take consecutive ids from
    g.n, each chain listed from the smaller endpoint toward the larger one.
    """
    chains = {}
    next_id = g.n
    for u, v in g.sorted_edges():
        chains[(u, v)] = tuple(range(next_id, next_id + p))
        next_id += p
    return chains


def subdivide_exact(g, p):
    """The p-subdivision: every edge replaced by a path with p internal
    vertices. Original vertices keep their indices."""
    check_int("p", p, 0)
    chains = subdivision_internal_vertices(g, p)
    edges = []
    for (u, v), inner in chains.items():
        chain = (u, *inner, v)
        edges.extend(zip(chain, chain[1:]))
    return Graph(g.n + p * len(chains), edges)


def blow_up(g, k):
    """Lexicographic product g[K_k]: vertex v becomes a clique of k copies."""
    check_int("k", k, 1)
    edges = []
    for v in range(g.n):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((v * k + i, v * k + j))
    for u, v in g.sorted_edges():
        for i in range(k):
            for j in range(k):
                edges.append((u * k + i, v * k + j))
    return Graph(g.n * k, edges)


def power(g, d):
    """Graph power: join vertices at graph distance at most d."""
    check_int("d", d, 1)
    edges = []
    for s, ball in enumerate(distance_balls(g, d)[-1]):
        edges.extend((s, t) for t in bits(ball >> s + 1 << s + 1))
    return Graph(g.n, edges)


def orientations(g):
    """Yield all 2^m orientations of g; refuses above the orientation cap."""
    check_cap("orientation", g.m)
    edges = g.sorted_edges()
    for mask in range(1 << len(edges)):
        arcs = [
            (v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(edges)
        ]
        yield Digraph(g.n, arcs)


def acyclic_orientation(g, order):
    """Orient every edge from earlier to later in `order` (a vertex permutation)."""
    if sorted(order) != list(range(g.n)):
        raise ParameterError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    arcs = [
        (u, v) if pos[u] < pos[v] else (v, u) for u, v in g.sorted_edges()
    ]
    return Digraph(g.n, arcs)


def component_of(rows, mask, seed):
    """Vertex mask of the component of the subgraph induced on `mask` that
    holds the vertex whose bit is `seed`; rows[v] is the neighbour mask of v."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def component_masks(rows, mask):
    """Vertex masks of the components of the subgraph induced on `mask`,
    ordered by lowest vertex; rows[v] is the neighbour mask of vertex v."""
    comps = []
    while mask:
        comp = component_of(rows, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def walk_masks(rows, length):
    """Per step count i = 0..length, the mask of the vertices where a walk of
    exactly i steps from v can end, for every v; rows[v] is the mask of the
    vertices one step from v, so step 1 is rows itself."""
    layers = [[1 << v for v in range(len(rows))], rows][: length + 1]
    for _ in range(length - 1):
        last = layers[-1]
        grown = []
        for row in rows:
            reach = 0
            while row:
                low = row & -row
                reach |= last[low.bit_length() - 1]
                row ^= low
            grown.append(reach)
        layers.append(grown)
    return layers


def distance_balls(g, radius):
    """Per radius i, the mask of the vertices within distance i of v, for every
    v: walks on the closed rows. The radius is clamped at g.n, since a ball
    stops growing after n - 1 steps."""
    closed = [row | 1 << v for v, row in enumerate(g.adj_bits)]
    return walk_masks(closed, min(radius, g.n))


def is_connected(g):
    full = (1 << g.n) - 1
    return g.n <= 1 or component_of(g.adj_bits, full, 1) == full


def shortest_cycle(g):
    """A shortest cycle as a vertex list, or None for a forest. One BFS per
    edge uv, in sorted-edge order, looks for a u-v path that avoids uv and is
    shorter than the best cycle so far; the first strictly shortest cycle is
    kept."""
    best = None
    nbrs = [g.neighbors(x) for x in range(g.n)]
    for u, v in g.sorted_edges():
        parent = {u: u}
        frontier = [u]
        # a path found from this frontier closes a cycle of depth + 2 vertices
        depth = 0
        while frontier and v not in parent and (best is None or depth + 2 < len(best)):
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if y in parent or (x == u and y == v):
                        continue
                    parent[y] = x
                    if y == v:
                        break
                    nxt.append(y)
                if v in parent:
                    break
            frontier = nxt
            depth += 1
        if v in parent:
            best = [v]
            while best[-1] != u:
                best.append(parent[best[-1]])
    return best
