"""Independent brute-force oracles for the test suite.

Deliberately simple and separate from the package's solvers: plain
lexicographic backtracking, direct subset enumeration, and matrix powers, so a
certificate never gets checked by the machinery that produced it.
"""

from itertools import combinations, permutations, product

from chibound.corpus import canonical_form
from chibound.graphs import graph_of_columns


def naive_chromatic(g):
    """Smallest k admitting a proper coloring; lexicographic backtracking."""
    if g.n == 0:
        return 0

    def colorable(k):
        colors = [-1] * g.n

        def assign(v):
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in g.neighbors(v)):
                    colors[v] = c
                    if assign(v + 1):
                        return True
                    colors[v] = -1
            return False

        return assign(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def naive_is_star_coloring(g, colors):
    """Proper plus every 4-permutation forming a path sees >= 3 colors."""
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return False
    for quad in permutations(range(g.n), 4):
        a, b, c, d = quad
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d):
            if len({colors[a], colors[b], colors[c], colors[d]}) < 3:
                return False
    return True


def naive_star_chromatic(g):
    if g.n == 0:
        return 0

    def exists(k):
        colors = [-1] * g.n

        def assign(v):
            if v == g.n:
                return naive_is_star_coloring(g, colors)
            for c in range(k):
                colors[v] = c
                # only full assignments are checked: keep the oracle dumb
                if assign(v + 1):
                    return True
            colors[v] = -1
            return False

        return assign(0)

    k = 1
    while not exists(k):
        k += 1
    return k


def naive_treedepth(g, vertices=None, memo=None):
    """Direct recursion over vertex sets, memoized by set."""
    if vertices is None:
        vertices = frozenset(range(g.n))
    if memo is None:
        memo = {}
    if not vertices:
        return 0
    if vertices not in memo:
        comps = _components_of(g, vertices)
        if len(comps) > 1:
            value = max(naive_treedepth(g, comp, memo) for comp in comps)
        elif len(vertices) == 1:
            value = 1
        else:
            value = 1 + min(naive_treedepth(g, vertices - {v}, memo) for v in vertices)
        memo[vertices] = value
    return memo[vertices]


def naive_chi_p(g, p):
    """Least number of classes of a vertex partition in which every union of
    i <= p classes has tree-depth at most i; tries every set partition."""
    memo = {}
    best = g.n  # all singletons: a union of i classes has i vertices
    for labels in _set_partitions(g.n):
        k = max(labels, default=-1) + 1
        if k >= best:
            continue
        classes = [frozenset(v for v in range(g.n) if labels[v] == c) for c in range(k)]
        if all(
            naive_treedepth(g, frozenset().union(*subset), memo) <= size
            for size in range(1, min(p, k) + 1)
            for subset in combinations(classes, size)
        ):
            best = k
    return best


def _set_partitions(n):
    """Every set partition of range(n) as a restricted growth string: labels
    with labels[0] == 0 and each label at most one above all before it."""

    def grow(labels, top):
        if len(labels) == n:
            yield tuple(labels)
            return
        for c in range(top + 2):
            yield from grow(labels + [c], max(top, c))

    yield from grow([], -1)


def _components_of(g, vertices):
    remaining = set(vertices)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in remaining and y not in comp:
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
        remaining -= comp
    return comps


def naive_max_clique(g):
    for size in range(g.n, 0, -1):
        for group in combinations(range(g.n), size):
            if all(g.has_edge(a, b) for a, b in combinations(group, 2)):
                return size
    return 0


def naive_max_biclique(g):
    best = 0
    for r in range(1, g.n // 2 + 1):
        hit = False
        for a_side in combinations(range(g.n), r):
            rest = [v for v in range(g.n) if v not in a_side]
            for b_side in combinations(rest, r):
                if all(g.has_edge(a, b) for a in a_side for b in b_side):
                    hit = True
                    break
            if hit:
                break
        if hit:
            best = r
        else:
            break
    return best


def naive_hom_exists(f, g):
    """Whether some map from f's vertices to g's sends every arc to an arc;
    tries every map."""
    arcs = f.sorted_arcs()
    return any(
        all(g.has_arc(m[u], m[v]) for u, v in arcs)
        for m in product(range(g.n), repeat=f.n)
    )


def naive_holes(g):
    """All chordless cycles of length >= 4 as canonical vertex tuples."""
    found = set()
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub_edges = {
                (a, b)
                for a, b in combinations(subset, 2)
                if g.has_edge(a, b)
            }
            if len(sub_edges) != size:
                continue
            degs = {v: 0 for v in subset}
            for a, b in sub_edges:
                degs[a] += 1
                degs[b] += 1
            if any(d != 2 for d in degs.values()):
                continue
            # connected 2-regular on `size` vertices with `size` edges: a cycle
            order = [subset[0]]
            prev = None
            while len(order) < size:
                last = order[-1]
                nxts = [
                    w
                    for w in subset
                    if w != prev and ((min(last, w), max(last, w)) in sub_edges)
                ]
                if not nxts:
                    break
                prev = last
                order.append(nxts[0])
            if len(order) == size:
                found.add(canonical_cycle(order))
    return found


def canonical_cycle(seq):
    """Least rotation over both directions, anchored at the smallest vertex."""
    best = None
    n = len(seq)
    for orient in (tuple(seq), tuple(reversed(seq))):
        for shift in range(n):
            rot = orient[shift:] + orient[:shift]
            if best is None or rot < best:
                best = rot
    return best


def naive_topo_embedding(h, g, r):
    """Some (branch map, paths) realizing h in TM_r(g), or None: every
    injective branch map, and for it every choice of a simple path per pattern
    edge in turn, each with at most r interior vertices that avoid the branch
    vertices and the interiors already chosen."""
    edges = sorted(h.edges)
    paths_between = {}

    def simple_paths(a, b):
        if (a, b) not in paths_between:
            found = []

            def walk(path):
                for y in g.neighbors(path[-1]):
                    if y == b:
                        found.append(tuple(path) + (b,))
                    elif y not in path and len(path) <= r:
                        walk(path + [y])

            walk([a])
            paths_between[(a, b)] = found
        return paths_between[(a, b)]

    for branch in permutations(range(g.n), h.n):
        paths = {}

        def route(i, used):
            if i == len(edges):
                return True
            u, v = edges[i]
            for p in simple_paths(branch[u], branch[v]):
                inner = set(p[1:-1])
                if inner & used or inner & set(branch):
                    continue
                paths[(u, v)] = p
                if route(i + 1, used | inner):
                    return True
            return False

        if route(0, set()):
            return branch, paths
    return None


def naive_graph6(g):
    """graph6 by McKay's description: N(n), then the bits x(i, j) of the upper
    triangle for j = 1..n-1 and i = 0..j-1 in that order."""
    return _naive_n(g.n) + _naive_pack_bits(
        [int(g.has_edge(i, j)) for j in range(1, g.n) for i in range(j)]
    )


def naive_digraph6(d):
    """digraph6 by McKay's description: '&', N(n), then the bits x(u, v) of the
    adjacency matrix row by row."""
    return "&" + _naive_n(d.n) + _naive_pack_bits(
        [int(d.has_arc(u, v)) for u in range(d.n) for v in range(d.n)]
    )


def _naive_n(n):
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


def _naive_pack_bits(bits):
    """Six bits to a byte, the first most significant, zero-padded, plus 63."""
    bits = bits + [0] * (-len(bits) % 6)
    out = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


# Test helpers over the package's canonical form, which naive_canonical_form
# below checks independently.


def canonical_graph(g):
    """A canonically labeled copy of g (same form for all isomorphic inputs)."""
    return graph_of_columns(g.n, canonical_form(g)[1:])


def are_isomorphic(g1, g2):
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def naive_canonical_form(g):
    """(n, col_1, ..., col_{n-1}) least over every vertex order, where col_j
    has bit i set when the vertices at positions i < j and j are adjacent."""
    best = min(
        tuple(
            sum(1 << i for i in range(j) if g.has_edge(order[i], order[j]))
            for j in range(1, g.n)
        )
        for order in permutations(range(g.n))
    )
    return (g.n, *best)


def walk_count_matrix(d, length):
    """Number of directed walks of the given length, via numpy matrix power."""
    import numpy as np

    m = np.zeros((d.n, d.n), dtype=object)
    for u, v in d.arcs:
        m[u][v] = 1
    return np.linalg.matrix_power(m, length)
