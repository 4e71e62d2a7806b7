"""Digraph homomorphisms, transitive tournaments, longest directed paths,
directed-walk powers and restricted-dual verification.

The homomorphism engine is a CSP backtracker, map_search: bitmask domains,
candidate images in ascending order and forward checking, so witnesses are
reproducible. homomorphism orders source vertices by descending total degree
and returns a map as its image tuple; minors' induced-subdivision test runs on
the same search. Undirected graphs enter through the symmetric-digraph
embedding (one arc each way per edge).
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import digraph_to_digraph6
from .errors import BudgetError, WalkLoopError, check_cap, check_int
from .graphs import Digraph, bits, walk_masks


def symmetric_digraph(g):
    """Each undirected edge as a pair of opposite arcs."""
    arcs = []
    for u, v in g.sorted_edges():
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(g.n, arcs)


def map_search(order, arcs, domains, budget):
    """The first vertex map found by backtracking, as one single-image domain
    mask per source vertex, or None after a complete search.

    Source vertices are assigned in `order`, each to the images of its
    domain mask in ascending order. arcs[v] lists (w, rows) pairs: mapping v
    to x narrows w's domain to rows[x]. Forward checking keeps every domain
    consistent with the images already chosen, so narrowing an assigned
    vertex's single image never empties it and no pair needs a second check.
    `budget` caps the search nodes (None: no cap); exhausting it raises
    BudgetError rather than ever returning a wrong answer.
    """
    nodes = 0

    def assign(idx, domains):
        nonlocal nodes
        if idx == len(order):
            return domains
        v = order[idx]
        dom = domains[v]
        while dom:
            x = (dom & -dom).bit_length() - 1
            dom &= dom - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetError(f"homomorphism search exceeded {budget} nodes")
            new_domains = list(domains)
            new_domains[v] = 1 << x
            for w, rows in arcs[v]:
                new_domains[w] &= rows[x]
                if not new_domains[w]:
                    break
            else:
                found = assign(idx + 1, new_domains)
                if found is not None:
                    return found
        return None

    return assign(0, domains)


def homomorphism(f, g, cap=None, budget=None):
    """A homomorphism f -> g as its image tuple (entry v the image of source
    vertex v), or None after a complete search (map_search, source vertices
    by descending total degree).

    `budget` caps the number of search nodes; exhausting it raises BudgetError
    rather than ever returning a wrong answer.
    """
    check_cap("homomorphism", max(f.n, g.n), cap)
    if budget is not None:
        check_int("budget", budget, 0)
    # per source vertex, one (neighbour, the target rows its image must lie
    # in) for each arc at it
    arcs = [[] for _ in range(f.n)]
    for v, w in f.sorted_arcs():
        arcs[v].append((w, g.out_bits))
        arcs[w].append((v, g.in_bits))
    order = sorted(range(f.n), key=lambda v: (-len(arcs[v]), v))
    found = map_search(order, arcs, [(1 << g.n) - 1] * f.n, budget)
    if found is None:
        return None
    return tuple(d.bit_length() - 1 for d in found)


def hom_exists(f, g):
    return homomorphism(f, g) is not None


def transitive_tournament(k):
    """T_k: vertices 0..k-1 with an arc (i, j) whenever i < j."""
    check_int("k", k, 1)
    return Digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def directed_path(k):
    """Directed path on k vertices (k-1 arcs)."""
    check_int("k", k, 1)
    return Digraph(k, [(i, i + 1) for i in range(k - 1)])


def directed_cycle(k):
    check_int("k", k, 2)
    return Digraph(k, [(i, (i + 1) % k) for i in range(k)])


def longest_directed_path_order(d):
    """Vertex count of the longest directed path, or None if d has a directed cycle."""
    color = [0] * d.n
    topo = []

    def visit(v):
        color[v] = 1
        for w in bits(d.out_bits[v]):
            if color[w] == 1:
                return False
            if color[w] == 0 and not visit(w):
                return False
        color[v] = 2
        topo.append(v)
        return True

    for v in range(d.n):
        if color[v] == 0 and not visit(v):
            return None
    best = [1] * d.n
    for v in topo:  # reverse topological order: children first
        for w in bits(d.out_bits[v]):
            best[v] = max(best[v], best[w] + 1)
    return max(best, default=0)


def walk_power(d, length):
    """Digraph joining u -> v when a directed walk of exactly `length` arcs runs
    from u to v. A closed walk of that length raises WalkLoopError carrying the
    offending vertex and one such walk."""
    check_int("length", length, 1)
    reach = walk_masks(d.out_bits, length)[length]
    for v in range(d.n):
        if reach[v] >> v & 1:
            raise WalkLoopError(v, _reconstruct_walk(d, v, v, length))
    arcs = [(u, v) for u in range(d.n) for v in bits(reach[u])]
    return Digraph(d.n, arcs)


def _reconstruct_walk(d, source, target, length):
    # into[s][target] = the vertices with a walk of s arcs into target
    into = walk_masks(d.in_bits, length)
    walk = [source]
    current = source
    for s in range(length, 0, -1):
        options = d.out_bits[current] & into[s - 1][target]
        nxt = (options & -options).bit_length() - 1
        walk.append(nxt)
        current = nxt
    return walk


@dataclass(frozen=True)
class DualityReport:
    """Outcome of checking F -/-> G <=> G -> D over a sample set."""

    premise_ok: bool  # F -/-> D
    samples: tuple = ()
    verdict: bool = False
    violation: dict | None = None

    def to_jsonable(self):
        return {
            "premise_ok": self.premise_ok,
            "verdict": self.verdict,
            "violation": self.violation,
            "samples": [dict(s) for s in self.samples],
        }


def verify_restricted_dual(f, d, samples):
    """Check that d is a restricted dual of f over the given sample digraphs.

    The premise f -/-> d is checked first; then each sample must satisfy
    exactly one side of the equivalence. The first violation short-circuits.
    """
    if hom_exists(f, d):
        return DualityReport(premise_ok=False, verdict=False,
                             violation={"reason": "F maps to D"})
    records = []
    for idx, sample in enumerate(samples):
        f_to_g = hom_exists(f, sample)
        g_to_d = hom_exists(sample, d)
        ok = (not f_to_g) == g_to_d
        record = {
            "index": idx,
            "sample": digraph_to_digraph6(sample),
            "f_to_g": f_to_g,
            "g_to_d": g_to_d,
            "ok": ok,
        }
        records.append(record)
        if not ok:
            return DualityReport(
                premise_ok=True,
                samples=tuple(records),
                verdict=False,
                violation=record,
            )
    return DualityReport(premise_ok=True, samples=tuple(records), verdict=True)
