"""Digraph homomorphisms, transitive tournaments, directed-walk powers,
restricted-dual verification, and the degeneracy-dispatch coloring pipeline.

The homomorphism engine is a CSP backtracker: source vertices in descending
total-degree order, forward checking of candidate lists, deterministic
tie-breaking, so witnesses are reproducible. Undirected coloring questions go
through the symmetric-digraph embedding (one arc each way per edge).
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import digraph_to_digraph6
from .errors import BudgetError, ParameterError, WalkLoopError, check_cap, check_int
from .graphs import Digraph, bits, induced_subgraph, shrink_to_minimal, walk_masks
from .invariants import clique_number, degeneracy


@dataclass(frozen=True)
class HomMapping:
    """Arc-preserving vertex mapping from a source to a target digraph."""

    mapping: tuple

    def to_jsonable(self):
        return list(self.mapping)


def symmetric_digraph(g):
    """Each undirected edge as a pair of opposite arcs."""
    arcs = []
    for u, v in g.sorted_edges():
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(g.n, arcs)


def _as_digraph(obj):
    return obj if isinstance(obj, Digraph) else symmetric_digraph(obj)


def validate_homomorphism(f, g, hom):
    m = hom.mapping
    if len(m) != f.n or not all(g.has_vertex(x) for x in m):
        return False, "mapping is not a function into the target"
    for u, v in f.sorted_arcs():
        if not g.has_arc(m[u], m[v]):
            return False, f"arc ({u}, {v}) maps to non-arc ({m[u]}, {m[v]})"
    return True, None


def homomorphism(f, g, cap=None, budget=None):
    """A homomorphism f -> g, or None after a complete search.

    `budget` caps the number of search nodes; exhausting it raises BudgetError
    rather than ever returning a wrong answer.
    """
    check_cap("homomorphism", max(f.n, g.n), cap)
    if f.n == 0:
        return HomMapping(())
    if g.n == 0:
        return None
    order = sorted(
        range(f.n),
        key=lambda v: (-(f.out_bits[v].bit_count() + f.in_bits[v].bit_count()), v),
    )
    outs = [tuple(bits(row)) for row in f.out_bits]
    ins = [tuple(bits(row)) for row in f.in_bits]
    full = (1 << g.n) - 1
    domains = [full] * f.n
    assignment = [-1] * f.n
    nodes = 0

    def assign(idx, domains):
        nonlocal nodes
        if idx == f.n:
            return True
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
            ok = True
            for w in outs[v]:
                if assignment[w] < 0:
                    new_domains[w] &= g.out_bits[x]
                    if not new_domains[w]:
                        ok = False
                        break
                elif not g.has_arc(x, assignment[w]):
                    ok = False
                    break
            if ok:
                for w in ins[v]:
                    if assignment[w] < 0:
                        new_domains[w] &= g.in_bits[x]
                        if not new_domains[w]:
                            ok = False
                            break
                    elif not g.has_arc(assignment[w], x):
                        ok = False
                        break
            if ok:
                assignment[v] = x
                if assign(idx + 1, new_domains):
                    return True
                assignment[v] = -1
        return False

    if assign(0, domains):
        return HomMapping(tuple(assignment))
    return None


def hom_exists(f, g, budget=None):
    return homomorphism(f, g, budget=budget) is not None


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


def search_restricted_dual(f, samples, max_size=3):
    """Exhaustive search for a restricted dual of f over the sample class.

    Tries every loopless digraph on 1..max_size vertices in a fixed order and
    returns the first one verify_restricted_dual accepts, or None. Exponential
    in max_size**2 (2^(n(n-1)) candidates per order); intended for max_size <= 4.
    The primary contract of this module is verification of supplied candidates,
    not synthesis.
    """
    check_int("max_size", max_size, 0)
    check_cap("dual_synthesis", max_size)
    for n in range(1, max_size + 1):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(slots)):
            d = Digraph(n, [a for i, a in enumerate(slots) if mask >> i & 1])
            report = verify_restricted_dual(f, d, samples)
            if report.verdict:
                return d
    return None


@dataclass(frozen=True)
class HColoringOutcome:
    """Either a homomorphism into the template or a small non-colorable witness."""

    kind: str  # "mapping" | "witness"
    mapping: HomMapping | None = None
    witness: tuple = ()

    def to_jsonable(self):
        return {
            "kind": self.kind,
            "mapping": None if self.mapping is None else self.mapping.to_jsonable(),
            "witness": list(self.witness),
        }


def _core_above(g, order, threshold):
    """Sorted vertices of the (threshold + 1)-core, given a min-degree
    elimination order: the suffix from the first vertex with more than
    threshold later neighbours. Each earlier vertex had degree <= threshold
    when it was peeled, and what is left from there has minimum degree above
    threshold."""
    later = (1 << g.n) - 1
    for i, v in enumerate(order):
        later &= ~(1 << v)
        if (g.adj_bits[v] & later).bit_count() > threshold:
            return sorted(order[i:])
    return []


def h_coloring_with_witness(
    g, h, clique_threshold, degeneracy_threshold, hom_budget=None
):
    """Degeneracy-dispatch template coloring.

    Dense inputs (degeneracy above the threshold) are peeled to their core and
    give up a clique witness X with G[X] not mapping to the template; sparse
    inputs run the bounded homomorphism search. Both outcomes re-validate
    before being returned, so a threshold configuration that cannot justify
    its witness raises ParameterError instead of returning a wrong answer.
    """
    template = _as_digraph(h)
    value, order = degeneracy(g)
    if value > degeneracy_threshold:
        core = _core_above(g, order, degeneracy_threshold)
        sub, verts = induced_subgraph(g, core)
        cq = clique_number(sub)
        if cq.value < clique_threshold:
            raise ParameterError(
                f"dense core has clique number {cq.value} < threshold "
                f"{clique_threshold}; thresholds do not fit this template"
            )
        witness = tuple(sorted(verts[v] for v in cq.certificate[:clique_threshold]))
        wsub, _ = induced_subgraph(g, witness)
        if hom_exists(symmetric_digraph(wsub), template, budget=hom_budget):
            raise ParameterError(
                "clique witness maps into the template; thresholds unsound"
            )
        return HColoringOutcome(kind="witness", witness=witness)
    mapping = homomorphism(symmetric_digraph(g), template, budget=hom_budget)
    if mapping is not None:
        ok, reason = validate_homomorphism(symmetric_digraph(g), template, mapping)
        if not ok:
            raise AssertionError(f"solver returned an invalid mapping: {reason}")
        return HColoringOutcome(kind="mapping", mapping=mapping)
    # no mapping at all: shrink to a minimal non-colorable vertex set
    witness = shrink_to_minimal(
        g,
        lambda sub: not hom_exists(symmetric_digraph(sub), template, budget=hom_budget),
    )
    return HColoringOutcome(kind="witness", witness=witness)
