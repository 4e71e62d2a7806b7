"""Claim-verification suites: each registered claim checks one desk-scale
inequality or equality against exact solvers, over exhaustive small-graph
corpora and seeded generator instances.

Reports are deterministic for a fixed (seed, config): instances are ordered,
JSON keys sorted, and the elapsed_ms field is the only part excluded from the
byte-identical contract.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from . import corpus
from .certify import (
    validate_biclique,
    validate_chi_lower_bound,
    validate_clique,
    validate_coloring,
    validate_degeneracy_order,
    validate_elimination_forest,
)
from .codec import graph_from_graph6, graph_to_graph6
from .coloring import (
    chi_p,
    chromatic_number,
    chromatic_number_value,
    product_chi_p_coloring,
    subdivision_chi_p_coloring,
    tree_depth,
    tree_depth_at_most,
    uniform_subdivision_coloring,
)
from .errors import ParameterError, SizeCapError, check_int
from .generators import SplitMix64, complete, random_gnp, generate
from .graphs import induced_subgraph, orientations, subdivide_exact
from .holes import verify_hole_density
from .homomorphism import (
    directed_path,
    longest_directed_path_order,
    transitive_tournament,
    verify_restricted_dual,
)
from .invariants import (
    biclique_number,
    clique_number,
    degeneracy,
    max_degree,
)
from .minors import chi_TM, omega_TM


@dataclass(frozen=True)
class SuiteSpec:
    """One suite invocation: claim id, seed, parameter overrides, parallelism."""

    claim: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    jobs: int = 1


@dataclass
class VerificationReport:
    claim: str
    title: str
    anchor: str
    config: dict
    seed: int
    instances: list
    passed: bool
    elapsed_ms: int

    def summary(self):
        failed = [i for i, rec in enumerate(self.instances) if not rec["pass"]]
        return {
            "total": len(self.instances),
            "passed": len(self.instances) - len(failed),
            "failed": len(failed),
            "first_failures": failed[:10],
        }

    def to_jsonable(self):
        return {
            "claim": self.claim,
            "title": self.title,
            "anchor": self.anchor,
            "config": self.config,
            "seed": self.seed,
            "instances": self.instances,
            "summary": self.summary(),
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self):
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=1)


def _record(graph6, params, measured, expected, ok, witness=None):
    rec = {
        "graph6": graph6,
        "params": params,
        "measured": measured,
        "expected": expected,
        "pass": bool(ok),
    }
    if witness is not None and not ok:
        rec["witness"] = witness
    return rec


def _params(spec, **defaults):
    """The suite's parameters, spec.params over its defaults; a name the suite
    does not take raises ParameterError."""
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ParameterError(
            f"{spec.claim} takes no parameter {unknown[0]!r}; known: {sorted(defaults)}"
        )
    return {**defaults, **spec.params}


def _sequence(name, value, length=None):
    """value when it is a list or tuple, of `length` items when given; else
    ParameterError naming the parameter."""
    if isinstance(value, (list, tuple)) and length in (None, len(value)):
        return value
    shape = "a list" if length is None else f"a list of {length} items"
    raise ParameterError(f"{name} must be {shape}, got {value!r}")


# ---------------------------------------------------------------------------
# S1: exact values on subdivided cliques


def _check_s1(payload):
    n, p = payload["n"], payload["p"]
    g = complete(n)
    gs = subdivide_exact(g, p)
    coloring = uniform_subdivision_coloring(g, p)
    upper_ok, upper_witness = validate_coloring(gs, coloring)
    upper_colors = coloring.num_colors
    refuted_p = not tree_depth_at_most(gs, p)
    w_at_p = omega_TM(gs, p)
    w_below = omega_TM(gs, p - 1)
    measured = {
        "constructive_colors": upper_colors,
        "constructive_valid": upper_ok,
        "p_colors_refuted": refuted_p,
        "omega_tm_at_p": w_at_p,
        "omega_tm_below_p": w_below,
    }
    # chi_p checks its cap row before any search; past it, S1 skips the solver
    with suppress(SizeCapError):
        measured["solver_chi_p"] = chi_p(gs, p).value
    expected = {
        "chi_p": p + 1,
        "omega_tm_at_p": n,
        "omega_tm_below_p": 2,
    }
    ok = (
        upper_ok
        and upper_colors == p + 1
        and refuted_p
        and w_at_p == n
        and w_below == 2
        and measured.get("solver_chi_p", p + 1) == p + 1
    )
    return _record(graph_to_graph6(gs), {"n": n, "p": p}, measured, expected, ok)


def _instances_s1(spec):
    params = _params(spec, ps=(1, 2, 3), ns=(3, 4, 5))
    ps = [check_int("p", p, 1) for p in _sequence("ps", params["ps"])]
    ns = [check_int("n", n, 2) for n in _sequence("ns", params["ns"])]
    return [{"n": n, "p": p} for p in ps for n in ns]


# ---------------------------------------------------------------------------
# S2: chromatic number vs star chromatic number of the 1-subdivision


def _check_s2(payload):
    g = graph_from_graph6(payload["graph6"])
    chi = chromatic_number_value(g)
    gs = subdivide_exact(g, 1)
    s = chi_p(gs, 2, cap=44).value
    measured = {"chi": chi, "star_of_subdivision": s}
    expected = {"square_at_least_chi": True, "at_most_max_chi_3": True}
    ok = s * s >= chi and s <= max(chi, 3)
    return _record(
        payload["graph6"], payload.get("params", {}), measured, expected, ok,
        witness={"graph6": payload["graph6"]},
    )


def _instances_s2(spec):
    params = _params(spec, max_n=7, random_count=20)
    max_n = check_int("max_n", params["max_n"], 0)
    random_count = check_int("random_count", params["random_count"], 0)
    tasks = [
        {"graph6": graph_to_graph6(g)} for g in corpus.connected_corpus(max_n)
    ]
    rng = SplitMix64(spec.seed).split("s2-random")
    for i in range(random_count):
        n = 5 + int(rng.uniform() * 4)
        p = 0.3 + 0.5 * rng.uniform()
        g = random_gnp(n, p, rng)
        tasks.append(
            {"graph6": graph_to_graph6(g), "params": {"random_index": i, "n": n}}
        )
    return tasks


# ---------------------------------------------------------------------------
# S3: the subdivision sandwich, with the constructive coloring


def _check_s3(payload):
    g = graph_from_graph6(payload["graph6"])
    p = payload["p"]
    base = chromatic_number(g).certificate
    chi = base.num_colors
    gs = subdivide_exact(g, p)
    exact = chi_p(gs, p + 1, cap=44).value
    constructive = subdivision_chi_p_coloring(g, p, base)
    cons_ok, cons_witness = validate_coloring(gs, constructive)
    measured = {
        "chi": chi,
        "chi_p_plus_1_of_subdivision": exact,
        "constructive_colors": constructive.num_colors,
        "constructive_valid": cons_ok,
    }
    expected = {"upper": max(chi, p + 2)}
    ok = (
        chi <= exact ** (p + 1)
        and exact <= max(chi, p + 2)
        and cons_ok
        and constructive.num_colors <= max(chi, p + 2)
    )
    return _record(
        payload["graph6"], {"p": p}, measured, expected, ok,
        witness={"graph6": payload["graph6"], "p": p},
    )


def _instances_s3(spec):
    params = _params(spec, max_n=5, ps=(1, 2))
    max_n = check_int("max_n", params["max_n"], 0)
    ps = [check_int("p", p, 0) for p in _sequence("ps", params["ps"])]
    return [
        {"graph6": graph_to_graph6(g), "p": p}
        for p in ps
        for g in corpus.connected_corpus(max_n)
    ]


# ---------------------------------------------------------------------------
# S4: chi_p against the chromatic number of shallow topological minors


def _check_s4(payload):
    g = graph_from_graph6(payload["graph6"])
    p = payload["p"]
    value = chi_p(g, p).value
    tm = chi_TM(g, p - 1)
    # chi_TM is always exact; the key stays so that S4 reports keep their bytes
    measured = {"chi_p": value, "chi_tm": tm, "chi_tm_exact": True}
    expected = {"chi_p_power_at_least_chi_tm": True}
    ok = value**p >= tm
    return _record(
        payload["graph6"], {"p": p}, measured, expected, ok,
        witness={"graph6": payload["graph6"], "p": p},
    )


def _instances_s4(spec):
    limits = _params(spec, limits={2: 8, 3: 7})["limits"]
    if not isinstance(limits, dict):
        raise ParameterError(f"limits must be an object, got {limits!r}")
    # JSON object keys arrive as strings
    limits = {
        check_int("p", int(p) if isinstance(p, str) and p.isdecimal() else p, 1):
        check_int("max_n", n, 0)
        for p, n in limits.items()
    }
    tasks = []
    for p, max_n in sorted(limits.items()):
        for g in corpus.connected_corpus(max_n):
            tasks.append({"graph6": graph_to_graph6(g), "p": p})
    return tasks


# ---------------------------------------------------------------------------
# S5: degree bound for graphs with no induced star K_{1,t}


def _is_k1t_free(g, t):
    rows = g.adj_bits
    for v in range(g.n):
        for group in combinations(g.neighbors(v), t):
            mask = sum(1 << u for u in group)  # independent when no member's row meets it
            if not any(rows[u] & mask for u in group):
                return False
    return True


def _sample_k1t_free(t, count, rng):
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise ParameterError(
                f"rejection sampling for K_(1,{t})-free graphs stalled"
            )
        n = 6 + int(rng.uniform() * 5)
        p = 0.45 + 0.4 * rng.uniform()
        g = random_gnp(n, p, rng)
        if _is_k1t_free(g, t):
            out.append(g)
    return out


def _check_s5(payload):
    g = graph_from_graph6(payload["graph6"])
    t = payload["t"]
    delta = max_degree(g)
    omega = clique_number(g).value
    bound = comb(omega + t - 2, t - 1)
    measured = {
        "max_degree": delta,
        "omega": omega,
        "bound": bound,
        "k1t_free": _is_k1t_free(g, t),
    }
    ok = measured["k1t_free"] and delta < bound
    return _record(
        payload["graph6"], {"t": t}, measured, {"delta_below_bound": True}, ok,
        witness={"graph6": payload["graph6"], "t": t},
    )


def _instances_s5(spec):
    params = _params(spec, per_t=100, ts=(3, 4))
    per_t = check_int("per_t", params["per_t"], 0)
    tasks = []
    # t = 1 asks for edgeless graphs, which the sampler never draws
    ts = [check_int("t", t, 2) for t in _sequence("ts", params["ts"])]
    for t in ts:
        rng = SplitMix64(spec.seed).split(f"s5-t{t}")
        for g in _sample_k1t_free(t, per_t, rng):
            tasks.append({"graph6": graph_to_graph6(g), "t": t})
    return tasks


# ---------------------------------------------------------------------------
# S6: complete bipartite graphs are weakly but not strongly bounded


def _check_s6(payload):
    s, t = payload["s"], payload["t"]
    g = generate("complete_bipartite", {"s": s, "t": t})
    td = tree_depth(g).value
    w1 = omega_TM(g, 1)
    values = {f"chi_{p}": chi_p(g, p).value for p in (2, 3)}
    measured = {"tree_depth": td, "omega_tm_1": w1, **values}
    ok = (
        td <= s + 1
        # chi_p <= td for every p, so these two cover all depths at once
        and td <= w1 * w1
        and all(v <= s + 1 for v in values.values())
        and all(v <= w1 * w1 for v in values.values())
        and w1 * w1 >= s
    )
    return _record(
        graph_to_graph6(g), {"s": s, "t": t}, measured,
        {"chi_p_at_most_s_plus_1": True, "chi_p_at_most_omega_tm_squared": True}, ok,
    )


def _instances_s6(spec):
    params = _params(spec, max_s=4, max_t=5)
    smax = check_int("max_s", params["max_s"], 0)
    tmax = check_int("max_t", params["max_t"], 0)
    return [
        {"s": s, "t": t} for s in range(1, smax + 1) for t in range(s, tmax + 1)
    ]


# ---------------------------------------------------------------------------
# S7: exact hole counts of the blown-up odd cycle family


def _check_s7(payload):
    rep = verify_hole_density(payload["g"], payload["omega"], payload["copies"])
    expected = {
        "holes": rep["holes_expected_numerator"]
        if rep["holes_expected_denominator"] == 1
        else None,
        "even_hole_free": True,
        "omega": payload["omega"],
    }
    measured = {
        "holes": rep["holes_measured"],
        "omega": rep["omega_measured"],
        "even_hole_free": rep["even_hole_free"],
        "order": rep["order"],
    }
    return _record(None, payload, measured, expected, rep["pass"], witness=rep)


def _instances_s7(spec):
    grid = _params(
        spec,
        grid=[
            {"g": gl, "omega": om, "copies": c}
            for gl in (5, 7)
            for om in (2, 4)
            for c in (1, 2, 3)
        ],
    )["grid"]
    for cell in _sequence("grid", grid):
        if not isinstance(cell, dict) or set(cell) != {"g", "omega", "copies"}:
            raise ParameterError(
                f"grid cell must be an object with the keys g, omega and copies, got {cell!r}"
            )
        for key, least in (("g", 5), ("omega", 2), ("copies", 1)):
            check_int(key, cell[key], least)
    return list(grid)


# ---------------------------------------------------------------------------
# S8: the product coloring construction and its color-count bound


def build_sub_colorings(g, base, p):
    """Exact depth-p colorings of every needed color-subset subgraph."""
    chi = base.num_colors
    size = min(p, chi)
    out = {}
    for subset in combinations(range(chi), size):
        members = [v for v in range(g.n) if base.assignment[v] in subset]
        sub, verts = induced_subgraph(g, members)
        local = chi_p(sub, p).certificate
        out[frozenset(subset)] = {
            verts[i]: local.assignment[i] for i in range(len(verts))
        }
    return out


def _check_s8(payload):
    g = graph_from_graph6(payload["graph6"])
    p = payload["p"]
    base = chromatic_number(g).certificate
    chi = base.num_colors
    subs = build_sub_colorings(g, base, p)
    a = max((max(m.values(), default=0) + 1 for m in subs.values()), default=1)
    zeta = product_chi_p_coloring(g, p, base, subs)
    ok_valid, witness = validate_coloring(g, zeta)
    bound = chi * a ** comb(max(chi - 1, 0), p - 1)
    measured = {
        "zeta_colors": zeta.num_colors,
        "zeta_valid": ok_valid,
        "base_colors": chi,
        "max_subset_colors": a,
        "bound": bound,
    }
    ok = ok_valid and zeta.num_colors <= bound
    return _record(
        payload["graph6"], {"p": p}, measured, {"valid_within_bound": True}, ok,
        witness={"graph6": payload["graph6"], "violation": str(witness)},
    )


def _instances_s8(spec):
    params = _params(spec, max_n=6, p=2)
    max_n = check_int("max_n", params["max_n"], 0)
    p = check_int("p", params["p"], 1)
    return [
        {"graph6": graph_to_graph6(g), "p": p}
        for g in corpus.connected_corpus(max_n)
    ]


# ---------------------------------------------------------------------------
# S9: directed-path / transitive-tournament duality over all small orientations


def _check_s9(payload):
    k = payload["k"]
    samples = []
    for n in range(1, payload.get("max_n", 4) + 1):
        for g in corpus.all_graphs(n):
            samples.extend(orientations(g))
    report = verify_restricted_dual(
        directed_path(k + 1), transitive_tournament(k), samples
    )
    # P_(k+1) -> G exactly when G has a directed cycle or a directed path on
    # k + 1 vertices: a cross-check that shares no code with the search
    mismatch = None
    for rec, g in zip(report.samples, samples):
        lp = longest_directed_path_order(g)
        if rec["f_to_g"] != (lp is None or lp > k):
            mismatch = rec
            break
    measured = {
        "premise_ok": report.premise_ok,
        "samples": len(samples),
        "verdict": report.verdict,
    }
    return _record(
        None, {"k": k}, measured, {"verdict": True},
        report.verdict and mismatch is None,
        witness=report.violation or mismatch,
    )


def _instances_s9(spec):
    params = _params(spec, max_n=4, ks=(1, 2, 3))
    max_n = check_int("max_n", params["max_n"], 0)
    ks = [check_int("k", k, 1) for k in _sequence("ks", params["ks"])]
    return [{"k": k, "max_n": max_n} for k in ks]


# ---------------------------------------------------------------------------
# S10: star chromatic growth on subdivided high-girth graphs


def _check_s10(payload):
    g = graph_from_graph6(payload["graph6"])
    chi = chromatic_number_value(g)
    s = chi_p(subdivide_exact(g, 1), 2, cap=52).value
    measured = {"chi": chi, "star_of_subdivision": s, "girth_target": payload["girth"]}
    ok = s * s >= chi
    return _record(
        payload["graph6"],
        {k: payload[k] for k in ("n", "d", "girth", "index")},
        measured,
        {"square_at_least_chi": True},
        ok,
    )


def _instances_s10(spec):
    grid = _params(
        spec, grid=[(8, 3, 5), (12, 3, 5), (12, 3, 6), (16, 3, 6), (12, 4, 5)]
    )["grid"]
    tasks = []
    for idx, cell in enumerate(_sequence("grid", grid)):
        n, d, girth_target = _sequence("grid cell", cell, 3)
        g = generate("high_girth", {"n": n, "d": d, "g": girth_target}, spec.seed + idx)
        tasks.append(
            {
                "graph6": graph_to_graph6(g),
                "n": n,
                "d": d,
                "girth": girth_target,
                "index": idx,
            }
        )
    return tasks


# ---------------------------------------------------------------------------
# S11: the monotone chain, the biclique floor, and certificate re-validation


def _check_s11(payload):
    g = graph_from_graph6(payload["graph6"])
    chi_res = chromatic_number(g)
    star_res = chi_p(g, 2)
    chi3_res = chi_p(g, 3)
    td_res = tree_depth(g)
    om_res = clique_number(g)
    bw_res = biclique_number(g)
    deg_val, deg_order = degeneracy(g)

    revalidations = {
        "proper": validate_coloring(g, chi_res.certificate)[0],
        "star": validate_coloring(g, star_res.certificate)[0],
        "chi_3": validate_coloring(g, chi3_res.certificate)[0],
        "forest": validate_elimination_forest(g, td_res.certificate, td_res.value)[0],
        "clique": validate_clique(g, om_res.certificate)[0],
        "biclique": validate_biclique(g, bw_res.certificate)[0],
        "degeneracy": validate_degeneracy_order(g, deg_val, deg_order)[0],
        "chi_lower_bound": validate_chi_lower_bound(
            g, chi_res.lower_bound, chi_res.value
        )[0],
    }

    chain_ok = chi_res.value <= star_res.value <= chi3_res.value <= td_res.value
    floor_ok = bw_res.value >= om_res.value // 2
    measured = {
        "chi": chi_res.value,
        "chi_s": star_res.value,
        "chi_3": chi3_res.value,
        "tree_depth": td_res.value,
        "omega": om_res.value,
        "biclique": bw_res.value,
        "revalidations": revalidations,
    }
    ok = chain_ok and floor_ok and all(revalidations.values())
    return _record(
        payload["graph6"], payload.get("params", {}), measured,
        {"chain": True, "biclique_floor": True, "revalidations": True}, ok,
        witness={"graph6": payload["graph6"]},
    )


def _instances_s11(spec):
    params = _params(spec, max_n=7, random_count=500)
    max_n = check_int("max_n", params["max_n"], 0)
    random_count = check_int("random_count", params["random_count"], 0)
    tasks = [
        {"graph6": graph_to_graph6(g)} for g in corpus.connected_corpus(max_n)
    ]
    rng = SplitMix64(spec.seed).split("s11-random")
    for i in range(random_count):
        n = 4 + int(rng.uniform() * 7)
        p = 0.15 + 0.7 * rng.uniform()
        g = random_gnp(n, p, rng)
        tasks.append(
            {"graph6": graph_to_graph6(g), "params": {"random_index": i}}
        )
    return tasks


# ---------------------------------------------------------------------------

SUITES = {
    "S1": (
        "chip-subdivided-clique",
        "chi_p(K_n^(p)) = p+1; omega(TM_p(K_n^(p))) = n; omega(TM_(p-1)(K_n^(p))) = 2",
        _instances_s1,
        _check_s1,
    ),
    "S2": (
        "wood",
        "sqrt(chi(G)) <= chi_s(G^(1)) <= max(chi(G), 3)",
        _instances_s2,
        _check_s2,
    ),
    "S3": (
        "chip-sub-sandwich",
        "chi(G)^(1/(p+1)) <= chi_(p+1)(G^(p)) <= max(chi(G), p+2)",
        _instances_s3,
        _check_s3,
    ),
    "S4": (
        "chiptm-lower",
        "chi_p(G) >= chi(TM_(p-1)(G))^(1/p)",
        _instances_s4,
        _check_s4,
    ),
    "S5": (
        "k1t-degree",
        "Delta(G) < binom(omega(G)+t-2, t-1) for K_(1,t)-free graphs",
        _instances_s5,
        _check_s5,
    ),
    "S6": (
        "bipartite-weak",
        "chi_p(K_(s,t)) <= td(K_(s,t)) <= s+1 and chi_p(K_(s,t)) <= omega(TM_1(K_(s,t)))^2",
        _instances_s6,
        _check_s6,
    ),
    "S7": (
        "hole-density",
        "h_g(G) = (1/g) (omega/2)^(g-1) |G| on disjoint copies of C_g[K_(omega/2)]",
        _instances_s7,
        _check_s7,
    ),
    "S8": (
        "product-coloring",
        "chi_p(G) <= chi(G) a_p^binom(chi(G)-1, p-1) via the paired coloring zeta",
        _instances_s8,
        _check_s8,
    ),
    "S9": (
        "gallai-roy-dual",
        "P_(k+1) -/-> G <=> G -> T_k over all orientations of small graphs",
        _instances_s9,
        _check_s9,
    ),
    "S10": (
        "lemma9-growth",
        "chi_s(G^(1)) >= sqrt(chi(G)) on subdivided high-girth instances",
        _instances_s10,
        _check_s10,
    ),
    "S11": (
        "chi-chain",
        "chi_1 <= chi_2 <= chi_3 <= td; bomega >= floor(omega/2); certificates revalidate",
        _instances_s11,
        _check_s11,
    ),
}

def run_suite(spec):
    """Execute one registered suite and assemble its report."""
    check_int("seed", spec.seed, 0)
    check_int("jobs", spec.jobs, 1)
    if spec.claim not in SUITES:
        raise ParameterError(f"unknown claim id {spec.claim!r}; known: {sorted(SUITES)}")
    title, anchor, instance_fn, check_fn = SUITES[spec.claim]
    start = time.monotonic()
    instances = corpus.pool_map(check_fn, instance_fn(spec), spec.jobs)
    elapsed = int((time.monotonic() - start) * 1000)
    passed = all(rec["pass"] for rec in instances)
    return VerificationReport(
        claim=spec.claim,
        title=title,
        anchor=anchor,
        config={"params": spec.params, "jobs": spec.jobs},
        seed=spec.seed,
        instances=instances,
        passed=passed,
        elapsed_ms=elapsed,
    )


def run_all(seed=0, jobs=1):
    """Run every registered suite in id order, with default parameters."""
    return [
        run_suite(SuiteSpec(claim=claim, seed=seed, params={}, jobs=jobs))
        for claim in sorted(SUITES, key=lambda c: int(c[1:]))
    ]
