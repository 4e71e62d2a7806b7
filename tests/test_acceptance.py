"""Acceptance gate: every desk-scale criterion, exact, one line per criterion.

Each test runs its registered suite (or property bundle) at the stated scope
and tolerance (all comparisons integer-exact), prints a PASS/FAIL line, and
fails hard on any instance. The lines repeat in the terminal summary.
"""

import time

import conftest
from chibound import corpus
from chibound.certify import validate_topo_embedding
from chibound.coloring import chromatic_number
from chibound.errors import WalkLoopError
from chibound.generators import SplitMix64
from chibound.graphs import Digraph
from chibound.homomorphism import walk_power
from chibound.minors import (
    enumerate_ITM_exact,
    find_subdivided_clique,
    is_induced_exact_subdivision,
    omega_TM,
)
from chibound.suites import SuiteSpec, run_suite
from oracles import naive_chromatic, walk_count_matrix


def _report_line(criterion, label, passed, detail):
    line = f"ACCEPTANCE {criterion} [{label}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


def _run_claim(criterion, claim, params=None, jobs=1, seed=0):
    spec = SuiteSpec(claim=claim, seed=seed, params=params or {}, jobs=jobs)
    report = run_suite(spec)
    summary = report.summary()
    _report_line(
        criterion,
        f"{claim} {report.title}",
        report.passed,
        f"{summary['passed']}/{summary['total']} instances, {report.elapsed_ms} ms",
    )
    if not report.passed:
        failing = [rec for rec in report.instances if not rec["pass"]][:3]
        raise AssertionError(f"{claim} failed instances: {failing}")
    return report


def test_criterion_1_subdivided_cliques():
    # chi_p(K_n^(p)) = p+1, omega over TM_p is n, over TM_(p-1) is 2
    _run_claim("C1", "S1")


def test_criterion_2_star_of_subdivision_sandwich():
    # exhaustive over all connected graphs with up to 7 vertices
    report = _run_claim("C2", "S2")
    corpus_size = len(corpus.connected_corpus(7))
    assert len(report.instances) >= corpus_size
    assert len(corpus.connected_graphs(7)) == 853


def test_criterion_3_depth_sandwich_with_construction():
    _run_claim("C3", "S3")


def test_criterion_4_chi_p_vs_shallow_minors():
    report = _run_claim("C4", "S4", jobs=2)
    # the seed-0 report bytes the benchmark recorded, climb over k included
    assert conftest.report_digest(report) == conftest.recorded_digests()["S4"]
    assert len(corpus.connected_graphs(8)) == 11117


def test_criterion_5_hole_density_family():
    report = _run_claim("C5", "S7")
    by_params = {
        (rec["params"]["g"], rec["params"]["omega"], rec["params"]["copies"]):
            rec["measured"]["holes"]
        for rec in report.instances
    }
    assert by_params[(5, 2, 1)] == 1
    assert by_params[(5, 4, 1)] == 32
    assert by_params[(7, 4, 1)] == 128
    assert all(rec["measured"]["even_hole_free"] for rec in report.instances)


def test_criterion_6_star_free_degree_bound():
    report = _run_claim("C6", "S5")
    assert len(report.instances) == 200


def test_criterion_7_product_coloring():
    _run_claim("C7", "S8")


def test_criterion_8_path_tournament_duality():
    _run_claim("C8", "S9")


def test_criterion_9_property_suites():
    start = time.monotonic()
    # chain, biclique floor, and certificate re-validation over the corpus
    # plus 500 seeded random graphs
    report = _run_claim("C9a", "S11")
    assert sum(1 for rec in report.instances if rec["params"]) == 500
    assert conftest.report_digest(report) == conftest.recorded_digests()["S11"]

    # exact chromatic number agrees with the naive all-colorings oracle
    mismatch = [
        g
        for g in corpus.connected_corpus(7)
        if chromatic_number(g).value != naive_chromatic(g)
    ]
    ok = not mismatch
    _report_line("C9b", "naive chromatic oracle n<=7", ok, f"{996 - len(mismatch)}/996 graphs")
    assert ok

    # embeddings re-validate on a corpus sample
    checked = 0
    bad = 0
    sample = corpus.connected_corpus(7)[::10]
    for g in sample:
        k = omega_TM(g, 1)
        emb = find_subdivided_clique(g, k, 1)
        if emb is None:
            bad += 1
            continue
        ok, _why = validate_topo_embedding(g, emb, 1)
        bad += 0 if ok else 1
        checked += 1
    for g in sample[::5]:
        for h in enumerate_ITM_exact(g, 1, 4):
            emb = is_induced_exact_subdivision(h, 1, g)
            ok, _why = validate_topo_embedding(g, emb, 1, exact=True, induced=True)
            bad += 0 if ok else 1
            checked += 1
    _report_line("C9c", "embedding re-validation", bad == 0, f"{checked} embeddings")
    assert bad == 0

    # walk powers are loopless exactly when the matrix-power oracle says so
    rng = SplitMix64(90)
    digraph_checks = 0
    oracle_bad = 0
    for i in range(500):
        n = 3 + int(rng.uniform() * 6)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.uniform() < 0.3
        ]
        d = Digraph(n, arcs)
        length = 2 + i % 3
        counts = walk_count_matrix(d, length)
        looped = any(counts[v][v] > 0 for v in range(n))
        try:
            wp = walk_power(d, length)
            expected = {
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and counts[u][v] > 0
            }
            if looped or wp.arcs != frozenset(expected):
                oracle_bad += 1
        except WalkLoopError:
            if not looped:
                oracle_bad += 1
        digraph_checks += 1
    elapsed = int((time.monotonic() - start) * 1000)
    _report_line(
        "C9d",
        "walk-power looplessness oracle",
        oracle_bad == 0,
        f"{digraph_checks} digraphs, bundle {elapsed} ms",
    )
    assert oracle_bad == 0
