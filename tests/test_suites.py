import json
import os
import threading

from chibound import coloring, suites
from chibound.codec import graph_from_graph6
from chibound.coloring import _ColoringSearch
from chibound.suites import SUITES, SuiteSpec, run_suite
from chibound.treedepth import TreedepthSolver
from conftest import record_pools, recorded_digests, report_digest


def test_registry_is_complete():
    assert sorted(SUITES, key=lambda c: int(c[1:])) == [f"S{i}" for i in range(1, 12)]
    for claim, (title, anchor, instance_fn, check_fn) in SUITES.items():
        assert title and anchor
        assert callable(instance_fn) and callable(check_fn)


def test_unknown_claim():
    import pytest

    from chibound.errors import ParameterError

    with pytest.raises(ParameterError):
        run_suite(SuiteSpec(claim="S99"))


def _strip_timing(report_json):
    data = json.loads(report_json)
    data.pop("elapsed_ms", None)
    return data


def test_report_determinism_and_anchor():
    a = run_suite(SuiteSpec(claim="S7", seed=3))
    b = run_suite(SuiteSpec(claim="S7", seed=3))
    assert _strip_timing(a.to_json()) == _strip_timing(b.to_json())
    assert a.anchor == SUITES["S7"][1]
    payload = a.to_jsonable()
    assert payload["anchor"] == a.anchor
    assert payload["summary"]["total"] == len(payload["instances"])


def test_seed0_reports_match_recorded_digests():
    # S2, S3 and S8 consume star and depth-p certificates, so this pins their
    # bytes; S4 and S11 are pinned where the acceptance tests run them
    expected = recorded_digests()
    for claim in ("S1", "S2", "S3", "S5", "S6", "S7", "S8", "S9", "S10"):
        report = run_suite(SuiteSpec(claim=claim))
        assert report_digest(report) == expected[claim], claim


def test_corpus_payloads_are_the_cache_lines(monkeypatch):
    # the seed-0 corpus instances read the cache's graph6 lines and carry them
    # as they are: no graph is decoded and no line is written again
    from chibound import codec, corpus, graphs

    corpus.connected_corpus(8)  # the disk cache, warm
    corpus._memory_cache.clear()
    decoded = []

    def recording(n, columns):
        decoded.append(n)
        return graphs.graph_of_columns(n, columns)

    monkeypatch.setattr(codec, "graph_of_columns", recording)
    tasks = {
        claim: SUITES[claim][2](SuiteSpec(claim=claim))
        for claim in ("S2", "S3", "S4", "S8", "S11")
    }
    assert decoded == []
    cached = {id(line) for lines in corpus._memory_cache.values() for line in lines}
    directory = corpus._cache_dir()
    on_disk = {
        line
        for n in range(1, 9)
        for line in (directory / f"connected_{n}.g6").read_text().splitlines()
    }
    for claim, claim_tasks in tasks.items():
        # the random instances of S2 and S11 carry params
        lines = [t["graph6"] for t in claim_tasks if "params" not in t]
        assert lines, claim
        assert all(id(line) in cached for line in lines), claim
        assert set(lines) <= on_disk, claim


def test_worker_pool_is_capped_by_the_cores(monkeypatch):
    pools = record_pools(monkeypatch)
    report = run_suite(SuiteSpec(claim="S1", jobs=10_000))
    workers = min(os.cpu_count() or 1, len(report.instances))
    assert pools == ([(workers, len(report.instances))] if workers > 1 else [])
    assert report.config["jobs"] == 10_000
    assert report_digest(report) == recorded_digests()["S1"]


def test_jobs_run_serially_while_another_thread_runs(monkeypatch):
    # forking a process with a second thread alive could deadlock
    pools = record_pools(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = run_suite(SuiteSpec(claim="S1", jobs=2))
    finally:
        stop.set()
        thread.join()
    assert pools == []
    assert report_digest(report) == recorded_digests()["S1"]


def test_s1_passes_quickly():
    report = run_suite(SuiteSpec(claim="S1", params={"ps": (1, 2), "ns": (3, 4)}))
    assert report.passed
    assert len(report.instances) == 4
    rec = report.instances[0]
    assert set(rec) >= {"graph6", "params", "measured", "expected", "pass"}


def test_s1_builds_one_search_and_one_solver_per_graph(monkeypatch):
    # each instance asks its subdivided clique tree_depth_at_most, omega_TM
    # and chi_p on the graph's one solve context, and validate_coloring
    # checks its color subsets with no solver of its own
    searches, solvers = [], []
    init, solver_init = _ColoringSearch.__init__, TreedepthSolver.__init__

    def counting_init(self, g):
        searches.append(g)
        init(self, g)

    def counting_solver_init(self, g):
        solvers.append(g)
        solver_init(self, g)

    monkeypatch.setattr(_ColoringSearch, "__init__", counting_init)
    monkeypatch.setattr(TreedepthSolver, "__init__", counting_solver_init)
    coloring._search.cache_clear()
    report = run_suite(SuiteSpec(claim="S1"))
    assert report.passed
    graphs = [graph_from_graph6(rec["graph6"]) for rec in report.instances]
    assert searches == graphs
    assert solvers == graphs


def test_s9_small():
    report = run_suite(SuiteSpec(claim="S9", params={"ks": (1, 2), "max_n": 3}))
    assert report.passed


def test_s9_fails_when_the_path_check_disagrees(monkeypatch):
    # a longest path of one vertex everywhere says P_2 maps nowhere, which
    # every sample with an arc contradicts
    monkeypatch.setattr(suites, "longest_directed_path_order", lambda d: 1)
    report = run_suite(SuiteSpec(claim="S9", params={"ks": (1,), "max_n": 2}))
    (rec,) = report.instances
    assert rec["measured"]["verdict"] is True and not rec["pass"]
    assert rec["witness"]["f_to_g"] is True


def test_s2_reduced_scope():
    report = run_suite(
        SuiteSpec(claim="S2", params={"max_n": 5, "random_count": 5}, seed=1)
    )
    assert report.passed
    assert all("chi" in rec["measured"] for rec in report.instances)


def test_s4_reduced_scope_parallel():
    report = run_suite(
        SuiteSpec(claim="S4", params={"limits": {2: 5, 3: 5}}, jobs=2)
    )
    assert report.passed


def test_s11_reduced_scope_revalidations_present():
    report = run_suite(
        SuiteSpec(claim="S11", params={"max_n": 5, "random_count": 10}, seed=2)
    )
    assert report.passed
    assert all(
        rec["measured"]["revalidations"]["forest"] for rec in report.instances
    )


def test_failure_recording_carries_witness():
    from chibound.suites import _record

    rec = _record("Bw", {}, {"x": 1}, {"x": 2}, False, witness={"graph6": "Bw"})
    assert rec["pass"] is False and rec["witness"] == {"graph6": "Bw"}
    rec = _record("Bw", {}, {"x": 1}, {"x": 1}, True, witness={"graph6": "Bw"})
    assert "witness" not in rec
