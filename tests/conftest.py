import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []

# seed-0 report digests recorded with the benchmark, read here and never written
EXPECTED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def recorded_digests():
    """Seed-0 report digest by claim, over every benchmark workload."""
    recorded = json.loads(EXPECTED_DIGESTS.read_text())
    return {claim: digest for entry in recorded.values() for claim, digest in entry.items()}


def report_digest(report):
    """SHA-256 of a suite report as the benchmark records it: elapsed_ms
    removed and jobs set to 1, since parallel runs give the same instances."""
    data = report.to_jsonable()
    data["config"] = {**data["config"], "jobs": 1}
    del data["elapsed_ms"]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_pools(monkeypatch):
    """(workers, items mapped) of each pool that corpus.pool_map starts; the
    pools run their processes as before."""
    from chibound import corpus

    pools = []

    class RecordingPool(corpus.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            super().__init__(max_workers, **kw)
            self.workers = max_workers

        def map(self, fn, items, **kw):
            pools.append((self.workers, len(items)))
            return super().map(fn, items, **kw)

    monkeypatch.setattr(corpus, "ProcessPoolExecutor", RecordingPool)
    return pools


def connected_corpus_graphs(max_n):
    """corpus.connected_corpus(max_n) decoded: the connected graphs on
    1..max_n vertices, smallest first."""
    from chibound import corpus
    from chibound.codec import graph_from_graph6

    return [graph_from_graph6(line) for line in corpus.connected_corpus(max_n)]


def pytest_configure(config):
    # share one corpus cache across runs without touching the user cache
    if "CHIBOUND_CACHE_DIR" not in os.environ:
        cache = Path(tempfile.gettempdir()) / "chibound-test-cache"
        os.environ["CHIBOUND_CACHE_DIR"] = str(cache)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_connected():
    return connected_corpus_graphs(6)
