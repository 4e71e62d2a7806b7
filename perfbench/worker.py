"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py pass --workload W --seed S --spawn T --out FILE
                                     [--spans FILE]
    python3 perfbench/worker.py prep --out FILE

``run.py`` starts this file once per pass, so the library's module-level memos
start empty every time. The library is imported from ``src/`` of the tree
this file sits in, and ``CHIBOUND_CACHE_DIR`` names the corpus cache to use.
A pass writes one JSON result to ``--out``; with ``--spans`` it installs the
layer wrappers first and also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Suites in run order. Together the suite workloads run every suite once.
WORKLOADS = {
    "star-search": ("S2",),
    "td-chain": ("S3", "S11"),
    "tm-sweep": ("S4", "S1", "S5", "S6", "S7", "S8", "S9", "S10"),
    "corpus-cold": (),
}

# Corpus sizes the warm cache holds, and the sizes corpus-cold builds.
WARM_MAX_N = 8
COLD_N = 7

# Isomorphism classes of graphs (OEIS A000088) and of connected graphs
# (OEIS A001349) on n = 0..8 vertices.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
A001349 = (1, 1, 1, 2, 6, 21, 112, 853, 11117)

# The host-speed probes: two fixed pure-Python loops, one made of function
# calls and one of set, dict, tuple and integer-bit operations, run together
# every PROBE_EVERY_S. Their scaling errors partly cancel: the mean of the
# two scaled the suite and corpus workloads to a pass-to-pass spread of
# 1.3-2.3% (CV), against 3-5% for either probe alone or a plain arithmetic
# loop and 16-20% unscaled. PROBE_REF_S holds about their median
# times, run back to back, on the host the benchmark was tuned on (2-core
# Xeon, Python 3.11). Work is scaled by the median of the PROBE_WINDOW probe
# runs before and after it.
PROBE_EVERY_S = 0.05
PROBE_REF_S = (0.00038, 0.00084)
PROBE_WINDOW = 5


def _leaf(a, b):
    return (a ^ b) & 1023


def _probe_calls():
    acc = 0
    for k in range(2500):
        acc += _leaf(k, acc)


def _probe_containers():
    seen = set()
    d = {}
    acc = 0
    for k in range(1500):
        m = (k * 2654435761) & 0xFFFF
        if m & 255 not in seen:
            seen.add(m & 255)
        d[m & 127] = (k, m)
        acc += (m & -m).bit_length() + len(d[m & 127])


PROBES = (_probe_calls, _probe_containers)


class HostSpeed:
    """Rescales wall intervals to seconds at the reference host speed.

    Shared hosts switch between a fast state and one about 1.7 times slower,
    for seconds at a time, on each core independently, so raw wall times of
    identical runs differ by a third. A timer signal runs the probes in this
    thread every PROBE_EVERY_S; each stretch of work between two probe runs
    is scaled, for each probe, by its PROBE_REF_S over the median time of
    that probe around the stretch, and by the mean of those factors. The
    probes' own time is left out.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.durations = tuple([] for _ in PROBES)

    def _probe(self, *_):
        t0 = time.monotonic()
        t = t0
        for probe, durations in zip(PROBES, self.durations):
            probe()
            t1 = time.monotonic()
            durations.append(t1 - t)
            t = t1
        self.starts.append(t0)
        self.ends.append(t)

    def start(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _factor(self, j):
        lo, hi = max(0, j - PROBE_WINDOW), j + PROBE_WINDOW
        return statistics.fmean(
            ref / statistics.median(durations[lo:hi])
            for ref, durations in zip(PROBE_REF_S, self.durations)
        )

    def scaled(self, a, b):
        """(raw, reference) seconds of work in the monotonic interval [a, b]."""
        starts, ends = self.starts, self.ends
        j = bisect_right(starts, a)
        raw = ref = 0.0
        t = a
        while t < b:
            end = starts[j] if j < len(starts) and starts[j] < b else b
            if end > t:
                raw += end - t
                ref += (end - t) * self._factor(j)
            if end >= b:
                break
            t = ends[j]
            j += 1
        return raw, ref


def sha256_json(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(suites, claim, records, seed=0):
    """Digest of the report run_suite gives at ``seed``, elapsed_ms removed."""
    title, anchor = suites.SUITES[claim][:2]
    report = suites.VerificationReport(
        claim=claim,
        title=title,
        anchor=anchor,
        config={"params": {}, "jobs": 1},
        seed=seed,
        instances=records,
        passed=all(rec["pass"] for rec in records),
        elapsed_ms=0,
    ).to_jsonable()
    del report["elapsed_ms"]
    return sha256_json(report)


def check(check_fn, payload):
    """The instance's record; an instance that raises is a failed instance."""
    try:
        return check_fn(payload), False
    except Exception as exc:
        return {"pass": False, "raised": f"{type(exc).__name__}: {exc}"}, True


def run_suites(claims, spawn, speed, tracer):
    """Every instance of the claims at suite seed 0, the timed section.

    Suite seed 0 is the recorded seed: its reports must match expected.json.
    Other suite seeds draw heavy-tailed random instances (one S2 instance
    takes 5 s at suite seed 4, all 20 take 0.05 s at seed 6), so they are
    checked after the timed section, by ``check_seed``.
    """
    from chibound import suites

    def span(name):
        return tracer.open(name, "suites") if tracer else None

    def end(idx):
        if idx is not None:
            tracer.close(idx)

    plan = []
    for claim in claims:
        instance_fn, check_fn = suites.SUITES[claim][2:]
        idx = span(f"suites.{claim}.instances")
        plan.append((claim, check_fn, instance_fn(suites.SuiteSpec(claim=claim))))
        end(idx)
    setup_end = time.monotonic()

    stamps = []  # (start, end) of every instance, in run order
    out = {}
    for claim, check_fn, payloads in plan:
        records = []
        raised = []
        first = len(stamps)
        for i, payload in enumerate(payloads):
            t0 = time.monotonic()
            idx = span(f"suites.{claim}")
            try:
                rec, exc = check(check_fn, payload)
            finally:
                end(idx)
            stamps.append((t0, time.monotonic()))
            records.append(rec)
            if exc:
                raised.append(i)
        out[claim] = (payloads, records, raised, (stamps[first][0], stamps[-1][1]))
    speed.stop()

    seed0 = {}
    for claim, (payloads, records, raised, interval) in out.items():
        wall_raw_s, wall_s = speed.scaled(*interval)
        seed0[claim] = dict(zip(map(sha256_json, payloads), records))
        out[claim] = {
            "instances": len(records),
            "failed": sum(1 for rec in records if not rec["pass"]),
            "raised": raised[:10],
            "wall_raw_s": wall_raw_s,
            "wall_s": wall_s,
            "report_sha256": report_digest(suites, claim, records),
        }
    return {
        "setup": speed.scaled(spawn, setup_end),
        "wall": speed.scaled(setup_end, stamps[-1][1]),
        "instances": len(stamps),
        "instance_ms": [speed.scaled(a, b)[1] * 1e3 for a, b in stamps],
        "suites": out,
    }, seed0


def check_seed(claims, seed, seed0):
    """Every instance of the claims at suite seed ``seed``, untimed.

    An instance whose payload also occurs at suite seed 0 keeps the record
    the timed section gave it (the checks are deterministic); every other
    instance is checked here. Per suite: the instances checked, those that
    failed, and the digest of the whole report, which must agree between the
    passes of a run.
    """
    from chibound import suites

    out = {}
    for claim in claims:
        instance_fn, check_fn = suites.SUITES[claim][2:]
        records = []
        checked = failed = 0
        raised = []
        for i, payload in enumerate(instance_fn(suites.SuiteSpec(claim=claim, seed=seed))):
            rec = seed0[claim].get(sha256_json(payload))
            if rec is None:
                rec, exc = check(check_fn, payload)
                checked += 1
                failed += not rec["pass"]
                if exc:
                    raised.append(i)
            records.append(rec)
        out[claim] = {
            "instances": checked,
            "failed": failed,
            "raised": raised[:10],
            "report_sha256": report_digest(suites, claim, records, seed),
        }
    return out


def run_corpus_cold(spawn, speed):
    from chibound import corpus

    cache = Path(os.environ["CHIBOUND_CACHE_DIR"])
    if any(cache.iterdir()):
        raise RuntimeError(f"corpus-cold needs an empty cache directory: {cache}")
    wall0 = time.monotonic()
    corpus.all_graphs(COLD_N)
    corpus.connected_graphs(COLD_N)
    wall1 = time.monotonic()
    speed.stop()
    return {
        "setup": speed.scaled(spawn, wall0),
        "wall": speed.scaled(wall0, wall1),
        "instances": sum(A000088[1 : COLD_N + 1]),
        "instance_ms": [],
    }


def check_corpus_cold():
    """Class counts against OEIS, and a digest of the files written."""
    from chibound import corpus
    from chibound.graphs import is_connected

    cache = Path(os.environ["CHIBOUND_CACHE_DIR"])
    sizes = {n: len(corpus.all_graphs(n)) for n in range(1, COLD_N + 1)}
    connected = {
        n: sum(1 for g in corpus.all_graphs(n) if is_connected(g))
        for n in range(1, COLD_N)
    }
    connected[COLD_N] = len(corpus.connected_graphs(COLD_N))
    bad = [n for n in sizes if sizes[n] != A000088[n] or connected[n] != A001349[n]]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(cache.glob("*.g6"))}
    return {
        "classes": sizes,
        "connected": connected,
        "oeis_mismatch": bad,
        "files_sha256": sha256_json(files),
    }


def cmd_pass(args):
    speed = HostSpeed()
    speed.start()
    tracer = None
    if args.spans:
        import tracing

        import chibound  # noqa: F401  (every layer module, before wrapping)

        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)
    cold = args.workload == "corpus-cold"
    if cold:
        result = run_corpus_cold(args.spawn, speed)
    else:
        result, seed0 = run_suites(WORKLOADS[args.workload], args.spawn, speed, tracer)
    result["setup_raw_s"], result["setup_s"] = result.pop("setup")
    result["wall_raw_s"], result["wall_s"] = result.pop("wall")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, speed)
        tracer.write_spans(args.spans)
    # after the peak RSS and the layer metrics, so the checks count in neither
    if cold:
        result["corpus"] = check_corpus_cold()
    elif args.seed:
        result["seed"] = check_seed(WORKLOADS[args.workload], args.seed, seed0)
    Path(args.out).write_text(json.dumps(result))


def cmd_prep(args):
    """Build the warm corpus (n <= WARM_MAX_N) with the library under test."""
    from chibound import corpus

    counts = {}
    for n in range(1, WARM_MAX_N + 1):
        counts[n] = (len(corpus.all_graphs(n)), len(corpus.connected_graphs(n)))
    Path(args.out).write_text(json.dumps(counts))


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    q = sub.add_parser("prep")
    q.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.cmd == "pass":
        cmd_pass(args)
    else:
        cmd_prep(args)


if __name__ == "__main__":
    main()
