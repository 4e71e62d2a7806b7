"""Benchmark of chibound: claim suites and the corpus build, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/chibound`` next to ``perfbench``).
Each workload is a closed loop with one client: instances run serially, each
after the previous verdict, in a fresh interpreter per pass so that the
library's module-level memos start empty. A run makes at least two passes,
and more while that brings its length closer to ``--seconds``, and reports
medians over its passes.

Workloads (suites use their default config):

- ``star-search``: S2, where the star-coloring search does nearly all the work;
- ``td-chain``: S3 then S11, where ``td_at_most`` carries most of the work;
- ``tm-sweep``: S4 then S1 and S5..S10, many cheap instances over the n = 8
  corpus, with topological-minor search, holes and homomorphisms;
- ``corpus-cold``: ``all_graphs(7)`` and ``connected_graphs(7)`` into an empty
  cache directory, so canonical forms carry the work. It has no seed input.

The timed section of a suite workload runs every instance at suite seed 0,
the recorded seed. With ``--seed N`` other than 0, each pass then checks, after
the timed section, every instance at suite seed N that seed 0 does not have
(S2, S5, S10 and S11 draw random instances from the seed).

The first run with a given ``corpus``, ``codec``, ``graphs`` and ``errors``
source builds the n <= 8 corpus with the library under test into
``perfbench/.work`` (two to four minutes on two cores). This prep time is
printed, is part of no metric, and comes before the ``RUN_LIMIT_S`` of the
passes, so a run that preps takes that much longer. Every run then checks the
class counts against OEIS A000088 and A001349.

Outputs are checked on every pass: an instance that fails or raises is a
failed instance, and the digest of each suite report at suite seed 0
(``elapsed_ms`` removed) must equal the one recorded in ``expected.json``,
or every instance of that suite counts as failed. The digest of each report
at suite seed N must agree between the passes of the run, or the instances
checked at seed N count as failed. corpus-cold checks its class counts
against OEIS and the digest of the ``.g6`` files it wrote.

Times are reported in seconds at reference host speed: each pass samples the
interpreter's speed with two fixed loops every 50 ms and rescales the work
between samples by the samples around it (``worker.HostSpeed``), because
shared hosts change speed by up to 1.7 times for seconds at a time. The raw
wall times are printed too and kept in the run record.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` the run makes one untraced pass and two traced passes, checks
that the two traced passes count the same calls, and reports the per-layer
metrics (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
PREP_TIMEOUT_S = 850
RUN_LIMIT_S = 170  # the passes end well inside the 180 s a run may take; prep comes on top
MIN_PASSES = 2  # so that every median covers more than one set-up and pass
# corpus.py and the modules it imports
CORPUS_MODULES = ("corpus.py", "codec.py", "graphs.py", "errors.py")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def corpus_digest():
    """Digest of the modules that decide the corpus files the library writes."""
    h = hashlib.sha256()
    for name in CORPUS_MODULES:
        path = ROOT / "src" / "chibound" / name
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chibound").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env(cache_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHIBOUND_")}
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import compiled modules, as installed code does
    env["PYTHONHASHSEED"] = "0"
    env["CHIBOUND_CACHE_DIR"] = str(cache_dir)
    return env


def line_count(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def check_corpus_counts(cache):
    for n in range(1, worker.WARM_MAX_N + 1):
        for prefix, oeis in (("all", worker.A000088), ("connected", worker.A001349)):
            path = cache / f"{prefix}_{n}.g6"
            got = line_count(path) if path.is_file() else None
            if got != oeis[n]:
                fail(f"warm corpus {path.name} has {got} classes, OEIS says {oeis[n]}")


def warm_corpus():
    """The n <= 8 corpus built by the library under test, once per corpus digest.

    Corpora built for other digests are kept, so a parent and a change run
    in one tree each keep theirs.
    """
    cache = WORK / f"corpus-{corpus_digest()[:16]}"
    if not (cache / "READY").is_file():
        tmp = cache.with_name(cache.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "prep", "--out", str(tmp / "READY")],
            env=child_env(tmp), stdout=sys.stderr, check=True, timeout=PREP_TIMEOUT_S,
        )
        tmp.rename(cache)
        print(f"prep: built the n<={worker.WARM_MAX_N} corpus in "
              f"{time.monotonic() - t0:.1f} s (outside every metric)")
    check_corpus_counts(cache)
    return cache


def run_pass(workload, seed, cache, deadline, spans=None):
    """One pass in a fresh interpreter; returns its result and wall-clock span."""
    out = WORK / f"pass-{os.getpid()}.json"
    cold_dir = None
    if workload == "corpus-cold":
        cold_dir = WORK / f"cold-{os.getpid()}"
        shutil.rmtree(cold_dir, ignore_errors=True)
        cold_dir.mkdir()
        cache = cold_dir
    try:
        spawn = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "pass", "--workload", workload,
               "--seed", str(seed), "--spawn", repr(spawn), "--out", str(out)]
        if spans:
            cmd += ["--spans", str(spans)]
        subprocess.run(cmd, env=child_env(cache), stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - spawn))
        result = json.loads(out.read_text())
        result["pass_s"] = time.monotonic() - spawn
        return result
    finally:
        out.unlink(missing_ok=True)
        if cold_dir is not None:
            shutil.rmtree(cold_dir, ignore_errors=True)


def output_problems(workload, passes, expected):
    """Failed instances over all passes, counting a whole suite on a mismatch.

    Suite seed 0 reports must match ``expected``; the reports at another
    suite seed must agree with those of the run's first pass.
    """
    failed = 0
    for res in passes:
        if workload == "corpus-cold":
            c = res["corpus"]
            if c["oeis_mismatch"] or c["files_sha256"] != expected.get("files_sha256"):
                failed += res["instances"]
            continue
        for claim, s in res["suites"].items():
            if s["report_sha256"] != expected.get(claim):
                failed += s["instances"]
            else:
                failed += s["failed"]
        for claim, s in res.get("seed", {}).items():
            if s["report_sha256"] != passes[0]["seed"][claim]["report_sha256"]:
                failed += max(1, s["instances"])
            else:
                failed += s["failed"]
    return failed


def attempted_instances(passes):
    return sum(p["instances"] + sum(s["instances"] for s in p.get("seed", {}).values())
               for p in passes)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes):
    med = statistics.median
    return {
        "setup_s": (med(p["setup_s"] for p in passes), "s"),
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "instances_per_s": (med(p["instances"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }


def latency(passes):
    ms = sorted(x for p in passes for x in p["instance_ms"])
    if not ms:
        return {"instance_ms_p50": (0.0, "ms"), "instance_ms_p99": (0.0, "ms")}
    return {"instance_ms_p50": (percentile(ms, 0.50), "ms"),
            "instance_ms_p99": (percentile(ms, 0.99), "ms")}


def per_layer(untraced, traced):
    counts = [{k: v for k, v in t["layers"].items() if k.endswith((".calls", ".errors"))}
              for t in traced]
    repeat = all(c == counts[0] for c in counts)
    out = {}
    for key in traced[0]["layers"]:
        value = statistics.median(t["layers"][key] for t in traced)
        if key.endswith(".self_s") or key.endswith("load_s"):
            unit = "s"
        elif key.endswith(".hit_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        out[key] = (value, unit)
    for claim in sorted({c for ws in worker.WORKLOADS.values() for c in ws},
                        key=lambda c: int(c[1:])):
        out[f"suites.{claim}.wall_s"] = (
            untraced.get("suites", {}).get(claim, {}).get("wall_s", 0.0), "s")
    out.update({f"suites.{k}": v for k, v in latency([untraced]).items()})
    out["trace_overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced) / untraced["wall_s"], "ratio")
    return out, repeat


def run_record():
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "chibound" / "__init__.py").is_file():
        fail(f"no chibound sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)

    cache = warm_corpus()
    all_expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = all_expected.get(args.workload, {})

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        untraced = run_pass(args.workload, args.seed, cache, deadline)
        spans = WORK / f"spans-{args.workload}.tsv"
        traced = [run_pass(args.workload, args.seed, cache, deadline, spans) for _ in range(2)]
        passes = [untraced] + traced
        metrics, repeat = per_layer(untraced, traced)
    else:
        passes = []
        while True:
            passes.append(run_pass(args.workload, args.seed, cache, deadline))
            # at least MIN_PASSES, then stop where the run ends closest to --seconds
            elapsed = time.monotonic() - start
            typical = statistics.median(p["pass_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical / 2 > args.seconds:
                break
        metrics, repeat = end_to_end(passes), True

    failed = output_problems(args.workload, passes, expected)
    attempted = attempted_instances(passes)
    correct = failed == 0 and repeat

    record = run_record()
    print(f"record: {json.dumps(record, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} instances, failed_ratio {failed / attempted:.6f}"
          + ("" if repeat else ", traced call counts differ between passes"))
    shown = dict(metrics)
    if not args.trace:
        shown.update(latency(passes))
        for key in ("setup_raw_s", "wall_raw_s"):
            shown[key] = (statistics.median(p[key] for p in passes), "s")
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"record": record, "workload": args.workload, "seed": args.seed,
                    "failed": failed, "attempted": attempted,
                    "metrics": {k: v for k, (v, _) in shown.items()},
                    "passes": [{k: v for k, v in p.items() if k != "instance_ms"}
                               for p in passes]}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
