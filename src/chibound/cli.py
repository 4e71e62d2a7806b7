"""Command-line front end.

Exit codes: 0 success / all claims pass; 1 claim failure; 2 usage error;
3 size cap exceeded; 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from string import whitespace

from .certify import validate_homomorphism
from .codec import (
    _load_json,
    parse_digraph,
    parse_graph,
    serialize_digraph,
    serialize_graph,
)
from .coloring import chi_p, chromatic_number, tree_depth
from .errors import ChiboundError, ParameterError, ParseError, SizeCapError
from .generators import generate
from .graphs import acyclic_orientation, blow_up, power, subdivide_exact
from .holes import count_holes, enumerate_holes, is_even_hole_free
from .homomorphism import (
    homomorphism,
    symmetric_digraph,
    verify_restricted_dual,
)
from .invariants import (
    average_degree,
    biclique_number,
    clique_number,
    degeneracy_result,
    max_degree,
)
from .suites import SUITES, SuiteSpec, run_all, run_suite

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4


def _read_input(path):
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_output(text, out):
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(payload, out):
    _write_output(json.dumps(payload, sort_keys=True, indent=1), out)


# each takes the --cap-n value as its cap; None means the CAPS table value
_INVARIANTS = {
    "chromatic": chromatic_number,
    "star": lambda g, cap: chi_p(g, 2, cap),
    "chi3": lambda g, cap: chi_p(g, 3, cap),
    "treedepth": tree_depth,
    "clique": clique_number,
    "biclique": biclique_number,
    "degeneracy": lambda g, cap: degeneracy_result(g),
}


def _cmd_invariant(args):
    g = parse_graph(_read_input(args.input))
    which = args.which.split(",") if args.which else sorted(_INVARIANTS)
    results = {}
    start = time.monotonic()
    for name in which:
        name = name.strip()
        if name == "maxdegree":
            results[name] = {"name": "max_degree", "value": max_degree(g)}
            continue
        if name == "avgdegree":
            d = average_degree(g)
            results[name] = {
                "name": "average_degree",
                "value": {"numerator": d.numerator, "denominator": d.denominator},
            }
            continue
        if name not in _INVARIANTS:
            raise ChiboundError(
                f"unknown invariant {name!r}; known: {sorted(_INVARIANTS) + ['maxdegree', 'avgdegree']}"
            )
        results[name] = _INVARIANTS[name](g, args.cap_n).to_jsonable()
    payload = {
        "input": serialize_graph(g),
        "results": results,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ChiboundError(f"parameter {pair!r} must look like key=value")
        key, value = pair.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _cmd_generate(args):
    g = generate(args.family, _parse_params(args.param), seed=args.seed)
    _write_output(serialize_graph(g, args.format), args.out)
    return EXIT_OK


def _cmd_transform(args):
    g = parse_graph(_read_input(args.input))
    if args.op == "orient":
        order = _parse_order(args.order) if args.order else list(range(g.n))
        result = acyclic_orientation(g, order)
        fmt = "digraph6" if args.format == "graph6" else args.format
        _write_output(serialize_digraph(result, fmt), args.out)
        return EXIT_OK
    if args.op == "subdivide":
        result = subdivide_exact(g, args.p)
    elif args.op == "blowup":
        result = blow_up(g, args.k)
    else:
        result = power(g, args.d)
    _write_output(serialize_graph(result, args.format), args.out)
    return EXIT_OK


def _parse_order(text):
    order = []
    for entry in text.split(","):
        try:
            order.append(int(entry))
        except ValueError:
            raise ParameterError(f"--order entry {entry!r} is not a vertex number") from None
    return order


def _cmd_holes(args):
    g = parse_graph(_read_input(args.input))
    max_len = g.n if args.max_len is None else args.max_len
    holes = enumerate_holes(g, max_len)
    counts = {}
    for h in holes:
        counts[len(h)] = counts.get(len(h), 0) + 1
    ehf, witness = is_even_hole_free(g)
    payload = {
        "input": serialize_graph(g),
        "max_len": max_len,
        "holes": [list(h) for h in holes],
        "counts_by_length": {str(k): v for k, v in sorted(counts.items())},
        "even_hole_free": ehf,
    }
    if witness is not None:
        payload["even_hole_witness"] = list(witness)
    if args.length is not None:
        payload["count_at_length"] = count_holes(g, args.length)
    _emit_json(payload, args.out)
    return EXIT_OK


def _read_digraph_or_graph(path):
    stripped = _read_input(path).strip(whitespace)
    if stripped.startswith("{"):
        if "arcs" in _load_json(stripped):
            return parse_digraph(stripped)
        return symmetric_digraph(parse_graph(stripped))
    if stripped.startswith("&") or stripped.startswith(">>digraph6<<"):
        return parse_digraph(stripped)
    return symmetric_digraph(parse_graph(stripped))


def _cmd_hom(args):
    f = _read_digraph_or_graph(args.source)
    g = _read_digraph_or_graph(args.target)
    mapping = homomorphism(f, g, args.cap_n)
    if mapping is not None:
        ok, reason = validate_homomorphism(f, g, mapping)
        if not ok:
            raise AssertionError(f"solver returned an invalid mapping: {reason}")
    payload = {
        "source": serialize_digraph(f),
        "target": serialize_digraph(g),
        "exists": mapping is not None,
        "mapping": None if mapping is None else list(mapping),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_dual_verify(args):
    f = _read_digraph_or_graph(args.f)
    d = _read_digraph_or_graph(args.d)
    samples = []
    # only "\n" ends a line
    for line in _read_input(args.samples).split("\n"):
        line = line.strip(whitespace)
        if line:
            samples.append(parse_digraph(line))
    report = verify_restricted_dual(f, d, samples)
    _emit_json(report.to_jsonable(), args.out)
    return EXIT_OK if report.verdict else EXIT_CLAIM_FAILURE


def _cmd_verify(args):
    params = _parse_params(args.param)
    if args.all:
        if params:
            raise ChiboundError("--param needs a single claim, not --all")
        reports = run_all(seed=args.seed, jobs=args.jobs)
    else:
        if not args.claim:
            raise ChiboundError("verify needs a claim id or --all")
        reports = [
            run_suite(
                SuiteSpec(claim=args.claim, seed=args.seed, params=params, jobs=args.jobs)
            )
        ]
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for report in reports:
        all_pass &= report.passed
        line = (
            f"{report.claim} {report.title}: "
            f"{'PASS' if report.passed else 'FAIL'} "
            f"({report.summary()['passed']}/{report.summary()['total']} instances, "
            f"{report.elapsed_ms} ms)"
        )
        print(line)
        if outdir:
            (outdir / f"{report.claim}.json").write_text(report.to_json() + "\n")
        elif args.json:
            print(report.to_json())
    return EXIT_OK if all_pass else EXIT_CLAIM_FAILURE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chibound",
        description=(
            "Exact graph invariants, shallow topological minors, holes, "
            "homomorphism dualities, and a claim-verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="compute invariants with certificates")
    p_inv.add_argument("input", help="graph file (graph6 or JSON), or - for stdin")
    p_inv.add_argument(
        "--which",
        help="comma list: chromatic,star,chi3,treedepth,clique,biclique,degeneracy,maxdegree,avgdegree",
    )
    p_inv.add_argument("--cap-n", type=int, help="override the solver size cap")
    p_inv.add_argument("--out")
    p_inv.set_defaults(func=_cmd_invariant)

    p_gen = sub.add_parser("generate", help="build a graph from a named family")
    p_gen.add_argument("family")
    p_gen.add_argument("--param", action="append", help="key=value (repeatable)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=("graph6", "json"), default="graph6")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_generate)

    p_tr = sub.add_parser("transform", help="subdivide, blow up, power, or orient")
    p_tr.add_argument("op", choices=("subdivide", "blowup", "power", "orient"))
    p_tr.add_argument("input", help="graph file or - for stdin")
    p_tr.add_argument("--p", type=int, default=1, help="subdivision depth")
    p_tr.add_argument("--k", type=int, default=2, help="blow-up factor")
    p_tr.add_argument("--d", type=int, default=2, help="power exponent")
    p_tr.add_argument("--order", help="comma-separated vertex order for orient")
    p_tr.add_argument("--format", choices=("graph6", "json", "digraph6"), default="graph6")
    p_tr.add_argument("--out")
    p_tr.set_defaults(func=_cmd_transform)

    p_holes = sub.add_parser("holes", help="enumerate chordless cycles")
    p_holes.add_argument("input")
    p_holes.add_argument("--max-len", type=int)
    p_holes.add_argument("--length", type=int, help="also report the exact count at this length")
    p_holes.add_argument("--out")
    p_holes.set_defaults(func=_cmd_holes)

    p_hom = sub.add_parser("hom", help="digraph homomorphism search")
    p_hom.add_argument("source")
    p_hom.add_argument("target")
    p_hom.add_argument("--cap-n", type=int)
    p_hom.add_argument("--out")
    p_hom.set_defaults(func=_cmd_hom)

    p_dual = sub.add_parser("dual-verify", help="check a restricted-dual candidate")
    p_dual.add_argument("--f", required=True, help="the excluded digraph F")
    p_dual.add_argument("--d", required=True, help="the dual candidate D")
    p_dual.add_argument(
        "--samples", required=True, help="file of digraph6 lines to test against"
    )
    p_dual.add_argument("--out")
    p_dual.set_defaults(func=_cmd_dual_verify)

    p_ver = sub.add_parser("verify", help="run a registered claim suite")
    p_ver.add_argument("claim", nargs="?", help=f"claim id, one of {sorted(SUITES)}")
    p_ver.add_argument("--all", action="store_true", help="run every suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--param", action="append", help="key=value suite override")
    p_ver.add_argument("--out", help="directory for per-claim JSON reports")
    p_ver.add_argument("--json", action="store_true", help="print full reports")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChiboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
