"""Command-line front end.

Subcommands: sample, count, decompose, core, bounds, tail, scan, verify.
Human-readable tables go to stdout by default; --format json switches, and
so does csv for tail and scan.
Errors are emitted as a JSON record on stderr. Exit codes: 0 success,
1 verification failure or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .bounds import (
    EdgeRootedInput,
    edge_rooted_bound,
    finner_hom_bound,
    min_edges_for_copies,
    outside_edge_bounds,
    tail_rate,
)
from .cores import SeedParams, clique_seed_size, peel_to_core
from .errors import DomainError, ParseError, RegtailError
from .graphs import (
    GnpModel,
    SimpleGraph,
    make_pattern,
    named_pattern,
    read_edge_list,
    sample_gnp,
    threshold_probability,
    write_edge_list,
)
from .counting import count_copies
from .spanned import spanned_decompose, spanning_excess_report
from .tails import crossover_k, mc_tail, rows_to_csv, rows_to_json, scan_phase_transition

# Imported last: imported first, verify cost a fresh process about 800 more
# page faults and 10 ms more start-up (Python 3.11, numpy 2.4), with or
# without a bytecode cache.
from . import verify as verify_mod


def _read_graph_file(path: str) -> SimpleGraph:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot decode {path} as {exc.encoding}: {exc.reason} at byte {exc.start}"
        ) from None
    return read_edge_list(text)


def _load_pattern(spec: str):
    if spec.startswith("@"):
        return make_pattern(_read_graph_file(spec[1:]))
    return named_pattern(spec)


def _load_graph(spec: str) -> SimpleGraph:
    return _read_graph_file(spec[1:] if spec.startswith("@") else spec)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _default_p(args, pattern) -> float:
    if args.p is not None:
        return args.p
    return threshold_probability(args.n, pattern.delta)


def _add_common(p, *names, formats=("table", "csv", "json")):
    if "pattern" in names:
        p.add_argument("--pattern", required=True, help="k3|c4|k4|k5 or @edgelist-file")
    if "n" in names:
        p.add_argument("--n", type=int, required=True)
    if "p" in names:
        p.add_argument("--p", type=float, default=None,
                       help="edge probability (default: n**(-2/delta))")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)
    if "workers" in names:
        p.add_argument("--workers", type=int, default=1)
    if "format" in names:
        p.add_argument("--format", choices=formats, default="table")
    if "out" in names:
        p.add_argument("--out", default=None, help="write output to this file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="regtail",
        description="Desk-scale experiments on upper tails of regular-subgraph counts",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one G(n, p) sample as an edge list")
    _add_common(p, "n", "p", "seed", "out")
    p.add_argument("--delta", type=int, default=2,
                   help="degree used for the default threshold probability")

    p = sub.add_parser("count", help="count pattern copies in a graph")
    _add_common(p, "pattern")
    p.add_argument("--graph", required=True, help="@edgelist-file")

    p = sub.add_parser("decompose", help="spanned components of a graph")
    _add_common(p, "pattern", "format", "out", formats=("table", "json"))
    p.add_argument("--graph", required=True, help="@edgelist-file")

    p = sub.add_parser("core", help="peel a planted graph toward a core")
    _add_common(p, "pattern", "n", "p", "format", "out", formats=("table", "json"))
    p.add_argument("--graph", required=True, help="@edgelist-file of the planted graph")
    p.add_argument("--k", type=int, required=True, help="target copy count")
    p.add_argument("--w", type=float, default=0.0, help="slack parameter (default 1/ln n)")
    p.add_argument("--cs", type=float, default=10.0, help="seed constant")

    p = sub.add_parser("bounds", help="JSON record of all closed-form bound values")
    _add_common(p, "pattern", "n", "p", "out")
    p.add_argument("--k", type=int, default=None, help="tail threshold")
    p.add_argument("--m", type=int, default=None, help="host edge count for the hom bound")
    p.add_argument("--da", type=int, default=None)
    p.add_argument("--db", type=int, default=None)
    p.add_argument("--e", type=int, default=None, help="planted edge count")

    p = sub.add_parser("tail", help="Monte Carlo tail estimate at one threshold")
    _add_common(p, "pattern", "n", "p", "seed", "workers", "format", "out")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("scan", help="tail scan over a threshold range")
    _add_common(p, "pattern", "n", "p", "seed", "workers", "format", "out")
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("verify", help="run one invariant sweep, or replay one record")
    targets = p.add_subparsers(dest="target", required=True)
    for target, (flags, _) in verify_mod.SWEEPS.items():
        t = targets.add_parser(target)
        for name, spec in flags.items():
            t.add_argument(f"--{name}", type=spec[0], default=None, help=verify_mod.flag_help(spec))
        _add_common(t, "out")
        t.add_argument("--replay", default=None, help="file with one violation record to rerun")
    for parsers in (sub, targets):  # the innermost parser a command reaches sets it last
        for parser in parsers.choices.values():
            parser.set_defaults(command_parser=parser)
    return top


def _cmd_sample(args) -> int:
    p = args.p if args.p is not None else threshold_probability(args.n, args.delta)
    g = sample_gnp(GnpModel(args.n, p, args.seed))
    _emit(write_edge_list(g), args.out)
    return 0


def _cmd_count(args) -> int:
    pattern = _load_pattern(args.pattern)
    g = _load_graph(args.graph)
    sys.stdout.write(f"{count_copies(pattern, g)}\n")
    return 0


def _cmd_decompose(args) -> int:
    pattern = _load_pattern(args.pattern)
    g = _load_graph(args.graph)
    dec = spanned_decompose(pattern, g)
    comps = []
    for comp in dec.components:
        rep = spanning_excess_report(pattern, comp.graph)
        comps.append(
            {
                "vertices": list(comp.vertices),
                "v": comp.graph.n,
                "e": comp.graph.m,
                "copies": comp.copy_count,
                "l_star": rep.l_star,
                "f": rep.f,
                "lower": rep.lower,
            }
        )
    payload = {
        "components": comps,
        "dropped_edges": [list(e) for e in dec.dropped_edges],
        "total_copies": dec.total_copies,
    }
    if args.format == "table":
        lines = [f"{'v':>4} {'e':>4} {'copies':>7} {'l_star':>7} {'f':>10} {'lower':>10}"]
        for c in comps:
            lines.append(
                f"{c['v']:>4} {c['e']:>4} {c['copies']:>7} {c['l_star']:>7}"
                f" {c['f']:>10.4f} {c['lower']:>10.4f}"
            )
        lines.append(f"dropped edges: {len(payload['dropped_edges'])}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_core(args) -> int:
    pattern = _load_pattern(args.pattern)
    g = _load_graph(args.graph)
    p = _default_p(args, pattern)
    params = SeedParams(n=args.n, p=p, k=args.k, q=pattern.q, cs=args.cs, w=args.w)
    report = peel_to_core(g, params, pattern)
    payload = {
        "verdict": report.verdict,
        "peeled_edges": [list(e) for e in report.peeled_edges],
        "expectation_trace": list(report.expectation_trace),
        "min_degree": report.min_degree,
        "min_degree_product": report.min_degree_product,
        "edges_remaining": report.result.m,
        "t": params.t,
        "edge_cap": params.edge_cap,
        "w": params.w,
    }
    if args.format == "table":
        lines = [
            f"verdict: {report.verdict}",
            f"peeled: {len(report.peeled_edges)} edges, remaining: {report.result.m}",
            f"expectation: {report.expectation_trace[0]:.6g} -> {report.expectation_trace[-1]:.6g}",
            f"min degree: {report.min_degree}, min degree product: {report.min_degree_product}",
            f"t = {params.t:.6g}, edge cap = {params.edge_cap:.6g}",
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_bounds(args) -> int:
    pattern = _load_pattern(args.pattern)
    p = _default_p(args, pattern)
    payload = {
        "pattern": {"q": pattern.q, "delta": pattern.delta,
                    "edges": pattern.edge_count, "aut": pattern.aut_count},
        "n": args.n,
        "p": p,
        "threshold_p": threshold_probability(args.n, pattern.delta),
    }
    if args.m is not None:
        payload["finner_hom_bound"] = finner_hom_bound(pattern, args.n, args.m)
    if args.k is not None:
        payload["rate"] = tail_rate(args.k, args.n, pattern.q) if args.k >= 2 else 0.0
        payload["min_edges_for_copies"] = min_edges_for_copies(pattern, args.k)
        payload["clique_seed_size"] = clique_seed_size(pattern, args.k)
        payload["crossover_k"] = crossover_k(pattern.q, math.log(args.n))
    if args.da is not None and args.db is not None and args.e is not None:
        inp = EdgeRootedInput(d_a=args.da, d_b=args.db, e=args.e,
                              n=args.n, p=p, pattern=pattern)
        ob = outside_edge_bounds(inp)
        payload["edge_rooted_bound"] = edge_rooted_bound(inp)
        payload["outside_edge_bounds"] = {"b1": ob.b1, "b2": ob.b2, "b3": ob.b3,
                                          "max": ob.max}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_tail(args) -> int:
    pattern = _load_pattern(args.pattern)
    p = _default_p(args, pattern)
    row = mc_tail(pattern, GnpModel(args.n, p, args.seed), args.k,
                  args.samples, args.workers)
    if args.format == "csv":
        _emit(rows_to_csv([row]), args.out)
    elif args.format == "json":
        _emit(rows_to_json([row]), args.out)
    else:
        _emit(
            f"P(count >= {row.k}) ~ {row.estimate:.6g}"
            f"  [95% CI {row.ci_low:.6g}, {row.ci_high:.6g}]"
            f"  ({row.samples} samples, n={row.n}, p={row.p:.6g})",
            args.out,
        )
    return 0


def _cmd_scan(args) -> int:
    pattern = _load_pattern(args.pattern)
    if args.kmin < 1 or args.kmax < args.kmin:
        raise DomainError(f"bad k range [{args.kmin}, {args.kmax}]")
    res = scan_phase_transition(
        pattern, args.n, range(args.kmin, args.kmax + 1), args.samples,
        p=args.p, seed=args.seed, workers=args.workers,
    )
    if args.format == "csv":
        _emit(rows_to_csv(res.rows), args.out)
    elif args.format == "json":
        _emit(rows_to_json(res.rows, crossover=res.crossover), args.out)
    else:
        lines = [
            f"{'k':>4} {'estimate':>11} {'ci_low':>11} {'ci_high':>11}"
            f" {'exact':>11} {'L':>9} {'clique_lb':>11} {'disjoint_lb':>12}"
        ]
        for r in res.rows:
            ex = f"{r.exact:.5g}" if r.exact is not None else "-"
            cl = f"{r.clique_lb:.4g}" if r.clique_lb is not None else "-"
            dl = f"{r.disjoint_lb:.4g}" if r.disjoint_lb is not None else "-"
            lines.append(
                f"{r.k:>4} {r.estimate:>11.5g} {r.ci_low:>11.5g} {r.ci_high:>11.5g}"
                f" {ex:>11} {r.L_value:>9.4g} {cl:>11} {dl:>12}"
            )
        lines.append(
            f"crossover (k**(1-2/q) ln k = ln n, same switch point as the"
            f" min form): k = {res.crossover}"
        )
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.replay:
        try:
            record = json.loads(Path(args.replay).read_text())
        except ValueError as exc:  # not UTF-8, not JSON, or more than one record
            raise DomainError(f"--replay takes one record, one line of --out: {exc}") from None
        result = verify_mod.replay(record)
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return 0 if result["ok"] else 1
    violations = verify_mod.run_sweep(args.target, vars(args))
    text = "".join(json.dumps(v, sort_keys=True) + "\n" for v in violations)
    if args.out:
        Path(args.out).write_text(text)  # empty on PASS: no stale records
    if violations:
        sys.stderr.write(text)
        sys.stdout.write(f"verify {args.target}: FAIL ({len(violations)} violations)\n")
        return 1
    sys.stdout.write(f"verify {args.target}: PASS\n")
    return 0


_HANDLERS = {
    "sample": _cmd_sample,
    "count": _cmd_count,
    "decompose": _cmd_decompose,
    "core": _cmd_core,
    "bounds": _cmd_bounds,
    "tail": _cmd_tail,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported with the usage of the (sub)command that was run
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _HANDLERS[args.command](args)
    except (RegtailError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
