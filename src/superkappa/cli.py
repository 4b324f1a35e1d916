"""Command-line surface.

Subcommands: gen, kappa, super-kappa, verify, suite, search-tightness.
Exit codes: 0 success/confirmed, 1 refuted or witness found,
2 indeterminate (budget), 3 input error (usage errors and oversized inputs
included), 4 internal error. Errors of kind 3 and 4 print one stderr line; a
suite whose entries hit internal errors reports each as an `error` verdict,
prints one stderr line per such entry and exits 4.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from . import connectivity as conn
from .construct import tilde
from .errors import INPUT_ERRORS, InputError
from .expr import build_expression, check_size
from .formats import load_graph_file, write_edgelist_json, write_graph6
from .suite import (
    load_manifest,
    make_run_report,
    run_manifest,
    write_run_report,
)
from .theorems import ERROR, INDETERMINATE, REFUTED, THEOREM_IDS, verify
from .tightness import TARGETS, tightness_search

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_TILDE_RE = re.compile(r"^\s*tilde\s*\(\s*(.+)\s*,\s*(\d+)\s*\)\s*$")


def _build_from_expression(text):
    m = _TILDE_RE.match(text)
    if not m:
        graph, _ = build_expression(text)
        return graph
    base, _ = build_expression(m.group(1))
    n = int(m.group(2))
    check_size(n * base.n, 2 * n * len(base.edges))  # n copies of V(G); blocks H_i and H_i' copy E(G)
    bip = base.is_bipartite()
    if bip is None:
        raise InputError("tilde(...) needs a bipartite base expression")
    graph, _ = tilde(base, bip, n)
    return graph


def _emit(args, results, input_paths, wall_ms):
    if getattr(args, "out", None):
        report = make_run_report(args.argv, input_paths, results, wall_ms)
        write_run_report(args.out, report)


def cmd_gen(args):
    graph = _build_from_expression(args.expression)
    text = write_graph6(graph) if args.format == "g6" else write_edgelist_json(graph)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_kappa(args):
    start = time.perf_counter()
    graph = load_graph_file(args.graph)
    report = conn.connectivity_report(graph, budget=args.budget)
    print(json.dumps(report.to_json(), indent=2))
    _emit(args, [report.to_json()], [args.graph], int((time.perf_counter() - start) * 1000))
    return EXIT_OK


def cmd_super_kappa(args):
    start = time.perf_counter()
    graph = load_graph_file(args.graph)
    result = conn.is_super_kappa(graph, budget=args.budget)
    payload = {
        "is_super_kappa": result.status,
        "vacuous": result.vacuous,
        "method": result.method,
        "enumeration_complete": result.enumeration_complete,
        "minimum_cuts_examined": result.cuts_examined,
        "witness": result.witness.to_json() if result.witness else None,
    }
    print(json.dumps(payload, indent=2))
    _emit(args, [payload], [args.graph], int((time.perf_counter() - start) * 1000))
    if result.status is None:
        return EXIT_INDETERMINATE
    return EXIT_OK if result.status else EXIT_WITNESS


def cmd_verify(args):
    start = time.perf_counter()
    lengths = None
    if args.expr:
        graph, spec = build_expression(args.expr)
        lengths = spec.odd_cycle_lengths()
        descriptor = {"expr": args.expr}
        inputs = []
    else:
        graph = load_graph_file(args.graph)
        descriptor = {"file": args.graph}
        inputs = [args.graph]
    verdict = verify(
        args.theorem,
        graph,
        n=args.n,
        budget=args.budget,
        odd_cycle_lengths=lengths,
        instance=descriptor,
    )
    print(json.dumps(verdict.to_json(), indent=2))
    _emit(args, [verdict], inputs, int((time.perf_counter() - start) * 1000))
    if verdict.verdict == REFUTED:
        return EXIT_WITNESS
    if verdict.verdict == INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_suite(args):
    start = time.perf_counter()
    doc = load_manifest(args.manifest)
    results = run_manifest(doc, jobs=args.jobs)
    worst = EXIT_OK
    for entry, verdict in zip(doc["instances"], results):
        print(f"{entry.get('id', '?')}: {verdict.theorem_id} {verdict.verdict}")
        if verdict.verdict == ERROR:
            print(f"internal error in entry {entry.get('id', '?')}: {verdict.notes[0]}", file=sys.stderr)
            worst = EXIT_INTERNAL
        elif verdict.verdict == REFUTED:
            worst = max(worst, EXIT_WITNESS)
        elif verdict.verdict == INDETERMINATE:
            worst = max(worst, EXIT_INDETERMINATE)
    _emit(args, results, [args.manifest], int((time.perf_counter() - start) * 1000))
    return worst


def cmd_search_tightness(args):
    start = time.perf_counter()
    try:
        lo, hi = args.n_range.split("..")
        n_range = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise InputError(f"bad n-range {args.n_range!r}; expected A..B") from exc
    report = tightness_search(
        args.target, args.max_part_size, n_range, args.seed, args.budget
    )
    print(json.dumps(report.to_json(), indent=2))
    _emit(args, [report.to_json()], [], int((time.perf_counter() - start) * 1000))
    if not report.complete:
        return EXIT_INDETERMINATE
    return EXIT_WITNESS if report.witnesses else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: one stderr line, exit 3."""
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="superkappa",
        description="Connectivity and super connectivity of graph products with cycles.",
    )
    parser.add_argument("--version", action="version", version=f"superkappa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a graph from a family expression")
    p.add_argument("expression", help='e.g. "cycle(3) x complete(2)" or "tilde(kbip(2,3), 3)"')
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("g6", "json"), default="g6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("kappa", help="full connectivity report for a graph file")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=conn.CUT_BUDGET)
    p.add_argument("--out", help="write a RunReport JSON")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("super-kappa", help="super connectivity verdict with witness")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=conn.CUT_BUDGET)
    p.add_argument("--out", help="write a RunReport JSON")
    p.set_defaults(func=cmd_super_kappa)

    p = sub.add_parser("verify", help="verify one theorem instance")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="graph file (graph6 or JSON)")
    group.add_argument("--expr", help="family expression")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--budget", type=int, default=conn.CUT_BUDGET)
    p.add_argument("--out", help="write a RunReport JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run a pinned instance manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write a RunReport JSON")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("search-tightness", help="probe hypothesis boundaries")
    p.add_argument("--target", required=True, choices=TARGETS)
    p.add_argument("--max-part-size", type=int, required=True)
    p.add_argument("--n-range", required=True, help="A..B inclusive")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", help="write a RunReport JSON")
    p.set_defaults(func=cmd_search_tightness)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the RunReport's command
    try:
        if getattr(args, "budget", 0) < 0:
            raise InputError(f"--budget must be non-negative, got {args.budget}")
        if getattr(args, "jobs", 1) < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
