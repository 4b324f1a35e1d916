"""Command-line surface.

Subcommands: gen, kappa, super-kappa, verify, suite, search-tightness.
Exit codes: 0 success/confirmed, 1 refuted or witness found, 2 indeterminate
(budget, or undecided odd-cycle factors), 3 input error (usage errors,
oversized inputs and input files that cannot be read or decoded included), 4 a
fault of the program or output it could not write. Errors of kind 3 and 4 print
one stderr line, a closed stdout none; a suite whose entries hit internal errors
reports each as an `error` verdict, prints one stderr line per such entry and exits 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from . import connectivity as conn
from .errors import InputError
from .expr import build_expression
from .formats import load_graph_file, write_edgelist_json, write_graph6
from .suite import load_manifest, make_run_report, manifest_files, run_manifest, write_run_report
from .theorems import CONFIRMED, ERROR, INDETERMINATE, REFUTED, THEOREM_IDS, verify
from .tightness import TARGETS, tightness_search

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
# a run exits with the worst code among its outcomes; any other outcome is 0
EXIT_CODES = {REFUTED: EXIT_WITNESS, INDETERMINATE: EXIT_INDETERMINATE, ERROR: EXIT_INTERNAL}

def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def cmd_gen(args):
    graph, _ = build_expression(args.expression, graph6=args.format == "g6")
    text = write_graph6(graph) if args.format == "g6" else write_edgelist_json(graph)
    return text, None, [], []  # no RunReport: --out takes the graph


def cmd_kappa(args):
    graph = load_graph_file(args.graph)
    doc = conn.connectivity_report(graph, budget=args.budget).to_json()
    return _json(doc), [doc], [args.graph], []


def cmd_super_kappa(args):
    graph = load_graph_file(args.graph)
    result = conn.is_super_kappa(graph, budget=args.budget)
    doc = {
        "is_super_kappa": result.status,
        "vacuous": result.vacuous,
        "method": result.method,
        "enumeration_complete": result.enumeration_complete,
        "minimum_cuts_examined": result.cuts_examined,
        "witness": result.witness.to_json() if result.witness else None,
    }
    outcome = {True: CONFIRMED, False: REFUTED, None: INDETERMINATE}[result.status]
    return _json(doc), [doc], [args.graph], [outcome]


def cmd_verify(args):
    if args.expr is not None:
        graph, spec = build_expression(args.expr, graph6=True)  # the verdict records its graph6
        descriptor, inputs = {"expr": args.expr}, spec.file_paths()
    else:
        graph = load_graph_file(args.graph)
        descriptor, inputs = {"file": args.graph}, [args.graph]
    verdict = verify(args.theorem, graph, n=args.n, budget=args.budget, instance=descriptor)
    doc = verdict.to_json()
    return _json(doc), [doc], inputs, [verdict.verdict]


def cmd_suite(args):
    doc = load_manifest(args.manifest)
    results = run_manifest(doc, jobs=args.jobs)
    lines = []
    for entry, verdict in zip(doc["instances"], results):
        lines.append(f"{entry.get('id', '?')}: {verdict.theorem_id} {verdict.verdict}\n")
        if verdict.verdict == ERROR:
            print(f"internal error in entry {entry.get('id', '?')}: {verdict.notes[0]}", file=sys.stderr)
    inputs = [args.manifest, *manifest_files(doc)]
    return "".join(lines), [v.to_json() for v in results], inputs, [v.verdict for v in results]


def cmd_search_tightness(args):
    try:
        lo, hi = args.n_range.split("..")
        n_range = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise InputError(f"bad n-range {args.n_range!r}; expected A..B") from exc
    if not n_range:
        raise InputError(f"bad n-range {args.n_range!r}; A exceeds B")
    report = tightness_search(args.target, args.max_part_size, n_range, args.seed, args.budget)
    doc = report.to_json()
    outcome = INDETERMINATE if not report.complete else REFUTED if report.witnesses else CONFIRMED
    return _json(doc), [doc], [], [outcome]


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
    """Run one command. Its printed document goes to stdout, or to --out for
    gen; other commands write a RunReport to --out. The exit code is the
    worst of the command's outcomes, or the kind of error that stopped it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if getattr(args, "budget", 0) < 0:
            raise InputError(f"--budget must be non-negative, got {args.budget}")
        if getattr(args, "jobs", 1) < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        text, results, inputs, outcomes = args.func(args)
        if args.out and results is not None:
            report = make_run_report(argv, inputs, results, int((time.perf_counter() - start) * 1000))
    except InputError as exc:  # its text can quote the input, line breaks included
        print(f"error: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.out and results is None:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed stdout fails here, not at exit
            if args.out:
                write_run_report(args.out, report)
    except OSError as exc:  # output the run could not write
        if isinstance(exc, BrokenPipeError):  # stdout was closed: say nothing more there
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return max((EXIT_CODES.get(outcome, EXIT_OK) for outcome in outcomes), default=EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
