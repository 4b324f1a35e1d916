"""Pinned instance manifests and persistent run reports.

A manifest is a JSON document:

    {"name": "...",
     "instances": [
        {"id": "t21-001", "theorem": "T2.1",
         "graph": {"expr": "kbip(2,3)"}, "n": 3, "budget": 1000000},
        {"id": "d35-001", "check": "decomposition",
         "graph": {"expr": "kbip(2,3)"}, "n": 3},
        ...]}

An entry has no keys but these six; `check` can only be "decomposition" and
excludes `theorem`, `theorem` must be the string id of a result, and a result
that takes no n (T3.9) must be given none.
Graph descriptors: {"expr": <family expression>}, {"graph6": <g6 line>},
{"random_bipartite": {m,n,p,seed,min_delta}}, or
{"random_nonbipartite": {n,p,seed,min_delta}} (min_delta optional). Random
descriptors are seed-pinned, so a manifest replays byte-for-byte.
`load_manifest` checks every entry before any runs: it builds each entry's
graph with `resolve_graph`, the one reader of descriptors, where each
construction refuses itself before it is built, and sizes the construction
the entry's n asks for and the double cover G x K2 where running builds it
(G x C_n where every clause but a strict one holds);
a decomposition entry on a connected graph must meet its case's n minimum.
It raises InputError naming the first malformed entry.
"""

from __future__ import annotations

import json
import time

from . import __version__
from . import connectivity as conn
from .construct import decomposition_case, random_connected_bipartite, random_connected_nonbipartite
from .errors import InputError
from .expr import build_expression, parse_spec
from .formats import _is_int, check_graph6_size, check_size, parse_graph6, read_input, read_json
from .theorems import COVER, ERROR, TheoremVerdict, all_but_strict_hold, theorem_rule, verify, verify_decomposition

RNG_NOTE = "python-random-mt19937"
# required fields of each graph descriptor kind; None: the value is a string
_DESCRIPTOR_FIELDS = {
    "expr": None,
    "graph6": None,
    "random_bipartite": ("m", "n", "p", "seed"),
    "random_nonbipartite": ("n", "p", "seed"),
}


def resolve_graph(descriptor):
    """Build (graph, ProductSpec of an expression, else None) from a manifest graph descriptor, its
    shape and fields checked first; a graph with no vertices, or too many for
    the graph6 its verdict records, is refused (an expression's before it is built)."""
    if not isinstance(descriptor, dict) or len(descriptor) != 1 or next(iter(descriptor)) not in _DESCRIPTOR_FIELDS:
        raise InputError(f"bad graph descriptor {descriptor!r}")
    (kind, value), = descriptor.items()
    fields, spec = _DESCRIPTOR_FIELDS[kind], None
    if fields is None and not isinstance(value, str):
        raise InputError(f"{kind} descriptor needs a string")
    if kind == "expr":
        graph, spec = build_expression(value, graph6=True)
    elif kind == "graph6":
        graph = parse_graph6(value)
    else:  # a seeded random graph
        if not (isinstance(value, dict) and all(f in value for f in fields)):
            raise InputError(f"{kind} descriptor needs fields {', '.join(fields)}")
        ints = [f for f in (*fields, "min_delta") if f != "p" and f in value]
        p = value["p"]
        if not all(_is_int(value[f]) for f in ints) or isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputError(f"{kind} fields {', '.join(ints)} must be integers and p a number")
        if min(value.get("m", 1), value["n"]) < 1 or not 0 < p <= 1:
            raise InputError(f"{kind} needs sizes of at least 1 and p in (0,1]")
        args, min_delta = [value[f] for f in fields], value.get("min_delta", 1)
        if kind == "random_bipartite":
            graph = random_connected_bipartite(*args, min_delta=min_delta)[0]
        else:
            graph = random_connected_nonbipartite(*args, min_delta=min_delta)
    if not graph.n:
        raise InputError("the graph has no vertices")
    check_graph6_size(graph.n)
    return graph, spec


def run_instance(entry):
    """Evaluate one manifest entry; pure function of the entry."""
    graph = resolve_graph(entry.get("graph"))[0]
    n = entry.get("n")
    budget = entry.get("budget", conn.CUT_BUDGET)
    descriptor = {"id": entry.get("id"), **entry["graph"]}
    if entry.get("check") == "decomposition":
        return verify_decomposition(graph, n, instance=descriptor)
    return verify(entry["theorem"], graph, n=n, budget=budget, instance=descriptor)


def _run_or_error(entry):
    """run_instance, with a fault of the program turned into this entry's
    `error` verdict, its note `<Type>: <message>`; input errors propagate."""
    start = time.perf_counter()
    try:
        return run_instance(entry)
    except InputError:
        raise
    except Exception as exc:
        ms = int((time.perf_counter() - start) * 1000)
        instance = {"id": entry.get("id"), **entry["graph"]}
        if entry.get("n") is not None:
            instance["n"] = entry["n"]
        note = f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}"
        return TheoremVerdict(entry.get("theorem", "decomposition"), instance, [], None, None, ERROR, ms, notes=[note])


def _entry_problem(entry):
    """Why a manifest entry cannot run, or None; its graph is built to find out."""
    if not isinstance(entry, dict):
        return "not an object"
    unknown = [key for key in entry if key not in ("id", "theorem", "check", "graph", "n", "budget")]
    if unknown:
        return f"unknown key {unknown[0]!r}"
    n, rule = entry.get("n"), None
    try:
        if "check" not in entry:
            rule = theorem_rule(entry.get("theorem"), n)  # an unknown id, or an n on T3.9, is refused
        elif entry["check"] != "decomposition":
            return f"unknown check {entry['check']!r}"
        elif "theorem" in entry:
            return "a decomposition check takes no 'theorem'"
        elif not _is_int(n):
            return "a decomposition check needs an integer 'n'"
        if any(entry.get(key) is not None and not _is_int(entry[key]) for key in ("n", "budget")):
            return "'n' and 'budget' must be integers"
        if "budget" in entry and (entry["budget"] is None or entry["budget"] < 0):
            return "'budget' must be a non-negative integer"
        G = resolve_graph(entry.get("graph"))[0]
        if rule is None:
            decomposition_case(G, n)  # refuses an n below the case's minimum
            builds = G.is_connected()
        else:  # running builds it where the hypotheses hold; load decides all but a strict clause, which needs kappa
            builds = all_but_strict_hold(entry["theorem"], G, n)
        if builds and n is not None:  # G x C_n, or n copies of G: n|V| vertices and 2n|E| edges
            check_size(n * G.n, 2 * n * len(G.edges))
        # G x K2, 2|V| vertices and 2|E| edges: T3.9's construction where its hypotheses hold, and what
        # a strict clause on kappa(G x K2) reads at any integer n when G is connected and non-bipartite
        strict_dc = rule and rule.strict and rule.strict[0] == "kappa_dc" and n is not None
        if rule and rule.construction == COVER and builds or strict_dc and G.is_connected() and not G.is_bipartite():
            check_size(2 * G.n, 2 * len(G.edges))
    except InputError as exc:
        return str(exc)
    return None


def load_manifest(path):
    """Read a manifest and check every entry before any of them runs."""
    doc = read_json(read_input(path), f"manifest {path} is not valid JSON")
    if not isinstance(doc, dict) or not isinstance(doc.get("instances"), list):
        raise InputError("manifest needs an 'instances' list")
    for i, entry in enumerate(doc["instances"]):
        problem = _entry_problem(entry)
        if problem:
            name = entry.get("id", f"#{i}") if isinstance(entry, dict) else f"#{i}"
            raise InputError(f"manifest entry {name}: {problem}")
    return doc


def run_manifest(doc, jobs=1):
    """Run every instance; results keep manifest order regardless of jobs.
    An entry the program fails on gets an `error` verdict and the others
    still run; an input error stops the run."""
    entries = doc["instances"]
    jobs = min(jobs, len(entries))  # a pool forks all its workers at once: no more than there are entries
    if jobs > 1:
        # imported here: it loads multiprocessing, which only pools need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_or_error, entries))
    else:
        results = [_run_or_error(e) for e in entries]
    return results


def manifest_files(doc):
    """The files a loaded manifest's expressions read, in entry order."""
    exprs = (e["graph"]["expr"] for e in doc["instances"] if "expr" in e["graph"])
    return [path for text in exprs for path in parse_spec(text).file_paths()]


def sha256_file(path):
    import hashlib  # imported here: it loads OpenSSL, which only RunReports need

    return hashlib.sha256(read_input(path, "rb")).hexdigest()


def make_run_report(argv, input_paths, results, wall_ms):
    return {
        "tool": "superkappa",
        "version": __version__,
        "rng": RNG_NOTE,
        "command": list(argv),
        "inputs": {p: sha256_file(p) for p in input_paths},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_ms": wall_ms,
        "results": results,
    }


def write_run_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
