"""Pinned instance manifests and persistent run reports.

A manifest is a JSON document:

    {"name": "...",
     "instances": [
        {"id": "t21-001", "theorem": "T2.1",
         "graph": {"expr": "kbip(2,3)"}, "n": 3, "budget": 1000000},
        {"id": "d35-001", "check": "decomposition",
         "graph": {"expr": "kbip(2,3)"}, "n": 3},
        ...]}

Graph descriptors: {"expr": <family expression>}, {"graph6": <g6 line>},
{"random_bipartite": {m,n,p,seed,min_delta}}, or
{"random_nonbipartite": {n,p,seed,min_delta}} (min_delta optional). Random
descriptors are seed-pinned, so a manifest replays byte-for-byte.
`load_manifest` checks every entry before any runs: it decodes each graph6
descriptor and sizes each expression (its file leaves read first) and each
random draw, refuses a graph with no vertices, and sizes the construction
the entry's n asks for. It raises InputError naming the first malformed entry.
"""

from __future__ import annotations

import json
import time

from . import __version__
from . import connectivity as conn
from .construct import random_connected_bipartite, random_connected_nonbipartite
from .errors import InputError
from .expr import build_expression, check_size, check_spec_size, load_file_leaves, parse_spec
from .formats import _is_int, parse_graph6, read_input
from .theorems import ERROR, RULES, TheoremVerdict, n_rule_holds, verify, verify_decomposition

RNG_NOTE = "python-random-mt19937"
# required fields of each graph descriptor kind; None: the value is a string
_DESCRIPTOR_FIELDS = {
    "expr": None,
    "graph6": None,
    "random_bipartite": ("m", "n", "p", "seed"),
    "random_nonbipartite": ("n", "p", "seed"),
}


def draw_size(kind, shape):
    """|V| of a random draw of this kind and part sizes, refused before it is drawn
    when its vertices or the vertex pairs it draws from exceed the limits."""
    n = shape["n"]
    vertices, pairs = (shape["m"] + n, shape["m"] * n) if kind == "random_bipartite" else (n, n * (n - 1) // 2)
    check_size(vertices, pairs, "vertex pairs")
    return vertices


def resolve_graph(descriptor):
    """Build (graph, odd_cycle_lengths) from a manifest graph descriptor."""
    if not isinstance(descriptor, dict) or len(descriptor) != 1:
        raise InputError(f"bad graph descriptor {descriptor!r}")
    (kind, value), = descriptor.items()
    if kind == "expr":
        graph, spec = build_expression(value)
        return graph, spec.odd_cycle_lengths()
    if kind == "graph6":
        return parse_graph6(value), None
    if kind in _DESCRIPTOR_FIELDS:  # a seeded random graph
        args = [value[f] for f in _DESCRIPTOR_FIELDS[kind]]
        if kind == "random_bipartite":
            return random_connected_bipartite(*args, min_delta=value.get("min_delta", 1))[0], None
        return random_connected_nonbipartite(*args, min_delta=value.get("min_delta", 1)), None
    raise InputError(f"unknown graph descriptor kind {kind!r}")


def run_instance(entry):
    """Evaluate one manifest entry; pure function of the entry."""
    graph, lengths = resolve_graph(entry["graph"])
    n = entry.get("n")
    budget = entry.get("budget", conn.CUT_BUDGET)
    descriptor = {"id": entry.get("id"), **entry["graph"]}
    if entry.get("check") == "decomposition":
        return verify_decomposition(graph, n, instance=descriptor)
    return verify(
        entry["theorem"],
        graph,
        n=n,
        budget=budget,
        odd_cycle_lengths=lengths,
        instance=descriptor,
    )


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
    """Why a manifest entry cannot run, or None."""
    if not isinstance(entry, dict):
        return "not an object"
    if entry.get("check") == "decomposition":
        if not _is_int(entry.get("n")):
            return "a decomposition check needs an integer 'n'"
    elif entry.get("theorem") not in RULES:
        return f"unknown theorem id {entry.get('theorem')!r}"
    if any(entry.get(key) is not None and not _is_int(entry[key]) for key in ("n", "budget")):
        return "'n' and 'budget' must be integers"
    if "budget" in entry and (entry["budget"] is None or entry["budget"] < 0):
        return "'budget' must be a non-negative integer"
    descriptor = entry.get("graph")
    if not isinstance(descriptor, dict) or len(descriptor) != 1 or next(iter(descriptor)) not in _DESCRIPTOR_FIELDS:
        return f"bad graph descriptor {descriptor!r}"
    (kind, value), = descriptor.items()
    fields = _DESCRIPTOR_FIELDS[kind]
    if fields is None and not isinstance(value, str):
        return f"{kind} descriptor needs a string"
    if fields is not None and not (isinstance(value, dict) and all(f in value for f in fields)):
        return f"{kind} descriptor needs fields {', '.join(fields)}"
    if fields is not None:  # a seeded random graph
        ints = [f for f in (*fields, "min_delta") if f != "p" and f in value]
        p = value["p"]
        if not all(_is_int(value[f]) for f in ints) or isinstance(p, bool) or not isinstance(p, (int, float)):
            return f"{kind} fields {', '.join(ints)} must be integers and p a number"
        m, n = value.get("m", 1), value["n"]
        if min(m, n) < 1 or not 0 < p <= 1:
            return f"{kind} needs sizes of at least 1 and p in (0,1]"
    try:
        if kind == "expr":
            spec = parse_spec(value)
            vertices, edges = check_spec_size(spec, load_file_leaves(spec))
        elif kind == "graph6":
            G = parse_graph6(value)
            vertices, edges = G.n, len(G.edges)
        else:  # a random draw: its edges are not known before it is drawn
            vertices, edges = draw_size(kind, value), None
        if not vertices:
            return "the graph has no vertices"
        n, rule = entry.get("n"), RULES.get(entry.get("theorem"))
        if entry.get("check") == "decomposition" or rule.n_min is not None and n_rule_holds(rule, n):
            # G x C_n, or n copies of G: n|V| vertices and 2n|E| edges
            check_size(n * vertices, None if edges is None else 2 * n * edges)
    except InputError as exc:
        return str(exc)
    return None


def load_manifest(path):
    """Read a manifest and check every entry before any of them runs."""
    try:
        doc = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"manifest {path} is not valid JSON: {exc}") from exc
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
    if jobs > 1:
        # imported here: it loads multiprocessing, which only pools need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_or_error, entries))
    else:
        results = [_run_or_error(e) for e in entries]
    return results


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
