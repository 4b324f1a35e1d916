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
{"random_nonbipartite": {n,p,seed,min_delta}}. Random descriptors are
seed-pinned, so a manifest replays byte-for-byte.
"""

from __future__ import annotations

import json
import time

from . import __version__
from . import connectivity as conn
from .construct import random_connected_bipartite, random_connected_nonbipartite
from .errors import InputError
from .expr import build_expression
from .formats import parse_graph6
from .theorems import verify, verify_decomposition

RNG_NOTE = "python-random-mt19937"


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
    if kind == "random_bipartite":
        graph, _ = random_connected_bipartite(
            value["m"], value["n"], value["p"], value["seed"],
            min_delta=value.get("min_delta", 1),
        )
        return graph, None
    if kind == "random_nonbipartite":
        graph = random_connected_nonbipartite(
            value["n"], value["p"], value["seed"],
            min_delta=value.get("min_delta", 1),
        )
        return graph, None
    raise InputError(f"unknown graph descriptor kind {kind!r}")


def run_instance(entry):
    """Evaluate one manifest entry; pure function of the entry."""
    graph, lengths = resolve_graph(entry["graph"])
    n = entry.get("n")
    budget = entry.get("budget", conn.EXHAUSTIVE_BUDGET)
    descriptor = {"id": entry.get("id"), **entry["graph"]}
    if entry.get("check") == "decomposition":
        return verify_decomposition(graph, n, budget=budget, instance=descriptor)
    return verify(
        entry["theorem"],
        graph,
        n=n,
        budget=budget,
        odd_cycle_lengths=lengths,
        instance=descriptor,
    )


def load_manifest(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "instances" not in doc or not isinstance(doc["instances"], list):
        raise InputError("manifest needs an 'instances' list")
    return doc


def run_manifest(doc, jobs=1):
    """Run every instance; results keep manifest order regardless of jobs."""
    entries = doc["instances"]
    if jobs > 1:
        # imported here: it loads multiprocessing, which only pools need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_instance, entries))
    else:
        results = [run_instance(e) for e in entries]
    return results


def sha256_file(path):
    import hashlib  # imported here: it loads OpenSSL, which only RunReports need

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_run_report(argv, input_paths, results, wall_ms):
    return {
        "tool": "superkappa",
        "version": __version__,
        "rng": RNG_NOTE,
        "command": list(argv),
        "inputs": {p: sha256_file(p) for p in input_paths},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_ms": wall_ms,
        "results": [r.to_json() if hasattr(r, "to_json") else r for r in results],
    }


def write_run_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
