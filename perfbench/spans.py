"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` replaces each public function listed in `WRAPPED` with a
wrapper that records a span (id, parent id, name, start, end, info) and
`Tracer.uninstall()` puts the originals back. A function is usually bound
under its name in several modules (`suite.verify` and `theorems.verify`,
`tightness.direct_product` and `construct.direct_product`, the package
namespace), so every binding in every `superkappa` module is patched, not
only the defining one.

Pool workers of `suite.run_manifest` are forked from the traced process and
inherit the patched bindings. Each worker returns the spans it recorded
inside `run_instance` on the returned verdict, and the `run_manifest`
wrapper in the parent moves them into the parent's list, so nothing is
written until the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (layer, module, attribute path) of every wrapped public function
WRAPPED = (
    ("suite", "superkappa.suite", "run_manifest"),
    ("suite", "superkappa.suite", "run_instance"),
    ("suite", "superkappa.suite", "resolve_graph"),
    ("suite", "superkappa.suite", "make_run_report"),
    ("suite", "superkappa.suite", "write_run_report"),
    ("tightness", "superkappa.tightness", "tightness_search"),
    ("theorems", "superkappa.theorems", "verify"),
    ("theorems", "superkappa.theorems", "verify_decomposition"),
    ("theorems", "superkappa.theorems", "check_hypotheses"),
    ("theorems", "superkappa.theorems", "predicted"),
    ("connectivity", "superkappa.connectivity", "vertex_connectivity"),
    ("connectivity", "superkappa.connectivity", "is_super_kappa"),
    ("connectivity", "superkappa.connectivity", "all_minimum_vertex_cuts"),
    ("connectivity", "superkappa.connectivity", "classify_cut"),
    ("construct", "superkappa.construct", "direct_product"),
    ("construct", "superkappa.construct", "tilde"),
    ("construct", "superkappa.construct", "layer_decomposition"),
    ("construct", "superkappa.construct", "random_connected_bipartite"),
    ("construct", "superkappa.construct", "random_connected_nonbipartite"),
    ("graph", "superkappa.graph", "Graph.induced_subgraph"),
    ("graph", "superkappa.graph", "is_isomorphic_small"),
    ("formats", "superkappa.formats", "write_graph6"),
    ("expr", "superkappa.expr", "build_expression"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPPED))

# calls that start a new entry: repeated-graph detection is scoped to one
ENTRY_SPANS = ("suite.run_instance", "tightness.tightness_search")

_SHIPPED = "_perfbench_spans"


def span_name(layer, attr_path):
    return f"{layer}.{attr_path.rsplit('.', 1)[-1]}"


def _resolve(module, attr_path):
    owner = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owner, attr, target):
    """Every (namespace, name) under which `target` is reachable by name."""
    found = [(owner, attr)]
    for mod in list(sys.modules.values()):
        modname = getattr(mod, "__name__", "")
        if modname != "superkappa" and not modname.startswith("superkappa."):
            continue
        for name, value in vars(mod).items():
            if value is target and (mod, name) != (owner, attr):
                found.append((mod, name))
    return found


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self._patches = []
        self._stack = []
        self._depth = {}
        self._seen = set()
        self._counter = 0
        self._pid = os.getpid()

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module, attr_path in WRAPPED:
            owner, attr = _resolve(module, attr_path)
            original = vars(owner)[attr]
            wrapper = self._wrap(span_name(layer, attr_path), original)
            for namespace, name in _bindings(owner, attr, original):
                self._patches.append((namespace, name, original))
                setattr(namespace, name, wrapper)

    def uninstall(self):
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches.clear()

    def take(self):
        """Return and clear the recorded spans."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        self._counter += 1
        sid = (os.getpid(), self._counter)
        parent = self._stack[-1] if self._stack else None
        depth = self._depth.get(name, 0)
        info = {"outer": depth == 0}
        if name in ENTRY_SPANS:
            self._seen = set()
        elif name == "connectivity.vertex_connectivity":
            graph = args[0] if args else kwargs["G"]
            info["repeat"] = graph in self._seen
            self._seen.add(graph)
        mark = len(self.spans)
        self._stack.append(sid)
        self._depth[name] = depth + 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] = depth
        if name == "connectivity.is_super_kappa":
            info["cuts"] = result.cuts_examined
            info["exhaustive"] = result.method == "exhaustive"
        elif name == "tightness.tightness_search":
            info["probes"] = result.instances_probed
            info["witnesses"] = len(result.witnesses)
        self.spans.append((sid, parent, name, start, end, info))
        if name == "suite.run_instance" and os.getpid() != self._pid:
            # pool worker: hand the spans of this entry back with its verdict
            setattr(result, _SHIPPED, self.spans[mark:])
            del self.spans[mark:]
        elif name == "suite.run_manifest":
            for verdict in result:
                self.spans.extend(vars(verdict).pop(_SHIPPED, ()))
        return result


def _summaries(spans):
    """Per span name: calls, time of outermost spans, self time."""
    child_time = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, _, name, start, end, info in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if info["outer"]:
            row["s"] += end - start
        row["self_s"] += end - start - child_time.get(sid, 0.0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    Layers that did not run report zero.
    """
    rows = _summaries(spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def infos(name):
        return [s[5] for s in spans if s[2] == name]

    vc = infos("connectivity.vertex_connectivity")
    sk = infos("connectivity.is_super_kappa")
    searches = infos("tightness.tightness_search")
    search_ids = {s[0] for s in spans if s[2] == "tightness.tightness_search"}
    screened = sum(
        1 for s in spans if s[2] == "theorems.check_hypotheses" and s[1] in search_ids
    )
    probes = sum(i["probes"] for i in searches)
    return {
        "connectivity.vertex_connectivity.calls": (len(vc), "count"),
        "connectivity.vertex_connectivity.s": (get("connectivity.vertex_connectivity", "s"), "s"),
        "connectivity.vertex_connectivity.repeat_frac": (
            _ratio(sum(i["repeat"] for i in vc), len(vc)), "ratio"),
        "connectivity.is_super_kappa.calls": (len(sk), "count"),
        "connectivity.is_super_kappa.self_s": (get("connectivity.is_super_kappa", "self_s"), "s"),
        "connectivity.all_minimum_vertex_cuts.s": (
            get("connectivity.all_minimum_vertex_cuts", "s"), "s"),
        "connectivity.classify_cut.calls": (get("connectivity.classify_cut", "calls"), "count"),
        "connectivity.cuts_examined": (sum(i["cuts"] for i in sk), "count"),
        "connectivity.exhaustive_frac": (
            _ratio(sum(i["exhaustive"] for i in sk), len(sk)), "ratio"),
        "construct.direct_product.calls": (get("construct.direct_product", "calls"), "count"),
        "construct.direct_product.s": (get("construct.direct_product", "s"), "s"),
        "construct.tilde.s": (get("construct.tilde", "s"), "s"),
        "construct.random.s": (
            get("construct.random_connected_bipartite", "s")
            + get("construct.random_connected_nonbipartite", "s"), "s"),
        "construct.layer_decomposition.s": (get("construct.layer_decomposition", "s"), "s"),
        "graph.induced_subgraph.calls": (get("graph.induced_subgraph", "calls"), "count"),
        "graph.is_isomorphic_small.s": (get("graph.is_isomorphic_small", "s"), "s"),
        "formats.write_graph6.calls": (get("formats.write_graph6", "calls"), "count"),
        "formats.write_graph6.s": (get("formats.write_graph6", "s"), "s"),
        "expr.build_expression.s": (get("expr.build_expression", "s"), "s"),
        "theorems.check_hypotheses.calls": (get("theorems.check_hypotheses", "calls"), "count"),
        "theorems.check_hypotheses.s": (get("theorems.check_hypotheses", "s"), "s"),
        "theorems.predicted.s": (get("theorems.predicted", "s"), "s"),
        "theorems.verify.self_s": (get("theorems.verify", "self_s"), "s"),
        "theorems.verify_decomposition.s": (get("theorems.verify_decomposition", "s"), "s"),
        "tightness.tightness_search.self_s": (get("tightness.tightness_search", "self_s"), "s"),
        "tightness.probes": (probes, "count"),
        "tightness.screen_yield": (_ratio(probes, screened), "ratio"),
        "tightness.witnesses": (sum(i["witnesses"] for i in searches), "count"),
        "suite.resolve_graph.s": (get("suite.resolve_graph", "s"), "s"),
        "suite.report.s": (
            get("suite.make_run_report", "s") + get("suite.write_run_report", "s"), "s"),
    }


def layers_seen(spans):
    return {name.split(".", 1)[0] for _, _, name, _, _, _ in spans}
