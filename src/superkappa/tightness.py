"""Boundary probing for the super-connectivity sufficient conditions.

Samples small instances that fail exactly one hypothesis clause of a
target rule: connected graphs of the rule's class, drawn only at the n of
`n_range` that meet its n-rule, so the clause missed is a part-size or a
strict one. Each is drawn from the seeded random graph descriptor its
record carries, as a manifest entry is, so every record replays. It
decides the rule's conclusion on each with `theorems.conclude`, the code
`verify` runs once the hypotheses hold (super connectivity decided up to
the first minimum cut that is no minimum-degree vertex's neighborhood,
the witness), and records which boundary instances break the conclusion
(witnesses) and which do not (non-witnesses; the conditions are
sufficient, not necessary).

A search keeps one Graph object per distinct base graph, so the invariants
cached on it (kappa(G), kappa(GxK2), ...) serve every n of `n_range`, and a
T3.6 probe decides one of the two components of G x C_n that the cycle
shift certifies isomorphic. A report's JSON is its fields, in order, each
record shared as its own field dict.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields

from .construct import check_draw, direct_product  # noqa: F401  (direct_product kept: perfbench/test_perfbench.py checks its tracing)
from .errors import GenerationError, InputError
from .suite import resolve_graph
from .theorems import BIPARTITE, CONFIRMED, REFUTED, RULES, check_hypotheses, conclude, n_rule_holds

# the super-connectivity sufficient conditions: the rules with a strict clause
TARGETS = tuple(tid for tid, rule in RULES.items() if rule.strict)


@dataclass
class BoundaryRecord:
    instance: dict
    failed_clause: str
    conclusion_holds: bool | None  # None: enumeration incomplete
    witness: dict | None = None


@dataclass
class TightnessReport:
    target: str
    instances_probed: int = 0
    complete: bool = True
    runtime_ms: int = 0
    records: list = field(default_factory=list)

    @property
    def witnesses(self):
        return [r for r in self.records if r.conclusion_holds is False]

    def to_json(self):
        """The fields, each record as its own field dict: shared, not copied, and read-only."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "records": [vars(r) for r in self.records]}


def _boundary_candidates(target, max_part_size, n_range, seed):
    """Yield (graph, n, descriptor) at each n of `n_range`: the graph drawn
    from its random graph descriptor by `suite.resolve_graph`, as a manifest
    entry's is. Bipartite draws have parts of at most `max_part_size`
    vertices and delta >= 1, non-bipartite ones at most twice that many
    vertices and delta >= 2; a draw that fails yields nothing. The largest
    draw is sized, as `construct._draw` sizes each, before any is made."""
    mps = max_part_size
    if RULES[target].graph_class == BIPARTITE:
        kind, step, probs, min_delta = "random_bipartite", 1009, (0.5, 0.7, 1.0), 1
        check_draw(mps, mps)
        shapes = [({"m": m, "n": k}, 31 * (m * 64 + k)) for m in range(1, mps + 1) for k in range(m, mps + 1)]
    else:
        kind, step, probs, min_delta = "random_nonbipartite", 1013, (0.4, 0.6, 0.8), 2
        check_draw(2 * mps)
        shapes = [({"n": nv}, 17 * nv) for nv in range(3, 2 * mps + 1)]
    for n in n_range:
        for shape, offset in shapes:
            for i, p in enumerate(probs):
                descriptor = {kind: {**shape, "p": p, "seed": seed + step * i + offset + n, "min_delta": min_delta}}
                try:
                    G, _ = resolve_graph(descriptor)
                except GenerationError:
                    continue
                yield G, n, descriptor


def tightness_search(target, max_part_size, n_range, seed, budget):
    """Probe instances that miss exactly one hypothesis clause of `target`.

    `budget` caps the number of boundary instances evaluated; hitting it
    flags the report incomplete rather than guessing.
    """
    if target not in TARGETS:
        raise InputError(f"tightness target must be one of {TARGETS}")
    if budget <= 0:
        raise InputError("budget must be positive")
    if max_part_size < 1:
        raise InputError("max part size must be positive")
    start = time.perf_counter()
    report = TightnessReport(target=target)
    graphs, seen = {}, set()  # one Graph per distinct base graph: its invariants serve every n
    # the generators draw connected graphs of the target's class, so only the n-rule needs a screen
    ns = (n for n in n_range if n_rule_holds(RULES[target], n))
    for G, n, descriptor in _boundary_candidates(target, max_part_size, ns, seed):
        G = graphs.setdefault(G, G)
        if (G, n) in seen:
            continue
        seen.add((G, n))
        clauses = check_hypotheses(target, G, n=n)
        failed = [c for c in clauses if not c["holds"]]
        if len(failed) != 1:
            continue
        if report.instances_probed >= budget:
            report.complete = False
            break
        report.instances_probed += 1
        v = conclude(target, G, n, instance={**descriptor, "n": n})
        holds = {CONFIRMED: True, REFUTED: False}.get(v.verdict)  # None: indeterminate
        # interned: a search's records share the few texts a failed clause has
        report.records.append(BoundaryRecord(v.instance, sys.intern(failed[0]["clause"]), holds, v.witness))
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report
