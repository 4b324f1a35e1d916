"""Checkable rules for the connectivity and super-connectivity results:
hypothesis clauses, each the JSON object {"clause": text, "holds": bool}
that verdicts report, formula predictions, independent ground truth, and
verdicts with replayable witnesses.

Each result is one `Rule` in the ordered `RULES` table, which
`check_hypotheses`, `predicted`, `verify` and the tightness search all read:

- `graph_class`, `n_min`, `parity`: the clauses "G is bipartite" or "G is
  non-bipartite" (None: no class clause) and "n >= n_min [odd|even]"
  (`n_min` None: the result takes no n);
- `part_sizes`: the clauses |X| >= delta+1 and |Y| >= delta+1;
- `strict`: `(invariant, minus, factor)` for the strict inequality
  `(n - minus) * invariant > factor * delta`, the invariant being
  kappa(G) ("kappa") or kappa(GxK2) ("kappa_dc");
- `odd_cycles`: the clause that G is a direct product of k >= 1 odd cycles, by
  a certified map (`construct.odd_cycle_lengths`); "holds": null and an
  indeterminate verdict where the search for one stops;
- `construction`: the cyclic layered graph, G x C_n, the two components of
  G x C_n, or G x K2;
- `predict`: the claim, from the base graph's invariants and n only;
- `compare`: kappa equal to the claim, kappa within the claimed interval,
  two isomorphic components of the claimed kappa, or super-kappa (of each
  component, for the two-component construction);
- `composes`: for the corollaries, the note naming the results they chain;
  `conclude` first checks T3.9's value kappa(GxK2) = 2^k;
- `decomposition`: the layer decomposition of G x C_n its proof uses.

To add a result, add its record: the CLI, the manifest check and, for a
rule with a strict clause (a super-kappa sufficient condition), the
tightness search pick it up. A new kind of clause, construction or
comparison also needs its branch in `_clauses`, `_construct` or `conclude`.

Each thing certified equal is computed once. The invariants rules read
(connected, bipartition, delta, kappa(G), kappa(GxK2), the odd-cycle factors, and generators of
Aut(G) from one search based at its kappa scan's source, those that fix the
source first) are computed on first use and kept on the Graph object, so every
rule and every n checked on one object share them. For the two-component
results, once the cycle shift certifies the two components isomorphic
(Weichsel 1962), kappa or super-kappa is decided on the first alone and
reported for both. Vertex maps on G x C_n and on the cyclic layered graph
come from `construct`; this module and `connectivity` only certify them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from typing import Callable

from . import connectivity as conn
from .construct import cycle, decomposition_case, direct_product, double_cover, layer_decomposition, tilde
from .construct import layered_symmetries, odd_cycle_lengths, product_map, product_symmetries
from .errors import InputError
from .formats import parse_graph6, write_graph6
from .graph import ISO_CAP, STABILISER_NODES, _maps_onto, automorphism_generators

BIPARTITE, NONBIPARTITE = "bipartite", "non-bipartite"
TILDE, PRODUCT, COMPONENTS, COVER = "tilde", "G x C_n", "components of G x C_n", "G x K2"
EQUAL, INTERVAL, COMPONENT_KAPPA, SUPER = "equal", "within-interval", "components", "super-kappa"

CONFIRMED = "confirmed"
REFUTED = "refuted"
HYP_NOT_MET = "hypotheses-not-met"
INDETERMINATE = "indeterminate"
ERROR = "error"  # a suite entry the program failed on; see suite.run_manifest
SUPER_KAPPA = {"super_kappa": True}  # what every super-kappa rule predicts; its verdicts share this object
UNDECIDED_FACTORS = f"the search for G's odd-cycle factors stops above {ISO_CAP} vertices or {STABILISER_NODES} nodes"


@dataclass(frozen=True)
class Rule:
    graph_class: str | None
    n_min: int | None
    parity: str | None
    part_sizes: bool = False
    strict: tuple | None = None
    odd_cycles: bool = False
    construction: str = PRODUCT
    predict: Callable = lambda inv, n: SUPER_KAPPA
    compare: str = SUPER
    composes: str | None = None
    decomposition: str | None = None


def _layers_times_kappa(inv, n):
    return min(n * inv.kappa, 2 * inv.delta)


def _two_components(inv, n):
    return {"components": 2, "component_kappa": min(n // 2 * inv.kappa, 2 * inv.delta), "isomorphic": True}


RULES = {
    "T2.1": Rule(BIPARTITE, 2, None, construction=TILDE, predict=_layers_times_kappa, compare=EQUAL),
    "L2.2": Rule(BIPARTITE, 3, None, part_sizes=True, strict=("kappa", 0, 2), construction=TILDE),
    "T3.1": Rule(BIPARTITE, 3, "odd", predict=_layers_times_kappa, compare=EQUAL),
    "T3.2": Rule(BIPARTITE, 4, "even", construction=COMPONENTS, predict=_two_components, compare=COMPONENT_KAPPA),
    "T3.3": Rule(
        NONBIPARTITE, 4, "even", compare=EQUAL,
        predict=lambda inv, n: min(n // 2 * inv.kappa_dc, 2 * inv.delta),
    ),
    "T3.4": Rule(
        NONBIPARTITE, 5, "odd", compare=INTERVAL,
        predict=lambda inv, n: [
            min((n - 1) // 2 * inv.kappa_dc, 2 * inv.delta), min((n + 1) // 2 * inv.kappa_dc, 2 * inv.delta)
        ],
    ),
    "T3.5": Rule(BIPARTITE, 3, "odd", part_sizes=True, strict=("kappa", 0, 2), decomposition="bipartite-odd"),
    "T3.6": Rule(
        BIPARTITE, 6, "even", part_sizes=True, strict=("kappa", 0, 4), construction=COMPONENTS,
        predict=lambda inv, n: {**_two_components(inv, n), "super_kappa": True},
        decomposition="bipartite-even",
    ),
    "T3.7": Rule(NONBIPARTITE, 6, "even", strict=("kappa_dc", 0, 4), decomposition="nonbipartite-even"),
    "T3.8": Rule(NONBIPARTITE, 7, "odd", strict=("kappa_dc", 1, 4), decomposition="nonbipartite-odd"),
    "T3.9": Rule(
        None, None, None, odd_cycles=True, construction=COVER, compare=EQUAL,
        predict=lambda inv, n: 2 ** len(inv.odd_cycle_lengths),
    ),
    "C3.10": Rule(None, 6, "even", odd_cycles=True, composes="composed as: kappa(GxK2)=2^k (T3.9) feeding T3.7"),
    "C3.11": Rule(
        None, 7, "odd", odd_cycles=True,
        composes="composed as: kappa(GxK2)=2^k (T3.9) feeding T3.8 (the even-n rule does not apply to odd n)",
    ),
}

THEOREM_IDS = tuple(RULES)


def _clause(text, holds):  # one hypothesis clause, as verdicts report it
    return {"clause": text, "holds": holds}


_fixed_clause = cache(_clause)  # a clause whose text its rule fixes: one shared object per text and value


@dataclass
class TheoremVerdict:
    theorem_id: str
    instance: dict
    hypotheses: list
    predicted: object
    actual: object
    verdict: str
    runtime_ms: int = 0
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def to_json(self):
        """Its declared fields (a pool worker may attach more), not copied: shared, so read-only."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Invariants:
    """The base-graph invariants rules read, each computed on first use. The
    values live on the graph, which is immutable, so every rule and every n
    checked on one Graph object share them. G sits in a slot, outside those
    values, so the graph and its values form no reference cycle."""

    __slots__ = ("G", "__dict__")

    def __init__(self, G):
        if G is None or G.n == 0:
            raise InputError("hypothesis check needs a nonempty graph")
        self.G = G
        if G.invariants is None:
            G.invariants = {}
        self.__dict__ = G.invariants  # where cached_property stores each value

    connected = cached_property(lambda self: self.G.is_connected())
    # None unless G is connected and bipartite
    bipartition = cached_property(lambda self: self.G.is_bipartite() if self.connected else None)
    nonbipartite = cached_property(lambda self: self.connected and self.bipartition is None)
    delta = cached_property(lambda self: self.G.min_degree())
    kappa = cached_property(lambda self: conn.vertex_connectivity(self.G) if self.connected else 0)
    kappa_dc = cached_property(lambda self: conn.vertex_connectivity(double_cover(self.G)))
    # (l_1, ..., l_k) when G is certified the product of those odd cycles, () when it is none, None: undecided
    odd_cycle_lengths = cached_property(lambda self: odd_cycle_lengths(self.G))
    # generators of Aut(G), those that fix G's kappa scan source first
    automorphisms = cached_property(lambda self: automorphism_generators(self.G, conn._scan_source(self.G)))


def theorem_rule(theorem_id, n=None):
    """The rule of a result, refusing an unknown id and an n given to a result that takes none."""
    rule = RULES.get(theorem_id) if isinstance(theorem_id, str) else None
    if rule is None:
        raise InputError(f"unknown theorem id {theorem_id!r}")
    if rule.n_min is None and n is not None:
        raise InputError(f"{theorem_id} takes no 'n'")
    return rule


# -- hypotheses ---------------------------------------------------------------


def n_rule_holds(rule, n):
    """Whether n meets the n-rule "n >= n_min [odd|even]" of a rule that takes n."""
    return n is not None and n >= rule.n_min and rule.parity in (None, ("even", "odd")[n % 2])


def _clauses(rule, inv, n):
    clauses = [_fixed_clause("G is connected", inv.connected)]
    if rule.graph_class == BIPARTITE:
        clauses.append(_fixed_clause("G is bipartite", inv.bipartition is not None))
    elif rule.graph_class == NONBIPARTITE:
        clauses.append(_fixed_clause("G is non-bipartite", inv.nonbipartite))
    if rule.n_min is not None:
        text = f"n >= {rule.n_min}" + (f" {rule.parity}" if rule.parity else "")
        clauses.append(_fixed_clause(text, n_rule_holds(rule, n)))
    if rule.part_sizes:
        B, limit = inv.bipartition, inv.delta + 1
        for part in ("X", "Y"):
            size = len(getattr(B, part)) if B else 0
            clauses.append(_clause(f"|{part}| >= delta+1 ({size} vs {limit})", B is not None and size >= limit))
    if rule.strict:
        invariant, minus, factor = rule.strict
        if invariant == "kappa_dc" and not inv.nonbipartite:
            # kappa(GxK2) is read only on a connected non-bipartite G
            clauses.append(_fixed_clause("kappa(GxK2) strict lower bound", False))
        elif n is not None:
            name = "kappa(G)" if invariant == "kappa" else "kappa(GxK2)"
            over, value = f"(n-{minus})" if minus else "n", getattr(inv, invariant)
            clauses.append(_clause(
                f"{name} > ({factor}/{over}) delta(G)  [{n - minus}*{value} > {factor}*{inv.delta}]",
                inv.connected and (n - minus) * value > factor * inv.delta,
            ))
    if rule.odd_cycles:
        lengths = inv.odd_cycle_lengths
        holds = None if lengths is None else bool(lengths)  # None: undecided
        clauses.append(_fixed_clause("G is a direct product of k >= 1 odd cycles", holds))
    return clauses


def check_hypotheses(theorem_id, G, n=None):
    """Evaluate every hypothesis clause separately. Strict rational
    inequalities are compared by integer cross-multiplication. The clause
    dicts are shared between verdicts and are read-only."""
    rule, inv = theorem_rule(theorem_id, n), _Invariants(G)
    return _clauses(rule, inv, n)


def hypotheses_hold(clauses):
    return all(c["holds"] for c in clauses)


def all_but_strict_hold(theorem_id, G, n=None):
    """Whether every hypothesis clause holds but a strict one: all that can be
    decided without kappa."""
    rule, inv = theorem_rule(theorem_id, n), _Invariants(G)
    return hypotheses_hold(_clauses(replace(rule, strict=None), inv, n))


# -- predictions --------------------------------------------------------------


def predicted(theorem_id, G, n=None):
    """The formula value / interval / property claim. Computed only from
    kappa(G), delta(G), kappa(G x K2), k and n -- never from the
    constructed product itself."""
    rule, inv = theorem_rule(theorem_id, n), _Invariants(G)
    clauses = _clauses(rule, inv, n)
    if not hypotheses_hold(clauses):
        failed = [c["clause"] for c in clauses if not c["holds"]]
        raise InputError(f"hypotheses not satisfied for {theorem_id}: {failed}")
    return rule.predict(inv, n)


# -- constructions --------------------------------------------------------------


def _construct(rule, inv, n):
    if rule.construction == TILDE:
        return tilde(inv.G, inv.bipartition, n)[0]
    if rule.construction == COVER:
        return double_cover(inv.G)
    return direct_product(inv.G, cycle(n))


def _settling(rule, G, H, n):
    """The graphs whose invariants settle the conclusion about H, H's
    component count, and whether the cycle shift certifies two components
    isomorphic: H itself, or for the two-component results the first
    component alone when certified and every component otherwise."""
    if rule.construction != COMPONENTS:
        return [H], 1, True
    comps, shift = H.components(), product_map(G, n, shift=1)  # (v,i) -> (v,i+1)
    isomorphic = len(comps) == 2 and _shift_is_isomorphism(H, shift, *comps)
    return [H.induced_subgraph(c) for c in comps[: 1 if isomorphic else None]], len(comps), isomorphic


def _shift_is_isomorphism(H, shift, A, B):
    """Weichsel's certificate that components A and B of G x C_n are
    isomorphic: the cycle shift maps A onto B and A's edges onto B's; O(|V| + |E|)."""
    edges_a, edges_b = [e for e in H.edges if e[0] in A], {e for e in H.edges if e[0] in B}
    return {shift(x) for x in A} == B and _maps_onto(shift, edges_a, edges_b)


# -- verdicts -----------------------------------------------------------------


def _witness_from_cut(H, cut):
    return {
        "graph6": write_graph6(H).strip(),
        "cut": sorted(cut.vertices),
        "cut_size": cut.size,
        "isolates_vertex": cut.isolates_vertex,
    }


def replay_witness(witness):
    """Re-derive a witness verdict from its serialized form: the cut must
    be a minimum cut that is no minimum-degree vertex's neighborhood."""
    H = parse_graph6(witness["graph6"])
    cut = conn.classify_cut(H, witness["cut"])
    return (
        cut.size == conn.vertex_connectivity(H)
        and not cut.is_neighborhood_of_min_degree_vertex
    )


def _instance(G, n, instance):
    """The verdict's instance: the descriptor given, with G's graph6 (sized
    as it is written) unless the descriptor has one, and n."""
    instance = dict(instance or {})
    if "graph6" not in instance:
        instance["graph6"] = write_graph6(G).strip()
    if n is not None:
        instance.setdefault("n", n)
    return instance


def _verdict_maker(theorem_id, instance, clauses, start):
    """A function that turns an outcome into a TheoremVerdict, timed from `start`."""

    def done(pred, actual, verdict, witness=None, notes=None):
        ms = int((time.perf_counter() - start) * 1000)
        return TheoremVerdict(theorem_id, instance, clauses, pred, actual, verdict, ms, witness, notes or [])

    return done


def verify(theorem_id, G, n=None, budget=conn.CUT_BUDGET, instance=None):
    """The hypothesis gate: evaluate every clause and, where all hold, `conclude`; where one fails, the
    hypotheses are not met, and where the rest hold but one is undecided, the verdict is indeterminate."""
    rule, inv = theorem_rule(theorem_id, n), _Invariants(G)
    start = time.perf_counter()
    instance = _instance(G, n, instance)  # a graph too large for its graph6 is refused before any clause runs
    clauses = _clauses(rule, inv, n)
    if not hypotheses_hold(clauses):
        done = _verdict_maker(theorem_id, instance, clauses, start)
        if False in [c["holds"] for c in clauses]:
            return done(None, None, HYP_NOT_MET)
        return done(None, None, INDETERMINATE, notes=[UNDECIDED_FACTORS])
    return conclude(theorem_id, G, n, budget, instance, clauses, start)


def conclude(theorem_id, G, n=None, budget=conn.CUT_BUDGET, instance=None, clauses=(), start=None):
    """The conclusion of a result on G and n, its hypotheses unread: build the
    construction, settle two components with the cycle-shift certificate,
    compute kappa or decide super-kappa with the connectivity module, compare
    against the prediction and build the witness. `verify` calls it once the
    hypotheses hold, passing their `clauses`, its `start` and the `instance`
    it built; the tightness search calls it on instances that miss one clause.

    For the super-connectivity results, `actual["minimum_cuts"]` counts the
    minimum cuts examined: all of them on a confirmation, and those up to
    and including the witness on a refutation.
    """
    rule, inv = theorem_rule(theorem_id, n), _Invariants(G)
    start = time.perf_counter() if start is None else start
    done = _verdict_maker(theorem_id, _instance(G, n, instance), list(clauses), start)
    pred = rule.predict(inv, n)
    if rule.composes:
        expected = RULES["T3.9"].predict(inv, None)
        if inv.kappa_dc != expected:
            actual = {"kappa_double_cover": inv.kappa_dc, "delta": inv.delta, "expected": expected}
            return done(pred, actual, REFUTED)
    H = _construct(rule, inv, n)
    # automorphisms of H, from G's: the kappa scan certifies each, runs one pair per orbit of those that fix
    # its source (s, 0), s G's own, and skips its neighbour phase once the orbit of (s, 0) is large enough;
    # the super-kappa decider takes kappa from that scan and draws its cuts from every pair in scan order
    symmetries = []
    if rule.construction == PRODUCT:
        symmetries = product_symmetries(inv.G, n, inv.automorphisms)
    elif rule.construction == TILDE:
        symmetries = layered_symmetries(inv.G, inv.bipartition, n, conn._scan_source(inv.G), inv.automorphisms)

    if rule.compare in (EQUAL, INTERVAL):
        actual = conn.vertex_connectivity(H, symmetries)
        ok = actual == pred if rule.compare == EQUAL else pred[0] <= actual <= pred[1]
        return done(pred, actual, CONFIRMED if ok else REFUTED)

    parts, count, isomorphic = _settling(rule, inv.G, H, n)
    copies = count // len(parts)  # a certified pair reports its first component's value twice
    actual = {}
    if rule.construction == COMPONENTS:
        actual["components"] = count
        if count != 2:
            return done(pred, actual, REFUTED)
    if rule.compare == COMPONENT_KAPPA:
        kappas = [conn.vertex_connectivity(sub) for sub in parts] * copies
        actual["component_kappa"] = kappas
        actual["isomorphic"] = isomorphic
        ok = kappas[0] == kappas[1] == pred["component_kappa"] and isomorphic
        return done(pred, actual, CONFIRMED if ok else REFUTED)

    # super-kappa, of H or of each component
    notes = [rule.composes] if rule.composes else []
    statuses, witness = [], None
    for sub in parts:
        res = conn.is_super_kappa(sub, budget, symmetries)
        statuses.append(res.status)
        if res.status is False and witness is None:
            witness = _witness_from_cut(sub, res.witness)
    statuses *= copies
    if rule.construction == COMPONENTS:
        actual["isomorphic"] = isomorphic
        actual["super_kappa"] = statuses
    else:
        actual = {"super_kappa": res.status, "minimum_cuts": res.cuts_examined}
    if None in statuses:
        return done(pred, actual, INDETERMINATE, notes=notes)
    ok = all(statuses) and isomorphic
    return done(pred, actual, CONFIRMED if ok else REFUTED, witness=witness, notes=notes)


# -- decomposition checks ------------------------------------------------------


def verify_decomposition(G, n, instance=None):
    """Confirm the constructive relabeling of G x C_n: its blocks partition
    E(G x C_n) and each maps onto G (bipartite cases) or onto G x K2, its left
    cycle layer on side 0; for bipartite odd n, the layer relabeling maps the
    cyclic layered graph onto G x C_n. A disconnected G fails the hypotheses.

    The verdict is named after its check, `decomposition:<case>`; a note names
    the result whose proof uses the case. The check reads none of that
    result's hypotheses, and its n minimum can lie below the result's n-rule,
    so confirming it confirms no result."""
    start = time.perf_counter()
    case = decomposition_case(G, n)
    result = next(tid for tid, rule in RULES.items() if rule.decomposition == case)
    instance = _instance(G, n, instance)
    instance["check"] = f"decomposition:{case}"
    clauses = [_fixed_clause("G is connected", G.is_connected())]
    done = _verdict_maker(instance["check"], instance, clauses, start)
    notes = [f"the proof of {result} uses this decomposition"]
    if not hypotheses_hold(clauses):
        return done(None, None, HYP_NOT_MET, notes=notes)
    dec = layer_decomposition(G, n)
    blocks = dec.H + dec.H_prime
    checks = {"reassembly": sum(map(len, blocks)) == len(dec.graph.edges) and dec.all_block_edges() == dec.graph.edges}
    base = (G if case.startswith("bipartite") else double_cover(G)).edges  # the left cycle layer on side 0
    checks["blocks_match_base"] = all(_maps_onto(f, blk, base) for f, blk in zip(dec.block_maps, blocks, strict=True))
    if case == "bipartite-odd":
        checks["tilde_edge_identity"] = _maps_onto(dec.tilde_map, tilde(G, G.is_bipartite(), n)[0].edges, dec.graph.edges)
        notes.append("layer relabeling maps the cyclic layered graph onto G x C_n")

    return done({"decomposition_valid": True}, checks, CONFIRMED if all(checks.values()) else REFUTED, notes=notes)
