"""Checkable rules for the connectivity and super-connectivity results:
hypothesis evaluation, formula predictions, independent ground truth, and
verdicts with replayable witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import connectivity as conn
from .construct import cycle, direct_product, double_cover, layer_decomposition, tilde
from .errors import CapacityError, InputError
from .formats import parse_graph6, write_graph6
from .graph import ISO_CAP, Graph, is_isomorphic_small

THEOREM_IDS = (
    "T2.1", "L2.2",
    "T3.1", "T3.2", "T3.3", "T3.4",
    "T3.5", "T3.6", "T3.7", "T3.8",
    "T3.9", "C3.10", "C3.11",
)

CONFIRMED = "confirmed"
REFUTED = "refuted"
HYP_NOT_MET = "hypotheses-not-met"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Clause:
    text: str
    holds: bool


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
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "hypotheses": [{"clause": c.text, "holds": c.holds} for c in self.hypotheses],
            "predicted": self.predicted,
            "actual": self.actual,
            "verdict": self.verdict,
            "runtime_ms": self.runtime_ms,
            "witness": self.witness,
            "notes": self.notes,
        }


def _check_theorem_id(theorem_id):
    if theorem_id not in THEOREM_IDS:
        raise InputError(f"unknown theorem id {theorem_id!r}")


def _needs_cycle_lengths(theorem_id):
    return theorem_id in ("T3.9", "C3.10", "C3.11")


# -- hypotheses ---------------------------------------------------------------


def check_hypotheses(theorem_id, G, n=None, odd_cycle_lengths=None):
    """Evaluate every hypothesis clause separately. Strict rational
    inequalities are compared by integer cross-multiplication."""
    _check_theorem_id(theorem_id)
    if G is None or G.n == 0:
        raise InputError("hypothesis check needs a nonempty graph")
    clauses = []
    connected = G.is_connected()
    clauses.append(Clause("G is connected", connected))
    B = G.is_bipartite() if connected else None
    delta = G.min_degree()
    kappa = conn.vertex_connectivity(G) if connected else 0

    def add(text, holds):
        clauses.append(Clause(text, bool(holds)))

    bip = B is not None

    if theorem_id in ("T2.1", "L2.2", "T3.1", "T3.2", "T3.5", "T3.6"):
        add("G is bipartite", bip)
    if theorem_id in ("T3.3", "T3.4", "T3.7", "T3.8"):
        add("G is non-bipartite", connected and not bip)

    if theorem_id == "T2.1":
        add("n >= 2", n is not None and n >= 2)
    elif theorem_id in ("L2.2",):
        add("n >= 3", n is not None and n >= 3)
    elif theorem_id in ("T3.1", "T3.5"):
        add("n >= 3 odd", n is not None and n >= 3 and n % 2 == 1)
    elif theorem_id == "T3.2":
        add("n >= 4 even", n is not None and n >= 4 and n % 2 == 0)
    elif theorem_id == "T3.3":
        add("n >= 4 even", n is not None and n >= 4 and n % 2 == 0)
    elif theorem_id == "T3.4":
        add("n >= 5 odd", n is not None and n >= 5 and n % 2 == 1)
    elif theorem_id == "T3.6":
        add("n >= 6 even", n is not None and n >= 6 and n % 2 == 0)
    elif theorem_id in ("T3.7", "C3.10"):
        add("n >= 6 even", n is not None and n >= 6 and n % 2 == 0)
    elif theorem_id in ("T3.8", "C3.11"):
        add("n >= 7 odd", n is not None and n >= 7 and n % 2 == 1)

    if theorem_id in ("L2.2", "T3.5", "T3.6"):
        x = len(B.X) if bip else 0
        y = len(B.Y) if bip else 0
        add(f"|X| >= delta+1 ({x} vs {delta + 1})", bip and x >= delta + 1)
        add(f"|Y| >= delta+1 ({y} vs {delta + 1})", bip and y >= delta + 1)
    if theorem_id in ("L2.2", "T3.5") and n is not None:
        add(
            f"kappa(G) > (2/n) delta(G)  [{n}*{kappa} > 2*{delta}]",
            connected and n * kappa > 2 * delta,
        )
    if theorem_id == "T3.6" and n is not None:
        add(
            f"kappa(G) > (4/n) delta(G)  [{n}*{kappa} > 4*{delta}]",
            connected and n * kappa > 4 * delta,
        )
    if theorem_id in ("T3.7", "T3.8") and n is not None and connected and not bip:
        kdc = conn.vertex_connectivity(double_cover(G))
        if theorem_id == "T3.7":
            add(
                f"kappa(GxK2) > (4/n) delta(G)  [{n}*{kdc} > 4*{delta}]",
                n * kdc > 4 * delta,
            )
        else:
            add(
                f"kappa(GxK2) > (4/(n-1)) delta(G)  [{n - 1}*{kdc} > 4*{delta}]",
                (n - 1) * kdc > 4 * delta,
            )
    elif theorem_id in ("T3.7", "T3.8"):
        if not (connected and not bip):
            add("kappa(GxK2) strict lower bound", False)

    if _needs_cycle_lengths(theorem_id):
        ok = (
            odd_cycle_lengths is not None
            and len(odd_cycle_lengths) >= 1
            and all(l >= 3 and l % 2 == 1 for l in odd_cycle_lengths)
        )
        add("G is a direct product of k >= 1 odd cycles", ok)

    return clauses


def hypotheses_hold(clauses):
    return all(c.holds for c in clauses)


# -- predictions --------------------------------------------------------------


def predicted(theorem_id, G, n=None, odd_cycle_lengths=None):
    """The formula value / interval / property claim. Computed only from
    kappa(G), delta(G), kappa(G x K2), k and n -- never from the
    constructed product itself."""
    _check_theorem_id(theorem_id)
    clauses = check_hypotheses(theorem_id, G, n=n, odd_cycle_lengths=odd_cycle_lengths)
    if not hypotheses_hold(clauses):
        failed = [c.text for c in clauses if not c.holds]
        raise InputError(f"hypotheses not satisfied for {theorem_id}: {failed}")
    delta = G.min_degree()
    kappa = conn.vertex_connectivity(G)
    if theorem_id in ("T2.1", "T3.1"):
        return min(n * kappa, 2 * delta)
    if theorem_id in ("T3.2", "T3.6"):
        each = min(n // 2 * kappa, 2 * delta)
        claim = {"components": 2, "component_kappa": each, "isomorphic": True}
        if theorem_id == "T3.6":
            claim["super_kappa"] = True
        return claim
    if theorem_id in ("T3.3", "T3.4"):
        kdc = conn.vertex_connectivity(double_cover(G))
        if theorem_id == "T3.3":
            return min(n // 2 * kdc, 2 * delta)
        return [min((n - 1) // 2 * kdc, 2 * delta), min((n + 1) // 2 * kdc, 2 * delta)]
    if theorem_id == "T3.9":
        return 2 ** len(odd_cycle_lengths)
    # L2.2, T3.5, T3.7, T3.8, C3.10, C3.11
    return {"super_kappa": True}


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


def _components_isomorphic(prod, comps, notes):
    g1 = prod.induced_subgraph(sorted(comps[0]))
    g2 = prod.induced_subgraph(sorted(comps[1]))
    try:
        return is_isomorphic_small(g1, g2)
    except CapacityError:
        same = (
            g1.n == g2.n
            and len(g1.edges) == len(g2.edges)
            and sorted(g1.degree(v) for v in range(g1.n))
            == sorted(g2.degree(v) for v in range(g2.n))
            and conn.vertex_connectivity(g1) == conn.vertex_connectivity(g2)
        )
        notes.append(
            f"components above the {ISO_CAP}-vertex isomorphism cap; "
            "compared by invariants (order, size, degree multiset, kappa)"
        )
        return same


def verify(theorem_id, G, n=None, budget=conn.EXHAUSTIVE_BUDGET, odd_cycle_lengths=None, instance=None):
    """Check hypotheses, build the construction, compute ground truth with
    the connectivity module, and compare against the prediction.

    For the super-connectivity results, `actual["minimum_cuts"]` counts the
    minimum cuts examined: all of them on a confirmation, and those up to
    and including the witness on a refutation.
    """
    _check_theorem_id(theorem_id)
    start = time.perf_counter()
    instance = dict(instance or {})
    instance.setdefault("graph6", write_graph6(G).strip())
    if n is not None:
        instance.setdefault("n", n)
    clauses = check_hypotheses(theorem_id, G, n=n, odd_cycle_lengths=odd_cycle_lengths)

    def done(pred, actual, verdict, witness=None, notes=None):
        ms = int((time.perf_counter() - start) * 1000)
        return TheoremVerdict(
            theorem_id=theorem_id,
            instance=instance,
            hypotheses=clauses,
            predicted=pred,
            actual=actual,
            verdict=verdict,
            runtime_ms=ms,
            witness=witness,
            notes=notes or [],
        )

    if not hypotheses_hold(clauses):
        return done(None, None, HYP_NOT_MET)

    pred = predicted(theorem_id, G, n=n, odd_cycle_lengths=odd_cycle_lengths)
    notes = []

    if theorem_id in ("T2.1", "L2.2"):
        H, _ = tilde(G, G.is_bipartite(), n)
    elif theorem_id == "T3.9":
        H = double_cover(G)
    else:
        H = direct_product(G, cycle(n))

    if theorem_id in ("T2.1", "T3.1"):
        actual = conn.vertex_connectivity(H)
        return done(pred, actual, CONFIRMED if actual == pred else REFUTED)

    if theorem_id == "T3.3":
        actual = conn.vertex_connectivity(H)
        return done(pred, actual, CONFIRMED if actual == pred else REFUTED)

    if theorem_id == "T3.4":
        actual = conn.vertex_connectivity(H)
        lo, hi = pred
        notes.append(f"kappa(GxC_n)={actual} within [{lo},{hi}]")
        return done(pred, actual, CONFIRMED if lo <= actual <= hi else REFUTED)

    if theorem_id == "T3.9":
        actual = conn.vertex_connectivity(H)
        return done(pred, actual, CONFIRMED if actual == pred else REFUTED)

    if theorem_id == "T3.2":
        comps = H.components()
        actual = {"components": len(comps)}
        if len(comps) != 2:
            return done(pred, actual, REFUTED)
        kappas = [
            conn.vertex_connectivity(H.induced_subgraph(sorted(c))) for c in comps
        ]
        actual["component_kappa"] = kappas
        actual["isomorphic"] = _components_isomorphic(H, comps, notes)
        ok = (
            kappas[0] == kappas[1] == pred["component_kappa"]
            and actual["isomorphic"]
        )
        return done(pred, actual, CONFIRMED if ok else REFUTED, notes=notes)

    if theorem_id == "T3.6":
        comps = H.components()
        actual = {"components": len(comps)}
        if len(comps) != 2:
            return done(pred, actual, REFUTED)
        actual["isomorphic"] = _components_isomorphic(H, comps, notes)
        statuses = []
        witness = None
        for c in comps:
            sub = H.induced_subgraph(sorted(c))
            res = conn.is_super_kappa(sub, budget=budget)
            statuses.append(res.status)
            if res.status is False and witness is None:
                witness = _witness_from_cut(sub, res.witness)
        actual["super_kappa"] = statuses
        if any(s is None for s in statuses):
            return done(pred, actual, INDETERMINATE, notes=notes)
        ok = all(statuses) and actual["isomorphic"]
        return done(pred, actual, CONFIRMED if ok else REFUTED, witness=witness, notes=notes)

    if theorem_id in ("L2.2", "T3.5", "T3.7", "T3.8", "C3.10", "C3.11"):
        if theorem_id == "C3.10":
            notes.append("composed as: kappa(GxK2)=2^k (T3.9) feeding T3.7")
        if theorem_id == "C3.11":
            notes.append(
                "composed as: kappa(GxK2)=2^k (T3.9) feeding T3.8 "
                "(the even-n rule does not apply to odd n)"
            )
        if theorem_id in ("C3.10", "C3.11"):
            k = len(odd_cycle_lengths)
            kdc = conn.vertex_connectivity(double_cover(G))
            delta = G.min_degree()
            if kdc != 2 ** k or delta != 2 ** k:
                actual = {"kappa_double_cover": kdc, "delta": delta, "expected": 2 ** k}
                return done(pred, actual, REFUTED)
        res = conn.is_super_kappa(H, budget=budget)
        actual = {"super_kappa": res.status, "minimum_cuts": res.cuts_examined}
        if res.status is None:
            return done(pred, actual, INDETERMINATE, notes=notes)
        if res.status:
            return done(pred, actual, CONFIRMED, notes=notes)
        return done(pred, actual, REFUTED, witness=_witness_from_cut(H, res.witness), notes=notes)

    raise InputError(f"unhandled theorem id {theorem_id!r}")  # pragma: no cover


# -- decomposition checks ------------------------------------------------------


_CASE_FOR = {
    ("bipartite", "odd"): ("bipartite-odd", "T3.5"),
    ("bipartite", "even"): ("bipartite-even", "T3.6"),
    ("nonbipartite", "even"): ("nonbipartite-even", "T3.7"),
    ("nonbipartite", "odd"): ("nonbipartite-odd", "T3.8"),
}


def _block_graph(edges):
    verts = sorted({v for e in edges for v in e})
    idx = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(idx[u], idx[v]) for u, v in edges]), verts


def _bipartite_block_matches(G, n, edges):
    """A bipartite-case block equals G under (v, i) -> v."""
    mapped = {tuple(sorted((u // n, v // n))) for u, v in edges}
    return mapped == G.edges


def _cover_block_matches(G, n, edges, left_layer):
    """A non-bipartite-case block equals G x K2 under (v,i) -> (v, side)."""
    dc = double_cover(G)

    def side(vid):
        return 0 if vid in left_layer else 1

    mapped = {
        tuple(sorted(((u // n) * 2 + side(u), (v // n) * 2 + side(v))))
        for u, v in edges
    }
    return mapped == dc.edges


def verify_decomposition(G, n, budget=conn.EXHAUSTIVE_BUDGET, instance=None):
    """Confirm the constructive relabeling of G x C_n: exact edge-set
    reassembly and per-block identity with G (bipartite cases) or with
    G x K2 (non-bipartite cases); for bipartite odd n, edge-level identity
    with the cyclic layered construction."""
    start = time.perf_counter()
    B = G.is_bipartite()
    key = ("bipartite" if B else "nonbipartite", "even" if n % 2 == 0 else "odd")
    case, theorem_id = _CASE_FOR[key]
    instance = dict(instance or {})
    instance.setdefault("graph6", write_graph6(G).strip())
    instance.setdefault("n", n)
    instance["check"] = f"decomposition:{case}"

    clauses = [Clause("G is connected", G.is_connected())]
    dec = layer_decomposition(G, n, case)
    prod = direct_product(G, cycle(n))

    checks = {}
    checks["reassembly"] = dec.all_block_edges() == prod.edges
    if case.startswith("bipartite"):
        blocks_ok = all(_bipartite_block_matches(G, n, blk) for blk in dec.H)
        blocks_ok = blocks_ok and all(
            _bipartite_block_matches(G, n, blk) for blk in dec.H_prime
        )
    else:
        blocks_ok = all(
            _cover_block_matches(G, n, blk, dec.layer_X[i])
            for i, blk in enumerate(dec.H)
        )
        blocks_ok = blocks_ok and all(
            _cover_block_matches(G, n, blk, dec.layer_Y[i])
            for i, blk in enumerate(dec.H_prime)
        )
    checks["blocks_match_base"] = blocks_ok

    notes = []
    if case == "bipartite-odd":
        tg, tdec = tilde(G, B, n)
        mapping = {}
        for k in range(n):
            for v in tdec.layer_X[k]:
                base = v % G.n
                mapping[v] = base * n + (dec.x_cycle_layer[k] - 1)
            for v in tdec.layer_Y[k]:
                base = v % G.n
                mapping[v] = base * n + (dec.y_cycle_layer[k] - 1)
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in tg.edges}
        checks["tilde_edge_identity"] = mapped == prod.edges
        notes.append("layer relabeling maps the cyclic layered graph onto G x C_n")

    ok = all(checks.values()) and all(c.holds for c in clauses)
    ms = int((time.perf_counter() - start) * 1000)
    return TheoremVerdict(
        theorem_id=theorem_id,
        instance=instance,
        hypotheses=clauses,
        predicted={"decomposition_valid": True},
        actual=checks,
        verdict=CONFIRMED if ok else REFUTED,
        runtime_ms=ms,
        notes=notes,
    )
