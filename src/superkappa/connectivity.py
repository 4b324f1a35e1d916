"""Exact vertex/edge connectivity, minimum vertex cuts, and the
max-connectivity / super-connectivity predicates.

One flow engine serves all of them: unit-capacity augmenting-path flow on
the vertex-split digraph, with unit vertex arcs for kappa and unit edge
arcs for kappa'. Minimum cuts come from one method, Lawler-partitioning
minimum s-t separators, rooted at the kappa scan's own flows; each Lawler
node is one closure over its root's residual network, with no flow of its
own. At most CUT_BUDGET of the cuts are examined. Cuts are classified by
bit-BFS over adjacency masks, which also drives the brute-force subset scan
that tests use as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice

from .errors import InputError, NoCutError

CUT_BUDGET = 10**5  # distinct minimum cuts examined


@dataclass(frozen=True)
class VertexCut:
    vertices: frozenset
    size: int
    isolates_vertex: bool
    is_neighborhood_of_min_degree_vertex: bool

    def to_json(self):
        return {
            "vertices": sorted(self.vertices),
            "size": self.size,
            "isolates_vertex": self.isolates_vertex,
            "is_neighborhood_of_min_degree_vertex": self.is_neighborhood_of_min_degree_vertex,
        }


@dataclass
class SuperKappaResult:
    """Tri-state outcome: status True/False, or None when the budget
    stopped the decision (then enumeration_complete is False)."""

    status: bool | None
    witness: VertexCut | None = None
    vacuous: bool = False  # complete graph: no cuts to quantify over
    enumeration_complete: bool = True
    cuts_examined: int = 0
    method: str = "separator-enumeration"  # "flow" when no cut is enumerated


@dataclass
class ConnectivityReport:
    kappa: int
    kappa_edge: int | None
    delta: int
    is_max_kappa: bool
    is_super_kappa: bool | None
    witness_cut: VertexCut | None
    method: str  # "flow" | "separator-enumeration"
    enumeration_complete: bool
    vacuous_super_kappa: bool = False

    def to_json(self):
        return {
            "kappa": self.kappa,
            "kappa_edge": self.kappa_edge,
            "delta": self.delta,
            "is_max_kappa": self.is_max_kappa,
            "is_super_kappa": self.is_super_kappa,
            "witness_cut": self.witness_cut.to_json() if self.witness_cut else None,
            "method": self.method,
            "enumeration_complete": self.enumeration_complete,
            "vacuous_super_kappa": self.vacuous_super_kappa,
        }


# -- unit-capacity flow on the vertex-split digraph -------------------------


class _SplitFlow:
    """Unit-capacity flow on the vertex-split digraph, for kappa and kappa',
    and the residual closures that read minimum vertex cuts off a flow.

    Vertex v splits into nodes 2v (in) and 2v+1 (out) joined by an arc of
    capacity `vertex_cap`; every edge uv becomes arcs out(u)->in(v) and
    out(v)->in(u) of capacity `edge_cap`. These are the forward arcs; each
    has a reverse arc of capacity 0, so the flow on a forward arc is the
    residual capacity of its reverse. With (1, n + 1) a maximum flow counts
    internally vertex-disjoint s-t paths; with (n, 1) it counts
    edge-disjoint ones.
    """

    def __init__(self, G, vertex_cap, edge_cap):
        n = G.n
        cap = {}
        adj = [[] for _ in range(2 * n)]
        arcs = [(2 * v, 2 * v + 1, vertex_cap) for v in range(n)]
        for u, v in G.edges:
            arcs += ((2 * u + 1, 2 * v, edge_cap), (2 * v + 1, 2 * u, edge_cap))
        for a, b, c in arcs:  # no loops or parallel edges: every arc is new
            adj[a].append(b)
            adj[b].append(a)
            cap[(a, b)] = c
            cap[(b, a)] = 0
        self.cap = cap
        self.adj = adj

    def max_flow(self, s, t, limit):
        """Augment from out(s) to in(t), stopping early once `limit` more
        units are found; returns how many were found."""
        src, sink = 2 * s + 1, 2 * t
        cap = self.cap
        adj = self.adj
        flow = 0
        while flow < limit:
            parent = {src: None}
            queue = deque([src])
            while queue and sink not in parent:
                a = queue.popleft()
                for b in adj[a]:
                    if b not in parent and cap[(a, b)] > 0:
                        parent[b] = a
                        queue.append(b)
            if sink not in parent:
                break
            b = sink
            while parent[b] is not None:
                a = parent[b]
                cap[(a, b)] -= 1
                cap[(b, a)] += 1
                b = a
            flow += 1
        return flow

    def closure_cut(self, s, t, forced_in, forced_out):
        """The minimum s-t separator nearest the source that holds every
        forced-in vertex and no forced-out one, or None if there is none.

        The flow must have value kappa < n; if it is not maximum, the
        closure reaches in(t). The closure of out(s) and in(v), v forced
        in, under the positive residual arcs and the arcs in(f)->out(f),
        f forced out, must reach neither in(t) nor any such out(v). Its cut
        is every vertex whose in-node it reaches and whose out-node it does
        not."""
        cap, adj = self.cap, self.adj
        stop = {2 * t, *(2 * v + 1 for v in forced_in)}
        opened = {2 * f for f in forced_out}
        seen = {2 * s + 1, *(2 * v for v in forced_in)}
        stack = list(seen)
        while stack:
            a = stack.pop()
            opens = a + 1 if a in opened else None
            for b in adj[a]:
                if b not in seen and (cap[(a, b)] > 0 or b == opens):
                    if b in stop:
                        return None
                    seen.add(b)
                    stack.append(b)
        return frozenset(a >> 1 for a in seen if not a & 1 and a + 1 not in seen)


def _pair_scan_order(G):
    """Deterministic (s,t) scan: s = lowest-index minimum-degree vertex,
    t ascending over non-neighbors, then non-adjacent neighbor pairs."""
    delta = G.min_degree()
    s = min(v for v in range(G.n) if G.degree(v) == delta)
    ns = G.neighborhood(s)
    pairs = [(s, t) for t in range(G.n) if t != s and t not in ns]
    nbrs = sorted(ns)
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1 :]:
            if w not in G.neighborhood(u):
                pairs.append((u, w))
    return pairs


def _kappa_scan(G):
    """(s, t, flow, value) per pair in scan order, each a fresh network
    augmented up to the least value before it; the least value is kappa."""
    best = G.n - 1
    for s, t in _pair_scan_order(G):
        flow = _SplitFlow(G, 1, G.n + 1)
        value = flow.max_flow(s, t, best)
        best = min(best, value)
        yield s, t, flow, value


def vertex_connectivity(G):
    """kappa(G): |V|-1 for complete graphs, 0 when disconnected, else the
    minimum over non-adjacent pairs of the max vertex-disjoint path count."""
    if G.n == 0:
        raise InputError("connectivity of the empty graph")
    if G.is_complete():
        return G.n - 1
    if not G.is_connected():
        return 0
    return min(value for *_, value in _kappa_scan(G))


def vertex_connectivity_exhaustive(G):
    """Brute-force oracle: the least k for which some k-subset's removal
    disconnects the graph (0 when it is disconnected), scanning subsets in
    increasing size. Small graphs only."""
    if G.n == 0:
        raise InputError("connectivity of the empty graph")
    if G.is_complete():
        return G.n - 1
    for k in range(G.n - 1):
        for _ in _exhaustive_cuts(G, k):
            return k


def _exhaustive_cuts(G, k):
    """Every k-subset whose removal disconnects G, in lexicographic order."""
    masks = G.adjacency_masks()
    full = (1 << G.n) - 1
    for S in combinations(range(G.n), k):
        rem = full & ~sum(1 << v for v in S)
        if rem and _component(masks, rem) != rem:
            yield frozenset(S)


def _component(masks, rem):
    """Bitmask of the lowest vertex's component in the subgraph `rem` induces."""
    comp = rem & -rem
    frontier = comp
    while frontier:
        nbrs = 0
        m = frontier
        while m:
            b = m & -m
            nbrs |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nbrs & rem & ~comp
        comp |= frontier
    return comp


def edge_connectivity(G):
    """kappa'(G): minimum edge cut size via unit-capacity flow, fixed source."""
    if G.n < 2:
        raise InputError("edge connectivity needs at least 2 vertices")
    if not G.is_connected():
        return 0
    flow = _SplitFlow(G, G.n, 1)
    zero_flow = flow.cap
    best = G.min_degree()
    for t in range(1, G.n):
        flow.cap = dict(zero_flow)
        best = min(best, flow.max_flow(0, t, best))
    return best


# -- cuts and predicates -----------------------------------------------------


def classify_cut(G, S):
    """Build a VertexCut for S, recomputing both classification flags from
    the components of G - S, found by bit-BFS over the adjacency masks."""
    S = frozenset(S)
    smask = 0
    for v in S:
        G._check_vertex(v)
        smask |= 1 << v
    masks = G.adjacency_masks()
    rem, comps = ((1 << G.n) - 1) & ~smask, []
    while rem:
        comps.append(_component(masks, rem))
        rem &= ~comps[-1]
    if len(comps) < 2:
        raise InputError(f"{sorted(S)} is not a vertex cut")
    return VertexCut(
        vertices=S,
        size=len(S),
        isolates_vertex=any(c & (c - 1) == 0 for c in comps),
        is_neighborhood_of_min_degree_vertex=len(S) == G.min_degree() and smask in masks,
    )


def minimum_vertex_cut(G):
    """One minimum cut: the first that the separator stream yields, the cut
    nearest s of the first optimal (s,t) pair in scan order."""
    if not G.is_connected():
        raise InputError("minimum cut of a disconnected graph")
    if G.is_complete():
        raise NoCutError("complete graphs have no vertex cut")
    return classify_cut(G, next(_minimum_cuts(G)[1]))


@dataclass
class CutEnumeration:
    cuts: list
    complete: bool


def _separator_cuts(G, roots):
    """Distinct minimum vertex cuts, pair by pair in scan order. A root
    (s, t, residual capacities) is a kappa-scan flow of value kappa, put on
    one base network; Lawler's partitioning over forced-in/forced-out
    vertices then yields each minimum s-t separator once.

    A node whose cut has free vertices f_0..f_k has children i = 0..k:
    f_0..f_(i-1) forced in, f_i forced out. Every minimum s-t cut is a node
    set closed under the residual arcs of any one maximum flow (Picard &
    Queyranne 1980), so a node needs no flow of its own: its cut is the
    smallest such closure that obeys the forcing, `closure_cut` on the root's
    residual network. A root whose closure reaches in(t) is a pair whose
    connectivity exceeds kappa: the scan stopped its flow at kappa.
    """
    found = set()
    flow = _SplitFlow(G, 1, G.n + 1)
    keys = list(flow.cap)
    for s, t, residual in roots:
        flow.cap = dict(zip(keys, residual))
        stack = [(frozenset(), frozenset())]  # (forced_in, forced_out)
        while stack:
            forced_in, forced_out = stack.pop()
            cut = flow.closure_cut(s, t, forced_in, forced_out)
            if cut is None:
                continue
            if cut not in found:
                found.add(cut)
                yield cut
            free = sorted(cut - forced_in)
            stack.extend((forced_in | frozenset(free[:i]), forced_out | {free[i]}) for i in range(len(free)))


def _minimum_cuts(G):
    """(kappa from one scan, stream of minimum cuts as vertex sets) of a
    connected, non-complete G."""
    kappa, roots = G.n - 1, []  # the pairs whose flow is the least so far
    for s, t, flow, value in _kappa_scan(G):
        if value < kappa:
            kappa, roots = value, []
        if value == kappa:
            roots.append((s, t, list(flow.cap.values())))
    return kappa, _separator_cuts(G, roots)


def all_minimum_vertex_cuts(G, budget=CUT_BUDGET):
    """Every vertex cut of size kappa(G), sorted, with a completeness flag.

    The cuts are the Lawler-partitioned minimum s-t separators over the
    Esfahanian-Hakimi pairs; the enumeration is complete while the distinct
    cuts fit min(budget, CUT_BUDGET).
    """
    if not G.is_connected():
        raise InputError("cut enumeration on a disconnected graph")
    if G.is_complete():
        raise NoCutError("complete graphs have no vertex cut")
    cap = min(budget, CUT_BUDGET)
    raw = list(islice(_minimum_cuts(G)[1], cap + 1))
    cuts = [classify_cut(G, S) for S in sorted(raw, key=sorted)]
    return CutEnumeration(cuts=cuts, complete=len(raw) <= cap)


def is_super_kappa(G, budget=CUT_BUDGET):
    """Every minimum vertex cut is the neighborhood of a minimum-degree
    vertex. Complete graphs hold vacuously.

    Cuts are classified as the separator stream of `all_minimum_vertex_cuts`
    yields them; the first that is no such neighborhood is the witness (with
    kappa < delta, the first cut). Only a True status examines every minimum
    cut. Status None: more than min(budget, CUT_BUDGET) cuts were needed.
    """
    return _super_kappa(G, budget)[1]


def _super_kappa(G, budget):
    """(kappa, is_super_kappa's result), with kappa from the decision's own scan."""
    if not G.is_connected():
        raise InputError("super connectivity of a disconnected graph")
    if G.is_complete():
        return G.n - 1, SuperKappaResult(status=True, vacuous=True, method="flow")
    kappa, stream = _minimum_cuts(G)
    cap = min(budget, CUT_BUDGET)
    examined = 0
    for S in islice(stream, cap + 1):
        examined += 1
        cut = classify_cut(G, S)
        if not cut.is_neighborhood_of_min_degree_vertex:
            return kappa, SuperKappaResult(status=False, witness=cut, cuts_examined=examined)
    complete = examined <= cap
    return kappa, SuperKappaResult(
        status=True if complete else None,
        enumeration_complete=complete,
        cuts_examined=examined,
    )


def is_max_kappa(G):
    if not G.is_connected():
        raise InputError("max connectivity of a disconnected graph")
    return vertex_connectivity(G) == G.min_degree()


def connectivity_report(G, budget=CUT_BUDGET):
    connected = G.is_connected()
    if connected:
        kappa, sk = _super_kappa(G, budget)
    else:  # kappa 0, or InputError on the empty graph
        kappa, sk = vertex_connectivity(G), SuperKappaResult(status=None, method="flow")
    delta = G.min_degree()
    return ConnectivityReport(
        kappa=kappa,
        kappa_edge=edge_connectivity(G) if G.n >= 2 else None,
        delta=delta,
        is_max_kappa=connected and kappa == delta,
        is_super_kappa=sk.status,
        witness_cut=sk.witness,
        method=sk.method,
        enumeration_complete=sk.enumeration_complete,
        vacuous_super_kappa=sk.vacuous,
    )
