"""Exact vertex/edge connectivity, minimum vertex cuts, and the
max-connectivity / super-connectivity predicates.

One flow engine serves kappa and kappa': unit-capacity augmenting-path
flow on the vertex-split digraph, with unit vertex arcs for kappa and unit
edge arcs for kappa'. The kappa scan takes optional symmetries, vertex maps
it certifies as automorphisms before it uses any: every value verdict on a
construction passes them, T2.1 on the cyclic layered graph and T3.1, T3.3
and T3.4 on G x C_n, each map lifted by `construct` from generators of
Aut(G) that one search from G's scan source finds. The scan runs one pair
per orbit of the certified maps that fix its source, and skips its
neighbour phase once the source's orbit under all of them outnumbers the
first phase's minimum. The super-kappa decider takes the same maps on
those constructions (L2.2 on the layered graph, the other super-kappa results
on G x C_n) for kappa alone: its cut stream and witness still come from every
pair in scan order, a pair the scan left out flowed only when the stream
reaches it, so the stream is the one without maps. T3.6's components,
`connectivity_report`, kappa(G), kappa(G x K2) and T3.2's component kappa pass
none and scan every pair.

Minimum cuts come from one method, Lawler-partitioning minimum s-t
separators, rooted at the kappa scan's own flows and at flows run to kappa
for the pairs it left out, each kept as a vertex-level flow state; each
Lawler node is one bit-BFS closure over its root's residual arcs and the
adjacency masks, with no flow of its own. At most CUT_BUDGET of the cuts
are examined. A witness cut is classified by bit-BFS, which also drives
the brute-force subset scan that tests use as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice

from .errors import InputError, NoCutError
from .graph import _maps_onto, orbit

CUT_BUDGET = 10**5  # distinct minimum cuts examined


@dataclass(frozen=True)
class VertexCut:
    vertices: frozenset
    size: int
    isolates_vertex: bool
    is_neighborhood_of_min_degree_vertex: bool

    def to_json(self):
        return {**vars(self), "vertices": sorted(self.vertices)}


@dataclass
class SuperKappaResult:
    """Tri-state outcome: status True/False, or None when the budget
    stopped the decision (then enumeration_complete is False)."""

    status: bool | None
    kappa: int  # of the graph decided, from the decision's own scan
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
        return {**vars(self), "witness_cut": self.witness_cut.to_json() if self.witness_cut else None}


# -- unit-capacity flow on the vertex-split digraph -------------------------


class _SplitFlow:
    """Unit-capacity flow on the vertex-split digraph, for kappa and kappa'.

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


def _scan_source(G):
    """The scan's source: the lowest-index minimum-degree vertex."""
    delta = G.min_degree()
    return min(v for v in range(G.n) if G.degree(v) == delta)


def _pair_scan_order(G):
    """Deterministic (s,t) scan: s = `_scan_source(G)`, t ascending over
    non-neighbors, then non-adjacent neighbor pairs."""
    s = _scan_source(G)
    ns = G.neighborhood(s)
    pairs = [(s, t) for t in range(G.n) if t != s and t not in ns]
    nbrs = sorted(ns)
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1 :]:
            if w not in G.neighborhood(u):
                pairs.append((u, w))
    return pairs


def _automorphisms(G, maps):
    """The maps, each a sequence read as v -> map[v], that permute V(G) and
    send E(G) onto E(G) as `_maps_onto` certifies; any other is dropped."""
    vertices = list(range(G.n))
    return [p for p in maps if len(p) == G.n and sorted(p) == vertices and _maps_onto(p.__getitem__, G.edges, G.edges)]


def _orbit_firsts(pairs, maps):
    """The pairs, in order, whose orbit under the group the maps generate
    holds no earlier pair. `seen` holds each pair reached in both orders."""
    seen, firsts = set(), []
    for pair in pairs:
        if pair not in seen:
            firsts.append(pair)
            members = [pair]
            seen.update((pair, pair[::-1]))
            for u, w in members:  # the orbit grows as it is read
                for p in maps:
                    image = p[u], p[w]
                    if image not in seen:
                        seen.update((image, image[::-1]))
                        members.append(image)
    return firsts


def _kappa_scan(G, symmetries=(), pairs=None):
    """(s, t, flow, value) per pair in scan order (`pairs`, default
    `_pair_scan_order(G)`), each a fresh network augmented up to the least
    value before it; the least value is kappa.

    With `symmetries`, those `_automorphisms` keeps prune the scan; the least
    value is still kappa. An automorphism fixing s maps each pair to one of
    equal connectivity, so only the first pair of each orbit under those that
    fix s is scanned. And let O be the orbit of s under all of them: once the
    pairs (s, t) are scanned, with least value best, the neighbour pairs are
    skipped if |O| > best. A minimum cut then misses some x in O, and a map
    taking x to s makes it a minimum cut avoiding s, which separates s from
    some t outside N[s]: best is kappa already."""
    s, maps = _scan_source(G), _automorphisms(G, symmetries)
    pairs = _pair_scan_order(G) if pairs is None else pairs
    if maps:
        pairs = _orbit_firsts(pairs, [p for p in maps if p[s] == s])
    orbit_size, best = len(orbit(s, maps)), G.n - 1
    for u, t in pairs:
        if u != s and orbit_size > best:
            return
        flow = _SplitFlow(G, 1, G.n + 1)
        value = flow.max_flow(u, t, best)
        best = min(best, value)
        yield u, t, flow, value


def vertex_connectivity(G, symmetries=()):
    """kappa(G): |V|-1 for complete graphs, 0 when disconnected, else the
    minimum over non-adjacent pairs of the max vertex-disjoint path count.

    `symmetries`: vertex maps, each a sequence read as v -> map[v]; those
    `_automorphisms` keeps prune the pair scan (`_kappa_scan`)."""
    if G.n == 0:
        raise InputError("connectivity of the empty graph")
    if G.is_complete():
        return G.n - 1
    if not G.is_connected():
        return 0
    return min(value for *_, value in _kappa_scan(G, symmetries))


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


def _union(table, m):
    """OR of table[v] over the vertices v of mask m: one bit-BFS step."""
    out = 0
    while m:
        b = m & -m
        out |= table[b.bit_length() - 1]
        m ^= b
    return out


def _component(masks, rem):
    """Bitmask of the lowest vertex's component in the subgraph `rem` induces."""
    comp = frontier = rem & -rem
    while frontier:
        frontier = _union(masks, frontier) & rem & ~comp
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


@dataclass
class CutEnumeration:
    cuts: list
    complete: bool


def _flow_state(G, flow):
    """A finished kappa-scan flow at vertex level: the mask of the vertices v
    whose arc in(v)->out(v) it saturates, and per v the mask of the u whose
    reverse arc in(v)->out(u), in(v)'s only residual arc, carries v's unit.
    Read off the arcs, not followed from s, so flow cycles are kept."""
    cap, adj, through, pred = flow.cap, flow.adj, 0, {}
    for v in range(G.n):
        a = 2 * v
        if not cap[(a, a + 1)]:
            through |= 1 << v
            for b in adj[a]:
                if cap[(a, b)]:
                    pred[v] = 1 << (b >> 1)
                    break
    return through, pred


def _closure(masks, through, pred, s, t, forced_in, forced_out):
    """The minimum s-t separator nearest the source that holds every forced-in
    vertex and no forced-out one, as a mask, or None if there is none.

    A bit-BFS of the residual network from out(s) and each forced-in in(v):
    out(u) reaches in(w) for each neighbor w, and in(u) if u carries flow;
    in(v) reaches out(pred[v]) if v carries flow, and out(v) if not or if v
    is forced out. Reaching in(t) or a forced-in out(v) means no cut; else
    the cut is every vertex whose in-node is reached and out-node is not."""
    opens = ~through | forced_out
    ins = new_in = forced_in
    outs = new_out = 1 << s
    while new_in or new_out:
        reach_in = _union(masks, new_out) | new_out & through
        reach_out = new_in & opens | _union(pred, new_in & through)
        new_in, new_out = reach_in & ~ins, reach_out & ~outs
        ins, outs = ins | new_in, outs | new_out
        if ins >> t & 1 or outs & forced_in:
            return None
    return ins & ~outs


def _separator_cuts(G, roots):
    """Distinct minimum vertex cuts, pair by pair in scan order. A root is
    (s, t, *_flow_state) of an s-t flow of value kappa; Lawler's
    partitioning then yields each minimum s-t separator once.

    A node whose cut has free vertices f_0..f_k has children i = 0..k:
    f_0..f_(i-1) forced in, f_i forced out. Every minimum s-t cut is a node
    set closed under the residual arcs of any one maximum flow (Picard &
    Queyranne 1980), so a node needs no flow of its own: its cut is the
    smallest such closure that obeys the forcing, `_closure` over the root's
    flow state and the adjacency masks. A root whose closure reaches in(t) is
    a pair whose connectivity exceeds kappa, its flow stopped at kappa.
    """
    found, masks = set(), G.adjacency_masks()
    for s, t, through, pred in roots:
        stack = [(0, 0)]  # (forced_in, forced_out) masks
        while stack:
            forced_in, forced_out = stack.pop()
            cut = _closure(masks, through, pred, s, t, forced_in, forced_out)
            if cut is None:
                continue
            if cut not in found:
                found.add(cut)
                yield frozenset(v for v in range(G.n) if cut >> v & 1)
            free = cut & ~forced_in
            while free:  # child i, f_i the lowest vertex left
                f = free & -free
                stack.append((forced_in, forced_out | f))
                forced_in, free = forced_in | f, free ^ f


def _minimum_cuts(G, symmetries=()):
    """(kappa, stream of minimum cuts as vertex sets) of a connected,
    non-complete G, kappa from one `_kappa_scan(G, symmetries)`.

    The roots are every pair of `_pair_scan_order`, in order: a scanned pair
    with its own flow, kept if its value is kappa, and a pair the scan pruned
    or skipped with a flow run to kappa only when the stream reaches it. A
    pair of connectivity kappa then has a maximum flow, whose closures are
    the same as any other's; one above kappa has a flow stopped at kappa,
    whose closure reaches in(t). So the stream does not depend on the maps."""
    order, kappa, scanned, states = _pair_scan_order(G), G.n - 1, set(), {}
    for s, t, flow, value in _kappa_scan(G, symmetries, order):
        scanned.add((s, t))
        if value < kappa:
            kappa, states = value, {}
        if value == kappa:
            states[s, t] = _flow_state(G, flow)

    def roots():
        for s, t in order:
            if (s, t) in states:
                yield s, t, *states[s, t]
            elif (s, t) not in scanned:
                flow = _SplitFlow(G, 1, G.n + 1)
                flow.max_flow(s, t, kappa)
                yield s, t, *_flow_state(G, flow)

    return kappa, _separator_cuts(G, roots())


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


def is_super_kappa(G, budget=CUT_BUDGET, symmetries=()):
    """Every minimum vertex cut is the neighborhood of a minimum-degree
    vertex. Complete graphs hold vacuously.

    As kappa <= delta, a minimum cut is such a neighborhood exactly when it is
    N(v) with deg v = kappa: each cut of the separator stream is looked up in
    that set (empty when kappa < delta), and the first it misses is the
    witness, the one cut classified. Only a True status examines every minimum cut. Status None:
    more than min(budget, CUT_BUDGET) cuts were needed. `symmetries` prune the
    kappa scan, as in `vertex_connectivity`; the stream, and so the result
    (which carries the scan's kappa), is the same with or without them.
    """
    if not G.is_connected():  # the empty graph is refused in `vertex_connectivity`'s words
        raise InputError("super connectivity of a disconnected graph" if G.n else "connectivity of the empty graph")
    if G.is_complete():
        return SuperKappaResult(status=True, kappa=G.n - 1, vacuous=True, method="flow")
    kappa, stream = _minimum_cuts(G, symmetries)
    neighborhoods = {N for N in map(G.neighborhood, range(G.n)) if len(N) == kappa}
    cap = min(budget, CUT_BUDGET)
    examined = 0
    for S in islice(stream, cap + 1):
        examined += 1
        if S not in neighborhoods:
            return SuperKappaResult(False, kappa, witness=classify_cut(G, S), cuts_examined=examined)
    complete = examined <= cap
    return SuperKappaResult(True if complete else None, kappa, enumeration_complete=complete, cuts_examined=examined)


def connectivity_report(G, budget=CUT_BUDGET):
    connected = G.is_connected()
    if connected:
        sk = is_super_kappa(G, budget)
    else:  # kappa 0, or InputError on the empty graph
        sk = SuperKappaResult(status=None, kappa=vertex_connectivity(G), method="flow")
    delta = G.min_degree()
    return ConnectivityReport(
        kappa=sk.kappa,
        kappa_edge=edge_connectivity(G) if G.n >= 2 else None,
        delta=delta,
        is_max_kappa=connected and sk.kappa == delta,
        is_super_kappa=sk.status,
        witness_cut=sk.witness,
        method=sk.method,
        enumeration_complete=sk.enumeration_complete,
        vacuous_super_kappa=sk.vacuous,
    )
