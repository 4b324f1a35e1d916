"""Immutable simple undirected graphs over vertices 0..n-1.

Vertices are dense integer indices; optional string labels carry
construction provenance (e.g. "(x,3)") but never identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, InputError

ISO_CAP = 64
STABILISER_NODES = 10**4  # search nodes one automorphism_generators call may place


@dataclass(frozen=True)
class Bipartition:
    """A two-coloring (X, Y) of a bipartite graph's vertex set."""

    X: frozenset
    Y: frozenset


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges", "labels", "_adj", "_masks", "_bfs", "invariants")

    def __init__(self, n, edges, labels=None):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        norm = set()
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            norm.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        if labels is not None and len(labels) != n:
            raise InputError("labels length must equal vertex count")
        self.n = n
        self.edges = frozenset(norm)
        self.labels = tuple(labels) if labels is not None else None
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks = self._bfs = None  # computed on first use: adjacency_masks(), _traversal()
        self.invariants = None  # values of the base invariants `theorems` reads, by name, computed on first use

    # -- basic accessors -------------------------------------------------

    def _check_vertex(self, v):
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise InputError(f"vertex {v!r} not in range 0..{self.n - 1}")

    def neighborhood(self, v):
        """N(v): the set of vertices adjacent to v."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v):
        self._check_vertex(v)
        return len(self._adj[v])

    def min_degree(self):
        if self.n == 0:
            raise InputError("min_degree of empty graph")
        return min(len(s) for s in self._adj)

    def label(self, v):
        return self.labels[v] if self.labels is not None else str(v)

    def adjacency_masks(self):
        """Per-vertex neighbor bitmasks, cached (used by hot scans)."""
        if self._masks is None:
            masks = []
            for v in range(self.n):
                m = 0
                for w in self._adj[v]:
                    m |= 1 << w
                masks.append(m)
            self._masks = tuple(masks)
        return self._masks

    def is_complete(self):
        return self.n >= 1 and len(self.edges) == self.n * (self.n - 1) // 2

    # -- structure -------------------------------------------------------

    def _traversal(self):
        """One BFS from the lowest unreached vertex at a time, run on first use
        and kept: per vertex, the lowest vertex of its component and the
        parity of its depth, and whether some edge joins equal parities."""
        if self._bfs is None:
            root, parity, odd = [None] * self.n, [0] * self.n, False
            for start in range(self.n):
                if root[start] is None:
                    root[start], queue = start, [start]
                    for u in queue:  # the queue grows as it is read
                        for w in self._adj[u]:
                            if root[w] is None:
                                root[w], parity[w] = start, 1 - parity[u]
                                queue.append(w)
                            odd = odd or parity[w] == parity[u]
            self._bfs = root, parity, odd
        return self._bfs

    def components(self):
        """Maximal connected vertex sets, ordered by lowest member."""
        comps = {}
        for v, r in enumerate(self._traversal()[0]):
            comps.setdefault(r, set()).add(v)
        return [frozenset(c) for c in comps.values()]

    def is_connected(self):
        return self.n >= 1 and not any(self._traversal()[0])

    def is_bipartite(self):
        """A Bipartition, each component's lowest vertex in X, or None if some component has an odd cycle."""
        _, parity, odd = self._traversal()
        if odd:
            return None
        X = frozenset(v for v, p in enumerate(parity) if not p)
        return Bipartition(X=X, Y=frozenset(range(self.n)) - X)

    def induced_subgraph(self, W):
        """Subgraph on W, relabeled 0..k-1; original identities kept as labels."""
        W = sorted(set(W))
        for v in W:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(W)}
        keep = set(W)
        edges = [(index[u], index[v]) for u, v in self.edges if u in keep and v in keep]
        labels = [self.label(v) for v in W]
        return Graph(len(W), edges, labels=labels)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


# -- vertex maps ---------------------------------------------------------


def _maps_onto(phi, edges, target):
    """Whether the vertex map phi sends `edges` one-to-one onto the edge set
    `target` and their vertices one-to-one: the graphs they span are then isomorphic."""
    touched = {x for e in edges for x in e}
    image = {(a, b) if (a := phi(u)) < (b := phi(v)) else (b, a) for u, v in edges}
    return len(edges) == len(target) and image == target and len(set(map(phi, touched))) == len(touched)


def orbit(v, maps):
    """The vertices the group the maps generate sends v to, v first: each map a sequence read as u -> p[u]."""
    found, seen = [v], {v}
    for u in found:  # the list grows as it is read
        for p in maps:
            if p[u] not in seen:
                seen.add(p[u])
                found.append(p[u])
    return found


# -- isomorphisms and automorphisms of small graphs ---------------------------


def _refine_colors(*graphs):
    """Joint 1-dimensional color refinement from the degrees; returns per-graph color lists."""
    colors = [[g.degree(v) for v in range(g.n)] for g in graphs]
    while True:
        table, new = {}, []
        for graph, old in zip(graphs, colors):
            sigs = ((old[v], tuple(sorted(old[w] for w in graph.neighborhood(v)))) for v in range(graph.n))
            new.append([table.setdefault(sig, len(table)) for sig in sigs])
        if new == colors:
            return colors
        colors = new


def _search_order(G, choices, first=None):
    """V(G) in an order that keeps the partial map connected, starting at
    `first` if given, the vertex with the fewest choices first among those
    equally attached."""
    order, placed, masks = [], 0, G.adjacency_masks()
    for _ in range(G.n):
        best = None
        for v in range(G.n):
            if placed >> v & 1:
                continue
            key = (v != first, -(masks[v] & placed).bit_count(), len(choices[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    return order


def _backtrack(G, H, order, choices, nodes, fixed=0):
    """An edge-preserving bijection V(G) -> V(H) sending order[k] into
    choices[k], as a list read as v -> phi[v], or None: there is none, or the
    search placed the `nodes[0]` vertices it was allowed (it counts them down).
    With H = G, order[:fixed] start mapped to themselves, and are not searched."""
    n, masks_h = G.n, H.adjacency_masks()
    phi, used = [-1] * n, [False] * n
    for g in order[:fixed]:
        phi[g], used[g] = g, True
    mapped_mask = sum(1 << g for g in order[:fixed])

    def extend(k):
        nonlocal mapped_mask
        if k == n:
            return True
        g = order[k]
        required = 0
        for w in G.neighborhood(g):
            if phi[w] != -1:
                required |= 1 << phi[w]
        for h in choices[k]:
            if used[h] or masks_h[h] & mapped_mask != required:
                continue
            if nodes[0] <= 0:
                return False
            nodes[0] -= 1
            phi[g], used[h] = h, True
            mapped_mask |= 1 << h
            if extend(k + 1):
                return True
            phi[g], used[h] = -1, False
            mapped_mask &= ~(1 << h)
        return False

    found = extend(fixed)
    del extend  # it is in its own closure: break that cycle, so no search leaves garbage for the collector
    return phi if found else None


def isomorphism(G, H, nodes):
    """An edge-preserving bijection V(G) -> V(H), as a list read v -> phi[v], or None: there is none, or the
    backtracking placed the `nodes[0]` vertices it was allowed (it counts them down); up to ISO_CAP vertices."""
    if G.n > ISO_CAP or H.n > ISO_CAP:
        raise CapacityError(f"isomorphism search capped at {ISO_CAP} vertices")
    if G.n != H.n or len(G.edges) != len(H.edges):
        return None
    cg, ch = _refine_colors(G, H)
    if sorted(cg) != sorted(ch):
        return None
    by_color_h = {c: [v for v in range(H.n) if ch[v] == c] for c in set(ch)}
    order = _search_order(G, [by_color_h[c] for c in cg])
    return _backtrack(G, H, order, [by_color_h[cg[g]] for g in order], nodes)


def is_isomorphic_small(G, H):
    """Edge-preserving bijection test by backtracking; graphs up to ISO_CAP vertices."""
    return isomorphism(G, H, [math.inf]) is not None


def automorphism_generators(G, base):
    """Generators of Aut(G), each a list read as u -> phi[u], those that fix
    the vertex `base` first: they generate its stabiliser. The search order
    starts at base, and the colors are refined from the degrees (Sims 1970;
    McKay & Piperno 2014). Then for k from the order's last position back,
    and each h of order[k]'s color outside the orbit the maps found so far
    give order[k], it backtracks for a map that fixes order[:k] and sends
    order[k] to h. So at each k the maps generate the pointwise stabiliser of
    order[:k]: at k = 1 that of base, at k = 0 the whole group. Above ISO_CAP
    vertices, or once STABILISER_NODES search nodes are spent, it returns the
    maps found so far instead of raising."""
    if G.n > ISO_CAP:
        return []
    colors = _refine_colors(G)[0]
    classes = [[w for w in range(G.n) if colors[w] == c] for c in colors]  # per vertex, those of its color
    order = _search_order(G, classes, base)
    gens, nodes, choices = [], [STABILISER_NODES], [classes[g] for g in order]
    masks, prefix = G.adjacency_masks(), (1 << G.n) - 1
    for k in reversed(range(G.n)):
        g = order[k]
        prefix &= ~(1 << g)  # order[:k]
        reached = orbit(g, gens)
        for h in classes[g]:
            # a map fixing order[:k] sends g to no vertex of it, and to none joined to it otherwise than g is
            if h in reached or prefix >> h & 1 or masks[h] & prefix != masks[g] & prefix:
                continue
            phi = _backtrack(G, G, order, choices[:k] + [[h]] + choices[k + 1 :], nodes, k)
            if phi is not None:
                gens.append(phi)
                reached = orbit(g, gens)
            elif nodes[0] <= 0:
                return gens
    return gens
