"""Graph families and constructions: base families, direct products and
every vertex map on G x C_n's numbering (`product_map`), the cyclic layered
graph built from a bipartite base and every vertex map on its numbering
(`layered_permutation`), double covers, proof-style layer
decompositions of G x C_n with their block maps, and seeded random
instances, every one of them drawn by one loop, `_draw`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import prod

from .errors import GenerationError, InputError
from .formats import MAX_EDGES, check_size
from .graph import ISO_CAP, STABILISER_NODES, Graph, _maps_onto, isomorphism

RESAMPLE_BUDGET = 10_000


# -- base families ---------------------------------------------------------


def cycle(n):
    check_size(n, n)
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    check_size(n, n * (n - 1) // 2)
    if n < 1:
        raise InputError(f"complete needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    check_size(m + n, m * n)
    if m < 1 or n < 1:
        raise InputError(f"complete_bipartite needs m,n >= 1, got {m},{n}")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


# -- products ---------------------------------------------------------------


def direct_product(G, H):
    """Tensor product: (u1,v1) ~ (u2,v2) iff u1u2 in E(G) and v1v2 in E(H).

    Vertex (u,v) is flattened row-major to u*|V(H)| + v.
    """
    check_size(G.n * H.n, 2 * len(G.edges) * len(H.edges))
    if G.n == 0 or H.n == 0:
        raise InputError("direct product of an empty graph")
    nh = H.n
    edges = []
    for u1, u2 in G.edges:
        for v1, v2 in H.edges:
            edges.append((u1 * nh + v1, u2 * nh + v2))
            edges.append((u1 * nh + v2, u2 * nh + v1))
    labels = [f"({G.label(u)},{H.label(v)})" for u in range(G.n) for v in range(nh)]
    return Graph(G.n * nh, edges, labels=labels)


def product_map(G, n, phi=None, sign=1, shift=0, m=None):
    """The vertex map (v, i) -> (phi[v], (sign*i + shift) mod n mod m) from the numbering v*n + i of
    `direct_product(G, cycle(n))` to that of G x H, |V(H)| = m; phi is the identity and m is n unless given.
    Every map on that numbering is one: the cycle reflection and shift, lifted automorphisms of G, and the blocks'
    projections, a block on cycle layers s and s+1 shifted by -s onto layers 0 and 1 of G x K_2 (m = 2) or G (m = 1)."""
    phi, m = range(G.n) if phi is None else phi, n if m is None else m
    return lambda x: phi[x // n] * m + (sign * (x % n) + shift) % n % m


def product_permutation(G, n, phi=None, sign=1, shift=0):
    """`product_map` on V(G x C_n), a tuple read x -> p[x]: an automorphism when phi is one of G."""
    return tuple(map(product_map(G, n, phi, sign, shift), range(G.n * n)))


def product_symmetries(G, n, automorphisms):
    """Automorphisms of G x C_n for the kappa scan, from generators of Aut(G): the cycle reflection, which fixes
    layer 0, the cycle shift, and each lift (v, i) -> (phi(v), i)."""
    lifts = [product_permutation(G, n, phi) for phi in automorphisms]
    return [product_permutation(G, n, sign=-1), product_permutation(G, n, shift=1), *lifts]


def double_cover(G):
    """Bipartite double cover G x K_2."""
    return direct_product(G, complete(2))


def odd_cycle_lengths(G):
    """The lengths l_1 <= ... <= l_k of the k >= 1 odd cycles whose direct product is G, certified by a map of
    that product onto G; () when G is none, being disconnected, not 2^k-regular or of even order; None when it
    cannot be decided. A 2-regular G is the cycle its walk from vertex 0 traces; for k >= 2, a map is searched
    for from each product of k odd factors of |V|, up to ISO_CAP vertices and STABILISER_NODES nodes in all."""
    delta = G.min_degree()
    k = delta.bit_length() - 1
    if not (G.is_connected() and delta >= 2 and delta == 1 << k and 2 * len(G.edges) == delta * G.n and G.n % 2):
        return ()
    if k == 1:
        walk = [0, min(G.neighborhood(0))]
        while len(walk) < G.n:
            walk.append(min(G.neighborhood(walk[-1]) - {walk[-2]}))
        return (G.n,) if _maps_onto(walk.__getitem__, cycle(G.n).edges, G.edges) else ()
    if G.n > ISO_CAP:
        return None
    factors, nodes = [f for f in range(3, G.n + 1, 2) if G.n % f == 0], [STABILISER_NODES]
    for lengths in (L for L in combinations_with_replacement(factors, k) if prod(L) == G.n):
        P = reduce(direct_product, map(cycle, lengths))
        phi = isomorphism(P, G, nodes)
        if phi is not None and _maps_onto(phi.__getitem__, P.edges, G.edges):
            return lengths
        if nodes[0] <= 0:
            return None
    return ()


# -- layered constructions ---------------------------------------------------


@dataclass
class LayeredDecomposition:
    """Labeled layer structure: X_k/Y_k vertex sets and H_k/H_k' edge blocks.

    Layer indices run 1..n_layers (stored 0-based in the lists). Block rule:
    H_k is the edges between layer_X[k] and layer_Y[k], H_k' the other edges
    at layer_Y[k] (a vertex at cycle layer i has neighbours only at layers
    i +- 1). H_prime may be shorter than H (non-bipartite odd case).
    Bipartite blocks copy G, non-bipartite ones G x K_2.
    """

    n_layers: int
    case: str  # "tilde" | "bipartite-odd" | "bipartite-even" | "nonbipartite-even" | "nonbipartite-odd"
    layer_X: list = field(default_factory=list)
    layer_Y: list = field(default_factory=list)
    H: list = field(default_factory=list)
    H_prime: list = field(default_factory=list)
    graph: Graph | None = None  # the graph decomposed: G x C_n, or the cyclic layered graph
    block_maps: list = field(default_factory=list)  # of G x C_n: per block of H + H_prime, its map onto its base
    tilde_map: object = None  # for bipartite odd n, the map of tilde(G, B, n) onto G x C_n

    def all_block_edges(self):
        return frozenset().union(*self.H, *self.H_prime)


def _decomposition(graph, case, layer_X, layer_Y, n_prime, block_maps=()):
    """graph's decomposition into these layers, its blocks by the block rule,
    with H_k' for the first n_prime layers only."""
    dec = LayeredDecomposition(len(layer_X), case, layer_X, layer_Y, graph=graph, block_maps=block_maps)
    for k, (X, Y) in enumerate(zip(layer_X, layer_Y)):
        h, hp = set(), set()
        for y in Y:
            for w in graph.neighborhood(y):
                (h if w in X else hp).add((y, w) if y < w else (w, y))
        dec.H.append(frozenset(h))
        if k < n_prime:
            dec.H_prime.append(frozenset(hp))
    return dec


def tilde(G, B, n):
    """Cyclic layered graph on n copies of a connected bipartite G, whose
    bipartition B (None if G has none, as `G.is_bipartite()` gives) is checked.

    Vertex (v,i), i in 1..n, flattened to (i-1)*|V(G)| + v. For each edge xy
    of G (x in X, y in Y) and each i: edge (x,i)(y,i) in block H_i and edge
    (x,i+1)(y,i) in block H_i', indices cyclic modulo n.
    """
    check_size(n * G.n, 2 * n * len(G.edges))  # n copies of V(G); blocks H_i and H_i' copy E(G)
    if n < 2:
        raise InputError(f"layered construction needs n >= 2, got {n}")
    if not G.is_connected():
        raise InputError("layered construction needs a connected base graph")
    if B is None:
        raise InputError("layered construction needs a bipartite base graph")
    if not (set(B.X) | set(B.Y) == set(range(G.n)) and not set(B.X) & set(B.Y)):
        raise InputError("bipartition does not cover the vertex set")
    for u, v in G.edges:
        if (u in B.X) == (v in B.X):
            raise InputError("bipartition is not proper for the base graph")

    nv = G.n

    def vid(v, i):  # i is 1-based layer index
        return (i - 1) * nv + v

    edges = []
    for i in range(1, n + 1):
        for u, v in G.edges:
            x, y = (u, v) if u in B.X else (v, u)
            edges += [(vid(x, i), vid(y, i)), (vid(x, i % n + 1), vid(y, i))]
    labels = [f"({G.label(v)},{i})" for i in range(1, n + 1) for v in range(nv)]
    graph = Graph(n * nv, edges, labels=labels)
    layer_X = [frozenset(vid(x, i) for x in B.X) for i in range(1, n + 1)]
    layer_Y = [frozenset(vid(y, i) for y in B.Y) for i in range(1, n + 1)]
    return graph, _decomposition(graph, "tilde", layer_X, layer_Y, n)


def layered_permutation(G, B, n, phi=None, sign=1, shift=(0, 0)):
    """The vertex map (v, i) -> (phi[v], (sign*i + shift[v in Y]) mod n) on the numbering i*|V(G)| + v of
    `tilde(G, B, n)`, layers 0-based, as a tuple read x -> p[x]: phi is the identity unless given, and the shift
    is per side, X's first."""
    phi = range(G.n) if phi is None else phi
    return tuple((sign * i + shift[v in B.Y]) % n * G.n + phi[v] for i in range(n) for v in range(G.n))


def layered_symmetries(G, B, n, s, automorphisms):
    """Automorphisms of `tilde(G, B, n)` for the kappa scan, from generators of Aut(G) and its scan source s: the
    layer reversal (v, i) -> (v, c - i), c one more on X than on Y and 0 on s's side, which fixes (s, 0), the
    layer rotation (v, i) -> (v, i + 1), and each lift: (phi(v), i) if phi keeps the sides, (phi(v), -i) if it
    swaps them."""
    side = s in B.Y
    lifts = [layered_permutation(G, B, n, phi, -1 if (phi[s] in B.Y) != side else 1) for phi in automorphisms]
    reversal = layered_permutation(G, B, n, sign=-1, shift=(side, side - 1))
    return [reversal, layered_permutation(G, B, n, shift=(1, 1)), *lifts]


_N_MINIMUM = {"bipartite-odd": 3, "bipartite-even": 4, "nonbipartite-even": 4, "nonbipartite-odd": 5}


def decomposition_case(G, n):
    """The proof case of G x C_n, from G's bipartiteness and n's parity,
    refused for a connected G when n is below the case's minimum."""
    case = f"{'bipartite' if G.is_bipartite() else 'nonbipartite'}-{'even' if n % 2 == 0 else 'odd'}"
    if n < _N_MINIMUM[case] and G.is_connected():
        raise InputError(f"{case} needs n >= {_N_MINIMUM[case]}, got {n}")
    return case


def layer_decomposition(G, n):
    """Relabel V(G x C_n) into the explicit layer blocks used in the proofs
    of the four super-connectivity sufficient conditions.

    The case, kept in the result's `case`, is `decomposition_case(G, n)`.
    Bipartite cases have n layers, X_k and Y_k the X and Y parts of the
    cycle layers the proofs' index formulas assign to block k. Non-bipartite
    cases have ~n/2 layers, consecutive cycle layers V_i, V_{i+1}, for odd n
    the last wrapping onto V_n, V_1. Vertex ids are those of
    direct_product(G, cycle(n)).
    """
    if not G.is_connected():
        raise InputError("base graph must be connected")
    case = decomposition_case(G, n)
    prod = direct_product(G, cycle(n))  # sized before any layer is

    def vid(v, i):  # cycle layer i is 1-based
        return v * n + (i - 1)

    B = G.is_bipartite()
    if B:
        # at[side][k - 1]: the cycle layer of block k's part on side 0 (X) or 1 (Y), by the index formulas of the
        # constructive relabelings (1-based), one for both parities: (n + i + 1) // 2 is (n + i) // 2 when n + i is even
        at = [[None] * n, [None] * n]
        for i in range(1, n + 1):
            at[0][((i + 1) // 2 if i % 2 == 1 else (n + i + 1) // 2) - 1] = i
            at[1][((n + i + 1) // 2 if i % 2 == 1 else i // 2) - 1] = i
        parts = [[frozenset(vid(v, i) for v in side) for i in layers] for side, layers in zip((B.X, B.Y), at)]
        dec = _decomposition(prod, case, *parts, n, [product_map(G, n, m=1)] * (2 * n))
        if n % 2:  # tilde's vertex (v, k) is the vertex over v in block k
            dec.tilde_map = lambda t: vid(t % G.n, at[t % G.n in B.Y][t // G.n])
        return dec
    layers = [frozenset(vid(v, i) for v in range(G.n)) for i in range(1, n + 1)]
    # H_k lies on cycle layers 2k and 2k+1, H_k' on 2k+1 and 2k+2 (0-based, mod n)
    maps = [product_map(G, n, shift=-s, m=2) for s in (*range(0, n, 2), *range(1, n, 2))]
    return _decomposition(prod, case, layers[::2], [layers[(i + 1) % n] for i in range(0, n, 2)], n // 2, maps)


# -- seeded random instances -------------------------------------------------


def _attempts(pairs):
    """Resamples allowed to a draw over `pairs` vertex pairs: RESAMPLE_BUDGET,
    fewer when their pair draws together would exceed the edge cap, but at
    least one. Draws of at most 100 pairs keep the whole budget."""
    return max(1, min(RESAMPLE_BUDGET, MAX_EDGES // max(pairs, 1)))


def check_draw(m, n=None):
    """(|V|, vertex pairs) of a random draw between parts of m and n vertices,
    or among m vertices when n is None, refused above the limits."""
    vertices, pairs = (m, m * (m - 1) // 2) if n is None else (m + n, m * n)
    check_size(vertices, pairs, "vertex pairs")
    return vertices, pairs


def _draw(m, n, p, seed, accept, wanted):
    """The first graph that `accept` takes, of up to `_attempts` drawn with
    `random.Random(seed)` over the vertex pairs of `check_draw(m, n)`: each
    keeps every pair, in order, with probability p. The draw is sized first."""
    order, count = check_draw(m, n)
    if not (0 < p <= 1):
        raise InputError(f"edge probability must be in (0,1], got {p}")
    rng, attempts = random.Random(seed), _attempts(count)
    for _ in range(attempts):
        pairs = combinations(range(m), 2) if n is None else product(range(m), range(m, m + n))
        G = Graph(order, [e for e in pairs if rng.random() < p])
        if accept(G):
            return G
    raise GenerationError(f"no connected {wanted}, p={p}, seed={seed} in {attempts} attempts")


def random_connected_bipartite(m, n, p, seed, min_delta=1):
    """Connected bipartite G(m+n, p) with minimum degree >= min_delta.

    Parts are {0..m-1} and {m..m+n-1}. Deterministic for a fixed seed;
    resamples up to `_attempts(m * n)` times.
    """
    if m < 1 or n < 1:
        raise InputError(f"part sizes must be >= 1, got {m},{n}")
    G = _draw(
        m, n, p, seed,
        lambda G: G.is_connected() and G.min_degree() >= min_delta,
        f"bipartite instance with delta>={min_delta} for m={m}, n={n}",
    )
    return G, G.is_bipartite()


def random_connected_nonbipartite(n, p, seed, min_delta=1):
    """Connected non-bipartite G(n, p) with minimum degree >= min_delta,
    resampled up to `_attempts(n(n-1)/2)` times."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    return _draw(
        n, None, p, seed,
        lambda G: G.is_connected() and G.is_bipartite() is None and G.min_degree() >= min_delta,
        f"non-bipartite instance with delta>={min_delta} for n={n}",
    )
