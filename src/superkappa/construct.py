"""Graph families and constructions: base families, direct products,
the cyclic layered graph built from a bipartite base, double covers,
proof-style layer decompositions of G x C_n, and seeded random instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import GenerationError, InputError
from .graph import Bipartition, Graph

RESAMPLE_BUDGET = 10_000


# -- base families ---------------------------------------------------------


def cycle(n):
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    if n < 1:
        raise InputError(f"complete needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    if m < 1 or n < 1:
        raise InputError(f"complete_bipartite needs m,n >= 1, got {m},{n}")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


# -- products ---------------------------------------------------------------


def direct_product(G, H):
    """Tensor product: (u1,v1) ~ (u2,v2) iff u1u2 in E(G) and v1v2 in E(H).

    Vertex (u,v) is flattened row-major to u*|V(H)| + v.
    """
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


def double_cover(G):
    """Bipartite double cover G x K_2."""
    return direct_product(G, complete(2))


# -- layered constructions ---------------------------------------------------


@dataclass
class LayeredDecomposition:
    """Labeled layer structure: X_i/Y_i vertex sets and H_i/H_i' edge blocks.

    Layer indices run 1..n_layers (stored 0-based in the lists). For the
    non-bipartite cases layer_X[i]/layer_Y[i] are the two cycle-layer halves
    of block H_{i+1}, and each block is a copy of G x K_2 rather than G.
    H_prime may be one shorter than H (non-bipartite odd case).
    """

    n_layers: int
    case: str  # "tilde" | "bipartite-odd" | "bipartite-even" | "nonbipartite-even" | "nonbipartite-odd"
    layer_X: list = field(default_factory=list)
    layer_Y: list = field(default_factory=list)
    H: list = field(default_factory=list)
    H_prime: list = field(default_factory=list)
    # bipartite cases: which cycle layer of G x C_n holds X_k / Y_k
    x_cycle_layer: list = field(default_factory=list)
    y_cycle_layer: list = field(default_factory=list)

    def all_block_edges(self):
        out = set()
        for blk in list(self.H) + list(self.H_prime):
            out |= set(blk)
        return frozenset(out)


def tilde(G, B, n):
    """Cyclic layered graph on n copies of a connected bipartite G.

    Vertex (v,i), i in 1..n, flattened to (i-1)*|V(G)| + v. For each edge xy
    of G (x in X, y in Y) and each i: edge (x,i)(y,i) in block H_i and edge
    (x,i+1)(y,i) in block H_i', indices cyclic modulo n.
    """
    if n < 2:
        raise InputError(f"layered construction needs n >= 2, got {n}")
    if not G.is_connected():
        raise InputError("layered construction needs a connected base graph")
    check = G.is_bipartite()
    if check is None:
        raise InputError("layered construction needs a bipartite base graph")
    if not (set(B.X) | set(B.Y) == set(range(G.n)) and not set(B.X) & set(B.Y)):
        raise InputError("bipartition does not cover the vertex set")
    for u, v in G.edges:
        if (u in B.X) == (v in B.X):
            raise InputError("bipartition is not proper for the base graph")

    nv = G.n

    def vid(v, i):  # i is 1-based layer index
        return (i - 1) * nv + v

    dec = LayeredDecomposition(n_layers=n, case="tilde")
    for i in range(1, n + 1):
        dec.layer_X.append(frozenset(vid(x, i) for x in B.X))
        dec.layer_Y.append(frozenset(vid(y, i) for y in B.Y))

    edges = []
    for i in range(1, n + 1):
        inext = i % n + 1
        h_block, hp_block = set(), set()
        for u, v in G.edges:
            x, y = (u, v) if u in B.X else (v, u)
            e1 = tuple(sorted((vid(x, i), vid(y, i))))
            e2 = tuple(sorted((vid(x, inext), vid(y, i))))
            h_block.add(e1)
            hp_block.add(e2)
            edges.extend((e1, e2))
        dec.H.append(frozenset(h_block))
        dec.H_prime.append(frozenset(hp_block))

    labels = [f"({G.label(v)},{i})" for i in range(1, n + 1) for v in range(nv)]
    return Graph(n * nv, edges, labels=labels), dec


def layer_decomposition(G, n):
    """Relabel V(G x C_n) into the explicit layer blocks used in the proofs
    of the four super-connectivity sufficient conditions.

    The case, kept in the result's `case`, is G's bipartiteness and n's
    parity: "bipartite-odd", "bipartite-even", "nonbipartite-even" or
    "nonbipartite-odd". Bipartite cases produce n layers with blocks copying
    G; non-bipartite cases produce ~n/2 blocks copying G x K_2. Vertex ids
    refer to the row-major flattening of direct_product(G, cycle(n)).
    """
    if not G.is_connected():
        raise InputError("base graph must be connected")
    B = G.is_bipartite()
    bipartite = B is not None
    parity_case = f"{'bipartite' if bipartite else 'nonbipartite'}-{'even' if n % 2 == 0 else 'odd'}"
    minimums = {
        "bipartite-odd": 3,
        "bipartite-even": 4,
        "nonbipartite-even": 4,
        "nonbipartite-odd": 5,
    }
    if n < minimums[parity_case]:
        raise InputError(f"{parity_case} needs n >= {minimums[parity_case]}, got {n}")

    def vid(v, i):  # cycle layer i is 1-based
        return v * n + (i - 1)

    prod = direct_product(G, cycle(n))

    if bipartite:
        return _bipartite_layers(G, B, n, parity_case, vid, prod)
    return _nonbipartite_layers(G, n, parity_case, vid, prod)


def _bipartite_layers(G, B, n, parity_case, vid, prod):
    # index formulas from the constructive relabelings (1-based throughout)
    xs = [set() for _ in range(n + 1)]
    ys = [set() for _ in range(n + 1)]
    x_layer = [0] * (n + 1)  # block index -> cycle layer holding its X part
    y_layer = [0] * (n + 1)
    for i in range(1, n + 1):
        if parity_case == "bipartite-odd":
            kx = (i + 1) // 2 if i % 2 == 1 else (n + i + 1) // 2
            ky = (n + i) // 2 if i % 2 == 1 else i // 2
        else:
            kx = (i + 1) // 2 if i % 2 == 1 else (n + i) // 2
            ky = (n + i + 1) // 2 if i % 2 == 1 else i // 2
        xs[kx] = {vid(x, i) for x in B.X}
        ys[ky] = {vid(y, i) for y in B.Y}
        x_layer[kx] = i
        y_layer[ky] = i

    dec = LayeredDecomposition(n_layers=n, case=parity_case)
    dec.layer_X = [frozenset(xs[k]) for k in range(1, n + 1)]
    dec.layer_Y = [frozenset(ys[k]) for k in range(1, n + 1)]
    dec.x_cycle_layer = x_layer[1:]
    dec.y_cycle_layer = y_layer[1:]

    # group product edges by the (X-block, Y-block) pair they join
    xi_of = {}
    yi_of = {}
    for k in range(1, n + 1):
        for v in xs[k]:
            xi_of[v] = k
        for v in ys[k]:
            yi_of[v] = k
    pair_edges = {}
    for u, v in prod.edges:
        if u in xi_of:
            a, b = xi_of[u], yi_of[v]
        else:
            a, b = xi_of[v], yi_of[u]
        pair_edges.setdefault((a, b), set()).add(tuple(sorted((u, v))))

    # diagonal pairs (k,k) are H_k; off-diagonal pairs, keyed by Y index, are H_k'
    h = [frozenset()] * n
    hp = [frozenset()] * n
    for (a, b), blk in pair_edges.items():
        if a == b:
            h[a - 1] = frozenset(blk)
        else:
            hp[b - 1] = frozenset(blk)
    dec.H = h
    dec.H_prime = hp
    return dec


def _nonbipartite_layers(G, n, parity_case, vid, prod):
    layers = [frozenset(vid(v, i) for v in range(G.n)) for i in range(1, n + 1)]

    def block(i):  # edges of the induced subgraph on cycle layers i, i+1 (1-based, cyclic)
        a, b = layers[i - 1], layers[i % n]
        keep = a | b
        return frozenset(e for e in prod.edges if e[0] in keep and e[1] in keep)

    dec = LayeredDecomposition(n_layers=(n + 1) // 2, case=parity_case)
    if parity_case == "nonbipartite-even":
        for i in range(1, n + 1, 2):  # H_{(i+1)/2} on V_i u V_{i+1}
            dec.layer_X.append(layers[i - 1])
            dec.layer_Y.append(layers[i])
            dec.H.append(block(i))
        for i in range(2, n + 1, 2):  # H'_{i/2} on V_i u V_{i+1}
            dec.H_prime.append(block(i))
    else:
        for i in range(1, n + 1, 2):  # H_{(i+1)/2}, last one wraps onto V_n u V_1
            dec.layer_X.append(layers[i - 1])
            dec.layer_Y.append(layers[i % n])
            dec.H.append(block(i))
        for i in range(2, n, 2):  # H'_{i/2}
            dec.H_prime.append(block(i))
    return dec


# -- seeded random instances -------------------------------------------------


def random_connected_bipartite(m, n, p, seed, min_delta=1):
    """Connected bipartite G(m+n, p) with minimum degree >= min_delta.

    Parts are {0..m-1} and {m..m+n-1}. Deterministic for a fixed seed;
    resamples up to the shared attempt budget.
    """
    if m < 1 or n < 1:
        raise InputError(f"part sizes must be >= 1, got {m},{n}")
    if not (0 < p <= 1):
        raise InputError(f"edge probability must be in (0,1], got {p}")
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        edges = [
            (i, m + j)
            for i in range(m)
            for j in range(n)
            if rng.random() < p
        ]
        G = Graph(m + n, edges)
        if G.is_connected() and G.min_degree() >= min_delta:
            B = G.is_bipartite()
            return G, B
    raise GenerationError(
        f"no connected bipartite instance with delta>={min_delta} "
        f"for m={m}, n={n}, p={p}, seed={seed} in {RESAMPLE_BUDGET} attempts"
    )


def random_connected_nonbipartite(n, p, seed, min_delta=1):
    """Connected non-bipartite G(n, p) with minimum degree >= min_delta."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    if not (0 < p <= 1):
        raise InputError(f"edge probability must be in (0,1], got {p}")
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        G = Graph(n, edges)
        if G.is_connected() and G.is_bipartite() is None and G.min_degree() >= min_delta:
            return G
    raise GenerationError(
        f"no connected non-bipartite instance with delta>={min_delta} "
        f"for n={n}, p={p}, seed={seed} in {RESAMPLE_BUDGET} attempts"
    )
