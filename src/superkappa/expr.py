"""Text grammar for graph-family expressions.

Leaves: cycle(n), complete(n), kbip(m,n), file(path). The infix operator
`x` is the direct product, left-associative:

    cycle(3) x cycle(5) x complete(2)

Expressions are sized from their leaves, and refused above MAX_VERTICES
vertices or MAX_EDGES edges, before any graph is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

from . import construct
from .errors import InputError
from .formats import MAX_EDGES, check_size, load_graph_file  # noqa: F401  (MAX_EDGES, check_size: re-exported)


class _Family(NamedTuple):
    arity: int  # of integer arguments
    build: Callable
    size: Callable  # (|V|, |E|) from the arguments


_FAMILIES = {
    "cycle": _Family(1, construct.cycle, lambda n: (n, n)),
    "complete": _Family(1, construct.complete, lambda n: (n, n * (n - 1) // 2)),
    "kbip": _Family(2, construct.complete_bipartite, lambda m, n: (m + n, m * n)),
}
_ARGUMENTS = {1: "one integer argument", 2: "two integer arguments"}

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*\((?P<args>[^()]*)\)|(?P<op>x)\b)",
)


@dataclass(frozen=True)
class FamilyLeaf:
    kind: str  # a key of _FAMILIES, or "file"
    args: tuple


@dataclass(frozen=True)
class ProductSpec:
    """Left-associative direct-product expression over family leaves."""

    leaves: tuple  # of FamilyLeaf

    def odd_cycle_lengths(self):
        """Cycle lengths when every leaf is an odd cycle, else None."""
        lengths = []
        for leaf in self.leaves:
            if leaf.kind != "cycle" or leaf.args[0] % 2 == 0:
                return None
            lengths.append(leaf.args[0])
        return lengths


def parse_spec(text):
    pos = 0
    leaves = []
    expect_leaf = True
    while pos < len(text.rstrip()):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"cannot parse expression at: {text[pos:]!r}")
        pos = m.end()
        if m.group("op"):
            if expect_leaf:
                raise InputError("misplaced 'x' in expression")
            expect_leaf = True
            continue
        if not expect_leaf:
            raise InputError(f"missing 'x' before {m.group('name')!r}")
        name = m.group("name")
        raw_args = [a.strip() for a in m.group("args").split(",")] if m.group("args").strip() else []
        if name in _FAMILIES:
            arity = _FAMILIES[name].arity
            if len(raw_args) != arity or not all(a.isdigit() for a in raw_args):
                raise InputError(f"{name} takes {_ARGUMENTS[arity]}")
            leaves.append(FamilyLeaf(name, tuple(map(int, raw_args))))
        elif name == "file":
            if len(raw_args) != 1:
                raise InputError("file takes one path argument")
            leaves.append(FamilyLeaf(name, (raw_args[0],)))
        else:
            raise InputError(f"unknown family {name!r}")
        expect_leaf = False
    if expect_leaf:
        raise InputError("expression ends with a dangling 'x'" if leaves else "empty expression")
    return ProductSpec(leaves=tuple(leaves))


def check_spec_size(spec, loaded):
    """The product's (|V|, |E|), each leaf (file leaves from `loaded`) and partial product
    sized, |V(G x H)| = |V(G)||V(H)|, |E(G x H)| = 2|E(G)||E(H)|, before any is built."""
    size = None
    for leaf in spec.leaves:
        G = loaded.get(leaf)
        v, e = (G.n, len(G.edges)) if G is not None else _FAMILIES[leaf.kind].size(*leaf.args)
        check_size(v, e)  # a leaf with no edges must not hide a large one after it
        size = (v, e) if size is None else (size[0] * v, 2 * size[1] * e)
        check_size(*size)
    return size


def load_file_leaves(spec):
    """The graph of each file leaf, read from its file (formats caps its size)."""
    return {leaf: load_graph_file(leaf.args[0]) for leaf in spec.leaves if leaf.kind == "file"}


def build_spec(spec):
    """Build the product once it is sized, file leaves loaded first."""
    loaded = load_file_leaves(spec)
    check_spec_size(spec, loaded)
    leaves = [loaded[leaf] if leaf in loaded else _FAMILIES[leaf.kind].build(*leaf.args) for leaf in spec.leaves]
    return reduce(construct.direct_product, leaves)


def build_expression(text):
    """Parse and evaluate; returns (graph, spec)."""
    spec = parse_spec(text)
    return build_spec(spec), spec
