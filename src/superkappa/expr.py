"""Text grammar for graph-family expressions.

Leaves: cycle(n), complete(n), kbip(m,n), file(path). The infix operator
`x` is the direct product, left-associative:

    cycle(3) x cycle(5) x complete(2)

Each construction refuses itself above MAX_VERTICES vertices or MAX_EDGES
edges before it is built: every leaf, and every partial product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from . import construct
from .errors import InputError
from .formats import load_graph_file

# each family's number of integer arguments and builder
_FAMILIES = {"cycle": (1, construct.cycle), "complete": (1, construct.complete), "kbip": (2, construct.complete_bipartite)}
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
            arity = _FAMILIES[name][0]
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


def build_spec(spec):
    """Build the product, file leaves read first; the other leaves and the
    partial products are built one at a time, each refusing itself above the
    limits before it is built."""
    loaded = {leaf: load_graph_file(leaf.args[0]) for leaf in spec.leaves if leaf.kind == "file"}
    leaves = (loaded[leaf] if leaf in loaded else _FAMILIES[leaf.kind][1](*leaf.args) for leaf in spec.leaves)
    return reduce(construct.direct_product, leaves)


def build_expression(text):
    """Parse and evaluate; returns (graph, spec)."""
    spec = parse_spec(text)
    return build_spec(spec), spec
