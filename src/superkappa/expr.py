"""Text grammar for graph-family expressions.

Leaves: cycle(n), complete(n), kbip(m,n), file(path), and tilde(E, n), the
cyclic layered graph on n copies of the graph of expression E, which must be
connected and bipartite. The infix operator `x` is the direct product,
left-associative: `tilde(kbip(2,3), 3) x cycle(3) x complete(2)`.

Each construction refuses itself above MAX_VERTICES vertices or MAX_EDGES
edges before it is built: every leaf, and every partial product. The parser
refuses two things as oversized before it reads them: an integer literal with
more significant digits than MAX_VERTICES, and tilde nesting more than
MAX_VERTICES.bit_length() deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from . import construct
from .errors import CapacityError, InputError
from .formats import MAX_VERTICES, check_graph6_size, check_size, load_graph_file

# each family's number of integer arguments, builder, and (vertices, edges) of what it builds
_FAMILIES = {
    "cycle": (1, construct.cycle, lambda n: (n, n)),
    "complete": (1, construct.complete, lambda n: (n, n * (n - 1) // 2)),
    "kbip": (2, construct.complete_bipartite, lambda m, n: (m + n, m * n)),
}
_ARGUMENTS = {1: "one integer argument", 2: "two integer arguments"}

# a leaf, `tilde(` opening a layered leaf, `, n)` closing the innermost one, or `x`
_TOKEN = re.compile(
    r"\s*(?:(?P<open>tilde)\s*\(|(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*\((?P<args>[^()]*)\)"
    r"|,\s*(?P<layers>\d+)\s*\)|(?P<op>x)\b)",
)


@dataclass(frozen=True)
class FamilyLeaf:
    kind: str  # a key of _FAMILIES, "file", or "tilde"
    args: tuple  # a tilde leaf's: (ProductSpec of its base, n)


@dataclass(frozen=True)
class ProductSpec:
    """Left-associative direct-product expression over family leaves."""

    leaves: tuple  # of FamilyLeaf

    def file_paths(self):
        """The paths of the file leaves, those of each tilde leaf's base included."""
        paths = []
        for leaf in self.leaves:
            if leaf.kind == "file":
                paths.append(leaf.args[0])
            elif leaf.kind == "tilde":
                paths += leaf.args[0].file_paths()
        return paths


def _product(leaves, expect_leaf):
    """The product of one level's leaves, once the level ends."""
    if expect_leaf:
        raise InputError("expression ends with a dangling 'x'" if leaves else "empty expression")
    return ProductSpec(leaves=tuple(leaves))


def _integer(literal):
    """The value of a literal of decimal digits, refused as oversized before int() reads a long one: every
    integer of the grammar counts vertices (a tilde leaf's n copies at least n)."""
    digits = literal.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VERTICES)):
        raise CapacityError(f"an integer of {len(digits)} digits exceeds the {MAX_VERTICES}-vertex limit")
    return int(digits)


def parse_spec(text):
    pos, levels, expect_leaf = 0, [[]], True  # levels: the leaves of the top level, then of each open tilde(
    while pos < len(text.rstrip()):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"cannot parse expression at: {text[pos:]!r}")
        pos, name, layers = m.end(), m.group("open") or m.group("name"), m.group("layers")
        raw_args = [a.strip() for a in m.group("args").split(",")] if (m.group("args") or "").strip() else []
        if m.group("op") and expect_leaf:
            raise InputError("misplaced 'x' in expression")
        if name and not expect_leaf:
            raise InputError(f"missing 'x' before {name!r}")
        if layers:
            if len(levels) == 1:
                raise InputError(f"{m.group().strip()!r} closes no 'tilde('")
            base = _product(levels.pop(), expect_leaf)
            levels[-1].append(FamilyLeaf("tilde", (base, _integer(layers))))
        elif m.group("open"):
            depth = MAX_VERTICES.bit_length()  # each layer at least doubles its base, so deeper is oversized
            if len(levels) > depth:
                raise CapacityError(f"'tilde(' nested over {depth} deep exceeds the {MAX_VERTICES}-vertex limit")
            levels.append([])
        elif name in _FAMILIES:
            arity = _FAMILIES[name][0]
            if len(raw_args) != arity or not all(a.isdecimal() for a in raw_args):
                raise InputError(f"{name} takes {_ARGUMENTS[arity]}")
            levels[-1].append(FamilyLeaf(name, tuple(map(_integer, raw_args))))
        elif name == "file":
            if len(raw_args) != 1:
                raise InputError("file takes one path argument")
            levels[-1].append(FamilyLeaf(name, (raw_args[0],)))
        elif name:
            raise InputError(f"unknown family {name!r}")
        expect_leaf = not (layers or m.group("name"))
    if len(levels) > 1:
        raise InputError("'tilde(' is never closed")
    return _product(levels[0], expect_leaf)


def _sized(spec, loaded):
    """(vertices, edges) of the product, from its leaves' arguments and its file leaves' graphs. Each leaf and
    partial product is sized in the order the build sizes them, and refused above the limits as its construction
    would refuse it; nothing is built."""
    total = None
    for leaf in spec.leaves:
        if leaf.kind == "file":
            size = loaded[leaf.args[0]].n, len(loaded[leaf.args[0]].edges)
        elif leaf.kind == "tilde":  # n copies of the base's vertices; blocks H_i and H_i' copy its edges
            vertices, edges = _sized(leaf.args[0], loaded)
            size = leaf.args[1] * vertices, 2 * leaf.args[1] * edges
        else:
            size = _FAMILIES[leaf.kind][2](*leaf.args)
        check_size(*size)
        if total is not None:  # the partial product
            size = total[0] * size[0], 2 * total[1] * size[1]
            check_size(*size)
        total = size
    return total


def _leaf_graph(leaf, loaded):
    if leaf.kind == "file":
        return loaded[leaf.args[0]]
    if leaf.kind == "tilde":
        base = build_spec(leaf.args[0], loaded=loaded)
        return construct.tilde(base, base.is_bipartite(), leaf.args[1])[0]
    return _FAMILIES[leaf.kind][1](*leaf.args)


def build_spec(spec, graph6=False, loaded=None):
    """Build the product, every file leaf read first, those of tilde bases too (`loaded` holds their graphs by
    path when a base is built). With `graph6`, the product is then sized unbuilt (`_sized`), and refused if too
    large for graph6 output. The other leaves and the partial products are built one at a time, each refusing
    itself above the limits before it is built, so a product over the limits is refused in every format, with the
    same message."""
    if loaded is None:
        loaded = {path: load_graph_file(path) for path in spec.file_paths()}
    if graph6:
        check_graph6_size(_sized(spec, loaded)[0])
    return reduce(construct.direct_product, (_leaf_graph(leaf, loaded) for leaf in spec.leaves))


def build_expression(text, graph6=False):
    """Parse and evaluate; returns (graph, spec). `graph6`: the graph is for graph6 output, or for a verdict,
    which records its graph6 (see build_spec)."""
    spec = parse_spec(text)
    return build_spec(spec, graph6), spec
