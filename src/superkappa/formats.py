"""graph6 and JSON edge-list serialization.

graph6: optional ">>graph6<<" header, 6-bit big-endian packing of the
adjacency upper triangle in column order (0,1),(0,2),(1,2),(0,3),...,
each 6-bit group offset by 63. Writes are canonical: no header, single
trailing newline, long-form size prefix only above 62 vertices.
"""

from __future__ import annotations

import base64
import json
import math
import os
import re

from .errors import CapacityError, FormatError, InputError
from .graph import Graph

_HEADER = ">>graph6<<"
# graph6's 18-bit size prefix, less the sizes whose first 6-bit group would
# read as the 36-bit form's marker; JSON edge lists share the limit
MAX_VERTICES = 258047
MAX_EDGES = 10**6  # expressions, constructions and random draws are refused above it before they are built
# JSON edge lists are refused unread above this length: 32 bytes per edge and 64 per vertex
# hold json.dumps, at indent 1 or less, of any graph within the limits with labels of <= 56 characters
MAX_EDGELIST_BYTES = 32 * MAX_EDGES + 64 * MAX_VERTICES
MAX_GRAPH6_VERTICES = 16384  # graph6 output is about n^2/12 bytes: 22 MB here, written at under 90 MB peak RSS
_RUN_BITS = 1 << 18  # adjacency bits write_graph6 packs at a time, so its memory is bounded by its output
# base64 writes 6-bit group v as the v-th character of its alphabet; graph6 as chr(v + 63)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_NOT_GRAPH6 = re.compile(r"[^?-~]")  # a data character outside chr(63)..chr(126)
# a JSON string; an unterminated one runs to the end, so a match is found at every quote
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.S)
_FLAT_ARRAY = re.compile(r'(?<=[\[,])\s*\[[^"\[\]]*\]')  # an array of no string or array, as [u, v] is


def check_size(vertices, edges, unit="edges"):
    """Refuse a graph of this many vertices and edges before it is built: `unit`
    names what `edges` counts, and None sizes the vertices alone."""
    if vertices > MAX_VERTICES or (edges or 0) > MAX_EDGES:
        counted = f"{vertices} vertices" + ("" if edges is None else f" and {edges} {unit}")
        raise CapacityError(f"{counted} exceed the {MAX_VERTICES}-vertex or {MAX_EDGES}-edge limit")


def check_graph6_size(vertices):
    """Refuse graph6 output of a graph this large before it is packed."""
    if vertices > MAX_GRAPH6_VERTICES:
        raise CapacityError(f"graph6 output of {vertices} vertices exceeds the {MAX_GRAPH6_VERTICES}-vertex limit")


def write_graph6(G):
    check_graph6_size(G.n)
    n, masks = G.n, G.adjacency_masks()
    # the size: one 6-bit group, or "~" and three
    out = [chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))]
    groups = -(-(n * (n - 1) // 2) // 6)  # 6-bit groups still to write
    bits, col = "", 1
    while groups:  # a run of columns at a time, the bits past its last whole 24 carried to the next
        end = min(n, math.isqrt(col * col + 2 * _RUN_BITS))  # columns col..end-1: about _RUN_BITS bits
        # column c is rows 0..c-1, row 0 first: the low c bits of its mask, reversed
        bits += "".join(format(masks[c] & ((1 << c) - 1), f"0{c}b")[::-1] for c in range(col, end))
        col = end
        if col == n:  # the last run: padded to whole 6-bit groups and whole bytes for base64
            bits += "0" * (-len(bits) % 24)
        whole = len(bits) - len(bits) % 24
        data = base64.b64encode(int(bits[:whole], 2).to_bytes(whole // 8, "big"))[:groups]
        out.append(data.translate(_BASE64_TO_GRAPH6).decode("ascii"))
        groups -= len(data)
        bits = bits[whole:]
    out.append("\n")
    return "".join(out)


def parse_graph6(text):
    data = text.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER) :]
    if not data:
        raise FormatError("empty graph6 string", offset=0)
    if data.startswith("~~"):
        raise FormatError("graph6 sizes above 2^18 are not supported", offset=0)
    pos = 4 if data[0] == "~" else 1  # the size is data[pos // 4 : pos]: three 6-bit groups after "~", or one
    if len(data) < pos:
        raise FormatError("truncated long-form length prefix", offset=len(data))
    bad = _NOT_GRAPH6.search(data, pos // 4, pos)
    if bad:
        raise FormatError(f"invalid length byte {bad.group()!r}", offset=bad.start())
    n = 0
    for ch in data[pos // 4 : pos]:
        n = n << 6 | ord(ch) - 63
    need = n * (n - 1) // 2
    need_bytes = (need + 5) // 6
    body = data[pos:]
    if len(body) < need_bytes:
        raise FormatError(
            f"need {need_bytes} data bytes for n={n}, found {len(body)}",
            offset=pos + len(body),
        )
    if len(body) > need_bytes:
        raise FormatError("trailing garbage after graph data", offset=pos + need_bytes)
    bad = _NOT_GRAPH6.search(body)
    if bad:
        raise FormatError(f"invalid data byte {bad.group()!r}", offset=pos + bad.start())
    # the inverse of write_graph6's packing: base64, whole 4-character groups padded with zero groups
    raw = base64.b64decode(body.encode("ascii").translate(_GRAPH6_TO_BASE64) + b"A" * (-len(body) % 4))
    if int.from_bytes(raw[-4:], "big") & ((1 << (8 * len(raw) - need)) - 1):  # under 24 padding bits
        raise FormatError("nonzero padding bits", offset=pos + need_bytes - 1)
    check_size(n, int.from_bytes(raw, "big").bit_count())  # one set bit per edge, the padding being zero
    edges = []
    for col in range(1, n):  # column col is bits k..k+col-1, row 0 first: one slice of whole bytes
        k = col * (col - 1) // 2
        lo, hi = k >> 3, (k + col + 7) >> 3
        rows = int.from_bytes(raw[lo:hi], "big") >> (8 * hi - k - col) & ((1 << col) - 1)
        while rows:  # the highest bit is the lowest row
            b = rows.bit_length() - 1
            edges.append((col - 1 - b, col))
            rows ^= 1 << b
    return Graph(n, edges)


# -- JSON edge lists ---------------------------------------------------------


def write_edgelist_json(G):
    doc = {
        "n": G.n,
        "edges": sorted([u, v] for u, v in G.edges),
    }
    if G.labels is not None:
        doc["labels"] = list(G.labels)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def read_json(text, prefix, error=InputError):
    """json.loads, with every way malformed JSON fails turned into `error`,
    its message led by `prefix`: a syntax error or an integer over the
    interpreter's digit limit (ValueError), or nesting deeper than the
    decoder's recursion limit (RecursionError)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from exc


def _is_int(x):
    # bool subclasses int, but JSON true/false is not a vertex index
    return isinstance(x, int) and not isinstance(x, bool)


def parse_edgelist_json(text):
    outside = _JSON_STRING.sub("", text)  # its [u,v] pairs are its arrays outside strings that are no member's value
    pairs = outside.count("[") - len(re.findall(r":\s*\[", outside))
    del outside  # a copy of the text, freed before json.loads runs
    if pairs > MAX_EDGES:  # json.loads would build every pair: each is read as 0, and check_size refuses them
        text = _FLAT_ARRAY.sub("0", text)
    doc = read_json(text, "invalid JSON", FormatError)
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if "n" not in doc or not _is_int(doc["n"]) or doc["n"] < 0:
        raise FormatError("field 'n' must be a non-negative integer")
    n = doc["n"]
    if n > MAX_VERTICES:  # refused before Graph allocates n neighbor sets
        raise CapacityError(f"field 'n' is {n}, above the {MAX_VERTICES}-vertex limit")
    edges_field = doc.get("edges")
    if not isinstance(edges_field, list):
        raise FormatError("field 'edges' must be a list of [u,v] pairs")
    check_size(n, max(pairs, len(edges_field)))
    seen = set()
    edges = []
    for item in edges_field:
        if not (isinstance(item, list) and len(item) == 2 and all(_is_int(x) for x in item)):
            raise FormatError(f"field 'edges': bad entry {item!r}")
        u, v = item
        if u == v:
            raise FormatError(f"field 'edges': self-loop [{u},{v}]")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"field 'edges': endpoint out of range in [{u},{v}]")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"field 'edges': duplicate pair [{u},{v}]")
        seen.add(key)
        edges.append(key)
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == n and all(isinstance(s, str) for s in labels)):
            raise FormatError("field 'labels' must be a list of n strings")
    return Graph(n, edges, labels=labels)


def read_input(path, mode="r"):
    """The contents of an input file; one that cannot be read or decoded is an InputError."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:  # its text names the path
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path}: {exc}") from exc


def load_graph_file(path):
    """Read a graph file, sniffing graph6 vs JSON edge list. An edge list is
    sized by its byte length before it is read, so one too long for the
    limits is refused without being parsed."""
    try:
        with open(path, "rb") as fh:
            first = b" "
            while first.isspace():  # the first byte that is not whitespace, if any
                first = fh.read(1)
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:  # its text names the path
        raise InputError(str(exc)) from exc
    if first == b"{" and size > MAX_EDGELIST_BYTES:
        raise CapacityError(f"{path}: a {size}-byte JSON edge list exceeds the {MAX_EDGELIST_BYTES}-byte limit")
    text = read_input(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_edgelist_json(text)
    return parse_graph6(text)
