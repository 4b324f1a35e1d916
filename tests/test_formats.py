import json
import time
import tracemalloc

import pytest

from superkappa import (
    CapacityError,
    FormatError,
    Graph,
    complete,
    cycle,
    direct_product,
    parse_edgelist_json,
    parse_graph6,
    write_edgelist_json,
    write_graph6,
)

from superkappa.formats import MAX_GRAPH6_VERTICES, check_graph6_size

from conftest import seeded_corpus


def hand_pack_graph6(G):
    """Independent packer: adjacency-matrix bit vector, column by column."""
    assert G.n <= 62
    adj = [[0] * G.n for _ in range(G.n)]
    for u, v in G.edges:
        adj[u][v] = adj[v][u] = 1
    bits = [adj[row][col] for col in range(G.n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(G.n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value * 2 + b
        chars.append(chr(value + 63))
    return "".join(chars)


def test_write_c5_matches_hand_derivation(c5):
    assert write_graph6(c5) == hand_pack_graph6(c5) + "\n"
    assert write_graph6(c5) == "Dhc\n"
    assert parse_graph6("Dhc") == c5


def test_graph6_smallest():
    assert write_graph6(complete(1)) == "@\n"
    assert parse_graph6("@") == Graph(1, [])


def test_graph6_all_zero():
    g = parse_graph6("D??")
    assert g.n == 5 and not g.edges


def test_graph6_header_and_long_form():
    assert parse_graph6(">>graph6<<Dhc") == cycle(5)
    big = cycle(100)
    assert parse_graph6(write_graph6(big)) == big


@pytest.mark.parametrize(
    "bad",
    ["", "~", "~~A", "D", "Dhcc", "Dh\x1c"],
)
def test_graph6_malformed(bad):
    with pytest.raises(FormatError):
        parse_graph6(bad)


def test_graph6_error_carries_offset():
    with pytest.raises(FormatError) as exc:
        parse_graph6("Dhcc")
    assert exc.value.offset is not None


def test_edgelist_json_examples():
    g = parse_edgelist_json('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')
    assert g == cycle(3)
    with pytest.raises(FormatError, match="self-loop"):
        parse_edgelist_json('{"n":2,"edges":[[0,0]]}')
    p = direct_product(complete(2), complete(2))
    doc = json.loads(write_edgelist_json(p))
    assert doc["n"] == 4 and doc["edges"] == [[0, 3], [1, 2]]


@pytest.mark.parametrize(
    "bad,needle",
    [
        ('{"n":-1,"edges":[]}', "'n'"),
        ('{"n":2}', "'edges'"),
        ('{"n":2,"edges":[[0,2]]}', "out of range"),
        ('{"n":2,"edges":[[0,1],[1,0]]}', "duplicate"),
        ('{"n":2,"edges":[],"labels":["a"]}', "'labels'"),
        ("[1,2]", "object"),
        ("{", "invalid JSON"),
        ('{"n":2,"edges":[[true,false]]}', "bad entry"),
        ('{"n":true,"edges":[]}', "'n'"),
    ],
)
def test_edgelist_json_schema_errors(bad, needle):
    with pytest.raises(FormatError, match=needle):
        parse_edgelist_json(bad)


def test_edgelist_json_refuses_more_vertices_than_graph6_holds():
    with pytest.raises(CapacityError, match="258047-vertex limit"):
        parse_edgelist_json('{"n":258048,"edges":[]}')


def test_graph6_output_is_sized_before_it_is_packed(monkeypatch):
    check_graph6_size(MAX_GRAPH6_VERTICES)
    monkeypatch.setattr(Graph, "adjacency_masks", lambda self: pytest.fail("packed an oversized graph6"))
    n = MAX_GRAPH6_VERTICES + 1  # a sparse graph's packing takes memory quadratic in |V|
    with pytest.raises(CapacityError) as exc:
        write_graph6(Graph(n, [(0, n - 1)]))
    assert str(exc.value) == "graph6 output of 16385 vertices exceeds the 16384-vertex limit"


def test_graph6_output_is_packed_a_run_of_columns_at_a_time():
    G = cycle(8192)  # 33.5 million adjacency bits; 5.6 MB of graph6
    tracemalloc.start()
    try:
        text = write_graph6(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # packing the whole triangle through one string of bits peaked at about 12x the output
    assert len(text) == 5591728 and peak < 5 * len(text)
    assert parse_graph6(text) == G


def test_round_trips_on_corpus():
    for G in seeded_corpus(seed=23, count=60, max_n=12):
        assert parse_graph6(write_graph6(G)) == G
        assert parse_edgelist_json(write_edgelist_json(G)) == G
        assert write_graph6(parse_graph6(write_graph6(G))) == write_graph6(G)


@pytest.mark.parametrize("n", [63, 64, 100, 300, 800])
def test_long_form_graph6_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    g = nx.gnp_random_graph(n, 0.3, seed=n)
    expected = nx.to_graph6_bytes(g, header=False).decode("ascii")
    assert write_graph6(Graph(n, list(g.edges))) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 62, 63, 64, 100, 300])
def test_graph6_decode_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    for p in (0.0, 0.1, 0.5, 1.0):
        text = nx.to_graph6_bytes(nx.gnp_random_graph(n, p, seed=7 * n + int(10 * p)), header=False).strip()
        expected = nx.from_graph6_bytes(text)
        assert parse_graph6(text.decode("ascii")) == Graph(n, list(expected.edges))


def test_graph6_decode_reads_columns_not_pairs():
    G = direct_product(cycle(3), cycle(4000))  # 12,000 vertices: about 72 million vertex pairs
    text = write_graph6(G)
    start = time.perf_counter()
    assert parse_graph6(text) == G
    # a pair-by-pair decode took about 16 s on a 2-vCPU host; one slice per column takes about 0.3 s
    assert time.perf_counter() - start < 3.0


def test_graph6_and_json_edge_lists_are_sized_before_their_edges_are_listed(monkeypatch):
    from superkappa import formats

    k5 = write_graph6(complete(5)), write_edgelist_json(complete(5))  # 10 edges
    monkeypatch.setattr(formats, "MAX_EDGES", 9)
    monkeypatch.setattr(formats, "Graph", lambda *args, **kwargs: pytest.fail("built an oversized graph"))
    refusal = "5 vertices and 10 edges exceed the 258047-vertex or 9-edge limit"
    with pytest.raises(CapacityError) as exc:
        parse_graph6(k5[0])
    assert str(exc.value) == refusal
    with pytest.raises(CapacityError) as exc:
        parse_edgelist_json(k5[1])
    assert str(exc.value) == refusal
    with pytest.raises(CapacityError, match="field 'n' is 258048"):  # the vertex count is still read first
        parse_edgelist_json(json.dumps({"n": 258048, "edges": [[0, 1]] * 10}))


def test_json_edge_list_pairs_are_counted_outside_strings(monkeypatch):
    from superkappa import formats

    doc = {"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a[", "[b]", 'c\\"[[: [']}
    monkeypatch.setattr(formats, "MAX_EDGES", 2)
    assert parse_edgelist_json(json.dumps(doc)).labels == tuple(doc["labels"])
    doc["edges"].append([0, 2])
    loaded, loads = [], json.loads
    monkeypatch.setattr(formats.json, "loads", lambda text: loaded.append(loads(text)) or loaded[-1])
    with pytest.raises(CapacityError, match="3 vertices and 3 edges exceed the 258047-vertex or 2-edge limit"):
        parse_edgelist_json(json.dumps(doc))
    assert loaded == [{"n": 3, "edges": [0, 0, 0], "labels": doc["labels"]}]  # no pair was built


def test_an_unterminated_json_string_is_refused_in_linear_time():
    # each escaped quote would start a scan to the end of the text if a string had to close
    start = time.perf_counter()
    with pytest.raises(FormatError, match="Unterminated string"):
        parse_edgelist_json('{"' + '\\"' * (2 * 10**4))
    assert time.perf_counter() - start < 1


def test_a_json_edge_list_longer_than_the_limits_allow_is_refused_unread(tmp_path, monkeypatch):
    from superkappa import formats

    doc = write_edgelist_json(complete(5))
    # 32 bytes per edge and 64 per vertex hold json.dumps at indent 1 of the widest entries within the limits
    widest = {"n": formats.MAX_VERTICES, "edges": [[formats.MAX_VERTICES - 1] * 2] * 1000, "labels": ["x" * 56] * 1000}
    assert len(json.dumps(widest, indent=1)) < 32 * 1000 + 64 * 1000
    path = tmp_path / "k5.json"
    path.write_text(" \n" + doc)
    monkeypatch.setattr(formats, "MAX_EDGELIST_BYTES", len(doc) + 2)
    assert formats.load_graph_file(path) == complete(5)
    monkeypatch.setattr(formats, "MAX_EDGELIST_BYTES", len(doc) + 1)
    monkeypatch.setattr(formats, "read_input", lambda *args: pytest.fail("read an oversized edge list"))
    with pytest.raises(CapacityError, match=f"a {len(doc) + 2}-byte JSON edge list exceeds the {len(doc) + 1}-byte limit"):
        formats.load_graph_file(path)
