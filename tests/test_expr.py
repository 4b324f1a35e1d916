import re

import pytest

from superkappa import CapacityError, InputError, build_expression, complete_bipartite, cycle, direct_product, parse_spec, tilde
from superkappa.expr import _sized, build_spec
from superkappa.formats import MAX_EDGES, MAX_VERTICES, check_size, load_graph_file
from superkappa.graph import Graph


def test_single_leaf():
    g, _ = build_expression("cycle(7)")
    assert g == cycle(7)


def test_product_chain():
    g, spec = build_expression("cycle(3) x cycle(5) x complete(2)")
    assert g.n == 30
    assert len(spec.leaves) == 3


def test_kbip():
    g, _ = build_expression("kbip(2,3)")
    assert g == complete_bipartite(2, 3)


def test_tilde_is_a_leaf_that_composes_and_nests():
    K = complete_bipartite(2, 3)
    g, spec = build_expression("tilde(kbip(2,3),3) x cycle(3)")
    assert g == direct_product(tilde(K, K.is_bipartite(), 3)[0], cycle(3))
    assert len(spec.leaves) == 2
    K2 = complete_bipartite(1, 1)
    inner = tilde(K2, K2.is_bipartite(), 2)[0]
    assert build_expression("tilde(tilde(kbip(1,1), 2), 3)")[0] == tilde(inner, inner.is_bipartite(), 3)[0]


def test_file_leaf(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    g, _ = build_expression(f"file({path})")
    assert g == cycle(5)


def test_file_paths_include_every_tilde_base():
    spec = parse_spec("file(a.g6) x tilde(file(b.g6) x tilde(file(c.g6), 2), 3) x cycle(3) x file(a.g6)")
    assert spec.file_paths() == ["a.g6", "b.g6", "c.g6", "a.g6"]
    assert parse_spec("tilde(kbip(2,3), 3) x cycle(3)").file_paths() == []


@pytest.mark.parametrize(
    "bad",
    [
        "", "x cycle(3)", "cycle(3) x", "cycle(3) cycle(4)", "blob(3)", "cycle(a)", "kbip(2)",
        "tilde(kbip(2,3)", "kbip(2,3), 3)", "tilde(, 3)",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(InputError):
        parse_spec(bad) and build_spec(parse_spec(bad))


# each expression's refusal, and how many graphs are built before it: the leaves before the refused construction
_OVERSIZED = {
    "complete(100000)": ("100000 vertices and 4999950000 edges", 0),
    "cycle(300000)": ("300000 vertices and 300000 edges", 0),
    "cycle(1000) x cycle(1000) x cycle(1000)": ("1000000 vertices and 2000000 edges", 2),
    "complete(1) x complete(100000)": ("100000 vertices and 4999950000 edges", 1),
    "kbip(1,1) x kbip(1000,1001)": ("2001 vertices and 1001000 edges", 1),
    "tilde(kbip(2,3), 100000)": ("500000 vertices and 1200000 edges", 1),
}


@pytest.mark.parametrize("text", _OVERSIZED)
def test_oversized_expression_is_refused_before_building(monkeypatch, text):
    refusal, leaves_built = _OVERSIZED[text]
    built = []
    init = Graph.__init__

    def sized_init(self, n, edges, labels=None):
        edges = list(edges)
        assert n <= MAX_VERTICES and len(edges) <= MAX_EDGES, f"built a graph over the limits for {text}"
        built.append(n)
        init(self, n, edges, labels)

    monkeypatch.setattr(Graph, "__init__", sized_init)
    with pytest.raises(CapacityError) as exc:
        build_expression(text)
    assert str(exc.value) == f"{refusal} exceed the 258047-vertex or 1000000-edge limit"
    assert len(built) == leaves_built


def test_size_limits_are_inclusive():
    check_size(MAX_VERTICES, MAX_EDGES)
    for vertices, edges in ((MAX_VERTICES + 1, 0), (0, MAX_EDGES + 1)):
        with pytest.raises(CapacityError):
            check_size(vertices, edges)


def test_file_leaf_is_sized_from_the_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text('{"n": 4, "edges": [[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}')
    g, _ = build_expression(f"file({path}) x cycle(5)")
    assert g.n == 20 and len(g.edges) == 2 * 6 * 5
    with pytest.raises(CapacityError, match="400000 vertices and 1200000 edges"):
        build_expression(f"file({path}) x cycle(100000)")


@pytest.mark.parametrize(
    "text,message",
    [
        ("cycle(1,2)", "cycle takes one integer argument"),
        ("complete()", "complete takes one integer argument"),
        ("kbip(2)", "kbip takes two integer arguments"),
    ],
)
def test_arity_errors_name_the_family(text, message):
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        parse_spec(text)


def test_an_integer_literal_is_sized_by_its_digits_before_int_reads_it():
    assert parse_spec("cycle(" + "0" * 5000 + "5)") == parse_spec("cycle(5)")  # leading zeros are ignored
    assert parse_spec("tilde(kbip(2,3), 0003)") == parse_spec("tilde(kbip(2,3), 3)")
    for text in ("cycle(1000000)", "kbip(2," + "9" * 5000 + ")", "tilde(kbip(1,1), " + "9" * 5000 + ")"):
        with pytest.raises(CapacityError, match=r"^an integer of \d+ digits exceeds the 258047-vertex limit$"):
            parse_spec(text)
    with pytest.raises(InputError, match="cycle takes one integer argument"):
        parse_spec("cycle(²)")  # a digit that is not decimal


def test_tilde_nesting_is_refused_only_where_no_expression_could_be_built():
    def nested(depth):
        return "tilde(" * depth + "kbip(1,1)" + ", 2)" * depth

    # each layer doubles kbip(1,1), the smallest base: 18 layers would hold 2**19 vertices, over the limit
    assert build_expression(nested(8))[0].n == 2**9
    parse_spec(nested(MAX_VERTICES.bit_length()))
    with pytest.raises(CapacityError, match="'tilde\\(' nested over 18 deep"):
        parse_spec(nested(MAX_VERTICES.bit_length() + 1))


@pytest.mark.parametrize(
    "text",
    ["cycle(5)", "kbip(2,3) x complete(3)", "tilde(kbip(2,3), 3) x cycle(3)", "tilde(tilde(kbip(1,1), 2), 3)",
     "file({c5}) x tilde(file({k2}), 2) x cycle(3)"],
)
def test_graph6_output_is_sized_from_the_expression_before_it_is_built(tmp_path, monkeypatch, text):
    from superkappa import construct, expr, formats

    (tmp_path / "c5.g6").write_text("Dhc\n")
    (tmp_path / "k2.g6").write_text("A_\n")
    text = text.format(c5=tmp_path / "c5.g6", k2=tmp_path / "k2.g6")
    n = build_expression(text)[0].n
    monkeypatch.setattr(formats, "MAX_GRAPH6_VERTICES", n)
    assert build_expression(text, graph6=True)[0].n == n
    monkeypatch.setattr(formats, "MAX_GRAPH6_VERTICES", n - 1)
    monkeypatch.setattr(expr, "_leaf_graph", lambda *args: pytest.fail("a leaf was built"))
    monkeypatch.setattr(construct, "direct_product", lambda *args: pytest.fail("a product was built"))
    with pytest.raises(CapacityError, match=f"^graph6 output of {n} vertices exceeds the {n - 1}-vertex limit$"):
        build_expression(text, graph6=True)


@pytest.mark.parametrize(
    "text",
    ["cycle(5)", "kbip(2,3) x complete(3)", "tilde(kbip(2,3), 3) x cycle(3)", "tilde(tilde(kbip(1,1), 2), 3)",
     "file({c5}) x tilde(file({k2}), 2) x cycle(3)"],
)
def test_an_expression_is_sized_as_it_is_built(tmp_path, text):
    (tmp_path / "c5.g6").write_text("Dhc\n")
    (tmp_path / "k2.g6").write_text("A_\n")
    text = text.format(c5=tmp_path / "c5.g6", k2=tmp_path / "k2.g6")
    G, spec = build_expression(text)
    loaded = {path: load_graph_file(path) for path in spec.file_paths()}
    assert _sized(spec, loaded) == (G.n, len(G.edges))


@pytest.mark.parametrize(
    "text",
    ["complete(100000)", "cycle(300000)", "cycle(3) x complete(100000)", "cycle(1000) x cycle(1000) x cycle(1000)",
     "tilde(kbip(2,3), 100000)", "cycle(258047) x cycle(3)"],
)
def test_an_expression_over_the_limits_is_refused_as_its_construction_refuses_it_in_every_format(text):
    # sizing graph6 output unbuilt keeps the message of the first leaf or partial product over the limits
    with pytest.raises(CapacityError, match="exceed the 258047-vertex or 1000000-edge limit$") as built:
        build_expression(text)
    with pytest.raises(CapacityError) as sized:
        build_expression(text, graph6=True)
    assert str(sized.value) == str(built.value)
