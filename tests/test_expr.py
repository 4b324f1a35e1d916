import re

import pytest

from superkappa import CapacityError, InputError, build_expression, complete_bipartite, construct, cycle, parse_spec
from superkappa.expr import MAX_EDGES, build_spec, check_size
from superkappa.formats import MAX_VERTICES


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


def test_file_leaf(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    g, _ = build_expression(f"file({path})")
    assert g == cycle(5)


def test_odd_cycle_lengths():
    assert parse_spec("cycle(3) x cycle(5)").odd_cycle_lengths() == [3, 5]
    assert parse_spec("cycle(3) x cycle(4)").odd_cycle_lengths() is None
    assert parse_spec("cycle(3) x complete(3)").odd_cycle_lengths() is None


@pytest.mark.parametrize(
    "bad",
    ["", "x cycle(3)", "cycle(3) x", "cycle(3) cycle(4)", "blob(3)", "cycle(a)", "kbip(2)"],
)
def test_parse_errors(bad):
    with pytest.raises(InputError):
        parse_spec(bad) and build_spec(parse_spec(bad))


@pytest.mark.parametrize(
    "text",
    [
        "complete(100000)",
        "cycle(300000)",
        "cycle(1000) x cycle(1000) x cycle(1000)",
        "complete(1) x complete(100000)",
        "kbip(1,1) x kbip(1000,1001)",
    ],
)
def test_oversized_expression_is_refused_before_building(monkeypatch, text):
    def build(*args):
        raise AssertionError(f"built a graph for {text}")

    for name in ("cycle", "complete", "complete_bipartite", "direct_product"):
        monkeypatch.setattr(construct, name, build)
    with pytest.raises(CapacityError, match="258047-vertex or 1000000-edge limit"):
        build_expression(text)


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
