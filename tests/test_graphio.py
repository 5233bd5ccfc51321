"""Format parsing, serialization, and DOT export."""

from __future__ import annotations

import random

import pytest

from helpers import complete_graph, decomposition, path_graph, random_graph
from tdsolve.graphio import (
    MAX_VERTICES,
    ParseError,
    export_dot,
    parse_edge_list,
    parse_gr,
    parse_td,
    write_td,
)
from tdsolve.oracle import brute_treewidth
from tdsolve.validator import validate


def test_parse_gr_basic():
    g = parse_gr("p tw 3 2\n1 2\n2 3")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_gr_smallest_graph():
    g = parse_gr("p tw 1 0")
    assert g.n == 1
    assert g.edges == ()


def test_parse_gr_comments_and_blank_lines():
    g = parse_gr("c made by hand\n\np tw 2 1\nc more noise\n1 2\n")
    assert g.edges == ((0, 1),)


def test_parse_gr_collapses_duplicates():
    g = parse_gr("p tw 3 3\n1 2\n2 1\n1 2")
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p tw 2 1\n1 1", "self-loop"),
        ("p tw 2 1\n1 3", "out of range"),
        ("p tw 2 2\n1 2", "2 edges but 1"),
        ("p tw 2 0\n1 2", "0 edges but 1"),
        ("1 2\np tw 2 1", "before 'p tw' header"),
        ("p tw 2 1\np tw 2 1\n1 2", "second header"),
        ("p cnf 2 1\n1 2", "malformed header"),
        ("p tw x 0", "expected integers"),
        ("", "missing 'p tw' header"),
        ("p tw 2 1\n1 2 3", "expected '<u> <v>'"),
    ],
)
def test_parse_gr_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_gr(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_edge_list_basic():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n3 0")
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert parse_edge_list("3").edges == ()


@pytest.mark.parametrize(
    "text",
    ["2\n0 2", "2\n1 1", "", "x", "2\n0 1 2"],
)
def test_parse_edge_list_errors(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_vertex_count_cap():
    # the header alone would otherwise allocate one set per declared vertex
    # (kept just above the cap, so a broken check costs little memory)
    with pytest.raises(ParseError) as err:
        parse_gr(f"c big\np tw {MAX_VERTICES + 1} 0")
    assert "exceeds the limit" in str(err.value) and "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_edge_list(f"{MAX_VERTICES + 1}")
    assert parse_gr(f"p tw {MAX_VERTICES} 1\n1 {MAX_VERTICES}").n == MAX_VERTICES
    assert parse_edge_list(f"{MAX_VERTICES}").n == MAX_VERTICES


def test_parse_gr_order_insensitive():
    a = parse_gr("p tw 4 3\n1 2\n3 4\n2 3")
    b = parse_gr("p tw 4 3\n2 3\n3 4\n1 2")
    assert a == b


def test_write_td_single_node():
    g = complete_graph(3)
    td = decomposition([{0, 1, 2}], [0])
    assert write_td(td, g) == "s td 1 3 3\nb 1 1 2 3\n"


def test_write_td_two_nodes():
    g = path_graph(3)
    td = decomposition([{0, 1}, {1, 2}], [0, 0])
    assert write_td(td, g) == "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def test_write_td_refuses_invalid():
    g = complete_graph(3)
    td = decomposition([{0, 1}], [0])
    with pytest.raises(ValueError):
        write_td(td, g)


def test_td_round_trip_identity():
    g = path_graph(3)
    td = decomposition([{0, 1}, {1, 2}], [0, 0])
    text = write_td(td, g)
    back = parse_td(text)
    assert back == td
    assert write_td(back, g) == text


def test_parse_td_reroots_foreign_files():
    # same tree, edges written child-first and bags out of order
    text = "s td 3 2 3\nb 2 2 3\nb 1 1 2\nb 3 3\n2 1\n3 2\n"
    td = parse_td(text)
    assert td.nodes[0] == frozenset({0, 1})
    assert validate(path_graph(3), td) == []


@pytest.mark.parametrize(
    "text",
    [
        "b 1 1\ns td 1 1 1",  # content before header
        "s td 2 1 2\nb 1 1\nb 2 2",  # missing tree edge
        "s td 2 1 2\nb 1 1\nb 2 2\n1 2\n2 1",  # too many edges
        "s td 4 1 4\nb 1 1\nb 2 2\nb 3 3\nb 4 4\n2 3\n3 4\n4 2",  # m - 1 edges, a cycle
        "s td 1 1 1\nb 1 1\nb 1 1",  # duplicate node id
        "s td 1 1 1\nb 2 1",  # id out of range
        "s td 1 2 1\nb 1 1 5",  # vertex out of range
        "s td 0 0 0",  # zero nodes
    ],
)
def test_parse_td_errors(text):
    with pytest.raises(ParseError):
        parse_td(text)


def test_round_trip_on_generated_decompositions():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        td = brute_treewidth(g).decomposition
        text = write_td(td, g)
        back = parse_td(text)
        assert back == td
        assert write_td(back, g) == text


def test_export_dot_graph_only():
    dot = export_dot(complete_graph(3))
    assert dot.count("[dir=none]") == 3
    assert dot.count("label=") >= 3
    assert "cluster_tree" not in dot


def test_export_dot_with_decomposition():
    g = path_graph(3)
    td = decomposition([{0, 1}, {1, 2}], [0, 0])
    dot = export_dot(g, td)
    assert '"{1,2}"' in dot and '"{2,3}"' in dot
    assert dot.count("b2 -> b1") == 1


def test_export_dot_six_node_width_three():
    # eight vertices, six boxes of width <= 3, five parent arcs
    g = path_graph(8)
    td = decomposition([{0, 1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}], [0, 0, 1, 2, 3, 4])
    assert validate(g, td, expect_m=6, expect_w=3) == []
    dot = export_dot(g, td)
    assert dot.count("shape=box") == 1
    assert sum(1 for line in dot.splitlines() if line.strip().startswith("b") and "label" in line) == 6
    assert sum(1 for line in dot.splitlines() if "-> b" in line and "dir=none" not in line) == 5


def test_export_dot_rejects_invalid_decomposition():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        export_dot(g, decomposition([{0}], [0]))
