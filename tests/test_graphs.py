"""Graph model and edge-list format tests."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from coronakit.graphs import (
    EdgeListError,
    Graph,
    adjacency,
    complete_graph,
    cycle_graph,
    empty_graph,
    incidence,
    is_connected,
    laplacian,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
)


def test_edges_are_canonicalized():
    g = Graph(4, ((3, 1), (2, 0), (0, 1)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3


def test_equal_graphs_compare_equal():
    assert Graph(3, ((2, 1),)) == Graph(3, ((1, 2),))


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, ((1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1, ())


def test_degrees_and_neighbors():
    g = star_graph(3)
    npt.assert_array_equal(g.degrees(), [3, 1, 1, 1])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0,)
    with pytest.raises(IndexError):
        g.neighbors(4)


def test_laplacian_is_degree_minus_adjacency():
    g = cycle_graph(5)
    npt.assert_allclose(laplacian(g), np.diag(g.degrees()) - adjacency(g))
    npt.assert_allclose(laplacian(g) @ np.ones(5), np.zeros(5))


def test_incidence_gram_is_signless_laplacian():
    for g in (complete_graph(4), path_graph(5), star_graph(4), cycle_graph(6)):
        b = incidence(g)
        npt.assert_allclose(b @ b.T, np.diag(g.degrees()) + adjacency(g))


def test_incidence_columns_follow_edge_order():
    g = Graph(3, ((1, 2), (0, 1)))
    b = incidence(g)
    # canonical order is (0,1) then (1,2)
    npt.assert_array_equal(b[:, 0], [1, 1, 0])
    npt.assert_array_equal(b[:, 1], [0, 1, 1])


def test_is_connected():
    assert is_connected(path_graph(4))
    assert is_connected(empty_graph(1))
    assert is_connected(empty_graph(0))
    assert not is_connected(empty_graph(2))
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))


def test_parse_basic_document():
    text = "# a triangle\n3\n0 1\n1 2  # last two\n\n2 0\n"
    g = parse_edge_list(text)
    assert g == complete_graph(3)


def test_parse_accepts_crlf():
    g = parse_edge_list("2\r\n0 1\r\n")
    assert g == complete_graph(2)


def test_parse_reports_line_numbers():
    with pytest.raises(EdgeListError, match="line 2") as exc:
        parse_edge_list("3\nnope\n")
    assert exc.value.line == 2
    with pytest.raises(EdgeListError, match="line 4.*duplicate"):
        parse_edge_list("3\n0 1\n\n1 0\n")
    with pytest.raises(EdgeListError, match="line 3.*out of range"):
        parse_edge_list("2\n0 1\n0 5\n")
    with pytest.raises(EdgeListError, match="line 2.*self-loop"):
        parse_edge_list("2\n1 1\n")
    with pytest.raises(EdgeListError, match="vertex count"):
        parse_edge_list("#only comments\n")
    # int() would read "1_0" as 10 and Arabic-Indic digits as numbers.
    with pytest.raises(EdgeListError, match="line 1.*vertex count"):
        parse_edge_list("1_0\n")
    with pytest.raises(EdgeListError, match="line 2.*expected an edge"):
        parse_edge_list("11\n0 1_0\n")
    with pytest.raises(EdgeListError, match="line 3.*expected an edge"):
        parse_edge_list("3\n0 1\n\u0661 2\n")


def test_parse_splits_fields_as_str_split_does():
    # Tabs, CRLF, signed ints, trailing comments and Unicode separators
    # (str.isspace, as str.split() uses) all read as the same graph, with
    # plain int endpoints.
    want = Graph(4, ((0, 1), (1, 2), (2, 3)))
    docs = [
        "4\n0 1\n1 2\n2 3\n",
        "4\r\n0\t1\r\n\t2 \t1\r\n2\t\t3 # c\r\n",
        "+4\n+0 +1\n1 +2\n+3 2#\n",
        "4\n0\u00a01\n1\u20032\n2\u30003\u2028\n",
        "\u00a04\n\x0b0\x0c1\x1c\n1\x1f2\n2\u00853\n",
    ]
    for doc in docs:
        g = parse_edge_list(doc)
        assert g == want
        assert all(type(v) is int for edge in g.edges for v in edge)
    with pytest.raises(EdgeListError, match="line 3.*expected an edge"):
        parse_edge_list("4\n0 1\n1\u200b2\n")  # a zero-width space is not whitespace


def test_parse_keeps_sign_specific_messages():
    with pytest.raises(EdgeListError, match="line 1.*nonnegative"):
        parse_edge_list("-2\n")
    with pytest.raises(EdgeListError, match="line 2.*out of range"):
        parse_edge_list("3\n-1 2\n")
    assert parse_edge_list("+2\n0 +1\n") == complete_graph(2)


def test_serialize_round_trip_fixed():
    g = Graph(4, ((2, 0), (3, 1), (0, 1)))
    assert serialize_edge_list(g) == "4\n0 1\n0 2\n1 3\n"
    assert parse_edge_list(serialize_edge_list(g)) == g


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(chosen))


@given(graphs())
def test_round_trip_any_graph(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_factories():
    assert path_graph(1).m == 0
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3) == complete_graph(3)
    assert complete_graph(5).m == 10
    assert star_graph(4).n == 5
    with pytest.raises(ValueError):
        cycle_graph(2)
