"""Corona construction tests: vertex layout, adjacency, partitions."""

import random
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

from coronakit import closed_form, suite
from coronakit.corona import VertexPartition, build
from coronakit.graphs import (
    Graph,
    adjacency,
    complete_graph,
    empty_graph,
    is_connected,
    laplacian,
    path_graph,
)
from coronakit.specfile import CoronaSpec, build_from_spec


def test_r_graph_of_an_edge_is_a_triangle():
    built = build("r_graph", complete_graph(2))
    assert built.kind == "r_graph"
    assert built.graph == complete_graph(3)
    assert built.partition.original == (0, 1)
    assert built.partition.edge_vertices == (2,)


def test_r_graph_of_path3():
    built = build("r_graph", path_graph(3))
    assert built.graph.n == 5
    assert built.graph.edges == (
        (0, 1),
        (0, 3),
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 4),
    )


def test_r_vertex_corona_layout_and_adjacency():
    g = complete_graph(2)
    built = build("r_vertex", g, (Graph(1, ()), Graph(1, ())))
    assert built.kind == "r_vertex"
    part = built.partition
    assert part.original == (0, 1)
    assert part.edge_vertices == (2,)
    assert part.crowns == ((3,), (4,))
    want = np.zeros((5, 5))
    for u, v in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]:
        want[u, v] = want[v, u] = 1.0
    npt.assert_array_equal(adjacency(built.graph), want)


def test_r_vertex_corona_laplacian_block_structure():
    # degrees: original vertex carries old degree + edge-vertex degree + crown
    g = path_graph(3)
    crowns = (Graph(2, ((0, 1),)), Graph(0, ()), Graph(1, ()))
    built = build("r_vertex", g, crowns)
    lap = laplacian(built.graph)
    n, m = g.n, g.m
    d = g.degrees()
    npt.assert_array_equal(np.diag(lap)[:n], 2 * d + np.array([2, 0, 1]))
    npt.assert_array_equal(np.diag(lap)[n : n + m], [2.0, 2.0])
    # crown corner is L(H) + I per crown
    h0 = lap[n + m : n + m + 2, n + m : n + m + 2]
    npt.assert_array_equal(h0, laplacian(crowns[0]) + np.eye(2))


def test_r_edge_corona_layout_and_degrees():
    g = complete_graph(2)
    built = build("r_edge", g, (Graph(1, ()),))
    assert built.kind == "r_edge"
    assert built.graph.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    # edge-vertex degree is 2 + crown size
    assert built.graph.degrees()[2] == 3
    assert built.partition.crowns == ((3,),)


def test_r_edge_corona_crowns_attach_to_edge_vertices_only():
    g = path_graph(3)
    crowns = (Graph(2, ()), Graph(1, ()))
    built = build("r_edge", g, crowns)
    part = built.partition
    adj = adjacency(built.graph)
    for k, crown_ids in enumerate(part.crowns):
        anchor = part.edge_vertices[k]
        for c in crown_ids:
            assert adj[c, anchor] == 1.0
            assert np.sum(adj[c, : g.n]) == 0.0


def test_corona_connectivity_inherited():
    g = complete_graph(3)
    crowns = (Graph(2, ()), Graph(0, ()), Graph(3, ((0, 2),)))
    assert is_connected(build("r_vertex", g, crowns).graph)
    assert is_connected(build("r_edge", g, crowns).graph)


def test_crown_count_must_match():
    g = path_graph(3)
    with pytest.raises(ValueError, match="crowns"):
        build("r_vertex", g, (empty_graph(0),))
    with pytest.raises(ValueError, match="crowns"):
        build("r_edge", g, (empty_graph(0),) * 3)


def test_partition_roles_cover_every_vertex():
    g = path_graph(4)
    crowns = (Graph(1, ()), Graph(2, ((0, 1),)), Graph(0, ()), Graph(3, ()))
    built = build("r_vertex", g, crowns)
    part = built.partition
    assert part.total() == built.graph.n
    ids = list(part.original) + list(part.edge_vertices)
    for crown in part.crowns:
        ids += crown
    # every id in 0..N-1 exactly once, in the frozen layout order
    assert ids == list(range(built.graph.n))


def test_apex_join():
    # An apex join is the R-vertex corona over K1 with one crown: the apex
    # is vertex 0, and the crown's vertices follow it.
    built = build("r_vertex", Graph(1), (Graph(2, ()),))
    assert built.kind == "r_vertex"
    assert built.partition.original == (0,)
    assert built.partition.crowns == ((1, 2),)
    assert built.graph.edges == ((0, 1), (0, 2))
    lonely = build("r_vertex", Graph(1), (empty_graph(0),))
    assert lonely.graph.n == 1
    assert lonely.partition.crowns == ((),)


@pytest.mark.parametrize("kind", ["r_graph", "r_vertex", "r_edge"])
def test_build_keeps_the_edges_the_validating_constructor_gives(kind):
    # build hands its product edge list to Graph._checked, which does not
    # validate it again: the list is canonical, distinct and in range by
    # construction.  So the validating constructor, on the same list, must
    # accept it and keep the same edges.  Bases from K1 up, crowns empty,
    # order 1 and random up to order 4.
    rng = random.Random(23)
    real = Graph._checked
    lists = []

    def keep(n, pairs):
        pairs = list(pairs)
        lists.append((n, pairs))
        return real(n, pairs)

    orders = set()
    for _ in range(60):
        g = suite.random_connected_graph(rng, 1, 7)
        slots = {"r_graph": 0, "r_vertex": g.n, "r_edge": g.m}[kind]
        crowns = tuple(
            rng.choice((empty_graph(0), Graph(1, ()), suite.random_crown(rng, 4)))
            for _ in range(slots)
        )
        orders |= {c.n for c in crowns}
        with mock.patch.object(Graph, "_checked", side_effect=keep):
            built = build(kind, g, crowns)
        n, pairs = lists.pop()
        assert lists == []
        checked = Graph(n, tuple(pairs))
        assert built.graph.n == checked.n == g.n + g.m + sum(c.n for c in crowns)
        assert built.graph.edges == checked.edges
    if kind != "r_graph":
        assert {0, 1, 4} <= orders


def test_vertex_partition_total():
    part = VertexPartition(original=(0, 1), edge_vertices=(2,), crowns=((3, 4), ()))
    assert part.total() == 5


# Every entry point that takes a kind and crowns, called alike.
RULE_ENTRY_POINTS = {
    "build": build,
    "build_from_spec": lambda kind, g, crowns: build_from_spec(CoronaSpec(kind, g, crowns)),
    "check_corona_instance": suite.check_corona_instance,
    "rv_blocks": lambda kind, g, crowns: closed_form.rv_blocks(g, crowns),
    "re_blocks": lambda kind, g, crowns: closed_form.re_blocks(g, crowns),
}

# (entry points, kind, crown count, message) over the base P3 (n = 3, m = 2).
RULE_CASES = [
    (("build", "build_from_spec", "check_corona_instance", "rv_blocks"),
     "r_vertex", 1, "need 3 crowns (one per vertex), got 1"),
    (("build", "build_from_spec", "check_corona_instance", "re_blocks"),
     "r_edge", 3, "need 2 crowns (one per edge), got 3"),
    (("build", "build_from_spec"),
     "r_graph", 1, "need 0 crowns (r_graph takes none), got 1"),
    (("build", "build_from_spec"),
     "bogus", 0, "unknown corona kind 'bogus'"),
    # The suite checks two kinds only and rejects any other before it builds.
    (("check_corona_instance",),
     "r_graph", 1, "the suite checks r_vertex and r_edge coronas, got kind 'r_graph'"),
    (("check_corona_instance",),
     "bogus", 0, "the suite checks r_vertex and r_edge coronas, got kind 'bogus'"),
]


@pytest.mark.parametrize(
    "entry, kind, count, message",
    [
        pytest.param(entry, kind, count, message, id=f"{entry}-{kind}")
        for entries, kind, count, message in RULE_CASES
        for entry in entries
    ],
)
def test_every_entry_point_reports_the_crown_slot_rule_alike(entry, kind, count, message):
    with pytest.raises(ValueError) as exc:
        RULE_ENTRY_POINTS[entry](kind, path_graph(3), (Graph(1),) * count)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
