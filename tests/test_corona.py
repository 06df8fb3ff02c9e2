"""Corona construction tests: vertex layout, adjacency, partitions."""

import numpy as np
import numpy.testing as npt
import pytest

from coronakit.corona import (
    VertexPartition,
    apex_join,
    r_edge_corona,
    r_graph,
    r_vertex_corona,
)
from coronakit.graphs import (
    Graph,
    adjacency,
    complete_graph,
    empty_graph,
    is_connected,
    laplacian,
    path_graph,
)


def test_r_graph_of_an_edge_is_a_triangle():
    built = r_graph(complete_graph(2))
    assert built.kind == "r_graph"
    assert built.graph == complete_graph(3)
    assert built.partition.original == (0, 1)
    assert built.partition.edge_vertices == (2,)


def test_r_graph_of_path3():
    built = r_graph(path_graph(3))
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
    built = r_vertex_corona(g, (Graph(1, ()), Graph(1, ())))
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
    built = r_vertex_corona(g, crowns)
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
    built = r_edge_corona(g, (Graph(1, ()),))
    assert built.kind == "r_edge"
    assert built.graph.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    # edge-vertex degree is 2 + crown size
    assert built.graph.degrees()[2] == 3
    assert built.partition.crowns == ((3,),)


def test_r_edge_corona_crowns_attach_to_edge_vertices_only():
    g = path_graph(3)
    crowns = (Graph(2, ()), Graph(1, ()))
    built = r_edge_corona(g, crowns)
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
    assert is_connected(r_vertex_corona(g, crowns).graph)
    assert is_connected(r_edge_corona(g, crowns).graph)


def test_crown_count_must_match():
    g = path_graph(3)
    with pytest.raises(ValueError, match="crowns"):
        r_vertex_corona(g, (empty_graph(0),))
    with pytest.raises(ValueError, match="crowns"):
        r_edge_corona(g, (empty_graph(0),) * 3)


def test_partition_roles_cover_every_vertex():
    g = path_graph(4)
    crowns = (Graph(1, ()), Graph(2, ((0, 1),)), Graph(0, ()), Graph(3, ()))
    built = r_vertex_corona(g, crowns)
    part = built.partition
    assert part.total() == built.graph.n
    ids = list(part.original) + list(part.edge_vertices)
    for crown in part.crowns:
        ids += crown
    assert part.apex is None
    # every id in 0..N-1 exactly once, in the frozen layout order
    assert ids == list(range(built.graph.n))


def test_apex_join():
    built = apex_join(Graph(2, ()))
    assert built.kind == "apex_join"
    assert built.partition.apex == 2
    assert built.graph.edges == ((0, 2), (1, 2))
    lonely = apex_join(empty_graph(0))
    assert lonely.graph.n == 1
    assert lonely.partition.apex == 0


def test_vertex_partition_total():
    part = VertexPartition(original=(0, 1), edge_vertices=(2,), crowns=((3, 4), ()))
    assert part.total() == 5
