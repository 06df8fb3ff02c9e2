"""Resistance oracle tests: frozen small cases and universal identities."""

import itertools
from collections import deque

import numpy as np
import numpy.testing as npt
import pytest

from coronakit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    laplacian,
    path_graph,
    star_graph,
)
from coronakit.linalg import block_one_inverse, laplacian_group_inverse
from coronakit.resistance import (
    DisconnectedGraphError,
    cut_vertex_check,
    edge_sum_check,
    kirchhoff_from_one_inverse,
    kirchhoff_index,
    neighbor_recursion_check,
    resistance_matrix,
    resistances_from_inverse,
)

ATOL = 1e-10


def test_frozen_small_graphs():
    npt.assert_allclose(resistance_matrix(complete_graph(2)), [[0, 1], [1, 0]], atol=ATOL)
    want_p3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    npt.assert_allclose(resistance_matrix(path_graph(3)), want_p3, atol=ATOL)
    want_k3 = (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))
    npt.assert_allclose(resistance_matrix(complete_graph(3)), want_k3, atol=ATOL)


def test_frozen_kirchhoff_indices():
    assert kirchhoff_index(complete_graph(2)) == pytest.approx(1.0, abs=ATOL)
    assert kirchhoff_index(path_graph(3)) == pytest.approx(4.0, abs=ATOL)
    assert kirchhoff_index(complete_graph(3)) == pytest.approx(2.0, abs=ATOL)


def test_cycle4_resistances():
    # Two parallel paths: across the cycle 2*2/(2+2)=1, adjacent 1*3/(1+3)=3/4
    r = resistance_matrix(cycle_graph(4))
    assert r[0, 2] == pytest.approx(1.0, abs=ATOL)
    assert r[0, 1] == pytest.approx(0.75, abs=ATOL)


def test_single_vertex():
    npt.assert_allclose(resistance_matrix(empty_graph(1)), [[0.0]])
    assert kirchhoff_index(empty_graph(1)) == pytest.approx(0.0, abs=ATOL)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        resistance_matrix(empty_graph(2))
    with pytest.raises(DisconnectedGraphError):
        kirchhoff_index(Graph(4, ((0, 1), (2, 3))))


def test_edge_sum_equals_order_minus_one():
    for g in (path_graph(6), complete_graph(5), cycle_graph(7), star_graph(5)):
        assert edge_sum_check(g, resistance_matrix(g)) <= 1e-10


def test_neighbor_recursion_identity():
    cases = [
        (complete_graph(3), 0, 1),
        (complete_graph(3), 0, 2),
        (path_graph(4), 0, 1),
        (path_graph(4), 1, 3),
        (star_graph(4), 0, 2),
        (cycle_graph(5), 0, 3),
        (Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4))), 1, 4),
    ]
    for g, i, j in cases:
        assert neighbor_recursion_check(g, resistance_matrix(g), i, j) <= 1e-10


def test_neighbor_recursion_unordered_convention_is_the_valid_one():
    # On the triangle the recursion balances only when the correction term
    # sums r(k, l) over unordered neighbor pairs; doubling it (the ordered
    # reading) shifts the estimate by a clearly visible amount.
    g = complete_graph(3)
    r = resistance_matrix(g)
    i, j = 0, 1
    nbrs = g.neighbors(i)
    d = len(nbrs)
    cross = sum(r[k, j] for k in nbrs)
    pair = sum(r[k, l] for k, l in itertools.combinations(nbrs, 2))
    unordered_estimate = (1.0 + cross - pair / d) / d
    ordered_estimate = (1.0 + cross - 2.0 * pair / d) / d
    assert unordered_estimate == pytest.approx(r[i, j], abs=1e-12)
    assert abs(ordered_estimate - r[i, j]) > 0.1
    assert neighbor_recursion_check(g, r, i, j) <= 1e-12


def test_neighbor_recursion_argument_errors():
    g = path_graph(3)
    with pytest.raises(ValueError):
        neighbor_recursion_check(g, resistance_matrix(g), 1, 1)


def test_cut_vertex_additivity():
    assert cut_vertex_check(resistance_matrix(path_graph(3)), 0, 1, 2) <= 1e-12
    assert cut_vertex_check(resistance_matrix(star_graph(4)), 1, 0, 3) <= 1e-12
    # two triangles sharing vertex 2
    bowtie = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
    assert cut_vertex_check(resistance_matrix(bowtie), 0, 2, 4) <= 1e-12


def test_resistance_invariant_across_one_inverses():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))
    lap = laplacian(g)
    candidates = [laplacian_group_inverse(lap)]
    for k in (1, 2, 4):
        candidates.append(block_one_inverse(lap[:k, :k], lap[:k, k:], lap[k:, k:]))
    r_ref = resistance_matrix(g)
    for x in candidates:
        readout = resistances_from_inverse(x)
        for u in range(g.n):
            for v in range(g.n):
                assert readout[u, v] == pytest.approx(r_ref[u, v], abs=1e-9)
        assert kirchhoff_from_one_inverse(x) == pytest.approx(
            kirchhoff_index(g), abs=1e-9
        )


def _bfs_distances(g: Graph) -> np.ndarray:
    dist = np.full((g.n, g.n), np.inf)
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(g.n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[s, w] == np.inf:
                    dist[s, w] = dist[s, u] + 1
                    queue.append(w)
    return dist


def test_oracle_at_the_ill_conditioned_end():
    # Resistance is distance on a tree, so long paths and random trees of
    # order 300 (Fiedler value of P_300 about 1.1e-4) read exact values.
    rng = np.random.default_rng(300)
    tree = Graph(300, tuple((int(rng.integers(v)), v) for v in range(1, 300)))
    for g in (path_graph(300), tree):
        npt.assert_allclose(resistance_matrix(g), _bfs_distances(g), rtol=0, atol=1e-8)
    for n in (150, 300):
        assert kirchhoff_index(path_graph(n)) == pytest.approx(
            n * (n * n - 1) / 6, rel=1e-10
        )


def test_metric_axioms_and_distance_bound():
    graphs = [
        cycle_graph(6),
        star_graph(5),
        Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5))),
    ]
    for g in graphs:
        r = resistance_matrix(g)
        npt.assert_allclose(r, r.T, atol=1e-12)
        assert np.all(np.diag(r) == 0.0)
        off = r[~np.eye(g.n, dtype=bool)]
        assert np.all(off > 0.0)
        for i, j, k in itertools.permutations(range(g.n), 3):
            assert r[i, k] <= r[i, j] + r[j, k] + 1e-10
        npt.assert_array_less(r, _bfs_distances(g) + 1e-10)
