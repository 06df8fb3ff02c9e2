"""Brute-force resistance distances through the Laplacian group inverse.

This is the oracle side of the package: no structure is assumed beyond
connectivity, and the whole Laplacian goes through the deflated Cholesky
``laplacian_group_inverse``.  Every closed-form result elsewhere is
validated against these routines.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, is_connected, laplacian
from .linalg import laplacian_group_inverse


class DisconnectedGraphError(ValueError):
    """Resistance distance needs a connected graph."""


def _require_connected(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not is_connected(g):
        raise DisconnectedGraphError(
            f"graph with {g.n} vertices and {g.m} edges is not connected"
        )


def resistance_matrix(g: Graph) -> np.ndarray:
    """All pairwise effective resistances r(u, v) of a connected graph.

    Computed from the group inverse X of the Laplacian as
    r(u, v) = X[u, u] + X[v, v] - 2 X[u, v]; the result is symmetric with a
    zero diagonal.
    """
    _require_connected(g)
    return resistances_from_inverse(laplacian_group_inverse(laplacian(g)))


def resistances_from_inverse(x: np.ndarray) -> np.ndarray:
    """Every pairwise resistance read out of X: X_uu + X_vv - X_uv - X_vu.

    X may be any {1}-inverse of a connected graph's Laplacian, or a
    grounded-Laplacian inverse for resistances within the grounded graph.
    The result is symmetric with a zero diagonal.
    """
    d = np.diag(x)
    r = d[:, None] + d[None, :] - 2.0 * x
    r = 0.5 * (r + r.T)
    np.fill_diagonal(r, 0.0)
    return r


def kirchhoff_index(g: Graph) -> float:
    """Sum of resistances over all unordered vertex pairs: n * tr(Lg)."""
    _require_connected(g)
    x = laplacian_group_inverse(laplacian(g))
    return float(g.n * np.trace(x))


def kirchhoff_from_one_inverse(x: np.ndarray) -> float:
    """Kirchhoff index read out of any symmetric {1}-inverse X: n tr X - 1'X1.

    For the group inverse the row sums vanish and this collapses to the
    familiar n tr(Lg); for other {1}-inverses the correction term is what
    keeps the value invariant.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    ones = np.ones(n)
    return float(n * np.trace(x) - ones @ x @ ones)


def edge_sum_check(g: Graph, r: np.ndarray) -> float:
    """|sum of r(u, v) over edges - (n - 1)|: zero on every connected graph.

    ``r`` is the resistance matrix of ``g``, for example from
    ``resistance_matrix(g)``.
    """
    total = sum(r[u, v] for u, v in g.edges)
    return abs(float(total) - (g.n - 1))


def neighbor_recursion_check(g: Graph, r: np.ndarray, i: int, j: int) -> float:
    """Residual of the neighborhood recursion for r(i, j), i != j.

    ``r`` is the resistance matrix of ``g``.  With T the neighbors of i and
    d = |T|, the recursion is

        r(i, j) = (1 + sum_{k in T} r(k, j) - (1/d) * P) / d

    where P sums r(k, l) over unordered neighbor pairs k < l.  The unordered
    convention is the one the oracle validates; counting ordered pairs (which
    doubles P) breaks it already on a triangle.
    """
    if i == j:
        raise ValueError("recursion needs two distinct vertices")
    nbrs = g.neighbors(i)
    d = len(nbrs)
    if d == 0:
        raise ValueError(f"vertex {i} has no neighbors")
    cross = sum(r[k, j] for k in nbrs)
    pair = sum(r[k, l] for a, k in enumerate(nbrs) for l in nbrs[a + 1 :])
    estimate = (1.0 + cross - pair / d) / d
    return abs(estimate - float(r[i, j]))


def cut_vertex_check(r: np.ndarray, i: int, k: int, j: int) -> float:
    """|r(i, j) - (r(i, k) + r(k, j))| on a resistance matrix ``r``.

    Zero whenever k is a cut vertex separating i from j; a plain residual
    otherwise (no attempt is made to verify the separation).
    """
    return abs(float(r[i, j]) - (float(r[i, k]) + float(r[k, j])))
