"""Structured {1}-inverses and closed-form resistances for corona products.

Partition either corona Laplacian with the original vertices of G first.
The Schur complement of the remaining block collapses to (3/2) L(G), so
the standard block {1}-inverse assembles out of the group inverse of L(G)
plus one small inverse (L(H) + I)^{-1} per crown.  Both are Cholesky
solves: the group inverse deflates the all-ones null vector as
(L(G) + J/n)^{-1} - J/n, and the crowns of each order are inverted as one
stack.  No matrix larger than the base graph is ever inverted, and none is
pseudo-inverted.  The one eigensolve left is in ``crown_eigen_sum``: the
expanded Kirchhoff index reads the crown spectra on purpose, so that it
checks the Cholesky inverses against a second kernel.  The two corona
kinds share every formula and differ only in where the crowns attach (see
``CoronaBlocks``).

Each crown hangs off a single anchor vertex of the R-graph skeleton, and
that anchor is a cut vertex, so resistances add across it: a crown vertex
sits at its apex resistance from the anchor and reaches everything outside
its crown through it.  The apex resistance of a crown H is the diagonal of
the grounded-Laplacian inverse (L(H) + I)^{-1} (Bapat, Graphs and
Matrices), the same crown inverse the blocks already hold, so the full
resistance matrix is the skeleton's, broadcast through the anchors, plus
the apex vector, with each same-crown block read off that crown's inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import resistance
from .graphs import Graph, incidence, is_connected, laplacian
from .linalg import (
    MatrixError,
    laplacian_group_inverse,
    max_abs,
    shifted_rank_one_inverse,
    sym_eigendecompose,
    sym_inverse,
)

# The two internally-asserted structural identities: the Schur complement
# must equal (3/2) L(G) and the edge-block complement must equal 2I.
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CoronaBlocks:
    """Ingredients of either corona's structured {1}-inverse.

    ``ind`` is the crown indicator (one 1 per column, in the row of the
    crown's host: original vertex i for R-vertex, edge k for R-edge).  The
    kinds differ in three pieces of data only:

    - ``u``, the anchor column: I_n for R-vertex, B/2 for R-edge, so the
      crown coupling of the assembled inverse is W = u @ ind;
    - ``f``, the edge-to-crown block: 0 for R-vertex, ind/2 for R-edge;
    - ``crown_inv``, the crown corner: block diagonal of (L(H_i) + I)^{-1}
      for R-vertex, of the shifted (L(H_k) + I - (1/(2+t_k))J)^{-1} for
      R-edge.

    ``grounded`` is the block diagonal of (L(H) + I)^{-1} for both kinds.
    ``schur`` is the numerically assembled Schur complement, which equals
    (3/2) L(G) to working precision; ``complement_defect`` is the distance
    of the edge-block complement from 2I (exactly 0 for R-vertex).
    """

    kind: str
    base: Graph
    crowns: tuple[Graph, ...]
    sizes: tuple[int, ...]
    l_sharp: np.ndarray
    b: np.ndarray
    ind: np.ndarray
    u: np.ndarray
    f: np.ndarray
    crown_inv: np.ndarray
    grounded: np.ndarray
    schur: np.ndarray
    schur_defect: float
    complement_defect: float


def _require_closed_form_input(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("base graph must have at least one vertex")
    if not is_connected(g):
        raise resistance.DisconnectedGraphError(
            "closed forms need a connected base graph"
        )


def _crown_indicator(rows: int, crowns: tuple[Graph, ...]) -> np.ndarray:
    ind = np.zeros((rows, sum(c.n for c in crowns)))
    col = 0
    for host, crown in enumerate(crowns):
        ind[host, col : col + crown.n] = 1.0
        col += crown.n
    return ind


def _crown_corners(vertex: bool, crowns: tuple[Graph, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal crown corner and grounded inverse, one solve per order.

    The crowns of each order t are inverted together as one (k, t, t)
    stack.  The R-vertex corner is the grounded inverse (L(H) + I)^{-1}
    itself; the shifted R-edge corner is (L(H) + I)^{-1} + J/2, so the
    grounded inverse follows from it by subtracting 1/2.
    """
    sizes = np.array([c.n for c in crowns], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    corner = np.zeros((total, total))
    grounded = corner if vertex else np.zeros((total, total))
    for t in sorted(set(sizes.tolist()) - {0}):
        of_order = np.flatnonzero(sizes == t)
        laps = np.stack([laplacian(crowns[i]) for i in of_order])
        if vertex:
            inv = sym_inverse(laps + np.eye(t), "crown block")
        else:
            inv = shifted_rank_one_inverse(laps, 1.0, 2.0 + t)
        rows = offsets[of_order][:, None] + np.arange(t)
        block = (rows[:, :, None], rows[:, None, :])
        corner[block] = inv
        if not vertex:
            grounded[block] = inv - 0.5
    return corner, grounded


def _blocks(kind: str, g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check either corona's block ingredients."""
    _require_closed_form_input(g)
    crowns = tuple(crowns)
    vertex = kind == "r_vertex"
    hosts, per = (g.n, "vertex") if vertex else (g.m, "edge")
    if len(crowns) != hosts:
        raise ValueError(f"need {hosts} crowns (one per {per}), got {len(crowns)}")
    sizes = tuple(c.n for c in crowns)
    total = sum(sizes)
    l_g = laplacian(g)
    l_sharp = laplacian_group_inverse(l_g)
    b = incidence(g)
    ind = _crown_indicator(hosts, crowns)
    crown_inv, grounded_inv = _crown_corners(vertex, crowns)
    # Crown columns joined to original vertices, and to edge-vertices.
    at_original = ind if vertex else np.zeros((g.n, total))
    at_edge = np.zeros((g.m, total)) if vertex else ind
    # The edge-block complement P - M Q^{-1} M^T collapses to 2I because each
    # crown block satisfies (L(H) + I)^{-1} 1 = 1.
    complement = np.diag(2.0 + at_edge.sum(axis=1)) - at_edge @ grounded_inv @ at_edge.T
    complement_defect = max_abs(complement - 2.0 * np.eye(g.m))
    if complement_defect > IDENTITY_TOL:
        raise MatrixError(
            f"edge-block complement defect {complement_defect:.3e} exceeds {IDENTITY_TOL}"
        )
    degrees = g.degrees().astype(float)
    a_block = np.diag(degrees + at_original.sum(axis=1)) + l_g
    schur = a_block - (0.5 * b @ b.T + at_original @ grounded_inv @ at_original.T)
    defect = max_abs(schur - 1.5 * l_g)
    if defect > IDENTITY_TOL:
        raise MatrixError(f"Schur complement defect {defect:.3e} exceeds {IDENTITY_TOL}")
    u = np.eye(g.n) if vertex else 0.5 * b
    return CoronaBlocks(
        kind, g, crowns, sizes, l_sharp, b, ind, u, 0.5 * at_edge,
        crown_inv, grounded_inv, schur, defect, complement_defect,
    )


def rv_blocks(g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check the R-vertex corona's block ingredients."""
    return _blocks("r_vertex", g, crowns)


def re_blocks(g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check the R-edge corona's block ingredients."""
    return _blocks("r_edge", g, crowns)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _skeleton_corner(ls: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The R-graph skeleton's corner of the structured inverse.

    It is the same for plain R(G) and for both corona products (the crown
    blocks never touch it): (2/3) Lg, (1/3) Lg B, (1/2)I + (1/6) B^T Lg B.
    """
    n, m = b.shape
    lb = ls @ b
    x = np.zeros((n + m, n + m))
    x[:n, :n] = (2.0 / 3.0) * ls
    x[:n, n:] = (1.0 / 3.0) * lb
    x[n:, :n] = x[:n, n:].T
    x[n:, n:] = 0.5 * np.eye(m) + (1.0 / 6.0) * _symmetrized(b.T @ lb)
    return x


def one_inverse(blocks: CoronaBlocks) -> np.ndarray:
    """Symmetric {1}-inverse of the corona Laplacian ``blocks`` describe.

    The one assembler for both kinds.  Every block is a small transform of
    the group inverse of L(G): the original corner is (2/3) Lg, the
    skeleton couplings carry 1/3 and 1/6, the crown coupling is
    W = u @ ind, and the crown corner is the block-diagonal crown inverse
    plus a (2/3) W^T Lg W correction.  Vertex order matches the builder's
    layout.  Takes blocks already built, so a caller holding them pays for
    no second build.
    """
    n = blocks.base.n
    nm = n + blocks.base.m
    st = sum(blocks.sizes)
    w = blocks.u @ blocks.ind
    lw = blocks.l_sharp @ w
    x = np.zeros((nm + st, nm + st))
    x[:nm, :nm] = _skeleton_corner(blocks.l_sharp, blocks.b)
    x[:n, nm:] = (2.0 / 3.0) * lw
    x[nm:, :n] = x[:n, nm:].T
    x[n:nm, nm:] = blocks.f + (1.0 / 3.0) * blocks.b.T @ lw
    x[nm:, n:nm] = x[n:nm, nm:].T
    x[nm:, nm:] = blocks.crown_inv + (2.0 / 3.0) * _symmetrized(w.T @ lw)
    return x


def rv_one_inverse(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """Symmetric {1}-inverse of the R-vertex corona Laplacian, by blocks."""
    return one_inverse(rv_blocks(g, crowns))


def re_one_inverse(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """Symmetric {1}-inverse of the R-edge corona Laplacian, by blocks."""
    return one_inverse(re_blocks(g, crowns))


# ---------------------------------------------------------------------------
# Resistances


def resistance_map(blocks: CoronaBlocks) -> np.ndarray:
    """All pairwise resistances of the corona ``blocks`` describe.

    Broadcast through the crown anchors: the skeleton resistance between
    the two anchors plus each vertex's apex resistance, with every
    same-crown block read off that crown's grounded inverse.  Takes blocks
    already built, so a caller holding them pays for no second build.
    """
    nm = blocks.base.n + blocks.base.m
    owner = np.repeat(np.arange(len(blocks.sizes)), blocks.sizes)
    first_anchor = 0 if blocks.kind == "r_vertex" else blocks.base.n
    anchor = np.concatenate([np.arange(nm), first_anchor + owner])
    apex = np.concatenate([np.zeros(nm), np.diag(blocks.grounded)])
    skeleton = resistance.resistances_from_inverse(
        _skeleton_corner(blocks.l_sharp, blocks.b)
    )
    r = skeleton[np.ix_(anchor, anchor)]
    r += apex[:, None] + apex[None, :]
    same_crown = owner[:, None] == owner[None, :]
    crown_r = resistance.resistances_from_inverse(blocks.grounded)
    r[nm:, nm:] = np.where(same_crown, crown_r, r[nm:, nm:])
    return r


def _entry(r: np.ndarray, u: int, v: int) -> float:
    if not (0 <= u < len(r) and 0 <= v < len(r)):
        raise IndexError(f"vertex pair ({u}, {v}) out of range for a {len(r)}-vertex product")
    return float(r[u, v])


def rv_resistance_matrix(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """All closed-form pairwise resistances of the R-vertex corona."""
    return resistance_map(rv_blocks(g, crowns))


def re_resistance_matrix(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """All closed-form pairwise resistances of the R-edge corona."""
    return resistance_map(re_blocks(g, crowns))


def rv_resistance(g: Graph, crowns: tuple[Graph, ...], u: int, v: int) -> float:
    """Closed-form resistance between two R-vertex corona vertices."""
    return _entry(rv_resistance_matrix(g, crowns), u, v)


def re_resistance(g: Graph, crowns: tuple[Graph, ...], u: int, v: int) -> float:
    """Closed-form resistance between two R-edge corona vertices."""
    return _entry(re_resistance_matrix(g, crowns), u, v)


# ---------------------------------------------------------------------------
# Kirchhoff index


@dataclass(frozen=True)
class KirchhoffBreakdown:
    """Kirchhoff index of a corona product, two closed ways.

    ``value`` is vertices * tr(X) - 1^T X 1 on the assembled {1}-inverse;
    ``expanded`` evaluates the same quantity term by term from base-graph
    invariants and crown spectra; ``terms`` holds the named summands
    (trace_* terms are multiplied by the vertex count, ones_* terms are
    subtracted).  ``deviation`` is their absolute difference.
    """

    value: float
    expanded: float
    terms: dict[str, float]
    deviation: float


def crown_eigen_sum(crown: Graph) -> float:
    """sum over the crown's Laplacian spectrum of 1/(mu + 1)."""
    if crown.n == 0:
        return 0.0
    values = sym_eigendecompose(laplacian(crown)).values
    return float(np.sum(1.0 / (values + 1.0)))


def kirchhoff_terms(blocks: CoronaBlocks) -> KirchhoffBreakdown:
    """Kirchhoff index with its term breakdown, from blocks already built.

    Works for either kind.  ``terms["trace_crown_eigen"]`` is the crown
    spectral sum that tr(crown_inv) must equal.

    With tau the crown sizes per host, the crown terms are (2/3) tau .
    diag(U^T Lg U), (2/3) pi^T Lg U tau and (2/3) (U tau)^T Lg (U tau).
    For R-edge the crown spectral term carries a +t/2 per crown on top of
    the bare sum of 1/(mu + 1): the rank-one shift in each crown block
    moves the all-ones eigenvalue from 1 to 2/(2+t), and the trace of the
    inverse picks up exactly t/2 from that swap; ones_crown_shift is the
    matching all-ones quadratic form.
    """
    value = resistance.kirchhoff_from_one_inverse(one_inverse(blocks))
    g = blocks.base
    n, m = g.n, g.m
    st = sum(blocks.sizes)
    edge = blocks.kind == "r_edge"
    ls = blocks.l_sharp
    pi = g.degrees().astype(float)
    tau = np.array(blocks.sizes, dtype=float)
    u_tau = blocks.u @ tau
    shift = 0.5 if edge else 0.0
    crown_trace = "trace_crown_edge" if edge else "trace_crown_host"
    terms = {
        "trace_base": (2.0 / 3.0) * float(np.trace(ls)),
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ np.diag(ls)),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum(crown_eigen_sum(c) + shift * c.n for c in blocks.crowns),
        crown_trace: (2.0 / 3.0) * float(tau @ np.diag(blocks.u.T @ ls @ blocks.u)),
        "ones_edge_const": m / 2.0,
        "ones_degree_quad": (1.0 / 6.0) * float(pi @ ls @ pi),
        "ones_degree_crown": (2.0 / 3.0) * float(pi @ ls @ u_tau),
        "ones_crown_count": float(st),
    }
    # Insertion order is summation order below, so keep it fixed per kind.
    if edge:
        terms["ones_crown_shift"] = 0.5 * float(np.sum(tau * (2.0 + tau)))
    terms["ones_crown_quad"] = (2.0 / 3.0) * float(u_tau @ ls @ u_tau)
    trace_part = sum(v for k, v in terms.items() if k.startswith("trace_"))
    ones_part = sum(v for k, v in terms.items() if k.startswith("ones_"))
    expanded = (n + m + st) * trace_part - ones_part
    return KirchhoffBreakdown(value, expanded, terms, abs(value - expanded))


def rv_kirchhoff_terms(g: Graph, crowns: tuple[Graph, ...]) -> KirchhoffBreakdown:
    """Kirchhoff index of the R-vertex corona with its term breakdown."""
    return kirchhoff_terms(rv_blocks(g, crowns))


def re_kirchhoff_terms(g: Graph, crowns: tuple[Graph, ...]) -> KirchhoffBreakdown:
    """Kirchhoff index of the R-edge corona with its term breakdown."""
    return kirchhoff_terms(re_blocks(g, crowns))


def rv_kirchhoff(g: Graph, crowns: tuple[Graph, ...]) -> float:
    """Kirchhoff index of the R-vertex corona (assembled-inverse route)."""
    return rv_kirchhoff_terms(g, crowns).value


def re_kirchhoff(g: Graph, crowns: tuple[Graph, ...]) -> float:
    """Kirchhoff index of the R-edge corona (assembled-inverse route)."""
    return re_kirchhoff_terms(g, crowns).value
