"""Structured {1}-inverses and closed-form resistances for corona products.

Both corona kinds are the R-graph skeleton R(G) with crowns hung off it.
They differ only in each crown's anchor, the skeleton vertex it hangs
from: original vertex i (R-vertex) or edge-vertex n + k (R-edge), whose
column joins base vertices (i, i) or edge k's endpoints (u_k, v_k).  The
anchor is a cut vertex, and a crown vertex couples to the rest of the
corona exactly as its anchor does.  So the {1}-inverse is the skeleton's
corner read through the anchors, plus each crown's grounded inverse
(L(H) + I)^{-1} on the crown corner.  A resistance is the skeleton's
between the two anchors plus each end's apex resistance, the diagonal of
its grounded inverse (Bapat, Graphs and Matrices), except within one
crown, where it is read off that crown's grounded inverse.

The skeleton corner is a small transform of the group inverse of L(G),
because the Schur complement of the original vertices collapses to
(3/2) L(G).  Every inverse is a Cholesky solve: the group inverse deflates
the all-ones null vector as (L(G) + J/n)^{-1} - J/n, and the crowns of
each order are inverted as one stack, for either kind.  Products with the
incidence matrix are gathers over the base edge list.  No matrix larger
than the base graph is ever inverted, and none is pseudo-inverted.  The
one eigensolve left is in ``crown_eigen_sums``, one stacked Jacobi call
per crown order: the expanded Kirchhoff index reads the crown spectra on
purpose, so that it checks the Cholesky inverses against a second kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import resistance
from .graphs import Graph, adjacency, is_connected, laplacian
from .linalg import MatrixError, laplacian_group_inverse, max_abs, sym_eigendecompose, sym_inverse

# The two internally-asserted structural identities: the Schur complement
# must equal (3/2) L(G) and the edge-block complement must equal 2I.
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CoronaBlocks:
    """Ingredients of either corona's structured {1}-inverse.

    ``skeleton`` is the R-graph skeleton's (n + m)-square corner of the
    inverse, the same for both kinds.  ``anchor`` gives, for each crown
    vertex in layout order, the skeleton vertex its crown hangs from:
    original vertex i for R-vertex, edge-vertex n + k for R-edge.  ``ends``
    gives, per crown host, the two base vertices (p, q) its anchor joins:
    (i, i) for R-vertex, edge k's endpoints for R-edge.  These two are the
    only data in which the kinds differ.  ``crown_laplacians`` holds, per
    nonempty crown order, the crowns' indices and their Laplacians as one
    (k, t, t) stack; it is built once and read by both the crown inverses
    and the crown spectra.  ``grounded`` is the block diagonal of the crown
    inverses (L(H) + I)^{-1}.  ``schur_defect`` is the distance of the
    numerically assembled Schur complement from (3/2) L(G);
    ``complement_defect`` is that of the edge-block complement from 2I
    (exactly 0 for R-vertex).
    """

    kind: str
    base: Graph
    crowns: tuple[Graph, ...]
    sizes: tuple[int, ...]
    l_sharp: np.ndarray
    skeleton: np.ndarray
    anchor: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    crown_laplacians: tuple[tuple[np.ndarray, np.ndarray], ...]
    grounded: np.ndarray
    schur_defect: float
    complement_defect: float


def _require_closed_form_input(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("base graph must have at least one vertex")
    if not is_connected(g):
        raise resistance.DisconnectedGraphError(
            "closed forms need a connected base graph"
        )


def _crown_laplacians(crowns: tuple[Graph, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per nonempty crown order: the crowns' indices and Laplacians as one (k, t, t) stack."""
    sizes = np.array([c.n for c in crowns], dtype=np.intp)
    stacks = []
    for t in sorted(set(sizes.tolist()) - {0}):
        of_order = np.flatnonzero(sizes == t)
        stacks.append((of_order, np.stack([laplacian(crowns[i]) for i in of_order])))
    return tuple(stacks)


def _grounded_inverse(
    sizes: tuple[int, ...],
    crown_laplacians: tuple[tuple[np.ndarray, np.ndarray], ...],
) -> np.ndarray:
    """Block diagonal of the crown inverses (L(H) + I)^{-1}, one solve per order.

    The crowns of each order t are inverted together as one (k, t, t)
    stack, whichever kind of corona they crown.
    """
    offsets = np.cumsum(sizes) - sizes
    total = sum(sizes)
    grounded = np.zeros((total, total))
    for of_order, laps in crown_laplacians:
        t = laps.shape[-1]
        inv = sym_inverse(laps + np.eye(t), "crown block")
        rows = offsets[of_order][:, None] + np.arange(t)
        grounded[rows[:, :, None], rows[:, None, :]] = inv
    return grounded


def _skeleton_corner(ls: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The R-graph skeleton's corner of the structured inverse.

    It is the same for plain R(G) and for both corona products (the crown
    blocks never touch it): (2/3) Lg, (1/3) Lg B, (1/2)I + (1/6) B^T Lg B.
    Column k of B is 1 at rows eu[k] and ev[k], so each product is a gather.
    """
    n, m = len(ls), len(eu)
    lb = ls[:, eu] + ls[:, ev]
    btlb = lb[eu] + lb[ev]
    x = np.zeros((n + m, n + m))
    x[:n, :n] = (2.0 / 3.0) * ls
    x[:n, n:] = (1.0 / 3.0) * lb
    x[n:, :n] = x[:n, n:].T
    x[n:, n:] = 0.5 * np.eye(m) + (1.0 / 6.0) * (0.5 * (btlb + btlb.T))
    return x


def _blocks(kind: str, g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check either corona's block ingredients."""
    _require_closed_form_input(g)
    crowns = tuple(crowns)
    eu, ev = np.array(g.edges, dtype=np.intp).reshape(g.m, 2).T
    # A host vertex i anchors at skeleton vertex i and joins (i, i); edge k at n + k, its ends.
    i = np.arange(g.n)
    p, q, first, per = (i, i, 0, "vertex") if kind == "r_vertex" else (eu, ev, g.n, "edge")
    hosts = len(p)
    if len(crowns) != hosts:
        raise ValueError(f"need {hosts} crowns (one per {per}), got {len(crowns)}")
    sizes = tuple(c.n for c in crowns)
    l_g = laplacian(g)
    l_sharp = laplacian_group_inverse(l_g)
    crown_laplacians = _crown_laplacians(crowns)
    grounded = _grounded_inverse(sizes, crown_laplacians)
    owner = np.repeat(np.arange(hosts), sizes)
    anchor = first + owner
    # Eliminating crown k leaves its anchor a diagonal term t_k - 1^T G_k 1,
    # which vanishes because each crown block satisfies (L(H) + I)^{-1} 1 = 1.
    excess = np.zeros(g.n + g.m)
    excess[first : first + hosts] = np.asarray(sizes, dtype=float) - np.bincount(
        owner, weights=grounded.sum(axis=1), minlength=hosts
    )
    # So the edge-block complement 2I + diag(excess) collapses to 2I ...
    complement_defect = max_abs(excess[g.n :])
    if complement_defect > IDENTITY_TOL:
        raise MatrixError(
            f"edge-block complement defect {complement_defect:.3e} exceeds {IDENTITY_TOL}"
        )
    # ... and the Schur complement D + diag(excess) + L(G) - BB^T/2 (BB^T = D + A) to 3/2 L(G).
    degrees = g.degrees()
    schur = np.diag(degrees + excess[: g.n]) + l_g - 0.5 * (np.diag(degrees) + adjacency(g))
    defect = max_abs(schur - 1.5 * l_g)
    if defect > IDENTITY_TOL:
        raise MatrixError(f"Schur complement defect {defect:.3e} exceeds {IDENTITY_TOL}")
    skeleton = _skeleton_corner(l_sharp, eu, ev)
    return CoronaBlocks(
        kind, g, crowns, sizes, l_sharp, skeleton, anchor, (p, q), crown_laplacians, grounded,
        defect, complement_defect,
    )


def rv_blocks(g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check the R-vertex corona's block ingredients."""
    return _blocks("r_vertex", g, crowns)


def re_blocks(g: Graph, crowns: tuple[Graph, ...]) -> CoronaBlocks:
    """Compute and sanity-check the R-edge corona's block ingredients."""
    return _blocks("r_edge", g, crowns)


def one_inverse(blocks: CoronaBlocks) -> np.ndarray:
    """Symmetric {1}-inverse of the corona Laplacian ``blocks`` describe.

    The one assembler for both kinds.  A crown vertex couples to the rest
    of the corona exactly as its anchor does, so X is the skeleton corner
    read through the anchors, X = S[a, a], plus the grounded crown
    inverses on the crown corner.  Vertex order matches the builder's
    layout.  Takes blocks already built, so a caller holding them pays for
    no second build.
    """
    nm = len(blocks.skeleton)
    ext = np.concatenate([np.arange(nm), blocks.anchor])
    x = blocks.skeleton[np.ix_(ext, ext)]
    x[nm:, nm:] += blocks.grounded
    return x


# ---------------------------------------------------------------------------
# Resistances


def resistance_map(blocks: CoronaBlocks) -> np.ndarray:
    """All pairwise resistances of the corona ``blocks`` describe.

    Broadcast through the crown anchors: the skeleton resistance between
    the two anchors plus each vertex's apex resistance, with every
    same-crown block (equal anchors) read off that crown's grounded
    inverse.  Takes blocks already built, so a caller holding them pays for
    no second build.
    """
    nm = len(blocks.skeleton)
    ext = np.concatenate([np.arange(nm), blocks.anchor])
    apex = np.concatenate([np.zeros(nm), np.diag(blocks.grounded)])
    skeleton = resistance.resistances_from_inverse(blocks.skeleton)
    r = skeleton[np.ix_(ext, ext)]
    r += apex[:, None] + apex[None, :]
    same_crown = blocks.anchor[:, None] == blocks.anchor[None, :]
    crown_r = resistance.resistances_from_inverse(blocks.grounded)
    r[nm:, nm:] = np.where(same_crown, crown_r, r[nm:, nm:])
    return r


def _cell_resistance(x: np.ndarray, i: int, j: int) -> float:
    """Cell (i, j) of ``resistance.resistances_from_inverse(x)``, from the 2 x 2 block it reads."""
    ij = [i, j]
    return resistance.resistances_from_inverse(x[np.ix_(ij, ij)])[0, 1]


def pair_resistance(blocks: CoronaBlocks, u: int, v: int) -> float:
    """The resistance between corona vertices u and v, read off the blocks.

    The (u, v) cell of ``resistance_map(blocks)``, bit for bit, in the same
    arithmetic order and with nothing of corona order built: the skeleton
    resistance between the two anchors plus the two apex values, or, for
    two vertices of one crown, the resistance within that crown's grounded
    inverse.
    """
    nm = len(blocks.skeleton)
    if u >= nm and v >= nm and blocks.anchor[u - nm] == blocks.anchor[v - nm]:
        return float(_cell_resistance(blocks.grounded, u - nm, v - nm))
    a, b = (w if w < nm else int(blocks.anchor[w - nm]) for w in (u, v))
    apex_u, apex_v = (0.0 if w < nm else blocks.grounded[w - nm, w - nm] for w in (u, v))
    return float(_cell_resistance(blocks.skeleton, a, b) + (apex_u + apex_v))


def rv_resistance_matrix(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """All closed-form pairwise resistances of the R-vertex corona."""
    return resistance_map(rv_blocks(g, crowns))


def re_resistance_matrix(g: Graph, crowns: tuple[Graph, ...]) -> np.ndarray:
    """All closed-form pairwise resistances of the R-edge corona."""
    return resistance_map(re_blocks(g, crowns))


# ---------------------------------------------------------------------------
# Kirchhoff index


@dataclass(frozen=True)
class KirchhoffBreakdown:
    """Kirchhoff index of a corona product, two closed ways.

    ``value`` is vertices * tr(X) - 1^T X 1 for the {1}-inverse X, read off
    the blocks without assembling X.  With c_j = 1 + (the number of crown
    vertices anchored at skeleton vertex j), tr X = c . diag(S) + tr G and
    1^T X 1 = c^T S c + 1^T G 1 (S the skeleton corner, G the grounded
    crown inverses).  ``expanded`` evaluates the same quantity term by
    term from base-graph invariants and crown spectra; ``terms`` holds the
    named summands (trace_* terms are multiplied by the vertex count,
    ones_* terms are subtracted).  ``deviation`` is their absolute
    difference.
    """

    value: float
    expanded: float
    terms: dict[str, float]
    deviation: float


def crown_eigen_sums(blocks: CoronaBlocks) -> np.ndarray:
    """Per crown of ``blocks``, the sum over its Laplacian spectrum of 1/(mu + 1).

    The crowns of each order are eigendecomposed together as one stack,
    the Laplacian stack the blocks already hold; an empty crown sums to 0.
    """
    sums = np.zeros(len(blocks.crowns))
    for of_order, laps in blocks.crown_laplacians:
        values = sym_eigendecompose(laps).values
        sums[of_order] = np.add.reduce(1.0 / (values + 1.0), axis=1)
    return sums


def kirchhoff_terms(blocks: CoronaBlocks) -> KirchhoffBreakdown:
    """Kirchhoff index with its term breakdown, from blocks already built.

    Works for either kind.  ``terms["trace_crown_eigen"]`` is the crown
    spectral sum that the trace of the crown corner must equal: tr G for
    R-vertex, tr G + sum t/2 for R-edge.

    With tau the crown sizes per host and U the anchor columns, (e_p + e_q)/2
    for host ends (p, q), the crown terms are (2/3) tau . diag(U^T Lg U),
    (2/3) pi^T Lg U tau and (2/3) (U tau)^T Lg (U tau), read by gathers.
    For R-edge the crown spectral term carries a +t/2 per crown on top of
    the bare sum of 1/(mu + 1): the rank-one shift in each crown block
    moves the all-ones eigenvalue from 1 to 2/(2+t), and the trace of the
    inverse picks up exactly t/2 from that swap; ones_crown_shift is the
    matching all-ones quadratic form.
    """
    g = blocks.base
    n, m = g.n, g.m
    st = sum(blocks.sizes)
    edge = blocks.kind == "r_edge"
    ls = blocks.l_sharp
    # X = S[a, a] + G holds skeleton vertex j's row and column reps[j] times.
    reps = 1.0 + np.bincount(blocks.anchor, minlength=n + m)
    trace_x = float(reps @ np.diag(blocks.skeleton)) + float(np.trace(blocks.grounded))
    ones_x = float(reps @ blocks.skeleton @ reps) + float(blocks.grounded.sum())
    value = (n + m + st) * trace_x - ones_x
    p, q = blocks.ends
    pi = g.degrees().astype(float)
    tau = np.array(blocks.sizes, dtype=float)
    u_tau = 0.5 * (np.bincount(p, tau, minlength=n) + np.bincount(q, tau, minlength=n))
    u_diag = 0.25 * (ls[p, p] + ls[q, q] + 2.0 * ls[p, q])
    # Lg 1 = 0, so the quadratic forms in Lg take the vectors centred: the
    # same values, and exactly 0 where a vector is constant (pi on a
    # regular base) instead of roundoff.
    pi_c = pi - pi.mean()
    u_tau_c = u_tau - u_tau.mean()
    shift = 0.5 if edge else 0.0
    sums = crown_eigen_sums(blocks)
    crown_trace = "trace_crown_edge" if edge else "trace_crown_host"
    terms = {
        "trace_base": (2.0 / 3.0) * float(np.trace(ls)),
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ np.diag(ls)),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum(float(v) + shift * c.n for v, c in zip(sums, blocks.crowns)),
        crown_trace: (2.0 / 3.0) * float(tau @ u_diag),
        "ones_edge_const": m / 2.0,
        "ones_degree_quad": (1.0 / 6.0) * float(pi_c @ ls @ pi_c),
        "ones_degree_crown": (2.0 / 3.0) * float(pi_c @ ls @ u_tau_c),
        "ones_crown_count": float(st),
    }
    # Insertion order is summation order below, so keep it fixed per kind.
    if edge:
        terms["ones_crown_shift"] = 0.5 * float(np.sum(tau * (2.0 + tau)))
    terms["ones_crown_quad"] = (2.0 / 3.0) * float(u_tau_c @ ls @ u_tau_c)
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
