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
than the base graph is ever inverted, and none is pseudo-inverted.

The blocks hold only base-order data and the per-order crown stacks.  The
Kirchhoff index is read from those alone, so its cost follows n and the
crown orders, not the corona order, and so is a single-pair resistance,
whose few skeleton cells are gathers from L(G)#; the (n + m)-square
skeleton corner and the dense crown corner are built only when the full
resistance map or the assembled {1}-inverse asks for them.  The one
eigensolve left is in ``crown_eigen_sums``, one stacked Jacobi call per
Jacobi layout order: the expanded Kirchhoff index reads the crown spectra
on purpose, so that it checks the Cholesky inverses against a second
kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import resistance
from .graphs import Graph, is_connected, laplacian
from .linalg import MatrixError, laplacian_group_inverse, max_abs, sym_eigendecompose, sym_inverse

# The two internally-asserted structural identities: the Schur complement
# must equal (3/2) L(G) and the edge-block complement must equal 2I.
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CoronaBlocks:
    """Ingredients of either corona's structured {1}-inverse.

    Everything stored is of base or crown order.  ``l_sharp`` is the group
    inverse of L(G), and ``edge_ends`` the base edge list as two endpoint
    arrays.  ``anchor`` gives, for each crown vertex in layout order, the
    skeleton vertex its crown hangs from: original vertex i for R-vertex,
    edge-vertex n + k for R-edge.  ``ends`` gives, per crown host, the two
    base vertices (p, q) its anchor joins: (i, i) for R-vertex, edge k's
    endpoints for R-edge.  These two are the only data in which the kinds
    differ.  ``crown_stacks`` holds, per nonempty crown order t, the
    crowns' indices, their Laplacians as one (k, t, t) stack and the
    grounded inverses (L(H) + I)^{-1} as another; each Laplacian stack is
    built once, in one scatter, and read by both the crown inverses and
    the crown spectra.
    ``schur_defect`` is the distance of the numerically assembled Schur
    complement from (3/2) L(G); ``complement_defect`` is that of the
    edge-block complement from 2I (exactly 0 for R-vertex).

    ``skeleton``, the R-graph skeleton's (n + m)-square corner of the
    inverse (the same for both kinds), and ``grounded``, the block diagonal
    of the crown inverses, are built on first use, at most once per blocks
    object.  The Kirchhoff index and ``pair_resistance`` read neither.
    """

    kind: str
    base: Graph
    crowns: tuple[Graph, ...]
    sizes: tuple[int, ...]
    l_sharp: np.ndarray
    edge_ends: tuple[np.ndarray, np.ndarray]
    anchor: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    crown_stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    schur_defect: float
    complement_defect: float

    @functools.cached_property
    def skeleton(self) -> np.ndarray:
        return _skeleton_corner(self.l_sharp, *self.edge_ends)

    @functools.cached_property
    def grounded(self) -> np.ndarray:
        return _dense_grounded(self.sizes, self.crown_stacks)


def _require_closed_form_input(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("base graph must have at least one vertex")
    if not is_connected(g):
        raise resistance.DisconnectedGraphError(
            "closed forms need a connected base graph"
        )


def _crown_stacks(
    crowns: tuple[Graph, ...],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per nonempty crown order t: the crowns' indices, Laplacians and inverses of L(H) + I.

    Each order's (k, t, t) Laplacian stack is built in one scatter over its
    crowns' edges, as ``laplacian`` builds one: the adjacency negated, then
    the degrees on the diagonal, so every member is bit for bit
    ``laplacian(crown)``.  The crowns of each order are inverted together
    as one stack, whichever kind of corona they crown.
    """
    sizes = np.array([c.n for c in crowns], dtype=np.intp)
    owner = np.repeat(np.arange(len(crowns)), [c.m for c in crowns])
    ends = np.array([e for c in crowns for e in c.edges], dtype=np.intp).reshape(-1, 2)
    stacks = []
    for t in sorted(set(sizes.tolist()) - {0}):
        of_order = np.flatnonzero(sizes == t)
        mine = sizes[owner] == t
        # Flat positions of (member, u, v) and (member, v, u) in the stack.
        at = np.searchsorted(of_order, owner[mine]) * (t * t)
        u, v = ends[mine].T
        adjacency = np.zeros((len(of_order), t, t))
        flat = adjacency.reshape(-1)
        flat[at + u * t + v] = 1.0
        flat[at + v * t + u] = 1.0
        laps = -adjacency
        diag = np.arange(t)
        laps[:, diag, diag] = adjacency.sum(axis=2)
        stacks.append((of_order, laps, sym_inverse(laps + np.eye(t), "crown block")))
    return tuple(stacks)


def _dense_grounded(
    sizes: tuple[int, ...],
    crown_stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
) -> np.ndarray:
    """Block diagonal of the crown inverses (L(H) + I)^{-1}, in crown layout order."""
    offsets = np.cumsum(sizes) - sizes
    total = sum(sizes)
    grounded = np.zeros((total, total))
    for of_order, _, inv in crown_stacks:
        rows = offsets[of_order][:, None] + np.arange(inv.shape[-1])
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


def _crown_totals(
    crown_stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per crown of ``count``, tr G_k and 1^T G_k 1 of its grounded inverse, read off the stacks."""
    traces = np.zeros(count)
    ones = np.zeros(count)
    for of_order, _, inv in crown_stacks:
        traces[of_order] = np.trace(inv, axis1=1, axis2=2)
        ones[of_order] = inv.sum(axis=(1, 2))
    return traces, ones


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
    l_sharp = laplacian_group_inverse(laplacian(g))
    crown_stacks = _crown_stacks(crowns)
    # Eliminating crown k leaves its anchor a diagonal term t_k - 1^T G_k 1,
    # which vanishes because each crown block satisfies (L(H) + I)^{-1} 1 = 1.
    excess = np.zeros(g.n + g.m)
    crown_ones = _crown_totals(crown_stacks, hosts)[1]
    excess[first : first + hosts] = np.asarray(sizes, dtype=float) - crown_ones
    # So the edge-block complement 2I + diag(excess) collapses to 2I ...
    complement_defect = max_abs(excess[g.n :])
    if complement_defect > IDENTITY_TOL:
        raise MatrixError(
            f"edge-block complement defect {complement_defect:.3e} exceeds {IDENTITY_TOL}"
        )
    # ... and the Schur complement D + diag(excess) + L(G) - BB^T/2 (BB^T = D + A) to 3/2 L(G).
    # Off the diagonal it is L(G) - A/2 = 3/2 L(G) exactly (-1 - 1/2 on an edge,
    # 0 elsewhere), so its defect is read on the diagonal, entry by entry as the
    # dense difference would form it.
    d = g.degrees().astype(float)
    defect = max_abs((d + excess[: g.n]) + d - 0.5 * d - 1.5 * d)
    if defect > IDENTITY_TOL:
        raise MatrixError(f"Schur complement defect {defect:.3e} exceeds {IDENTITY_TOL}")
    anchor = first + np.repeat(np.arange(hosts), sizes)
    return CoronaBlocks(
        kind, g, crowns, sizes, l_sharp, (eu, ev), anchor, (p, q), crown_stacks,
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


def _skeleton_cell(ls: np.ndarray, eu: np.ndarray, ev: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of ``_skeleton_corner(ls, eu, ev)``, by gathers in its arithmetic order."""
    n = len(ls)
    if i < n and j < n:
        return (2.0 / 3.0) * ls[i, j]
    if i >= n and j >= n:
        k, l = i - n, j - n
        kl = (ls[eu[k], eu[l]] + ls[eu[k], ev[l]]) + (ls[ev[k], eu[l]] + ls[ev[k], ev[l]])
        lk = (ls[eu[l], eu[k]] + ls[eu[l], ev[k]]) + (ls[ev[l], eu[k]] + ls[ev[l], ev[k]])
        return 0.5 * float(k == l) + (1.0 / 6.0) * (0.5 * (kl + lk))
    a, k = (i, j - n) if i < n else (j, i - n)
    return (1.0 / 3.0) * (ls[a, eu[k]] + ls[a, ev[k]])


def _crown_inverse(blocks: CoronaBlocks, c: int) -> tuple[np.ndarray, int]:
    """Grounded inverse of the crown holding crown-layout vertex c, and c's index within it."""
    ends = np.cumsum(blocks.sizes)
    crown = int(np.searchsorted(ends, c, side="right"))
    t = blocks.sizes[crown]
    of_order, _, inv = next(stack for stack in blocks.crown_stacks if stack[2].shape[-1] == t)
    return inv[np.searchsorted(of_order, crown)], c - int(ends[crown] - t)


def pair_resistance(blocks: CoronaBlocks, u: int, v: int) -> float:
    """The resistance between corona vertices u and v, read off the blocks.

    The (u, v) cell of ``resistance_map(blocks)``, bit for bit, in the same
    arithmetic order and at base cost: the skeleton resistance between the
    two anchors, from the four skeleton-corner entries it reads, each
    gathered from ``l_sharp`` through the edge endpoints, plus the two apex
    values read off the crown stacks; or, for two vertices of one crown,
    the resistance within that crown's grounded inverse.  Neither the
    skeleton corner nor the dense crown corner is built.
    """
    nm = blocks.base.n + blocks.base.m
    crown_u, crown_v = (_crown_inverse(blocks, w - nm) if w >= nm else None for w in (u, v))
    if crown_u is not None and crown_v is not None:
        if blocks.anchor[u - nm] == blocks.anchor[v - nm]:
            (inv, i), (_, j) = crown_u, crown_v
            return float(_cell_resistance(inv, i, j))
    ij = [w if w < nm else int(blocks.anchor[w - nm]) for w in (u, v)]
    ls, (eu, ev) = blocks.l_sharp, blocks.edge_ends
    x = np.array([[_skeleton_cell(ls, eu, ev, p, q) for q in ij] for p in ij])
    apex_u, apex_v = (0.0 if c is None else c[0][c[1], c[1]] for c in (crown_u, crown_v))
    return float(resistance.resistances_from_inverse(x)[0, 1] + (apex_u + apex_v))


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
    crown inverses), with S expanded through Lg and the base edge list and
    G read per crown off the stacks, so neither is formed.  ``expanded``
    evaluates the same quantity term by term from base-graph invariants
    and crown spectra; ``terms`` holds the named summands (trace_* terms
    are multiplied by the vertex count, ones_* terms are subtracted).
    ``deviation`` is their absolute difference.
    """

    value: float
    expanded: float
    terms: dict[str, float]
    deviation: float


def crown_eigen_sums(blocks: CoronaBlocks) -> np.ndarray:
    """Per crown of ``blocks``, the sum over its Laplacian spectrum of 1/(mu + 1).

    One stacked Jacobi call per layout order t + t % 2, on the Laplacian
    stacks the blocks already hold: Jacobi pads an odd order with a zero
    dummy index anyway, so an order-t stack padded with a zero row and
    column starts from the same layout as alone and shares the call with
    order t + 1 (stack members never mix).  Every eigenvalue is bit for bit
    that of the per-order call, and the dummy's is an exact 0.0, which is
    dropped before the sum.  An empty crown sums to 0.
    """
    sums = np.zeros(len(blocks.crowns))
    layouts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for of_order, laps, _ in blocks.crown_stacks:
        t = laps.shape[-1]
        layouts.setdefault(t + t % 2, []).append((of_order, laps))
    for order, members in layouts.items():
        stack = np.zeros((sum(len(laps) for _, laps in members), order, order))
        start = 0
        for _, laps in members:
            t = laps.shape[-1]
            stack[start : start + len(laps), :t, :t] = laps
            start += len(laps)
        values = sym_eigendecompose(stack).values
        for of_order, laps in members:
            part, values = values[: len(laps)], values[len(laps) :]
            if laps.shape[-1] < order:
                part = _drop_dummy_zero(part)
            sums[of_order] = np.add.reduce(1.0 / (part + 1.0), axis=1)
    return sums


def _drop_dummy_zero(values: np.ndarray) -> np.ndarray:
    """The (k, t) spectra left once one exact 0.0 is taken from each row of (k, t + 1).

    The rows are sorted, so removing any one exact zero (a true zero
    eigenvalue or the dummy's) leaves the same sequence of values.
    """
    zero = values == 0.0
    rows = np.arange(len(values))
    first = zero.argmax(axis=1)
    if not zero[rows, first].all():
        raise MatrixError("a padded crown spectrum has no exact zero for its dummy index")
    keep = np.ones(values.shape, dtype=bool)
    keep[rows, first] = False
    return values[keep].reshape(len(values), -1)


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
    eu, ev = blocks.edge_ends
    # X = S[a, a] + G holds skeleton vertex j's row and column reps[j]
    # times, and the skeleton corner is S = (2/3) P^T Lg P + diag(0, I/2)
    # with P = [I, B/2].  So tr X and 1^T X 1 are read off Lg through the
    # edge endpoints: diag(B^T Lg B) is d below, and P reps = r_n + B r_m / 2
    # takes two bincounts (centred, as the quadratic forms below are).
    reps = 1.0 + np.bincount(blocks.anchor, minlength=n + m)
    r_n, r_m = reps[:n], reps[n:]
    c = r_n + 0.5 * (np.bincount(eu, r_m, minlength=n) + np.bincount(ev, r_m, minlength=n))
    c -= c.mean()
    d = ls[eu, eu] + ls[ev, ev] + 2.0 * ls[eu, ev]
    traces, ones = _crown_totals(blocks.crown_stacks, len(blocks.crowns))
    trace_x = (
        (2.0 / 3.0) * float(r_n @ np.diag(ls)) + float(r_m @ (0.5 + d / 6.0)) + float(traces.sum())
    )
    ones_x = (2.0 / 3.0) * float(c @ ls @ c) + 0.5 * float(r_m @ r_m) + float(ones.sum())
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
    pi_ls = pi_c @ ls
    shift = 0.5 if edge else 0.0
    sums = crown_eigen_sums(blocks)
    crown_trace = "trace_crown_edge" if edge else "trace_crown_host"
    terms = {
        "trace_base": (2.0 / 3.0) * float(np.trace(ls)),
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ np.diag(ls)),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum(
            (float(v) + shift * c.n for v, c in zip(sums, blocks.crowns)), 0.0
        ),
        crown_trace: (2.0 / 3.0) * float(tau @ u_diag),
        "ones_edge_const": m / 2.0,
        "ones_degree_quad": (1.0 / 6.0) * float(pi_ls @ pi_c),
        "ones_degree_crown": (2.0 / 3.0) * float(pi_ls @ u_tau_c),
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
