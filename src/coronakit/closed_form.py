"""Structured {1}-inverses and closed-form resistances for corona products.

Both corona kinds are the R-graph skeleton R(G) with crowns hung off it.
Each skeleton vertex joins a pair of base vertices: (i, i) for original
vertex i, edge k's endpoints for edge-vertex n + k.  The kinds differ
only in each crown's anchor, the skeleton vertex it hangs from: i
(R-vertex) or n + k (R-edge).  The anchor is a cut vertex, and a crown
vertex couples to the rest of the corona exactly as its anchor does.  So
the {1}-inverse is the skeleton's corner read through the anchors, plus
each crown's grounded inverse (L(H) + I)^{-1} on the crown corner.  A
resistance is the skeleton's between the two anchors plus each end's apex
resistance, the diagonal of its grounded inverse (Bapat, Graphs and
Matrices); within one crown the skeleton part is 0 and the crown's cross
term is taken off.

Through the pairs its vertices join, every cell of the skeleton corner is
one gather from the group inverse of L(G), because the Schur complement
of the original vertices collapses to (3/2) L(G).  Every inverse is a
Cholesky solve: the group inverse deflates the all-ones null vector as
(L(G) + J/n)^{-1} - J/n, and the crowns of each layout order t + t % 2
are inverted as one stack.  No matrix larger than the base graph is
inverted, and none is pseudo-inverted.  The blocks hold only base- and
crown-order data.  The Kirchhoff index reads them alone; the map, a
single pair and the {1}-inverse read skeleton cells through one gather,
at most two for a pair, and crown cells off the stacks through another
(``_crown_cells``), at most four for a pair.  The one eigensolve left is in
``_crown_eigen_sums``: the expanded Kirchhoff index reads the crown
spectra on purpose, as a second kernel against the Cholesky inverses, on
the Laplacian stacks the inverses read.

A crown's inverse and spectrum depend on nothing but the crown, so the
crown side is its own type, ``CrownSet``, which keeps the crown graphs,
and the blocks take the graphs or a set already built.  A caller that
checks many coronas, as the suite does, builds one set over all their
crowns and hands each corona its ``part``: every crown of the run is
then inverted, and swept, in one stacked call per layout order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import resistance
from .corona import crown_anchors
from .graphs import Graph, is_connected, laplacian
from .linalg import MatrixError, _jacobi_eigenvalues, laplacian_group_inverse, max_abs, sym_inverse

# The two internally-asserted structural identities: the Schur complement
# must equal (3/2) L(G) and the edge-block complement must equal 2I.
IDENTITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CrownSet:
    """The crown side of the closed route, for any tuple of crowns.

    A crown enters the formulas only through its grounded inverse
    (L(H) + I)^{-1} and its Laplacian spectrum, and neither depends on the
    base graph or on any other crown.  ``stacks`` holds, per nonempty
    layout order o = t + t % 2 (crown orders o - 1 and o together), the
    crowns' indices, their Laplacians as one (k, o, o) stack, built in one
    scatter and read by the crown inverses and spectra alike, and the
    grounded inverses as another, from one ``sym_inverse`` call per layout
    (``_crown_stacks``); a crown of order t is each member's leading t x t
    block.  ``totals`` holds each crown's tr G_k and 1^T G_k 1, read off
    the inverses once.  ``eigen_sums`` is each crown's sum of 1/(mu + 1)
    over its Laplacian spectrum, swept on first read by one Jacobi call per
    layout and then kept.  ``graphs`` are the crowns, ``sizes`` their orders.

    ``part(lo, hi)`` is crowns lo..hi-1 as a set of their own that reads
    the same stacks, totals and sums and calls no kernel: its crown k is
    stack member ``first + k``, and ``whole``, the set it was cut from
    (None for a whole set), keeps the sums for every part.
    """

    graphs: tuple[Graph, ...]
    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    totals: tuple[np.ndarray, np.ndarray]
    first: int = 0
    whole: CrownSet | None = field(default=None, repr=False)

    @classmethod
    def of(cls, crowns: tuple[Graph, ...]) -> CrownSet:
        """The set of ``crowns``: one Laplacian stack per layout order, each inverted once."""
        crowns = tuple(crowns)
        stacks = _crown_stacks(crowns)
        return cls(crowns, stacks, _crown_totals(crowns, stacks))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.n for c in self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    def part(self, lo: int, hi: int) -> CrownSet:
        """Crowns lo..hi-1 of this set, reading its stacks, totals and sums."""
        if not 0 <= lo <= hi <= len(self):
            raise IndexError(f"crowns {lo}..{hi} are not a part of a set of {len(self)}")
        traces, ones = self.totals
        whole = self if self.whole is None else self.whole
        return CrownSet(
            self.graphs[lo:hi], self.stacks, (traces[lo:hi], ones[lo:hi]), self.first + lo, whole
        )

    @property
    def eigen_sums(self) -> np.ndarray:
        """Per crown, the sum over its Laplacian spectrum of 1/(mu + 1), swept once for the whole set."""
        whole = self if self.whole is None else self.whole
        return whole._swept[self.first : self.first + len(self)]

    @functools.cached_property
    def _swept(self) -> np.ndarray:
        # Every part reads views of these sums, so none may write to them.
        sums = _crown_eigen_sums(self)
        sums.setflags(write=False)
        return sums


@dataclass(frozen=True)
class CoronaBlocks:
    """Ingredients of either corona's structured {1}-inverse.

    Everything stored is of base or crown order.  ``l_sharp`` is the group
    inverse of L(G).  ``ends`` gives, for each of the n + m skeleton
    vertices, the two base vertices (p, q) it joins: (i, i) for original
    vertex i, edge k's endpoints for edge-vertex n + k.  ``hosts`` gives
    each crown's anchor, the skeleton vertex it hangs from: original vertex
    i for R-vertex, edge-vertex n + k for R-edge, as ``corona.crown_anchors``
    gives it; this is the only datum in which the kinds differ.  ``anchor``
    repeats it for each crown vertex in layout order.  ``crowns`` is the
    ``CrownSet`` of the corona's crowns, built for these blocks alone or
    a part of a larger set: every crown datum, its graph and order, its
    stacked Laplacian and grounded inverse, its totals and its spectral
    sum, is read off it.  ``schur_defect`` is the distance of the numerically
    assembled Schur complement from (3/2) L(G); ``complement_defect`` is
    that of the edge-block complement from 2I (exactly 0 for R-vertex).
    """

    kind: str
    base: Graph
    l_sharp: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    hosts: np.ndarray
    anchor: np.ndarray
    crowns: CrownSet
    schur_defect: float
    complement_defect: float


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
    """Per nonempty layout order o = t + t % 2: crown indices, Laplacians, inverses of L(H) + I.

    A layout holds the crowns of orders o - 1 and o, in index order, as one
    (k, o, o) stack built in one scatter over their edges, as ``laplacian``
    builds one: the adjacency negated, then the degrees on the diagonal, so
    each member's leading t x t block is bit for bit ``laplacian(crown)``.
    An odd member's pad row and column are +0.0, the zero dummy index that
    Jacobi pads an odd order with, so L + I is padded with the identity.
    Each layout is inverted as one stack, whichever kind of corona the
    crowns crown; a member's leading block is the inverse of L(H) + I and
    its pad is exactly the identity.  That one ``sym_inverse`` call checks
    the Laplacians for both crown kernels: ``_crown_eigen_sums`` sweeps
    them unchecked.
    """
    sizes = np.array([c.n for c in crowns], dtype=np.intp)
    layout = sizes + sizes % 2
    owner = np.repeat(np.arange(len(crowns)), [c.m for c in crowns])
    ends = np.array([e for c in crowns for e in c.edges], dtype=np.intp).reshape(-1, 2)
    stacks = []
    for o in sorted(set(layout.tolist()) - {0}):
        members = np.flatnonzero(layout == o)
        mine = layout[owner] == o
        # Flat positions of (member, u, v) and (member, v, u) in the stack.
        at = np.searchsorted(members, owner[mine]) * (o * o)
        u, v = ends[mine].T
        adjacency = np.zeros((len(members), o, o))
        flat = adjacency.reshape(-1)
        flat[at + u * o + v] = 1.0
        flat[at + v * o + u] = 1.0
        laps = -adjacency
        diag = np.arange(o)
        laps[:, diag, diag] = adjacency.sum(axis=2)
        # Negated, the pad reads -0.0.
        padded = sizes[members] < o
        laps[padded, -1] = 0.0
        laps[padded, :, -1] = 0.0
        stacks.append((members, laps, sym_inverse(laps + np.eye(o), "crown block")))
    return tuple(stacks)


def _crown_totals(
    crowns: tuple[Graph, ...],
    crown_stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per crown, tr G_k and 1^T G_k 1 of its grounded inverse, read off the stacks.

    Each crown order's leading blocks are summed on their own, as an
    order-t stack sums them: numpy's pairwise summation groups terms by
    their count, so a padded block summed whole would round otherwise.
    """
    orders = np.array([c.n for c in crowns], dtype=np.intp)
    traces = np.zeros(len(orders))
    ones = np.zeros(len(orders))
    for members, _, inv in crown_stacks:
        o = inv.shape[-1]
        padded = orders[members] < o
        for part, t in ((~padded, o), (padded, o - 1)):
            block = inv[part, :t, :t]
            at = members[part]
            traces[at] = np.trace(block, axis1=1, axis2=2)
            ones[at] = block.sum(axis=(1, 2))
    return traces, ones


def _blocks(kind: str, g: Graph, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
    """Compute and sanity-check either corona's block ingredients.

    ``crowns`` is the crown graphs, inverted here as a ``CrownSet`` of
    their own, or a set already built, such as one corona's part of a
    larger set; the blocks then make no crown kernel call.
    """
    _require_closed_form_input(g)
    if not isinstance(crowns, CrownSet):
        crowns = CrownSet.of(crowns)
    eu, ev = np.array(g.edges, dtype=np.intp).reshape(g.m, 2).T
    # Skeleton vertex i joins (i, i), edge-vertex n + k edge k's ends.
    i = np.arange(g.n)
    ends = (np.concatenate([i, eu]), np.concatenate([i, ev]))
    hosts = np.array(crown_anchors(kind, g, crowns), dtype=np.intp)
    l_sharp = laplacian_group_inverse(laplacian(g))
    sizes = crowns.sizes
    # Eliminating crown k leaves its anchor a diagonal term t_k - 1^T G_k 1,
    # which vanishes because each crown block satisfies (L(H) + I)^{-1} 1 = 1.
    excess = np.zeros(g.n + g.m)
    excess[hosts] = np.asarray(sizes, dtype=float) - crowns.totals[1]
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
    return CoronaBlocks(
        kind, g, l_sharp, ends, hosts, np.repeat(hosts, sizes), crowns, defect, complement_defect
    )


# The six rv_/re_ wrappers stay until the benchmark is repaired: its selftest
# patches the four rv_/re_resistance_matrix and rv_/re_kirchhoff_terms and
# reads rv_/re_blocks, and its tracer keys the dispatch, blocks and Kirchhoff
# spans on all six names.
def rv_blocks(g: Graph, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
    """Compute and sanity-check the R-vertex corona's block ingredients."""
    return _blocks("r_vertex", g, crowns)


def re_blocks(g: Graph, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
    """Compute and sanity-check the R-edge corona's block ingredients."""
    return _blocks("r_edge", g, crowns)


def _skeleton_block(blocks: CoronaBlocks, at: np.ndarray) -> np.ndarray:
    """S[at][:, at] of the R-graph skeleton's corner S, for distinct skeleton vertices ``at``.

    S is the same for R(G) and both coronas: (2/3) Lg, (1/3) Lg B and
    (1/2)I + (1/6) B^T Lg B.  With P the columns e_p + e_q of the pairs the
    vertices join, it is (1/6) P^T Lg P plus I/2 on the edge-vertex block,
    one gather.  An original vertex's column is 2e_i, and 1/6, 1/3 and 2/3
    differ by powers of two, so every cell is the blockwise formula's bit
    for bit.
    """
    p, q = (e[at] for e in blocks.ends)
    c = blocks.l_sharp[:, p] + blocks.l_sharp[:, q]
    four = c[p] + c[q]
    s = (1.0 / 6.0) * (0.5 * (four + four.T))
    edge = np.flatnonzero(at >= blocks.base.n)
    s[edge, edge] += 0.5
    return s


def one_inverse(blocks: CoronaBlocks) -> np.ndarray:
    """Symmetric {1}-inverse of the corona Laplacian ``blocks`` describe.

    The one assembler for both kinds, in the builder's vertex order: the
    skeleton corner read through the anchors, X = S[a, a], plus the
    grounded crown inverses on the crown corner, gathered off the stacks
    over the same-anchor pairs: each anchor holds one crown, so these are
    exactly the same-crown pairs, and across crowns the corner is 0.
    """
    nm = len(blocks.ends[0])
    ext = np.concatenate([np.arange(nm), blocks.anchor])
    x = _skeleton_block(blocks, np.arange(nm))[np.ix_(ext, ext)]
    i, j = np.nonzero(blocks.anchor[:, None] == blocks.anchor[None, :])
    x[nm + i, nm + j] += _crown_cells(blocks, i, j)
    return x


# ---------------------------------------------------------------------------
# Resistances


def _crown_cells(blocks: CoronaBlocks, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Entries (c_i, d_i) of the grounded crown corner, c_i and d_i in one crown, off the stacks."""
    crowns = blocks.crowns
    sizes = np.array(crowns.sizes, dtype=np.intp)
    start = np.cumsum(sizes) - sizes
    crown = np.searchsorted(start + sizes, c, side="right")
    t, i, j = sizes[crown], c - start[crown], d - start[crown]
    layout = t + t % 2
    member = crowns.first + crown
    cells = np.empty(len(c))
    for members, _, inv in crowns.stacks:
        mine = layout == inv.shape[-1]
        cells[mine] = inv[np.searchsorted(members, member[mine]), i[mine], j[mine]]
    return cells


def _resistances(blocks: CoronaBlocks, w: np.ndarray) -> np.ndarray:
    """Resistances among corona vertices ``w``: the map's rows and columns at w.

    The skeleton resistance between the anchors, from the skeleton cells
    of w's distinct anchors, plus each crown vertex's apex value off the
    crown stacks; within one crown the skeleton part is exactly 0 and the
    cross term 2 G_uv is taken off, leaving G_uu + G_vv - 2 G_uv.
    """
    nm = len(blocks.ends[0])
    crown = np.flatnonzero(w >= nm)
    c = w[crown] - nm
    anchors = w.copy()
    anchors[crown] = hung = blocks.anchor[c]
    at = np.flatnonzero(np.bincount(anchors))
    back = np.searchsorted(at, anchors)
    r = resistance.resistances_from_inverse(_skeleton_block(blocks, at))[np.ix_(back, back)]
    # Every same-crown pair, each crown vertex with itself included.
    i, j = np.nonzero(hung[:, None] == hung[None, :])
    cells = _crown_cells(blocks, c[i], c[j])
    apex = np.zeros(len(w))
    apex[crown] = cells[i == j]
    r += apex[:, None] + apex[None, :]
    r[crown[i], crown[j]] -= 2.0 * cells
    return r


def resistance_map(blocks: CoronaBlocks) -> np.ndarray:
    """All pairwise resistances of the corona ``blocks`` describe, from blocks already built."""
    return _resistances(blocks, np.arange(len(blocks.ends[0]) + len(blocks.anchor)))


def pair_resistance(blocks: CoronaBlocks, u: int, v: int) -> float:
    """The resistance between corona vertices u and v, read off the blocks.

    The (u, v) cell of ``resistance_map(blocks)`` bit for bit, by the same
    readout over w = [u, v]: at base cost, from at most two anchors'
    skeleton cells.  Raises ``IndexError`` for a vertex outside [0, N).
    """
    total = len(blocks.ends[0]) + len(blocks.anchor)
    for w in (u, v):
        if not 0 <= w < total:
            raise IndexError(f"vertex {w} is out of range for a corona of {total} vertices")
    return float(_resistances(blocks, np.array([u, v], dtype=np.intp))[0, 1])


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


def _crown_eigen_sums(crowns: CrownSet) -> np.ndarray:
    """Per crown of a whole set, the sum over its Laplacian spectrum of 1/(mu + 1), off the stacks.

    One stacked Jacobi call per layout order t + t % 2, on the Laplacian
    stacks that ``sym_inverse`` has already checked.  Jacobi pads an odd
    order with a zero dummy index anyway, so an order-t member padded with
    a zero row and column starts from the same layout as alone and shares
    the call with order t + 1 (stack members never mix).  Every eigenvalue
    is bit for bit that of the per-order call; they come in index order,
    so a padded member's last is its pad's exact 0.0, which no rotation
    touches and which is dropped before the values are summed, sorted
    descending as the per-order call sorts them.  An empty crown sums to 0.
    """
    sums = np.zeros(len(crowns))
    orders = np.array(crowns.sizes, dtype=np.intp)
    for members, laps, _ in crowns.stacks:
        o = laps.shape[-1]
        values = _jacobi_eigenvalues(laps).values
        padded = orders[members] < o
        if (values[padded, -1] != 0.0).any():
            raise MatrixError("a padded crown spectrum does not read exactly 0.0 in its pad slot")
        for part, t in ((~padded, o), (padded, o - 1)):
            spectra = -np.sort(-values[part, :t], axis=1)
            sums[members[part]] = np.add.reduce(1.0 / (spectra + 1.0), axis=1)
    return sums


def kirchhoff_terms(blocks: CoronaBlocks) -> KirchhoffBreakdown:
    """Kirchhoff index with its term breakdown, from blocks already built.

    Works for either kind.  ``terms["trace_crown_eigen"]`` is the crown
    spectral sum that the trace of the crown corner must equal: tr G for
    R-vertex, tr G + sum t/2 for R-edge, from ``blocks.crowns.eigen_sums``.

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
    sizes = blocks.crowns.sizes
    st = sum(sizes)
    edge = blocks.kind == "r_edge"
    ls = blocks.l_sharp
    eu, ev = (e[n:] for e in blocks.ends)
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
    traces, ones = blocks.crowns.totals
    trace_x = (
        (2.0 / 3.0) * float(r_n @ np.diag(ls)) + float(r_m @ (0.5 + d / 6.0)) + float(traces.sum())
    )
    ones_x = (2.0 / 3.0) * float(c @ ls @ c) + 0.5 * float(r_m @ r_m) + float(ones.sum())
    value = (n + m + st) * trace_x - ones_x
    p, q = (e[blocks.hosts] for e in blocks.ends)
    pi = g.degrees().astype(float)
    tau = np.array(sizes, dtype=float)
    u_tau = 0.5 * (np.bincount(p, tau, minlength=n) + np.bincount(q, tau, minlength=n))
    u_diag = 0.25 * (ls[p, p] + ls[q, q] + 2.0 * ls[p, q])
    # Lg 1 = 0, so the quadratic forms in Lg take the vectors centred: the
    # same values, and exactly 0 where a vector is constant (pi on a
    # regular base) instead of roundoff.
    pi_c = pi - pi.mean()
    u_tau_c = u_tau - u_tau.mean()
    pi_ls = pi_c @ ls
    shift = 0.5 if edge else 0.0
    sums = blocks.crowns.eigen_sums
    crown_trace = "trace_crown_edge" if edge else "trace_crown_host"
    terms = {
        "trace_base": (2.0 / 3.0) * float(np.trace(ls)),
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ np.diag(ls)),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum((float(v) + shift * t for v, t in zip(sums, sizes)), 0.0),
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
