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

Through the pairs its vertices join, every cell of the skeleton corner
is one gather from the group inverse L# of L(G), because the Schur
complement of the original vertices collapses to (3/2) L(G).  Every
inverse is a Cholesky solve: the dense L# deflates the all-ones null
vector as (L(G) + J/n)^{-1} - J/n, and the crowns of each band, the
stack order ``_band`` gives a crown of order t (orders 1-4 share order
4, 5-8 order 8, and so on), are inverted as one stack.  No matrix larger
than the base graph is inverted, and none is pseudo-inverted.  The
blocks hold only base- and crown-order data, and the dense L# is taken
only when first read.  Every readout of X or of resistances, the
{1}-inverse, the map and a single pair, is one body, ``_readouts``, over
any number of coronas at once, each with the vertices w it reads:
``one_inverses`` and ``resistance_maps`` read a chunk, as the suite
does, on the stacks of ``linalg._stacks``, and ``one_inverse``,
``resistance_map`` and ``pair_resistance`` are its calls of one (w every
vertex, or [u, v]), unpadded.  Per corona, the skeleton cells come at
its anchors through one gather off L# (``_skeleton_block``), at most two
anchors for a pair; the crown cells of every corona come off the crown
stacks through another (``_crown_cells``), at most four for a pair.  The
coronas of a chunk share stacks padded to one order, so the resistance
read, the gather out to the vertices and the crown reads are one numpy
call each for all of them, and each corona's answer is the bits it has
alone.  The Kirchhoff index reads L# only on the diagonal, on the base
edges and in three quadratic forms, so it always reads them off a sparse
``GroundedFactor`` of L(G), base-order work with nothing n x n formed.
The one spectral read is in ``_crown_eigen_sums``: the expanded
Kirchhoff index reads each crown's spectral sum on purpose, by a
tridiagonal kernel that shares no code with the Cholesky inverses, on
the Laplacian stacks the inverses read.

Everything read of the base, its connectivity, its skeleton ends, the
dense L# and the sparse factor, depends on nothing but G, so the base side
is its own type, ``BaseSide``, which checks G once and takes each inverse
at most once, on first read; the blocks take the graph or a side already
built.  A caller that checks both kinds over one base, as the suite does,
builds one side and hands it to both: the base is then checked and
factored once, and a dense L# the caller has taken already is handed to
``BaseSide.of``.  Likewise, a crown's inverse, its identity G 1 = 1 and
its spectrum depend on nothing but the crown, so the crown side is its own
type, ``CrownSet``, which keeps the crown graphs, and the blocks take the
graphs or a set already built.  ``CrownSet.of`` is the one crown pass: it
inverts, totals and checks each crown once, and nothing else computes or
judges that identity.  A caller that checks many coronas, as the suite does, builds
one set over all their crowns and hands each corona its ``part``: every
crown of the run is then inverted, checked and summed once, in one stacked
call per band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import resistance
from .corona import crown_anchors
from .graphs import Graph, laplacian
from .linalg import (
    GroundedFactor,
    MatrixError,
    _groups,
    _spectral_sums,
    _stacks,
    laplacian_group_inverse,
    sym_inverse,
)

# The one internally asserted identity, each crown's G 1 = 1 for its
# grounded inverse G = (L(H) + I)^{-1}, is checked as |t - 1^T G 1| <=
# max(IDENTITY_TOL, 4 eps t^2 (t + 1)): the t^2 summed entries of G are each
# off by O(t eps) (Higham, Accuracy and Stability of Numerical Algorithms),
# so the floor holds up to order 10 and the bound then grows with t.
IDENTITY_TOL = 1e-12

# Crowns share a stack by band: a crown of order t is the leading block of
# a member of order 4 ceil(t / 4), padded with up to three zero rows and
# columns.  The crown kernels cost about the same per stack whatever its
# members, so fewer stacks are faster.  On the kf_closed benchmark (crowns
# of orders 0-4), one stack per exact order was 13% slower than pairs of
# orders (1-2, 3-4, ...), and bands of 4 are 9% faster than pairs.  Bands
# of 8 would run crowns of order 4 or less through 8-row loops, more numpy
# calls than one 4-row stack.
CROWN_BAND = 4


def _band(t):
    """The order of the stack that holds a crown of order t (an int or an array of them): 0 for 0."""
    return t + (-t) % CROWN_BAND


@dataclass(frozen=True, eq=False)
class CrownSet:
    """The crown side of the closed route, for any tuple of crowns.

    A crown enters the formulas only through its grounded inverse
    G = (L(H) + I)^{-1} and its Laplacian spectrum, and neither depends on
    the base graph or on any other crown.  ``stacks`` holds, per nonempty
    band o = ``_band(t)`` (crown orders o - 3 to o together), the crowns'
    indices, their Laplacians as one (k, o, o) stack, read by the crown
    inverses and spectra alike, and the grounded inverses as another; a
    crown of order t is its member's leading t x t block.  ``totals``
    holds each crown's tr G_k and 1^T G_k 1.  ``eigen_sums`` is each
    crown's sum of 1/(mu + 1) over its Laplacian spectrum, read on first
    use by one ``_spectral_sums`` call per band and then kept.
    ``graphs`` are the crowns, ``sizes`` their orders; ``layout`` holds
    the orders and where each crown's vertices end, as arrays taken once.

    ``part(lo, hi)`` is crowns lo..hi-1 as a set of their own that reads
    the same stacks, totals and sums, calls no kernel and checks nothing:
    its crown k is stack member ``first + k``, and ``whole``, the set it was
    cut from (None for a whole set), keeps the sums for every part.
    """

    graphs: tuple[Graph, ...]
    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    totals: tuple[np.ndarray, np.ndarray]
    first: int = 0
    whole: CrownSet | None = field(default=None, repr=False)

    @classmethod
    def of(cls, crowns: tuple[Graph, ...]) -> CrownSet:
        """The set of ``crowns``, each inverted, totalled and checked once.

        Per band the Laplacian stack is built in one scatter over the
        crowns' edges, as ``laplacian`` builds one: the adjacency negated,
        then the degrees on the diagonal, so each member's leading t x t
        block is bit for bit ``laplacian(crown)``.  A member's up to three
        pad rows and columns are then set to +0.0, so L + I is padded with
        the identity and the spectral kernel finds the pads decoupled.  One
        ``sym_inverse`` call per band inverts the stack, whichever kind of
        corona the crowns crown, and is the one input check for both crown
        kernels: ``_crown_eigen_sums`` reads the Laplacians unchecked.
        Each crown order's leading blocks are then totalled on their own,
        as an order-t stack sums them: numpy's pairwise summation groups
        terms by their count, so a padded block summed whole would round
        otherwise.  Last, each crown's G 1 = 1 is checked as
        |t - 1^T G 1| against its bound (``IDENTITY_TOL``); a crown over it
        raises ``MatrixError``.
        """
        crowns = tuple(crowns)
        sizes = np.array([c.n for c in crowns], dtype=np.intp)
        bands = _band(sizes)
        owner = np.repeat(np.arange(len(crowns)), [c.m for c in crowns])
        ends = np.array([e for c in crowns for e in c.edges], dtype=np.intp).reshape(-1, 2)
        traces = np.zeros(len(crowns))
        ones = np.zeros(len(crowns))
        stacks = []
        for o in sorted(set(bands.tolist()) - {0}):
            members = np.flatnonzero(bands == o)
            mine = bands[owner] == o
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
            # Negated, a pad reads -0.0.
            orders = sizes[members]
            pad = diag >= orders[:, None]
            laps[pad[:, :, None] | pad[:, None, :]] = 0.0
            inv = sym_inverse(laps + np.eye(o), "crown block")
            for t in range(o - CROWN_BAND + 1, o + 1):
                part = orders == t
                if part.any():
                    block = inv[part, :t, :t]
                    traces[members[part]] = np.trace(block, axis1=1, axis2=2)
                    ones[members[part]] = block.sum(axis=(1, 2))
            stacks.append((members, laps, inv))
        defect = np.abs(sizes - ones)
        bound = np.maximum(IDENTITY_TOL, 4.0 * np.finfo(float).eps * sizes**2 * (sizes + 1.0))
        bad = np.flatnonzero(~(defect <= bound))
        if bad.size:
            k = bad[0]
            raise MatrixError(
                f"crown {k} (order {sizes[k]}): |t - 1^T (L(H) + I)^-1 1| = {defect[k]:.3e}"
                f" exceeds {bound[k]:.3e}"
            )
        return cls(crowns, tuple(stacks), (traces, ones))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.n for c in self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Each crown's order, and where its vertices end among the set's crown vertices in layout order."""
        sizes = np.array(self.sizes, dtype=np.intp)
        return sizes, sizes.cumsum()

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
        """Per crown, the sum over its Laplacian spectrum of 1/(mu + 1), read once for the whole set."""
        whole = self if self.whole is None else self.whole
        return whole._summed[self.first : self.first + len(self)]

    @functools.cached_property
    def _summed(self) -> np.ndarray:
        # Every part reads views of these sums, so none may write to them.
        sums = _crown_eigen_sums(self)
        sums.setflags(write=False)
        return sums


@dataclass(frozen=True, eq=False)
class BaseSide:
    """The base side of the closed route: everything it reads of a connected base G.

    Both corona kinds are the skeleton R(G) with crowns hung off it, so
    what the closed route reads of the base depends on G alone.  ``of``
    checks G once, nonempty and connected, and keeps ``ends``: for each of
    the n + m skeleton vertices, the two base vertices (p, q) it joins,
    (i, i) for original vertex i and edge k's endpoints for edge-vertex
    n + k.  The base's group inverse is read two ways, each taken at most
    once: ``l_sharp``, the dense n x n L# that the map, a pair and the
    {1}-inverse read, handed in or taken on first read; and ``factor``, the
    sparse ``GroundedFactor`` of L(G) that the Kirchhoff index reads, taken
    from the edge list on first read.  The (n + m)-square skeleton corner
    is not kept: each read gathers what it needs of it from ``l_sharp``.
    """

    graph: Graph
    ends: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, g: Graph, l_sharp: np.ndarray | None = None) -> BaseSide:
        """The base side of a connected ``g``, holding ``l_sharp`` as its dense L# if given.

        A base with no vertex or a disconnected one fails the oracle's own
        check (``resistance._require_connected``); an ``l_sharp`` not of
        shape (n, n) raises ValueError.
        """
        resistance._require_connected(g)
        if l_sharp is not None and l_sharp.shape != (g.n, g.n):
            raise ValueError(f"l_sharp must have shape {(g.n, g.n)}, got {l_sharp.shape}")
        eu, ev = np.array(g.edges, dtype=np.intp).reshape(g.m, 2).T
        # Skeleton vertex i joins (i, i), edge-vertex n + k edge k's ends.
        i = np.arange(g.n)
        side = cls(g, (np.concatenate([i, eu]), np.concatenate([i, ev])))
        if l_sharp is not None:
            # The cached property's slot: a handed-in L# is read as if taken.
            vars(side)["l_sharp"] = l_sharp
        return side

    @functools.cached_property
    def l_sharp(self) -> np.ndarray:
        """The dense group inverse of L(G): the one handed in, or taken on first read."""
        return laplacian_group_inverse(laplacian(self.graph))

    @functools.cached_property
    def factor(self) -> GroundedFactor:
        """The sparse factor of L(G) over the base edge list, taken on first read."""
        n = self.graph.n
        return GroundedFactor.of(n, *(e[n:] for e in self.ends))


@dataclass(frozen=True, eq=False)
class CoronaBlocks:
    """Ingredients of either corona's structured {1}-inverse.

    Everything stored is of base or crown order.  ``side`` is the
    ``BaseSide`` of the base, built for these blocks alone or shared by
    every corona over the same base, as the suite shares it between both
    kinds: ``base``, ``ends`` and ``l_sharp`` read its graph, its skeleton
    ends and its dense L#, and the Kirchhoff index reads its sparse factor.
    ``hosts`` gives each crown's anchor, the skeleton vertex it hangs from:
    original vertex i for R-vertex, edge-vertex n + k for R-edge, as
    ``corona.crown_anchors`` gives it; this is the only datum in which the
    kinds differ.  ``anchor`` repeats it for each crown vertex in layout
    order.  ``crowns`` is the ``CrownSet`` of the corona's crowns, built for
    these blocks alone or a part of a larger set: every crown datum, its
    graph and order, its stacked Laplacian and grounded inverse, its totals
    and its spectral sum, is read off it.  The crown identity G 1 = 1, which
    collapses the Schur complement to (3/2) L(G) and the edge-block
    complement to 2I, is not held here: ``CrownSet.of`` checks it once per
    crown.
    """

    kind: str
    side: BaseSide
    hosts: np.ndarray
    anchor: np.ndarray
    crowns: CrownSet

    @property
    def base(self) -> Graph:
        return self.side.graph

    @property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        return self.side.ends

    @property
    def l_sharp(self) -> np.ndarray:
        """The base side's dense group inverse of L(G), taken on first read if it was not handed in."""
        return self.side.l_sharp


def _blocks(kind: str, base: Graph | BaseSide, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
    """Compute either corona's block ingredients for a connected base.

    ``base`` is the base graph, checked here as a ``BaseSide`` of its own,
    or a side already built, such as the one the suite shares between both
    kinds over one base; the blocks then check nothing of the base.
    ``crowns`` is the crown graphs, inverted and checked here as a
    ``CrownSet`` of their own, or a set already built, such as one corona's
    part of a larger set; the blocks then make no crown kernel call.  The
    crown identity is checked only when a set is built, by ``CrownSet.of``;
    the blocks take a set's totals as they are.
    """
    side = base if isinstance(base, BaseSide) else BaseSide.of(base)
    if not isinstance(crowns, CrownSet):
        crowns = CrownSet.of(crowns)
    hosts = np.array(crown_anchors(kind, side.graph, crowns), dtype=np.intp)
    return CoronaBlocks(kind, side, hosts, np.repeat(hosts, crowns.sizes), crowns)


# The six rv_/re_ wrappers stay until the benchmark is repaired: its selftest
# patches the four rv_/re_resistance_matrix and rv_/re_kirchhoff_terms and
# reads rv_/re_blocks, and its tracer keys the dispatch, blocks and Kirchhoff
# spans on all six names.
def rv_blocks(g: Graph | BaseSide, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
    """Compute and sanity-check the R-vertex corona's block ingredients."""
    return _blocks("r_vertex", g, crowns)


def re_blocks(g: Graph | BaseSide, crowns: tuple[Graph, ...] | CrownSet) -> CoronaBlocks:
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
    (edge,) = (at >= blocks.base.n).nonzero()
    s[edge, edge] += 0.5
    return s


def _crown_cells(crowns: CrownSet, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Entries (c_i, d_i) of the grounded crown corner, c_i and d_i in one crown, off the stacks.

    ``crowns`` is a whole set, and c and d count the whole set's crown
    vertices in layout order.
    """
    sizes, ends = crowns.layout
    crown = ends.searchsorted(c, side="right")
    first = ends[crown] - sizes[crown]
    i, j = c - first, d - first
    bands = _band(sizes[crown])
    cells = np.empty(len(c))
    for members, _, inv in crowns.stacks:
        mine = bands == inv.shape[-1]
        cells[mine] = inv[members.searchsorted(crown[mine]), i[mine], j[mine]]
    return cells


def _readouts(members: list[tuple[CoronaBlocks, np.ndarray]], resist: bool) -> list[tuple[list[int], np.ndarray]]:
    """Per (blocks, w) member, the {1}-inverse X, or the resistances, among corona vertices w, on stacks.

    The one body of every closed readout, for any number of members.  The
    members share stacks by ``linalg._groups`` of their orders len(w), and
    each stack is read by ``_read_stack``.  Returns (members, stack) pairs
    as ``linalg._stacks`` gives them: member k of a pair's list is the
    stack's k-th, read in its leading len(w) x len(w) block.  A shared
    stack is padded to its largest order, and its pad cells hold no value
    a caller may read; a lone member is its own stack, unpadded.
    """
    return [
        (group, _read_stack([members[g] for g in group], resist))
        for group in _groups([len(w) for _, w in members])
    ]


def _read_stack(members: list[tuple[CoronaBlocks, np.ndarray]], resist: bool) -> np.ndarray:
    """``_readouts`` of members that share one stack: the resistance read, the gather and the crown reads one call for all of them.

    Per member, a crown vertex reads as its anchor, so the distinct
    anchors of w are its skeleton vertices, and its skeleton corner S is
    gathered there, at skeleton order, by ``_skeleton_block``.  The S are
    padded into one stack by ``linalg._stacks``, read as resistances there
    if asked, and gathered out to every member's w through its anchors in
    one gather.  The same-crown pairs of w are the same-anchor pairs among
    its crown vertices, each crown vertex with itself included, since each
    anchor holds one crown.  A member's crowns are a part of one whole
    ``CrownSet``, its crown k the whole set's crown ``first + k``, so its
    pairs are filed under that whole set, counted among its crown vertices,
    and all members' cells over one whole set, adjacent parts or not, come
    off the crown stacks in one ``_crown_cells`` call (a suite chunk makes
    one).  X then adds them on the same-crown pairs, and across crowns its
    crown corner is 0.  The resistances add each crown vertex's apex value,
    its own cell, to its row and column, and take the cross term 2 G_uv off
    each same-crown pair: within one crown the skeleton part is exactly 0,
    leaving G_uu + G_vv - 2 G_uv.  Every step is per member and
    elementwise, so a member reads the bits it reads alone.
    """
    k = len(members)
    backs = np.zeros((k, max(len(w) for _, w in members)), dtype=np.intp)
    skeletons, filed = [], {}
    for m, (blocks, w) in enumerate(members):
        nm = len(blocks.ends[0])
        (crown,) = (w >= nm).nonzero()
        c = w[crown] - nm
        anchors = w.copy()
        anchors[crown] = hung = blocks.anchor[c]
        (at,) = np.bincount(anchors).nonzero()
        backs[m, : len(w)] = at.searchsorted(anchors)
        skeletons.append(_skeleton_block(blocks, at))
        i, j = (hung[:, None] == hung[None, :]).nonzero()
        crowns = blocks.crowns
        whole = crowns if crowns.whole is None else crowns.whole
        # Crown vertex c of the member is vertex c + (where crown first starts) of its whole set.
        if crowns.first:
            c += whole.layout[1][crowns.first - 1]
        # Per same-crown pair: its member, its row, its crown cell's, its column, its crown cell's.
        site = np.array((crown, c))
        filed.setdefault(whole, []).append(np.concatenate(([np.full(len(i), m)], site[:, i], site[:, j])))
    ((_, stack),) = _stacks(skeletons, 0.0)
    # A lone S is its stack, and is let go once read as resistances.
    del skeletons
    if resist:
        stack = resistance.resistances_from_inverse(stack)
    # Two row gathers, each letting go of what it read: member m's rows
    # S[back], transposed, then their rows at back again.  That is
    # S[back][:, back] transposed, and each S, and so each stack member,
    # is exactly symmetric.  Up to order about 1600 this is 2.5-4x faster
    # than one broadcast gather; past about 2000 its strided second read is
    # about 2x slower.
    slot = np.arange(k)[:, None]
    stack = stack[slot, backs]
    stack = stack.transpose(0, 2, 1)[slot, backs]

    sites = {whole: np.concatenate(s, axis=1) for whole, s in filed.items()}
    slots, rows, _, cols, _ = np.concatenate(list(sites.values()), axis=1)
    # One gather per whole set, its cells in the order its sites are filed.
    cells = np.concatenate([_crown_cells(whole, s[2], s[4]) for whole, s in sites.items()])
    if resist:
        own = rows == cols
        apex = np.zeros(backs.shape)
        apex[slots[own], rows[own]] = cells[own]
        stack += apex[:, :, None] + apex[:, None, :]
        stack[slots, rows, cols] -= 2.0 * cells
    else:
        stack[slots, rows, cols] += cells
    return stack


def _vertices(blocks: CoronaBlocks) -> np.ndarray:
    """Every corona vertex of ``blocks``, in the builder's order."""
    return np.arange(len(blocks.ends[0]) + len(blocks.anchor))


def one_inverses(blocks: list[CoronaBlocks]) -> list[tuple[list[int], np.ndarray]]:
    """Symmetric {1}-inverse of each corona Laplacian ``blocks`` describe, in one chunk, on stacks.

    The one assembler for both kinds, in the builder's vertex order:
    ``_readouts`` of every vertex, the skeleton corner read through the
    anchors, X = S[a, a], plus the grounded crown inverses on the crown
    corner, gathered off the stacks over the same-crown pairs.  Returns
    (members, stack) pairs, as ``linalg._stacks`` gives them: coronas of
    several orders share one stack padded to the largest, and each is its
    leading block, bit for bit as it would come alone.
    """
    return _readouts([(b, _vertices(b)) for b in blocks], resist=False)


def one_inverse(blocks: CoronaBlocks) -> np.ndarray:
    """Symmetric {1}-inverse of the corona Laplacian ``blocks`` describe: ``one_inverses`` of one."""
    ((_, stack),) = one_inverses([blocks])
    return stack[0]


# ---------------------------------------------------------------------------
# Resistances


def resistance_maps(blocks: list[CoronaBlocks]) -> list[tuple[list[int], np.ndarray]]:
    """All pairwise resistances of each corona ``blocks`` describe, in one chunk, on stacks.

    ``_readouts`` of every vertex: the skeleton resistance between the
    anchors, read at skeleton order, plus each crown vertex's apex value,
    less the cross term within one crown.  Returns (members, stack) pairs,
    as ``one_inverses`` does, each corona with the bits it has alone.
    """
    return _readouts([(b, _vertices(b)) for b in blocks], resist=True)


def resistance_map(blocks: CoronaBlocks) -> np.ndarray:
    """All pairwise resistances of the corona ``blocks`` describe: ``resistance_maps`` of one."""
    ((_, stack),) = resistance_maps([blocks])
    return stack[0]


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
    ((_, stack),) = _readouts([(blocks, np.array([u, v], dtype=np.intp))], resist=True)
    return float(stack[0, 0, 1])


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

    One stacked ``_spectral_sums`` call per band ``_band(t)``, on the
    Laplacian stacks that ``sym_inverse`` has already checked: each crown's
    null vector deflated, the rest tridiagonalised by Householder
    reflections and tr((T + I)^{-1}) read off T + I's pivots.  It shares no
    code with the Cholesky inverse whose trace it must equal, so the two
    Kirchhoff values stay two routes.  A member of order t below its band
    o, padded with o - t zero rows and columns, shares the call with the
    other orders of its band and leaves its pads out.  An empty crown sums
    to 0.
    """
    sums = np.zeros(len(crowns))
    orders = np.array(crowns.sizes, dtype=np.intp)
    for members, laps, _ in crowns.stacks:
        sums[members] = _spectral_sums(laps, orders[members])
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

    Lg is read only as its diagonal and trace, its cells on base edges and
    at the hosts' ends (each a base edge or a diagonal cell), and three
    quadratic forms, all off the base side's ``GroundedFactor`` of L(G),
    taken from the edge list on the side's first Kirchhoff read and kept
    with it, never off ``blocks.l_sharp``.
    """
    g = blocks.base
    n, m = g.n, g.m
    sizes = blocks.crowns.sizes
    st = sum(sizes)
    edge = blocks.kind == "r_edge"
    eu, ev = (e[n:] for e in blocks.ends)
    factor = blocks.side.factor
    diag = factor.diagonal
    # X = S[a, a] + G holds skeleton vertex j's row and column reps[j]
    # times, and the skeleton corner is S = (2/3) P^T Lg P + diag(0, I/2)
    # with P = [I, B/2].  So tr X and 1^T X 1 are read off Lg through the
    # edge endpoints: diag(B^T Lg B) is d below, and P reps = r_n + B r_m / 2
    # takes two bincounts.
    reps = 1.0 + np.bincount(blocks.anchor, minlength=n + m)
    r_n, r_m = reps[:n], reps[n:]
    c = r_n + 0.5 * (np.bincount(eu, r_m, minlength=n) + np.bincount(ev, r_m, minlength=n))
    d = diag[eu] + diag[ev] + 2.0 * factor.cells(eu, ev)
    p, q = (e[blocks.hosts] for e in blocks.ends)
    pi = g.degrees().astype(float)
    tau = np.array(sizes, dtype=float)
    u_tau = 0.5 * (np.bincount(p, tau, minlength=n) + np.bincount(q, tau, minlength=n))
    u_diag = 0.25 * (diag[p] + diag[q] + 2.0 * factor.cells(p, q))
    # gram centres each vector, so a constant one (pi on a regular base)
    # gives forms of exactly 0 instead of roundoff.
    forms = factor.gram((c, pi, u_tau))
    traces, ones = blocks.crowns.totals
    trace_x = (2.0 / 3.0) * float(r_n @ diag) + float(r_m @ (0.5 + d / 6.0)) + float(traces.sum())
    ones_x = (2.0 / 3.0) * float(forms[0, 0]) + 0.5 * float(r_m @ r_m) + float(ones.sum())
    value = (n + m + st) * trace_x - ones_x
    shift = 0.5 if edge else 0.0
    sums = blocks.crowns.eigen_sums
    crown_trace = "trace_crown_edge" if edge else "trace_crown_host"
    terms = {
        "trace_base": (2.0 / 3.0) * factor.trace,
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ diag),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum((float(v) + shift * t for v, t in zip(sums, sizes)), 0.0),
        crown_trace: (2.0 / 3.0) * float(tau @ u_diag),
        "ones_edge_const": m / 2.0,
        "ones_degree_quad": (1.0 / 6.0) * float(forms[1, 1]),
        "ones_degree_crown": (2.0 / 3.0) * float(forms[1, 2]),
        "ones_crown_count": float(st),
    }
    # Insertion order is summation order below, so keep it fixed per kind.
    if edge:
        terms["ones_crown_shift"] = 0.5 * float(np.sum(tau * (2.0 + tau)))
    terms["ones_crown_quad"] = (2.0 / 3.0) * float(forms[2, 2])
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
