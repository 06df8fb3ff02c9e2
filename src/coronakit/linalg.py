"""Dense symmetric kernels: a Jacobi eigensolver and a Cholesky inverse.

Two kernels, split by what they compute, and both take one matrix or a
(k, t, t) stack of equal-order ones.  Spectra go through
``sym_eigendecompose``, Jacobi in the round-robin parallel ordering of
Brent and Luk: each of the n-1 rounds of a sweep rotates n/2 disjoint
pairs of every stack member at once as one vectorised update, with the
rotations from ``hypot`` and ``copysign`` and the move and transpose as
one gather, and each member stops on its own.  It is unconditionally
stable on symmetric input and deterministic for a fixed input because
the ordering is fixed; the package asks it only for crown spectra, so it
returns eigenvalues alone.

Inverses go through ``sym_inverse``, which requires symmetric positive
definite input.  Up to SCHUR_LEAF_ORDER it is a bordered Cholesky: one
loop factors A = L L^T row by row and grows L^{-1} in the same step, so
there is no back substitution.  A stack runs it on column views, a
single matrix on 1-D vectors and numpy scalars with half the numpy calls
per row, and the two bodies agree bit for bit on one matrix.  A larger
matrix is split in half and inverted through its Schur complement by
recursion, so most of its work runs as matmuls.  The loop records every
pivot, and the pivots are checked once the inverse is formed: the first
row whose pivot is not above its member's floor raises.  Every group
inverse in the package, the oracle's included, is
``laplacian_group_inverse``: it deflates the known null vector of a
connected Laplacian instead of zeroing an eigenvalue by threshold, and
takes one step of iterative refinement.  Both kernels share the input
checks of ``_as_symmetric`` and raise ``MatrixError``
(``SingularMatrixError`` for singular input) instead of returning an
answer they cannot vouch for.  Each has an unchecked body behind those
checks (``_checked_inverse``, ``_jacobi_eigenvalues``, whose eigenvalues
stay in index order) for input that has passed them once already.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

# Off-diagonal Frobenius norm at which a Jacobi sweep loop stops, relative
# to max(1, ||A||_F) so the threshold survives rescaling.
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Cholesky pivot floor: a pivot at or below PIVOT_RTOL * max(1, max|A|)
# makes sym_inverse raise instead of dividing by a roundoff-sized number.
PIVOT_RTOL = 1e-10

# A matrix must be symmetric to within this (relative to max(1, ||.||_max))
# before we will eigendecompose or invert it; float products are allowed
# last-ulp slack.
SYMMETRY_RTOL = 1e-10

# Largest order that sym_inverse factors in its one loop; a larger matrix
# is split in half through its Schur complement, so that most of its work
# runs as matmuls.
SCHUR_LEAF_ORDER = 64


class MatrixError(ValueError):
    """Structural problem with a matrix argument (shape, symmetry, convergence)."""


class SingularMatrixError(MatrixError):
    """A matrix that must be inverted exactly is singular to working precision."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending; unsorted from the Jacobi body) of a symmetric matrix, and diagnostics.

    For a stack, ``values`` is (k, t), one row per member.
    """

    values: np.ndarray
    # Solver diagnostics: Jacobi sweeps run, rotations applied, and the
    # off-diagonal Frobenius norm left at exit (for a stack: the most sweeps
    # any member ran, the total rotations, the worst member's norm).
    sweeps: int = 0
    rotations: int = 0
    off_norm: float = 0.0


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _as_symmetric(m: np.ndarray, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Float copy of a square symmetric matrix, symmetrised exactly.

    With ``stacked``, a (k, t, t) stack of such matrices is accepted too,
    and every member is checked against its own scale.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in ((2, 3) if stacked else (2,)) or a.shape[-1] != a.shape[-2]:
        raise MatrixError(f"{what} must be square, got shape {a.shape}")
    # NaN compares false against every bound, so the checks below would let
    # it through and the solver would return garbage instead of failing.
    if not np.isfinite(a).all():
        raise MatrixError(f"{what} has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    if a.size:
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        if np.any(np.abs(a - at).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale):
            raise MatrixError(f"{what} is not symmetric")
    return 0.5 * (a + at)


def _off_norms(w: np.ndarray, m: int) -> np.ndarray:
    """Frobenius norm of each member's off-diagonal part, summed directly.

    w is a sweep layout of _jacobi_sweep.  Subtracting the diagonal's norm
    from the full norm looks equivalent but cancels catastrophically once
    the matrix is nearly diagonal, reporting phantom residuals around
    sqrt(eps * ||A||^2); summing the off-diagonal entries themselves stays
    accurate all the way down.
    """
    b = w.reshape(-1, m * m).copy()  # the reshape alone is a view of w
    b[:, :: m + 1] = 0.0
    b *= b
    return np.sqrt(np.add.reduce(b, axis=1))


@functools.lru_cache(maxsize=64)
def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot tables of the round-robin parallel ordering at even order m.

    Jacobi runs on a matrix whose indices are laid out in slots, and each
    round rotates the disjoint slot pairs (2i, 2i+1).  Between rounds every
    index except the one in the last slot moves one place along a fixed
    cycle (the circle method of a round-robin tournament), so the m-1
    rounds of a sweep pair every two indices exactly once and leave the
    layout where it started.

    Returns the slot of each index in the starting layout, the move
    applied after each round (new slot -> old slot) and the (row, column)
    slots of the just-rotated pairs' entries after the move.
    """
    k = m // 2
    start = [x for i in range(1, k) for x in (i, m - 1 - i)] + [0, m - 1]
    start = np.array(start, dtype=np.intp)
    slot = np.argsort(start)
    after = np.concatenate(((start[:-1] + 1) % (m - 1), [m - 1]))
    move = slot[after]
    moved = np.argsort(move)
    p, q = moved[0::2], moved[1::2]
    pairs = np.array((np.concatenate((p, q)), np.concatenate((q, p))))
    tables = (slot, move, pairs)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=256)
def _sweep_tables(m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of _round_robin(m) for the sweep layout of k members.

    Returns the move as row indices; the move followed by the transpose of
    every member as one flat gather (entry (i, j) of a member's result is
    entry (move[j], i) of its input); the flat positions of the rotated
    slot pairs' (p, p), (p, q) and (q, q) entries; and the flat positions
    of the entries to zero after the move.
    """
    _, move, (rows, cols) = _round_robin(m)
    base = np.arange(k)[:, None] * m
    firsts = np.arange(0, m, 2)
    diag = [
        ((base + firsts + dp) * m + firsts + dq).reshape(-1)
        for dp, dq in ((0, 0), (0, 1), (1, 1))
    ]
    tables = (
        (base + move).reshape(-1),
        (base[:, :, None] * m + move * m + np.arange(m)[:, None]).reshape(-1),
        np.array(diag),
        ((base + rows) * m + cols).reshape(-1),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _jacobi_sweep(w: np.ndarray, m: int, zero_negligible: bool) -> tuple[np.ndarray, int]:
    """One parallel Jacobi sweep over a stack of slot-ordered matrices of even order m.

    w is the sweep layout of k members: a contiguous (k m, m) array whose
    rows i m to (i + 1) m hold member i's working matrix a in the layout of
    _round_robin(m).  Each round computes the rotations of the m/2 disjoint
    pairs of every member together and applies them to the rows of a,
    moves every index to its next slot and transposes in one gather, does
    the same rotation to the rows of the transpose (the columns of a, a
    being symmetric), moves again, and zeroes the rotated pairs' entries.
    With theta = (a_qq - a_pp) / (2 a_pq), the rotation is
    t = sign(theta) / (|theta| + hypot(1, theta)), c = 1 / hypot(1, t),
    s = t c (Golub & Van Loan 8.5.2), with the sign taken by copysign, so
    a theta of -0.0 takes the other root, t = -1; hypot does not overflow
    where theta^2 would.  A pair with a_pq == 0, or (with zero_negligible) one
    whose a_pq is negligible against both its diagonal entries, gets the
    identity, so it is zeroed without counting as a rotation.  A round
    that rotates nothing still moves and transposes, so members never mix
    and each comes out exactly as it would alone.  A member that no round
    rotates leaves the sweep with every off-diagonal entry zeroed.  Returns
    the new w and the rotations applied.
    """
    size = len(w) // m
    rows, flip, diag, zero = _sweep_tables(m, size)
    applied = 0
    for _ in range(m - 1):
        pp, apq, qq = w.reshape(-1)[diag]
        rotate = apq != 0.0
        if zero_negligible:
            # Entries already negligible against their diagonal pair are
            # zeroed outright once the early sweeps have done the bulk work.
            abs_pp = np.abs(pp)
            abs_qq = np.abs(qq)
            g = 100.0 * np.abs(apq)
            rotate &= (abs_pp + g != abs_pp) | (abs_qq + g != abs_qq)
        count = int(np.count_nonzero(rotate))
        if count:
            applied += count
            # identity pairs get a_pq := 1 so that nothing divides by zero
            x = apq if count == rotate.size else np.where(rotate, apq, 1.0)
            theta = 0.5 * (qq - pp) / x
            t = np.copysign(1.0 / (np.abs(theta) + np.hypot(1.0, theta)), theta)
            if count < rotate.size:
                t[~rotate] = 0.0
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            r = np.array(((c, -s), (s, c))).transpose(2, 0, 1)
            w = r @ w.reshape(-1, 2, m)
        # The columns of a, moved, as rows of its transpose.
        at = w.reshape(-1)[flip].reshape(-1, 2, m)
        if count:
            at = r @ at
        w = at.reshape(-1, m)[rows]
        w.reshape(-1)[zero] = 0.0
    return w, applied


def sym_eigendecompose(m: np.ndarray) -> EigenDecomposition:
    """Eigenvalues of symmetric matrices by parallel-order Jacobi.

    Each sweep visits every off-diagonal pair once in the round-robin
    parallel ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985;
    Golub & Van Loan 8.5): n-1 rounds of n/2 disjoint rotations, each round
    applied as one vectorised update.  An odd order is padded with a zero
    dummy index whose pairs are always the identity.  Sweeps stop when a
    sweep applies no rotation, or once the off-diagonal Frobenius norm is
    under JACOBI_OFF_TOL * max(1, ||A||_F) and one more polishing sweep has
    run: the diagonal is within the off-diagonal norm of the eigenvalues
    (Weyl), and Jacobi converges quadratically, so that sweep takes them
    from up to the tolerance off down to roundoff.  The ordering is fixed,
    so the result is deterministic.

    Takes one (n, n) matrix or a (k, t, t) stack of equal-order ones.  A
    stack is swept together, round by round, but every member keeps its own
    tolerance, polishing sweep and stop; a member that has stopped is taken
    out of later sweeps, so it comes out bit for bit as it would alone.

    Returns eigenvalues sorted descending (stable in the index order),
    shaped (..., t), together with the sweeps run, the rotations applied
    and the final off-diagonal norm; for a stack these are the most sweeps
    any member ran, the total rotations and the worst member's norm.  Any
    member that does not converge raises MatrixError.
    """
    dec = _jacobi_eigenvalues(_as_symmetric(m, stacked=True))
    ranked = (-dec.values).argsort(axis=-1, kind="stable")
    return replace(dec, values=np.take_along_axis(dec.values, ranked, axis=-1))


def _jacobi_eigenvalues(sym: np.ndarray) -> EigenDecomposition:
    """``sym_eigendecompose`` of a finite float matrix or stack already exactly symmetric.

    Nothing is checked here: the caller has checked the input once, as the
    crown spectra are, by the ``sym_inverse`` of L(H) + I on the same stack.
    Nor is anything sorted: eigenvalue i is the one index i's slot holds.
    """
    n = sym.shape[-1]
    stack = sym if sym.ndim == 3 else sym[None]
    size = len(stack)
    if n < 2 or size == 0:
        return EigenDecomposition(np.diagonal(sym, axis1=-2, axis2=-1).copy())

    norms = np.sqrt(np.add.reduce((stack * stack).reshape(size, -1), axis=1))
    tol = JACOBI_OFF_TOL * np.maximum(1.0, norms)
    order = n + n % 2
    slot = _round_robin(order)[0][:n]
    w = np.zeros((size, order, order))
    w[:, slot[:, None], slot] = stack
    w = w.reshape(-1, order)
    # State of the members still sweeping, in ``live`` order.  A member
    # stops once its norm is at most ``limit``: 0 until the norm first drops
    # under its tolerance, the tolerance from then on, so that the stop
    # comes one polishing sweep later.  A sweep that rotates nothing in a
    # member leaves its norm 0, so that stops it too.  Stopped members are
    # frozen into done_w and done_off.
    live = np.arange(size)
    live_tol = tol
    off = done_off = _off_norms(w, order)
    limit = np.zeros(size)
    done_w = w.reshape(size, order, order)
    sweep = rotations = 0
    # theta overflows to inf only for an a_pq far below its diagonal gap;
    # hypot then gives t = 0, the identity.
    with np.errstate(over="ignore"):
        while True:
            stop = off <= limit
            if sweep == JACOBI_MAX_SWEEPS:
                stop[:] = True
            if stop.any():
                if live.size == size and stop.all():
                    done_w, done_off = w.reshape(size, order, order), off
                    break
                lay = w.reshape(-1, order, order)
                done_w[live[stop]], done_off[live[stop]] = lay[stop], off[stop]
                if stop.all():
                    break
                kept = ~stop
                w = lay[kept].reshape(-1, order)
                live, off, limit, live_tol = live[kept], off[kept], limit[kept], live_tol[kept]
            limit = np.where(off <= live_tol, live_tol, limit)
            w, applied = _jacobi_sweep(w, order, zero_negligible=sweep > 3)
            sweep += 1
            rotations += applied
            off = _off_norms(w, order)
    if (done_off > tol).any():
        raise MatrixError(
            f"Jacobi eigendecomposition did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {float(done_off.max()):.3e})"
        )
    return EigenDecomposition(
        done_w[:, slot, slot].reshape(sym.shape[:-1]),
        sweep,
        rotations,
        float(done_off.max()),
    )


def _spd_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and Cholesky pivots of an SPD matrix or (k, t, t) stack, unchecked.

    Reads the diagonal and upper triangle only.  Up to SCHUR_LEAF_ORDER the
    inverse comes from _bordered_inverse.  Above it A splits in half as
    [[A11, A12], [A12^T, A22]]: A11 and its Schur complement
    S = A22 - A12^T A11^{-1} A12 are inverted by recursion, and with
    T = A11^{-1} A12 the inverse is assembled from matmuls as

        [[A11^{-1} + T S^{-1} T^T, -T S^{-1}],
         [-S^{-1} T^T,             S^{-1}   ]].

    The pivots of S are the trailing Cholesky pivots of A, so the returned
    pivots are those of A's own factorisation, row for row.
    """
    n = a.shape[-1]
    if n <= SCHUR_LEAF_ORDER:
        return _bordered_inverse(a)
    h = n // 2
    head, head_pivots = _spd_inverse(a[..., :h, :h])
    a12 = a[..., :h, h:]
    t = head @ a12
    tail, tail_pivots = _spd_inverse(a[..., h:, h:] - np.swapaxes(a12, -1, -2) @ t)
    u = t @ tail
    x = np.empty_like(a)
    x[..., :h, :h] = head + u @ np.swapaxes(t, -1, -2)
    x[..., :h, h:] = -u
    x[..., h:, :h] = -np.swapaxes(u, -1, -2)
    x[..., h:, h:] = tail
    return x, np.concatenate((head_pivots, tail_pivots), axis=-1)


def _bordered_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W^T W and the pivots of a bordered Cholesky that grows W = L^{-1} as it factors.

    Row j of A = L L^T (Golub & Van Loan 4.2, the up-looking form) reads
    only the leading block already factored: x = W[:j, :j] A[:j, j] is row
    j of L left of the diagonal, the pivot is p = A_jj - x^T x, and row j
    of L^{-1} is (-(x^T W[:j, :j]) / sqrt(p), 1 / sqrt(p)).  So one loop
    both factors and inverts, with no back substitution.  A (k, t, t) stack
    runs ``_bordered_stack``, the loop on (..., j, 1) column views.  A
    single matrix runs the same row on 1-D vectors and numpy scalars, half
    the numpy calls per row, and every result is bit for bit that of
    ``_bordered_stack`` on the same matrix (where a 0-d pivot is a numpy
    scalar too).  A pivot that is not positive leaves NaN or inf in W and
    in the later pivots; the caller checks the pivots.
    """
    if a.ndim != 2:
        return _bordered_stack(a)
    n = len(a)
    w = np.zeros_like(a)
    pivots = np.empty(n)
    for j in range(n):
        head = w[:j, :j]
        x = head @ a[:j, j]
        pivot = a[j, j] - x @ x
        pivots[j] = pivot
        r = pivot**-0.5
        w[j, :j] = (x @ head) * -r
        w[j, j] = r
    return w.T @ w, pivots


def _bordered_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_bordered_inverse`` on any leading shape, through ``...`` indexing; the reference body."""
    n = a.shape[-1]
    w = np.zeros_like(a)
    pivots = np.empty(a.shape[:-1])
    for j in range(n):
        head = w[..., :j, :j]
        x = head @ a[..., :j, j, None]
        xt = np.swapaxes(x, -1, -2)
        pivot = a[..., j, j] - (xt @ x)[..., 0, 0]
        pivots[..., j] = pivot
        r = pivot**-0.5
        w[..., j, :j] = (xt @ head)[..., 0, :] * -r[..., None]
        w[..., j, j] = r
    return np.swapaxes(w, -1, -2) @ w, pivots


def sym_inverse(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, by Cholesky.

    Takes one (n, n) matrix or a (k, t, t) stack of them and returns the
    inverses in the same shape.  Up to order SCHUR_LEAF_ORDER one loop over
    the order factors A = L L^T row by row and builds L^{-1} in the same
    step, vectorised across the stack, and the inverse is
    L^{-T} L^{-1}.  Above it the matrix is split in half and inverted
    through its Schur complement, by recursion down to that order, so
    most of the work runs as matmuls (``_spd_inverse``).  Every member
    gets the square, finite and symmetric checks of a single matrix.  The
    Cholesky pivots are checked once the inverse is formed: the first row
    whose pivot is not above PIVOT_RTOL * max(1, max|A|) of its member
    means A is singular or not positive definite to working precision, and
    raises SingularMatrixError naming ``what``, that row and its pivot;
    nothing is zeroed.
    """
    return _checked_inverse(_as_symmetric(m, what, stacked=True), what)


def _checked_inverse(a: np.ndarray, what: str) -> np.ndarray:
    """``sym_inverse`` of a float array that is already exactly symmetric."""
    if a.size == 0:
        return a
    floor = PIVOT_RTOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    # A failed pivot spreads NaN and inf through the rest of the work;
    # the pivot check below reports it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, pivots = _spd_inverse(a)
    # NaN compares false, so a pivot fails unless it is above its floor.
    passed = pivots > floor[..., None]
    if not passed.all():
        n = a.shape[-1]
        low = ~passed.reshape(-1, n)
        j = int(np.argmax(low.any(axis=0)))
        pivot = np.min(pivots.reshape(-1, n)[low[:, j], j])
        raise SingularMatrixError(
            f"{what} is singular or not positive definite to working precision "
            f"(pivot {float(pivot):.3e} at row {j})"
        )
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def laplacian_group_inverse(l: np.ndarray) -> np.ndarray:
    """Group inverse of a connected graph's Laplacian, by deflation.

    L 1 = 0, and a connected graph's Laplacian has no other null vector,
    so A = L + J/n is positive definite: it keeps every other eigenpair of
    L and moves the all-ones eigenvalue from 0 to 1.  Hence
    L# = A^{-1} - J/n exactly, through one Cholesky inverse X; the
    Kirchhoff index is then n tr(L#) (Klein & Randic, J. Math. Chem. 12
    (1993)).  X then takes one step of iterative refinement,
    X + X (I - A X) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 12 and 14).  It costs two matmuls and matters
    at the ill-conditioned end: on the path P_2000 it takes n tr(L#) from
    6e-9 to 1.5e-11 relative error against the exact n(n^2 - 1)/6.
    Rows that do not sum to zero raise MatrixError; a disconnected graph
    leaves L + J/n singular and raises SingularMatrixError.
    """
    lap = _as_symmetric(l, "Laplacian")
    n = lap.shape[0]
    if n == 0:
        return lap
    if max_abs(lap.sum(axis=1)) > SYMMETRY_RTOL * max(1.0, max_abs(lap)):
        raise MatrixError("Laplacian rows must sum to zero")
    # From here lap holds L + J/n: J/n enters only as the scalar 1/n, added
    # in place to our own copy of L.  Every entry is the sum a dense J/n
    # would give, and the sum stays exactly symmetric, so it needs no
    # second check.  It is dropped once the refinement residual is formed.
    lap += 1.0 / n
    x = _checked_inverse(lap, "L + J/n")
    residual = -(lap @ x)
    del lap
    residual.flat[:: n + 1] += 1.0
    x += x @ residual
    return 0.5 * (x + x.T) - 1.0 / n


def block_one_inverse(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Symmetric {1}-inverse of a Laplacian split as [[A, B], [B^T, D]].

    Forms the Schur complement H = A - B D^{-1} B^T, takes its group inverse
    Hg, and assembles

        [[Hg,            -Hg B D^{-1}                    ],
         [-D^{-1} B^T Hg, D^{-1} + D^{-1} B^T Hg B D^{-1}]]

    which satisfies M X M = M for the full, singular Laplacian M.  D goes
    through the Cholesky ``sym_inverse``, so it must be symmetric positive
    definite, as every proper trailing block of a connected graph's
    Laplacian is.  H is then the Kron-reduced Laplacian, connected again
    (Dorfler & Bullo, IEEE TCAS-I 60(1), 2013), and Hg is its deflated
    ``laplacian_group_inverse``; a disconnected H raises
    SingularMatrixError.
    """
    a = _as_symmetric(a, "block A")
    d = _as_symmetric(d, "block D")
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape != (a.shape[0], d.shape[0]):
        raise MatrixError(
            f"block B must have shape {(a.shape[0], d.shape[0])}, got {b.shape}"
        )
    d_inv = sym_inverse(d, "block D")
    bd = b @ d_inv
    h = a - bd @ b.T
    hg = laplacian_group_inverse(h)
    top_right = -hg @ bd
    bottom_right = d_inv + bd.T @ hg @ bd
    x = np.block([[hg, top_right], [top_right.T, 0.5 * (bottom_right + bottom_right.T)]])
    return x


def shifted_rank_one_inverse(l: np.ndarray, a: float, b: float) -> np.ndarray:
    """Inverse of L + aI - (a/b)J for a graph Laplacian L, via rank-one shift.

    Because L J = 0, the inverse is (L + aI)^{-1} + (1/(a(b - n)))J with
    n the order of L.  Requires a > 0 and b outside {0, n}; the computed
    product is checked against the identity, and a failure (for instance a
    non-Laplacian input) raises SingularMatrixError.
    """
    lap = _as_symmetric(l, "Laplacian")
    n = lap.shape[-1]
    if not a > 0.0:
        raise MatrixError(f"shift a must be positive, got {a}")
    if b == 0.0 or b == float(n):
        raise ZeroDivisionError(f"b = {b} makes the rank-one correction undefined for n = {n}")
    ones = np.ones((n, n))
    shifted_inv = sym_inverse(lap + a * np.eye(n), "L + aI")
    x = shifted_inv + (1.0 / (a * (b - n))) * ones
    target = lap + a * np.eye(n) - (a / b) * ones
    residual = max_abs(target @ x - np.eye(n))
    if residual > 1e-8 * max(1.0, max_abs(target)):
        raise SingularMatrixError(
            f"shifted matrix did not invert (residual {residual:.3e}); "
            "input is singular or not a graph Laplacian"
        )
    return x


def verify_one_inverse(m: np.ndarray, x: np.ndarray) -> float:
    """Largest absolute entry of M X M - M; the {1}-inverse defect."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"M must be square, got shape {m.shape}")
    if x.shape != m.shape:
        raise MatrixError(f"X must match M's shape {m.shape}, got {x.shape}")
    return max_abs(m @ x @ m - m)
