"""Symmetric kernels: Laplacian spectral sums, a Cholesky inverse and a sparse Laplacian factor.

The dense kernels take one matrix or a (k, t, t) stack of equal-order
ones.  The one spectral question the package asks is, per crown, the sum
of 1/(mu + 1) over its Laplacian spectrum, and ``_spectral_sums`` answers
it for a stack without eigenvalues: each member's null vector deflated by
one Householder reflector, the rest brought to a tridiagonal T by
Householder reflections, and tr((T + I)^{-1}) read off T + I's forward and
backward pivots.  It shares no code with the Cholesky inverse, so the
trace of (L + I)^{-1} comes two ways.

Inverses go through ``sym_inverse``, which requires symmetric positive
definite input.  Up to SCHUR_LEAF_ORDER it is a bordered Cholesky: one
loop factors A = L L^T row by row and grows L^{-1} in the same step, so
there is no back substitution.  A stack runs it on column views, a
single matrix on 1-D vectors and numpy scalars with half the numpy calls
per row.  A larger matrix is split in half and inverted through its Schur
complement by recursion, so most of its work runs as matmuls.  The loop
records every pivot, and the pivots are checked once the inverse is
formed: the first row whose pivot is not above its member's floor raises.
Every group inverse in the package, the oracle's included, deflates the
known null vector of a connected Laplacian instead of zeroing an
eigenvalue by threshold, and takes one step of iterative refinement, all
through ``laplacian_group_inverses`` (``laplacian_group_inverse`` is its
call of one).  Each matrix has one answer: every step is per member, and
IEEE square root and division round a scalar as they round an array, so a
member of any stack gets the bits of the matrix alone.  Matrices of any
orders share stacks by one rule, ``_groups``, which ``_stacks`` and the
closed route's readouts follow: up to SCHUR_LEAF_ORDER one stack padded
to the largest order; a larger or lone matrix, or a given stack, alone.
Input is checked once, by ``_as_symmetric``, which pads with zeros, and
every Cholesky inverse is ``_sym_inverses`` of checked input, which pads
with the identity; every kernel raises ``MatrixError``
(``SingularMatrixError`` for singular input) instead of returning an
answer it cannot vouch for.  The spectral sums read only input that an
inverse has checked.

``GroundedFactor`` reads the group inverse of a connected graph's
Laplacian without forming it: the L D L^T factor of the Laplacian grounded
at one vertex, by leaves-first, minimum-degree elimination over the edge
list in Python floats, with any core whose fronts are all wider than
DENSE_FRONT inverted as one dense block by ``_sym_inverses``; then the
grounded inverse on the filled pattern by the Takahashi recurrence, and
L#'s diagonal, its cells on the pattern and its quadratic forms from
that and a few triangular solves.  Its work follows the fill, not n^3.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

# Cholesky pivot floor: a pivot at or below PIVOT_RTOL * max(1, max|A|)
# makes sym_inverse raise instead of dividing by a roundoff-sized number.
PIVOT_RTOL = 1e-10

# A matrix must be symmetric to within this (relative to max(1, ||.||_max))
# before we will invert it; float products are allowed
# last-ulp slack.
SYMMETRY_RTOL = 1e-10

# Largest order that sym_inverse factors in its one loop; a larger matrix
# is split in half through its Schur complement, so that most of its work
# runs as matmuls.
SCHUR_LEAF_ORDER = 64

# Widest front that GroundedFactor eliminates one vertex at a time.  Once
# every vertex left has more neighbours than this, the rest of the grounded
# Laplacian is one dense Schur block for _sym_inverses, so a dense base
# (K_n) never enters the elimination loop.  Of 8, 12, 16, 24, 32 and 64 on
# random (m = 1.2 n) and grid bases with n from 120 to 4096, 8 to 16 were
# fastest, within 10% of each other on random bases; 16 was fastest on the
# 64 x 64 grid, and 32 took 1.4-1.7x its time on grids from 22 x 22.
DENSE_FRONT = 16


class MatrixError(ValueError):
    """Structural problem with a matrix argument (shape, symmetry), or a failed internal check."""


class SingularMatrixError(MatrixError):
    """A matrix that must be inverted exactly is singular to working precision."""


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _groups(orders: Sequence[int]) -> list[list[int]]:
    """Which items of these orders share a stack, as lists of item positions: the one rule of every stacked call.

    The items of order 1 to SCHUR_LEAF_ORDER share one stack, padded to
    the largest such order, unless only one item has such an order.  An
    item of a larger order, or a lone small one, is a stack of its own,
    and an item of order 0 is in none.
    """
    small = [k for k, n in enumerate(orders) if 0 < n <= SCHUR_LEAF_ORDER]
    alone = [k for k, n in enumerate(orders) if n > SCHUR_LEAF_ORDER]
    if len(small) == 1:
        alone, small = alone + small, []
    return [[k] for k in alone] + ([small] if small else [])


def _stacks(mats: Sequence[np.ndarray], pad: float) -> list[tuple[list[int], np.ndarray]]:
    """The stacks that square float matrices of any orders, or given (k, t, t) stacks, are worked in, as (members, stack) pairs.

    The matrices share stacks by ``_groups``: each in its leading block of
    a shared stack, padded with ``pad`` times the identity.  A stack of one
    item, a matrix or a given stack, is a view that is not copied.  A
    given stack is read as larger than SCHUR_LEAF_ORDER, so it is always
    alone.  An empty item is in no stack.
    """
    orders = [len(a) if a.ndim == 2 else (SCHUR_LEAF_ORDER + 1) * (a.size > 0) for a in mats]
    stacks = []
    for members in _groups(orders):
        if len(members) == 1:
            (k,) = members
            stacks.append((members, mats[k] if mats[k].ndim == 3 else mats[k][None]))
            continue
        order = max(orders[k] for k in members)
        stack = np.tile(pad * np.eye(order), (len(members), 1, 1))
        for i, k in enumerate(members):
            n = orders[k]
            stack[i, :n, :n] = mats[k]
        stacks.append((members, stack))
    return stacks


def _as_symmetric(
    mats: Sequence[np.ndarray], whats: Sequence[str], zero_rows: bool = False, matrices: bool = False
) -> list[np.ndarray]:
    """Float copies of square matrices of any orders, or (k, t, t) stacks of them, finite, symmetric and symmetrised exactly.

    The one input check of the kernels, run on the stacks of ``_stacks``
    padded with zeros, each member against max(1, max|A|) of its own: a pad
    is finite and symmetric and leaves that scale alone, so a matrix meets
    the bounds it meets alone.  The lowest item that fails (square, then
    finite, then symmetric to SYMMETRY_RTOL, in any member of a stack)
    raises MatrixError naming ``whats[k]``.  With ``matrices``, each item
    must be one matrix, not a stack, first of all, for a kernel that reads
    the order of one matrix.  With ``zero_rows``, as for a Laplacian, the
    same holds (a group inverse deflates one matrix's null vector), and
    each symmetrised member's rows must then also sum to zero to within
    SYMMETRY_RTOL of its own max(1, max|A|), checked on the same stacks;
    when every item passes the checks above, the lowest one that fails this
    raises.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    errors: dict[int, str] = {}
    for k, a in enumerate(mats):
        if (zero_rows or matrices) and a.ndim == 3:
            errors[k] = f"must be a matrix, not a stack of shape {a.shape}"
        elif a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            errors[k] = f"must be square, got shape {a.shape}"
    stacks = _stacks([np.zeros((0, 0)) if k in errors else a for k, a in enumerate(mats)], 0.0)
    out = list(mats)
    unbalanced = []
    for members, stack in stacks:
        at = np.swapaxes(stack, 1, 2)
        # NaN compares false against every bound, so the finiteness check
        # must catch it; the symmetry check must not warn on it or on inf.
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
            asymmetric = np.abs(stack - at).max(axis=(1, 2)) > SYMMETRY_RTOL * scale
            sym = 0.5 * (stack + at)
            if zero_rows:
                bound = SYMMETRY_RTOL * np.maximum(1.0, np.abs(sym).max(axis=(1, 2)))
                rowsums = np.abs(sym.sum(axis=2)).max(axis=1) > bound
        finite = np.isfinite(stack).all(axis=(1, 2))
        # A stack of one item holds all of it, a given stack or one matrix;
        # a shared stack's members are copied out contiguous, as alone.
        alone = len(members) == 1
        for i, k in enumerate(members):
            rows = slice(None) if alone else i
            if not finite[rows].all():
                errors[k] = "has non-finite entries"
            elif asymmetric[rows].any():
                errors[k] = "is not symmetric"
            elif zero_rows and rowsums[rows].any():
                unbalanced.append(k)
            n = mats[k].shape[-1]
            out[k] = sym.reshape(mats[k].shape) if alone else sym[i, :n, :n].copy()
    if errors:
        k = min(errors)
        raise MatrixError(f"{whats[k]} {errors[k]}")
    if unbalanced:
        raise MatrixError(f"{whats[min(unbalanced)]} rows must sum to zero")
    return out


def _reflect(a: np.ndarray, v: np.ndarray) -> None:
    """a := P a P in place, per member, for the Householder reflector P = I - 2 v v^T / v^T v.

    a is a (k, m, m) stack of symmetric blocks and v a (k, m) stack of
    vectors; a zero v is the identity.  With p = (2 / v^T v) a v and
    w = p - (p^T v / v^T v) v, P a P = a - v w^T - w v^T (Golub & Van Loan
    8.3.1), one matmul over the stacked pairs (v, w).  A row of a that is
    zero where v is zero stays exactly zero.
    """
    vv = np.add.reduce(v * v, axis=1)
    beta = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0.0)
    p = beta[:, None] * (a @ v[..., None])[..., 0]
    w = p - (0.5 * beta * np.add.reduce(p * v, axis=1))[:, None] * v
    a -= np.stack((v, w), axis=2) @ np.stack((w, v), axis=1)


def _spectral_sums(laps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per member of a (k, o, o) stack of graph Laplacians, the sum of 1/(mu + 1) over its spectrum.

    Member i is a Laplacian of order ``sizes[i]``, from o - 3 to o and at
    least 1, in its leading block; one of order t < o is padded with o - t
    zero rows and columns.  The sum is tr((L + I)^{-1}), read in three
    steps, each stacked over the members:

    - one Householder reflector P takes the member's null vector 1 to a
      multiple of e_0, so the first row and column of P L P are zero, that
      direction adds exactly 1/(0 + 1), and the row is dropped;
    - the rest is brought to a tridiagonal T, diagonal d and off-diagonal
      e, by Householder reflections (Golub & Van Loan 8.3.1), each one
      ``_reflect`` of a trailing block;
    - the diagonal of (T + I)^{-1} is read off the forward pivots f and the
      backward pivots g of T + I (Meurant, SIAM J. Matrix Anal. Appl.
      13(3), 1992): entry i is 1 / (f_i - e_i^2 / g_{i+1}), the Schur
      complement of the rest onto i.  T is positive semidefinite up to
      roundoff, so T + I has no eigenvalue below about 1 and neither has
      any of its pivots.

    Nothing is checked on the way in: the caller has checked the stack
    once, as the crown stacks are checked by the ``sym_inverse`` of L + I.
    Two checks follow the work, and each raises MatrixError.  The dropped
    row is P L P's product with an exact null vector, so it is all roundoff
    of the reflection: its norm must be at most 4 eps o ||L||_F of its
    member.  No reflector touches a pad, whose row starts exactly zero, so
    every pad row of a padded member must still be exactly zero; its pad
    slots are then left out of the sum.  Every step is elementwise or a
    per-member matmul, so a member comes out bit for bit as it would alone.
    """
    k, o = laps.shape[0], laps.shape[-1]
    pad = np.arange(o) >= sizes[:, None]
    # u = 1 / sqrt(t) on the member's own block; v = u + e_0 reflects it to -e_0.
    v = np.where(pad, 0.0, (1.0 / np.sqrt(sizes))[:, None])
    v[:, 0] += 1.0
    b = laps.copy()
    _reflect(b, v)
    residual = np.sqrt(np.add.reduce(b[:, 0] * b[:, 0], axis=1))
    scale = np.sqrt(np.add.reduce((laps * laps).reshape(k, o * o), axis=1))
    bound = 4.0 * np.finfo(float).eps * o * scale
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        i = bad[0]
        raise MatrixError(
            f"stack member {i}: the deflated null direction's row has norm "
            f"{residual[i]:.3e}, over {bound[i]:.3e}"
        )
    a = b[:, 1:, 1:]
    n = o - 1
    e = np.zeros((k, n))
    for j in range(n - 2):
        x = a[:, j + 1 :, j]
        alpha = -np.copysign(np.sqrt(np.add.reduce(x * x, axis=1)), x[:, 0])
        h = x.copy()
        h[:, 0] -= alpha
        _reflect(a[:, j + 1 :, j + 1 :], h)
        e[:, j] = alpha
    if n > 1:
        e[:, n - 2] = a[:, n - 1, n - 2]
    if n and (a[pad[:, 1:]] != 0.0).any():
        raise MatrixError("a padded member's pad row is not exactly zero after tridiagonalisation")
    # Slot 0 is the deflated direction, slot i + 1 is T's row i.
    inverse = np.ones((k, o))
    if n:
        d = np.diagonal(a, axis1=1, axis2=2) + 1.0
        e2 = e * e
        f = np.empty((k, n))
        g = np.empty((k, n))
        f[:, 0] = d[:, 0]
        for i in range(1, n):
            f[:, i] = d[:, i] - e2[:, i - 1] / f[:, i - 1]
        g[:, -1] = d[:, -1]
        for i in range(n - 2, -1, -1):
            g[:, i] = d[:, i] - e2[:, i] / g[:, i + 1]
        inverse[:, 1:-1] = 1.0 / (f[:, :-1] - e2[:, :-1] / g[:, 1:])
        inverse[:, -1] = 1.0 / f[:, -1]
    inverse[pad] = 0.0
    return np.add.reduce(inverse, axis=1)


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
    of L^{-1} is (-(x^T W[:j, :j]) r, r) with r = 1 / sqrt(p).  So one loop
    both factors and inverts, with no back substitution.  A (k, t, t) stack
    runs ``_bordered_rows``, the loop on (..., j, 1) column views.  A single
    matrix runs the same row on 1-D vectors and numpy scalars, half the
    numpy calls per row.  IEEE square root and division are correctly
    rounded whether they act on a scalar or an array, so a matrix gets the
    same bits from either body.  A pivot that is not positive leaves NaN or
    inf in W and in the later pivots; the caller checks the pivots.
    """
    if a.ndim != 2:
        w, pivots = _bordered_rows(a)
        return np.swapaxes(w, -1, -2) @ w, pivots
    n = len(a)
    w = np.zeros_like(a)
    pivots = np.empty(n)
    for j in range(n):
        head = w[:j, :j]
        x = head @ a[:j, j]
        pivot = a[j, j] - x @ x
        pivots[j] = pivot
        r = 1.0 / np.sqrt(pivot)
        w[j, :j] = (x @ head) * -r
        w[j, j] = r
    return w.T @ w, pivots


def _bordered_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W = L^{-1} and the pivots of ``_bordered_inverse`` on a stack: its row loop, before the Gram product."""
    n = a.shape[-1]
    w = np.zeros_like(a)
    pivots = np.empty(a.shape[:-1])
    for j in range(n):
        head = w[..., :j, :j]
        x = head @ a[..., :j, j, None]
        xt = np.swapaxes(x, -1, -2)
        pivot = a[..., j, j] - (xt @ x)[..., 0, 0]
        pivots[..., j] = pivot
        r = 1.0 / np.sqrt(pivot)
        w[..., j, :j] = (xt @ head)[..., 0, :] * -r[..., None]
        w[..., j, j] = r
    return w, pivots


def sym_inverse(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, by Cholesky.

    Takes one (n, n) matrix or a (k, t, t) stack of them and returns the
    inverses in the same shape.  Up to order SCHUR_LEAF_ORDER one loop over
    the order factors A = L L^T row by row and builds L^{-1} in the same
    step, vectorised across the stack, and the inverse is
    L^{-T} L^{-1}.  Above it the matrix is split in half and inverted
    through its Schur complement, by recursion down to that order, so
    most of the work runs as matmuls (``_spd_inverse``).  It is
    ``_sym_inverses`` of the one item that ``_as_symmetric`` has checked,
    so every member gets the square, finite and symmetric checks of a
    single matrix.  The Cholesky pivots are checked once the inverse is
    formed: the first row whose pivot is not above PIVOT_RTOL * max(1,
    max|A|) of its member means A is singular or not positive definite to
    working precision, and raises SingularMatrixError naming ``what``, that
    row and its pivot; nothing is zeroed.
    """
    return _sym_inverses(_as_symmetric([m], [what]), [what])[0]


def _check_pivots(a: np.ndarray, pivots: np.ndarray, what: str) -> None:
    """Raise SingularMatrixError unless every pivot of A is above PIVOT_RTOL * max(1, max|A|) of its member."""
    floor = PIVOT_RTOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
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


def _sym_inverses(mats: Sequence[np.ndarray], whats: Sequence[str]) -> list[np.ndarray]:
    """Inverses of exactly symmetric matrices of any orders, or (k, t, t) stacks of them, in the stacks of ``_stacks``.

    The one body of every Cholesky inverse, for input that ``_as_symmetric``
    has checked or that is symmetric by construction.  A stack of several
    matrices is padded with the identity and runs one bordered Cholesky loop
    (``_bordered_rows``).  A pad row meets only zeros above it, so it
    factors as the identity and leaves its member's rows as they are alone;
    each member's Gram product W^T W, pivot check and symmetrisation then
    run on its own n x n slice.  An item alone, a matrix or a given stack,
    goes to ``_spd_inverse`` as it is: the 2-D body, the stacked loop or the
    Schur split.  Either way a matrix comes out with the bits it has alone,
    so sharing a stack is only a matter of speed.  An empty item comes back
    as it is.  The pivots are checked in item order once every item is
    factored: the first item that fails raises SingularMatrixError naming
    ``whats[k]``, its first failing row and that row's lowest pivot.
    """
    factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    # A failed pivot spreads NaN and inf through its member's work; the
    # pivot check below reports it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for members, stack in _stacks(mats, 1.0):
            if len(members) == 1:
                (k,) = members
                factors[k] = _spd_inverse(mats[k])
                continue
            w, pivots = _bordered_rows(stack)
            for i, k in enumerate(members):
                n = len(mats[k])
                head = w[i, :n, :n]
                factors[k] = head.T @ head, pivots[i, :n]
    out = []
    for k, a in enumerate(mats):
        if k not in factors:
            out.append(a)
            continue
        x, pivots = factors.pop(k)
        _check_pivots(a, pivots, whats[k])
        out.append(0.5 * (x + x.swapaxes(-1, -2)))
    return out


def _refined(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """L# from X ~ A^{-1} and -A X, A = L + J/n: X + X (I - A X), symmetrised, less J/n."""
    n = len(x)
    residual.flat[:: n + 1] += 1.0
    x += x @ residual
    return 0.5 * (x + x.T) - 1.0 / n


def laplacian_group_inverse(l: np.ndarray) -> np.ndarray:
    """Group inverse of a connected graph's Laplacian, by deflation: ``laplacian_group_inverses`` of one.

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
    leaves L + J/n singular and raises SingularMatrixError.  The errors are
    those of member 0.
    """
    return laplacian_group_inverses([l])[0]


def laplacian_group_inverses(laps: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``laplacian_group_inverse`` of connected Laplacians of any orders, in one stacked call.

    Each L is checked once, its rows summing to zero included, by one
    ``_as_symmetric`` call, and J/n is added as the scalar 1/n: every entry
    of L + J/n is the sum a dense J/n would give, and the sum stays exactly
    symmetric.  One ``_sym_inverses`` call inverts them: the members up to
    SCHUR_LEAF_ORDER in one identity-padded bordered Cholesky loop, a
    larger or lone one on its own.  Each member's
    refinement step and J/n deflation then run on its own slice, so each
    member is bit for bit ``laplacian_group_inverse`` of it, whatever its
    stack-mates.  Returns a list in input order (empty for no input).
    Every member is checked before any is inverted, and a stack is no
    Laplacian: a check error names the lowest failing member's position as
    ``Laplacian k``, a pivot error as ``L + J/n of Laplacian k (order n)``.
    """
    whats = [f"Laplacian {k}" for k in range(len(laps))]
    shifted = [a + 1.0 / len(a) if len(a) else a for a in _as_symmetric(laps, whats, zero_rows=True)]
    inverses = _sym_inverses(shifted, [f"L + J/n of {w} (order {len(a)})" for w, a in zip(whats, shifted)])
    for k, x in enumerate(inverses):
        if len(x):
            # L + J/n is dropped once its residual is formed: one n x n
            # array fewer at the peak of a large member's refinement.
            residual, shifted[k] = -(shifted[k] @ x), None
            inverses[k] = _refined(x, residual)
    return inverses


def _pivot_error(d: float, v: int) -> SingularMatrixError:
    return SingularMatrixError(
        f"grounded Laplacian is singular to working precision (pivot {d:.3e} at vertex {v})"
    )


def _eliminate(
    n: int, eu: list[int], ev: list[int], floor: float
) -> tuple[list[int], list[dict[int, float]], list[float], list[int], list, list[float], list[float]]:
    """Leaves-first, then minimum-degree elimination of a graph Laplacian in Python floats, up to its dense core.

    The Laplacian is held as one dict of off-diagonal entries per vertex and
    a list of diagonal entries.  Leaves go first, from a stack that takes
    each vertex as it becomes one: a leaf makes no fill, so their order
    does not matter.  Then each step pops the vertex with the fewest
    neighbours, ties to the lowest id, from a heap that keeps stale entries
    until they surface.  Eliminating v takes the Schur complement on its
    neighbours, a_uw -= a_uv a_vw / d; the product a_uv a_vw is the same
    float whichever end computes it, so the entries stay exactly symmetric.
    Each pivot d must be above ``floor``, or the step raises
    SingularMatrixError.  The loop stops with one vertex left, or once the
    fewest neighbours any vertex has is more than DENSE_FRONT.

    Each step also applies its column to the all-ones vector, so that comes
    out forward-solved, y = L^{-1} 1, for ``GroundedFactor.of``'s X 1.

    Returns the eliminated vertices in order, each one's column as the
    dict of its neighbours then to a_uv (column v of the unit lower factor
    is a_uv / d), the pivots, the vertices left (sorted), the off-diagonal
    dicts and diagonal of the Schur complement on them, and y.
    """
    adj: list = [{} for _ in range(n)]
    for u, v in zip(eu, ev):
        adj[u][v] = -1.0
        adj[v][u] = -1.0
    diag = [float(len(row)) for row in adj]
    y = [1.0] * n
    order: list[int] = []
    columns: list[dict[int, float]] = []
    pivots: list[float] = []
    left = n
    leaves = [v for v in range(n - 1, -1, -1) if len(adj[v]) == 1]
    while leaves and left > 1:
        v = leaves.pop()
        d = diag[v]
        if not d > floor:
            raise _pivot_error(d, v)
        row = adj[v]
        adj[v] = None
        left -= 1
        ((u, a),) = row.items()
        au = adj[u]
        del au[v]
        diag[u] -= a * a / d
        y[u] -= a * y[v] / d
        order.append(v)
        pivots.append(d)
        columns.append(row)
        if len(au) == 1:
            leaves.append(u)
    heap = [(len(row), v) for v, row in enumerate(adj) if row is not None]
    heapq.heapify(heap)
    while left > 1:
        width, v = heapq.heappop(heap)
        row = adj[v]
        if row is None or width != len(row):
            continue
        if width > DENSE_FRONT:
            break
        d = diag[v]
        if not d > floor:
            raise _pivot_error(d, v)
        adj[v] = None
        left -= 1
        yv = y[v] / d
        for u, a in row.items():
            au = adj[u]
            was = len(au)
            del au[v]
            diag[u] -= a * a / d
            y[u] -= a * yv
            for w, b in row.items():
                if w != u:
                    au[w] = au.get(w, 0.0) - a * b / d
            if len(au) != was:
                heapq.heappush(heap, (len(au), u))
        order.append(v)
        pivots.append(d)
        columns.append(row)
    rest = [v for v in range(n) if adj[v] is not None]
    return order, columns, pivots, rest, adj, diag, y


@dataclass(frozen=True, eq=False)
class GroundedFactor:
    """A sparse factor of a connected graph's grounded Laplacian, and the parts of L# it gives.

    Grounding vertex r deletes its row and column from L(G), leaving a
    positive definite L_r.  ``of`` eliminates the vertices, leaves first
    and then by minimum degree (George & Liu, Computer Solution of Large
    Sparse Positive Definite Systems, 1981), in Python floats
    (``_eliminate``), which gives L_r = L D L^T on the eliminated head:
    ``head`` in elimination order, ``columns`` each one's column as the
    dict of its neighbours then to their entries a_uv in the Schur
    complement it was eliminated from (column v of L is a_uv / D_v), and
    ``pivots`` D.  The vertex left last is r, ``ground``.  When the fronts
    grow wider than DENSE_FRONT first, the vertices left are one dense
    Schur block: r is its last, and the rest, ``tail``, are inverted
    through ``_sym_inverses`` into ``tail_inverse``.  Eliminating L(G)
    itself and dropping r's entries afterwards is L_r's factor, since r's
    entries never reach the others'.

    X = L_r^{-1}, padded with a zero row and column at r, is a symmetric
    {1}-inverse of L(G), so L# = P X P with P = I - J/n: with g = X 1 and
    s = 1^T g,

        L#_ij = X_ij - (g_i + g_j)/n + s/n^2,

    and for vectors x, y that sum to 0, x^T L# y = x^T X y.  ``selected``
    holds X on the filled pattern, per vertex a dict over the vertices it
    shares a column of L with and itself, taken column by column from the
    last by the Takahashi recurrence (Takahashi, Fagan & Chen, 1973;
    Erisman & Tinney, CACM 18(3), 1975): X_ij = -sum_k L_kj X_ik and
    X_jj = 1/D_j - sum_k L_kj X_kj over k in column j's structure, whose
    pairs all lie on the pattern.  ``ones`` is g, by a forward solve that
    rides along the elimination and a back substitution that rides along
    the recurrence; ``total`` is s, and ``diagonal`` and ``trace`` are
    L#'s.  A dense tail's entries enter ``selected`` only where a head
    column reads them; ``cells`` reads the rest off ``tail_inverse``.
    Nothing of order n x n is formed unless the whole graph is the dense
    block, as K_n is.
    """

    n: int
    ground: int
    head: list[int]
    columns: list[dict[int, float]]
    pivots: list[float]
    tail: list[int]
    tail_inverse: np.ndarray
    selected: list
    ones: np.ndarray
    total: float
    diagonal: np.ndarray
    trace: float

    @classmethod
    def of(cls, n: int, eu: np.ndarray, ev: np.ndarray) -> GroundedFactor:
        """The factor of the Laplacian of the connected graph on n vertices with edges (eu[k], ev[k]).

        Each pivot of the elimination must be above PIVOT_RTOL * max(1,
        max degree), and the dense block passes ``_sym_inverses``' pivot
        check; otherwise, as for a disconnected graph, this raises
        SingularMatrixError.
        """
        if n < 1:
            raise MatrixError("a grounded Laplacian needs at least one vertex")
        eu = np.asarray(eu, dtype=np.intp)
        ev = np.asarray(ev, dtype=np.intp)
        degrees = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        if n > 1 and degrees.min() > DENSE_FRONT:
            # No front is narrow enough, so the whole graph is the dense
            # block: _eliminate would stop at once, and this builds the same
            # block without its dicts, which cost K_n more than the inverse.
            head, columns, pivots, ones = [], [], [], [1.0] * n
            tail, ground = list(range(n - 1)), n - 1
            block = np.zeros((n, n))
            block[eu, ev] = -1.0
            block[ev, eu] = -1.0
            np.fill_diagonal(block, degrees)
            block = block[:-1, :-1]
        else:
            floor = PIVOT_RTOL * max(1.0, float(degrees.max(initial=0)))
            head, columns, pivots, rest, adj, diag, ones = _eliminate(
                n, eu.tolist(), ev.tolist(), floor
            )
            *tail, ground = rest
            block = _schur_block(tail, adj, diag)
        for column in columns:
            column.pop(ground, None)
        (tail_inverse,) = _sym_inverses([block], ["grounded Laplacian block"])
        # ones holds L^{-1} 1; the tail's part of X 1 is the dense block's
        # solve, and _takahashi back-substitutes the head's in its pass.
        for v, x in zip(tail, (tail_inverse @ np.array([ones[v] for v in tail])).tolist()):
            ones[v] = x
        selected = _takahashi(n, head, columns, pivots, tail, tail_inverse, ones)
        ones[ground] = 0.0
        x_diag = [0.0] * n
        for v in head:
            x_diag[v] = selected[v][v]
        for v, x in zip(tail, np.diagonal(tail_inverse).tolist()):
            x_diag[v] = x
        s = math.fsum(ones)
        trace = math.fsum(x_diag) - s / n
        ones = np.array(ones)
        diagonal = (np.array(x_diag) - (ones + ones) / n) + s / (n * n)
        return cls(
            n, ground, head, columns, pivots, tail, tail_inverse, selected, ones, s, diagonal, trace
        )

    def cells(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """L#_ij for each pair (i[k], j[k]) on the filled pattern, such as a diagonal cell or an edge.

        Pairs within the dense block are one gather from the tail inverse,
        the rest are read off ``selected``; an entry off the pattern is
        not there to read and raises.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        x = np.zeros(len(i))
        rest = slice(None)
        if self.tail:
            at = np.full(self.n, -1)
            at[self.tail] = np.arange(len(self.tail))
            ti, tj = at[i], at[j]
            dense = (ti >= 0) & (tj >= 0)
            x[dense] = self.tail_inverse[ti[dense], tj[dense]]
            rest = np.flatnonzero(~dense)
        ground, selected = self.ground, self.selected
        x[rest] = [
            0.0 if ground in (a, b) else selected[a][b]
            for a, b in zip(i[rest].tolist(), j[rest].tolist())
        ]
        n, ones = self.n, self.ones
        return (x - (ones[i] + ones[j]) / n) + self.total / (n * n)

    def gram(self, vectors: np.ndarray) -> np.ndarray:
        """V L# V^T for the rows of V: x^T X y over each pair's forward solves.

        Each row is centred first, so it is L#'s form for any rows.  With
        z = L^{-1} x and w = L^{-1} y on the head and the tail's parts
        carried into the dense block, x^T X y = sum_j z_j w_j / D_j +
        z_T^T (tail inverse) w_T.
        """
        vectors = np.asarray(vectors, dtype=float)
        ys = (vectors - vectors.mean(axis=1, keepdims=True)).tolist()
        _forward(ys, self.head, self.columns, self.pivots)
        z = np.array(ys).reshape(len(ys), self.n)
        heads = z[:, self.head]
        forms = (heads / self.pivots) @ heads.T
        if self.tail:
            tails = z[:, self.tail]
            forms += tails @ self.tail_inverse @ tails.T
        return forms


def _schur_block(tail: list[int], adj: list, diag: list[float]) -> np.ndarray:
    """The dense Schur complement on ``tail``, from ``_eliminate``'s dicts; the ground's entries are left out."""
    if not tail:
        return np.zeros((0, 0))
    at = {v: k for k, v in enumerate(tail)}
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    for k, v in enumerate(tail):
        for w, a in adj[v].items():
            col = at.get(w)
            if col is not None:
                rows.append(k)
                cols.append(col)
                values.append(a)
    block = np.zeros((len(tail), len(tail)))
    block[rows, cols] = values
    np.fill_diagonal(block, [diag[v] for v in tail])
    return block


def _takahashi(
    n: int,
    head: list[int],
    columns: list[dict[int, float]],
    pivots: list[float],
    tail: list[int],
    tail_inverse: np.ndarray,
    g: list[float],
) -> list:
    """X on the filled pattern by the Takahashi recurrence, column by column from the last.

    With column j of L read as a_uj / D_j, X_ij = -(sum_k a_kj X_ik) / D_j
    and X_jj = (1 - sum_k a_kj X_kj) / D_j.  Per vertex, a dict from each
    vertex it shares a column with, and itself, to that entry of X.  A tail
    vertex starts with the entries of the tail inverse that a head column
    reads, those among the column's tail vertices; one that no head column
    reads gets no dict.

    The same pass finishes X 1 in ``g``, which comes in as L^{-1} 1 on the
    head and X 1 on the tail: back substitution over the same columns in
    the same order, g_j = (y_j - sum_k a_kj g_k) / D_j.
    """
    selected: list = [None] * n
    at = {v: k for k, v in enumerate(tail)}
    for column in columns if tail else ():
        inner = [u for u in column if u in at]
        if inner:
            k = [at[u] for u in inner]
            for u, row in zip(inner, tail_inverse[np.ix_(k, k)].tolist()):
                if selected[u] is None:
                    selected[u] = {}
                selected[u].update(zip(inner, row))
    for j, column, d in zip(reversed(head), reversed(columns), reversed(pivots)):
        if len(column) == 1:
            # A leaf's column, the commonest (all but one of a path's):
            # the loop below gives the same bits at about twice the cost.
            ((u, a),) = column.items()
            xu = selected[u]
            xu[j] = x = -a * xu[u] / d
            selected[j] = {u: x, j: (1.0 - a * x) / d}
            g[j] = (g[j] - a * g[u]) / d
            continue
        entries = column.values()
        xj = {}
        for u in column:
            xj[u] = -sum(map(mul, entries, map(selected[u].__getitem__, column))) / d
        for u, x in xj.items():
            selected[u][j] = x
        xj[j] = (1.0 - sum(map(mul, entries, xj.values()))) / d
        selected[j] = xj
        g[j] = (g[j] - sum(map(mul, entries, map(g.__getitem__, column)))) / d
    return selected


def _forward(
    ys: list[list[float]], head: list[int], columns: list[dict[int, float]], pivots: list[float]
) -> None:
    """y := L^{-1} y for each y of ``ys`` over the head columns, in place, in one pass.

    The tail's entries take the head's updates.
    """
    for j, column, d in zip(head, columns, pivots):
        for y in ys:
            w = y[j] / d
            for u, a in column.items():
                y[u] -= a * w


def block_one_inverse(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Symmetric {1}-inverse of a Laplacian split as [[A, B], [B^T, D]].

    Forms the Schur complement H = A - B D^{-1} B^T, takes its group inverse
    Hg, and assembles

        [[Hg,            -Hg B D^{-1}                    ],
         [-D^{-1} B^T Hg, D^{-1} + D^{-1} B^T Hg B D^{-1}]]

    which satisfies M X M = M for the full, singular Laplacian M.  D goes
    through the Cholesky inverse, so it must be symmetric positive
    definite, as every proper trailing block of a connected graph's
    Laplacian is.  H is then the Kron-reduced Laplacian, connected again
    (Dorfler & Bullo, IEEE TCAS-I 60(1), 2013), and Hg is its deflated
    ``laplacian_group_inverse``; a disconnected H raises
    SingularMatrixError.  Past the input checks, the steps around the two
    inverses are ``_kron_reduced`` and ``_block_assembled``, so that a
    caller with many splits can take their inverses in stacked calls.
    """
    a, d = _as_symmetric([a, d], ["block A", "block D"])
    b = np.asarray(b, dtype=float)
    if b.shape != (len(a), len(d)):
        raise MatrixError(f"block B must have shape {(len(a), len(d))}, got {b.shape}")
    (d_inv,) = _sym_inverses([d], ["block D"])
    bd, h = _kron_reduced(a, b, d_inv)
    return _block_assembled(laplacian_group_inverse(h), bd, d_inv)


def _kron_reduced(a: np.ndarray, b: np.ndarray, d_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B D^{-1} and the Schur complement H = A - B D^{-1} B^T, from D^{-1}."""
    bd = b @ d_inv
    return bd, a - bd @ b.T


def _block_assembled(hg: np.ndarray, bd: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    """``block_one_inverse``'s {1}-inverse from Hg, B D^{-1} and D^{-1}."""
    top_right = -hg @ bd
    bottom_right = d_inv + bd.T @ hg @ bd
    return np.block([[hg, top_right], [top_right.T, 0.5 * (bottom_right + bottom_right.T)]])


def shifted_rank_one_inverse(l: np.ndarray, a: float, b: float) -> np.ndarray:
    """Inverse of L + aI - (a/b)J for a graph Laplacian L, via rank-one shift.

    Because L J = 0, the inverse is (L + aI)^{-1} + (1/(a(b - n)))J with
    n the order of L.  Requires a > 0 and b outside {0, n}; the computed
    product is checked against the identity, and a failure (for instance a
    non-Laplacian input) raises SingularMatrixError.  Past the check of L,
    the steps around the one inverse are ``_rank_one_shift`` and
    ``_rank_one_inverse``.  L must be one matrix: a (k, t, t) stack raises
    MatrixError before anything is inverted.
    """
    (lap,) = _as_symmetric([l], ["Laplacian"], matrices=True)
    shifted = _rank_one_shift(lap, a, b)
    (shifted_inv,) = _sym_inverses([shifted], ["L + aI"])
    x, _ = _rank_one_inverse(shifted, shifted_inv, a, b)
    return x


def _rank_one_shift(lap: np.ndarray, a: float, b: float) -> np.ndarray:
    """L + aI for ``shifted_rank_one_inverse`` from ``_as_symmetric``'s L, once a and b pass its checks."""
    n = len(lap)
    if not a > 0.0:
        raise MatrixError(f"shift a must be positive, got {a}")
    if b == 0.0 or b == float(n):
        raise ZeroDivisionError(f"b = {b} makes the rank-one correction undefined for n = {n}")
    return lap + a * np.eye(n)


def _rank_one_inverse(
    shifted: np.ndarray, shifted_inv: np.ndarray, a: float, b: float
) -> tuple[np.ndarray, float]:
    """X = T^{-1} for T = L + aI - (a/b)J, from L + aI and its inverse, and X's scaled residual.

    The residual is max|T X - I| / max(1, max|T|); over 1e-8 it raises
    SingularMatrixError.
    """
    n = len(shifted)
    ones = np.ones((n, n))
    x = shifted_inv + (1.0 / (a * (b - n))) * ones
    target = shifted - (a / b) * ones
    scale = max(1.0, max_abs(target))
    residual = max_abs(target @ x - np.eye(n))
    if residual > 1e-8 * scale:
        raise SingularMatrixError(
            f"shifted matrix did not invert (residual {residual:.3e}); "
            "input is singular or not a graph Laplacian"
        )
    return x, residual / scale


def verify_one_inverse(m: np.ndarray, x: np.ndarray) -> float:
    """Largest absolute entry of M X M - M; the {1}-inverse defect."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"M must be square, got shape {m.shape}")
    if x.shape != m.shape:
        raise MatrixError(f"X must match M's shape {m.shape}, got {x.shape}")
    return max_abs(m @ x @ m - m)
