"""Dense symmetric eigendecomposition and the inverses built on it.

Everything numeric downstream (the resistance oracle and the structured
block inverses) funnels through this one kernel so there is a single
tolerance story.  The eigensolver is Jacobi in the round-robin parallel
ordering of Brent and Luk: each of the n-1 rounds of a sweep rotates n/2
disjoint pairs at once as one vectorised update.  It is unconditionally
stable on symmetric input, deterministic for a fixed input because the
ordering is fixed, and entirely adequate at the matrix orders this package
works at (a few hundred at most).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Off-diagonal Frobenius norm at which a Jacobi sweep loop stops, relative
# to max(1, ||A||_F) so the threshold survives rescaling.
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Eigenvalues with |lam| <= ZERO_EIGENVALUE_RTOL * max(1, |lam|_max) are
# treated as exact zeros when inverting.
ZERO_EIGENVALUE_RTOL = 1e-10

# A matrix must be symmetric to within this (relative to max(1, ||.||_max))
# before we will eigendecompose it; float products are allowed last-ulp slack.
SYMMETRY_RTOL = 1e-10


class MatrixError(ValueError):
    """Structural problem with a matrix argument (shape, symmetry, convergence)."""


class SingularMatrixError(MatrixError):
    """A matrix that must be inverted exactly is singular to working precision."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray
    # Solver diagnostics: Jacobi sweeps run, rotations applied, and the
    # off-diagonal Frobenius norm left at exit.
    sweeps: int = 0
    rotations: int = 0
    off_norm: float = 0.0

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _as_symmetric(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixError(f"{what} must be square, got shape {a.shape}")
    # NaN compares false against every bound, so the checks below would let
    # it through and the solver would return garbage instead of failing.
    if not np.isfinite(a).all():
        raise MatrixError(f"{what} has non-finite entries")
    if a.size and max_abs(a - a.T) > SYMMETRY_RTOL * max(1.0, max_abs(a)):
        raise MatrixError(f"{what} is not symmetric")
    return 0.5 * (a + a.T)


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed directly.

    Subtracting the diagonal's norm from the full norm looks equivalent but
    cancels catastrophically once the matrix is nearly diagonal, reporting
    phantom residuals around sqrt(eps * ||A||^2); summing the off-diagonal
    entries themselves stays accurate all the way down.
    """
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.sqrt(np.sum(b * b)))


@functools.lru_cache(maxsize=64)
def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot tables of the round-robin parallel ordering at even order m.

    Jacobi runs on a matrix whose indices are laid out in slots, and each
    round rotates the disjoint slot pairs (2i, 2i+1).  Between rounds every
    index except the one in the last slot moves one place along a fixed
    cycle (the circle method of a round-robin tournament), so the m-1
    rounds of a sweep pair every two indices exactly once and leave the
    layout where it started.

    Returns the starting layout (slot -> index), the move applied after each
    round (new slot -> old slot) and the flat positions of the just-rotated
    pairs' entries after the move.
    """
    k = m // 2
    start = [x for i in range(1, k) for x in (i, m - 1 - i)] + [0, m - 1]
    start = np.array(start, dtype=np.intp)
    slot = np.argsort(start)
    after = np.concatenate(((start[:-1] + 1) % (m - 1), [m - 1]))
    move = slot[after]
    moved = np.argsort(move)
    p, q = moved[0::2], moved[1::2]
    pairs = np.concatenate((p * m + q, q * m + p))
    for table in (start, move, pairs):
        table.setflags(write=False)
    return start, move, pairs


def _jacobi_sweep(a: np.ndarray, vt: np.ndarray, zero_negligible: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """One parallel Jacobi sweep over a slot-ordered matrix of even order m.

    a is the working matrix and vt the transposed eigenvector accumulator,
    both in the layout of _round_robin(m).  Each round computes the
    rotations of its m/2 disjoint pairs together, applies them to the rows
    of a, to its columns (as rows of the transpose, a being symmetric), and
    to the rows of vt, then moves every index to its next slot and zeroes
    the rotated pairs' entries.  A pair with a_pq == 0, or (with
    zero_negligible) one whose a_pq is negligible against both its diagonal
    entries, gets the identity, so it is zeroed without counting as a
    rotation.  Returns the new a, the new vt and the rotations applied.
    """
    m = a.shape[0]
    k = m // 2
    _, move, pairs = _round_robin(m)
    step = 2 * m + 2  # flat stride from slot pair (2i, 2i+1) to (2i+2, 2i+3)
    applied = 0
    for _ in range(m - 1):
        flat = a.reshape(-1)
        apq = flat[1::step]
        rotate = apq != 0.0
        if zero_negligible:
            # Entries already negligible against their diagonal pair are
            # zeroed outright once the early sweeps have done the bulk work.
            abs_pp = np.abs(flat[0::step])
            abs_qq = np.abs(flat[m + 1 :: step])
            g = 100.0 * np.abs(apq)
            rotate &= (abs_pp + g != abs_pp) | (abs_qq + g != abs_qq)
        count = int(np.count_nonzero(rotate))
        if count:
            # identity pairs get a_pq := 1 so that nothing divides by zero
            x = apq if count == k else np.where(rotate, apq, 1.0)
            h = flat[m + 1 :: step] - flat[0::step]
            theta = 0.5 * h / x
            t = 1.0 / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t = np.where(theta < 0.0, -t, t)
            ah = np.abs(h)
            small = ah + 100.0 * np.abs(x) == ah
            if small.any():
                t[small] = x[small] / h[small]
            if count < k:
                t[~rotate] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            r = np.array(((c, -s), (s, c))).transpose(2, 0, 1)
            a = (r @ a.reshape(k, 2, m)).reshape(m, m)[move]
            a = (r @ a.T.reshape(k, 2, m)).reshape(m, m)[move]
            vt = (r @ vt.reshape(k, 2, m)).reshape(m, m)[move]
            applied += count
        else:
            a = a[move][:, move]
            vt = vt[move]
        a.reshape(-1)[pairs] = 0.0
    return a, vt, applied


def sym_eigendecompose(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by parallel-order Jacobi.

    Each sweep visits every off-diagonal pair once in the round-robin
    parallel ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985;
    Golub & Van Loan 8.5): n-1 rounds of n/2 disjoint rotations, each round
    applied as one vectorised update.  An odd order is padded with a zero
    dummy index whose pairs are always the identity.  Sweeps stop when a
    sweep applies no rotation, or once the off-diagonal Frobenius norm is
    under JACOBI_OFF_TOL * max(1, ||A||_F) and one more polishing sweep has
    run: Jacobi converges quadratically, so that sweep takes the norm down
    to roundoff instead of leaving up to the tolerance in the eigenvectors.
    The ordering is fixed, so the result is deterministic.

    Returns eigenvalues sorted descending (stable in the index order) with
    eigenvector columns aligned, so that V @ diag(w) @ V.T reconstructs the
    input, together with the sweeps run, the rotations applied and the
    final off-diagonal norm.
    """
    sym = _as_symmetric(m)
    n = sym.shape[0]
    if n < 2:
        return EigenDecomposition(np.diag(sym).copy(), np.eye(n))

    tol = JACOBI_OFF_TOL * max(1.0, float(np.sqrt(np.sum(sym * sym))))
    size = n + n % 2
    start, _, _ = _round_robin(size)
    a = np.zeros((size, size))
    a[:n, :n] = sym
    a = a[start][:, start]
    vt = np.eye(size)[start]
    sweeps = rotations = 0
    off = _off_norm(a)
    polishing = False
    # theta * theta overflows only for pairs that the |h| + g == |h| branch
    # then rotates by t = a_pq / h instead.
    with np.errstate(over="ignore"):
        while off > 0.0 and sweeps < JACOBI_MAX_SWEEPS:
            if off <= tol:
                if polishing:
                    break
                polishing = True
            a, vt, applied = _jacobi_sweep(a, vt, zero_negligible=sweeps > 3)
            sweeps += 1
            rotations += applied
            off = _off_norm(a)
            if applied == 0:
                break
    if off > tol:
        raise MatrixError(
            f"Jacobi eigendecomposition did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {off:.3e})"
        )
    slot = np.argsort(start)[:n]
    values = np.diagonal(a)[slot]
    vectors = vt[slot, :n].T
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values[order], vectors[:, order], sweeps, rotations, off)


def _zero_threshold(values: np.ndarray) -> float:
    lam_max = max_abs(values)
    return ZERO_EIGENVALUE_RTOL * max(1.0, lam_max)


def pseudo_group_inverse(m: np.ndarray) -> np.ndarray:
    """Group inverse of a symmetric matrix (equals Moore-Penrose here).

    Inverts eigenvalues above the zero threshold and zeroes the rest, then
    reassembles.  For a connected graph's Laplacian this is the generalized
    inverse whose row sums vanish.
    """
    dec = sym_eigendecompose(m)
    thresh = _zero_threshold(dec.values)
    inv = np.zeros_like(dec.values)
    keep = np.abs(dec.values) > thresh
    inv[keep] = 1.0 / dec.values[keep]
    x = (dec.vectors * inv) @ dec.vectors.T
    return 0.5 * (x + x.T)


def sym_inverse(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Exact inverse of a symmetric nonsingular matrix via the eigen route."""
    dec = sym_eigendecompose(_as_symmetric(m, what))
    if dec.values.size == 0:
        return np.zeros((0, 0))
    thresh = _zero_threshold(dec.values)
    if np.min(np.abs(dec.values)) <= thresh:
        raise SingularMatrixError(f"{what} is singular to working precision")
    x = (dec.vectors / dec.values) @ dec.vectors.T
    return 0.5 * (x + x.T)


def block_one_inverse(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Symmetric {1}-inverse of [[A, B], [B^T, D]] for nonsingular D.

    Forms the Schur complement H = A - B D^{-1} B^T, takes its group inverse
    Hg, and assembles

        [[Hg,            -Hg B D^{-1}                    ],
         [-D^{-1} B^T Hg, D^{-1} + D^{-1} B^T Hg B D^{-1}]]

    which satisfies M X M = M for the full matrix M regardless of whether M
    itself is singular.
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
    hg = pseudo_group_inverse(h)
    top_right = -hg @ bd
    bottom_right = d_inv + bd.T @ hg @ bd
    x = np.block([[hg, top_right], [top_right.T, 0.5 * (bottom_right + bottom_right.T)]])
    return x


def shifted_rank_one_inverse(l: np.ndarray, a: float, b: float) -> np.ndarray:
    """Inverse of L + aI - (a/b)J for a graph Laplacian L, via rank-one shift.

    Because L J = 0, the inverse is (L + aI)^{-1} + (1/(a(b - n)))J with
    n the order of L.  Requires a > 0 and b outside {0, n}; the computed
    product is checked against the identity and a failure (for instance a
    non-Laplacian input) raises SingularMatrixError.
    """
    lap = _as_symmetric(l, "Laplacian")
    n = lap.shape[0]
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
