"""Eigensolver and structured-inverse tests.

numpy.linalg serves as the independent oracle here; the library's own code
never calls it.
"""

import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

from coronakit import linalg
from coronakit.corona import build
from coronakit.graphs import Graph, complete_graph, cycle_graph, laplacian, path_graph, star_graph
from coronakit.linalg import (
    MatrixError,
    SingularMatrixError,
    block_one_inverse,
    laplacian_group_inverse,
    max_abs,
    shifted_rank_one_inverse,
    sym_eigendecompose,
    sym_inverse,
    verify_one_inverse,
)


def test_path3_spectrum_by_hand():
    # L(P3) has characteristic polynomial x(x-1)(x-3)
    dec = sym_eigendecompose(laplacian(path_graph(3)))
    npt.assert_allclose(dec.values, [3.0, 1.0, 0.0], atol=1e-12)


def _assert_matches_numpy(a):
    dec = sym_eigendecompose(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    npt.assert_allclose(dec.values, ref, atol=1e-10 * max(1.0, max_abs(a)))
    return dec


def test_eigendecompose_matches_numpy():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        _assert_matches_numpy(a)
    # larger odd and even orders: an odd order runs with one dummy index
    for n in (60, 61, 120):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        dec = _assert_matches_numpy(a)
        assert dec.sweeps >= 2 and dec.rotations > 0
        assert dec.off_norm <= linalg.JACOBI_OFF_TOL * np.linalg.norm(a)


def test_eigendecompose_degenerate_spectra():
    # K_n: eigenvalue n with multiplicity n-1, plus 0
    for n in (5, 8):
        dec = _assert_matches_numpy(laplacian(complete_graph(n)))
        npt.assert_allclose(dec.values, [float(n)] * (n - 1) + [0.0], atol=1e-12)
    # already-diagonal input needs no rotation and keeps index order on ties
    for a in (np.zeros((4, 4)), np.eye(5), np.diag([1.0, 3.0, -2.0, 3.0, 0.0, 1.0, 7.0])):
        dec = sym_eigendecompose(a)
        assert (dec.sweeps, dec.rotations, dec.off_norm) == (0, 0, 0.0)
        order = np.argsort(-np.diag(a), kind="stable")
        npt.assert_array_equal(dec.values, np.diag(a)[order])


def test_eigendecompose_reports_its_work():
    dec = sym_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (dec.sweeps, dec.rotations, dec.off_norm) == (1, 1, 0.0)
    npt.assert_allclose(dec.values, [3.0, 1.0], atol=1e-15)


def test_eigendecompose_is_deterministic():
    rng = np.random.default_rng(9)
    for n in (7, 30):
        a = rng.normal(size=(n, n))
        a = a + a.T
        first, second = sym_eigendecompose(a), sym_eigendecompose(a.copy())
        npt.assert_array_equal(first.values, second.values)
        assert (first.sweeps, first.rotations, first.off_norm) == (
            second.sweeps,
            second.rotations,
            second.off_norm,
        )


def test_eigendecompose_raises_when_sweeps_run_out(monkeypatch):
    a = np.random.default_rng(4).normal(size=(10, 10))
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(MatrixError, match="did not converge in 1 sweeps"):
        sym_eigendecompose(a + a.T)


def test_eigendecompose_nearly_diagonal_regression():
    # A corona Laplacian whose iteration converges while the subtractive
    # form of the off-diagonal norm reports a phantom residual near
    # sqrt(eps * ||A||_F^2); the solver must not flag non-convergence.
    base = complete_graph(3)
    crowns = (
        Graph(0, ()),
        Graph(3, ((0, 1), (0, 2))),
        Graph(3, ((0, 1),)),
    )
    lap = laplacian(build("r_edge", base, crowns).graph)
    dec = sym_eigendecompose(lap)
    npt.assert_allclose(dec.values, np.linalg.eigvalsh(lap)[::-1], atol=1e-9)


def test_eigendecompose_trivial_sizes():
    dec = sym_eigendecompose(np.zeros((0, 0)))
    assert dec.values.shape == (0,)
    dec = sym_eigendecompose(np.array([[4.0]]))
    npt.assert_allclose(dec.values, [4.0])


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(MatrixError, match="square"):
        sym_eigendecompose(np.ones((2, 3)))
    with pytest.raises(MatrixError, match="symmetric"):
        sym_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _mixed_stack(t, rng):
    # Members that finish at different sweeps: a diagonal one (0 sweeps),
    # K_t, a path and a random weighted symmetric matrix.
    weighted = rng.normal(size=(t, t))
    return np.stack(
        [
            np.diag(np.arange(t, 0.0, -1.0)),
            laplacian(complete_graph(t)),
            laplacian(path_graph(t)),
            weighted + weighted.T,
        ]
    )


@pytest.mark.parametrize("t", [5, 6])
def test_stacked_eigendecompose_matches_single_calls(t):
    stack = _mixed_stack(t, np.random.default_rng(t))
    dec = sym_eigendecompose(stack)
    assert dec.values.shape == (4, t)
    singles = [sym_eigendecompose(member) for member in stack]
    assert len({single.sweeps for single in singles}) > 1
    assert singles[0].sweeps == 0
    for i, single in enumerate(singles):
        npt.assert_array_equal(dec.values[i], single.values)
        npt.assert_allclose(dec.values[i], np.linalg.eigvalsh(stack[i])[::-1], rtol=0, atol=1e-12)
    assert dec.sweeps == max(single.sweeps for single in singles)
    assert dec.rotations == sum(single.rotations for single in singles)
    assert dec.off_norm == max(single.off_norm for single in singles)
    # a stack of one is the single call
    one = sym_eigendecompose(stack[3:])
    npt.assert_array_equal(one.values[0], singles[3].values)


@pytest.mark.parametrize("t", range(2, 10))
def test_stacked_eigendecompose_matches_exact_spectra(t):
    # A reference that does not come from numpy.linalg: one stacked call over
    # graphs of order t whose Laplacian spectra are known in closed form
    # (Mohar, The Laplacian spectrum of graphs, 1991).
    k = np.arange(t)
    cases = [
        (complete_graph(t), [float(t)] * (t - 1) + [0.0]),
        (path_graph(t), 2.0 - 2.0 * np.cos(np.pi * k / t)),
        (star_graph(t - 1), [float(t)] + [1.0] * (t - 2) + [0.0]),
    ]
    if t >= 3:
        cases.append((cycle_graph(t), 2.0 - 2.0 * np.cos(2.0 * np.pi * k / t)))
    dec = sym_eigendecompose(np.stack([laplacian(g) for g, _ in cases]))
    for values, (_, exact) in zip(dec.values, cases):
        npt.assert_allclose(values, np.sort(exact)[::-1], rtol=0, atol=1e-12)


def test_stacked_eigendecompose_trivial_shapes():
    for shape in ((0, 3, 3), (4, 0, 0)):
        dec = sym_eigendecompose(np.zeros(shape))
        assert dec.values.shape == shape[:-1]
    stack = np.array([[[4.0]], [[-1.0]], [[0.0]]])
    dec = sym_eigendecompose(stack)
    npt.assert_array_equal(dec.values, [[4.0], [-1.0], [0.0]])


def test_unchecked_jacobi_keeps_index_order_and_a_zero_pad_slot():
    # _jacobi_eigenvalues leaves each value in its index's slot, so a
    # member padded with a zero row and column (as the crown layouts pad an
    # odd order) reads exactly 0.0 in its last slot; sym_eigendecompose
    # sorts the same values descending, which would move the pad.
    coupled = np.zeros((4, 4))
    coupled[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    coupled[2, 2] = -1.0
    padded_path = np.zeros((4, 4))
    padded_path[:3, :3] = laplacian(path_graph(3))
    diagonal = np.diag([1.0, 3.0, 2.0, -4.0])
    stack = np.stack([coupled, padded_path, diagonal])
    dec = linalg._jacobi_eigenvalues(stack)
    assert dec.values.shape == (3, 4)
    for member in (0, 1):
        assert dec.values[member, -1].tobytes() == np.float64(0.0).tobytes()
    assert dec.values[0, 2] == -1.0
    npt.assert_allclose(np.sort(dec.values[0, :2]), [1.0, 3.0], rtol=0, atol=1e-12)
    npt.assert_allclose(np.sort(dec.values[1, :3]), [0.0, 1.0, 3.0], rtol=0, atol=1e-12)
    npt.assert_array_equal(dec.values[2], [1.0, 3.0, 2.0, -4.0])
    npt.assert_array_equal(linalg._jacobi_eigenvalues(diagonal).values, [1.0, 3.0, 2.0, -4.0])
    ranked = sym_eigendecompose(stack)
    npt.assert_array_equal(ranked.values, -np.sort(-dec.values, axis=1))
    assert ranked.values[0, -1] == -1.0 and ranked.values[2, 0] == 3.0
    assert (ranked.sweeps, ranked.rotations, ranked.off_norm) == (
        dec.sweeps,
        dec.rotations,
        dec.off_norm,
    )


def test_stacked_eigendecompose_rejects_an_asymmetric_member():
    # (non-finite members are a case of test_non_finite_input_is_rejected)
    stack = np.stack([laplacian(path_graph(3))] * 3)
    stack[1, 0, 2] = 0.5
    with pytest.raises(MatrixError, match="symmetric"):
        sym_eigendecompose(stack)


def test_stacked_eigendecompose_raises_if_any_member_does_not_converge(monkeypatch):
    a = np.random.default_rng(4).normal(size=(10, 10))
    stack = np.stack([np.eye(10), a + a.T])
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(MatrixError, match="did not converge in 1 sweeps"):
        sym_eigendecompose(stack)


def test_group_inverse_of_triangle_is_known():
    # Lg of the triangle's Laplacian is (3I - J)/9
    lg = laplacian_group_inverse(laplacian(complete_graph(3)))
    npt.assert_allclose(lg, (3.0 * np.eye(3) - np.ones((3, 3))) / 9.0, atol=1e-12)


@pytest.mark.parametrize("n", [7, 150])
def test_group_inverse_checks_its_input_once(monkeypatch, n):
    # L + J/n is exactly symmetric by construction, so only L is checked,
    # and the result is bit for bit that of checking L + J/n a second time
    # (n = 150 also runs the Schur split of the Cholesky kernel).
    rng = np.random.default_rng(n)
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n // 3)}
    lap = laplacian(Graph(n, tuple(edges)))
    checks = mock.Mock(wraps=linalg._as_symmetric)
    monkeypatch.setattr(linalg, "_as_symmetric", checks)
    got = laplacian_group_inverse(lap)
    assert checks.call_count == 1
    j = np.full((n, n), 1.0 / n)
    shifted = lap + j
    x = sym_inverse(shifted, "L + J/n")
    residual = -(shifted @ x)
    residual.flat[:: n + 1] += 1.0
    x += x @ residual
    want = 0.5 * (x + x.T) - j
    assert (got.view(np.int64) == want.view(np.int64)).all()


def test_group_inverse_equations():
    for g in (path_graph(5), complete_graph(4), Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))):
        lap = laplacian(g)
        lg = laplacian_group_inverse(lap)
        npt.assert_allclose(lap @ lg @ lap, lap, atol=1e-10)
        npt.assert_allclose(lg @ lap @ lg, lg, atol=1e-10)
        npt.assert_allclose(lap @ lg, lg @ lap, atol=1e-10)
        npt.assert_allclose(lg @ np.ones(g.n), np.zeros(g.n), atol=1e-10)


def test_sym_inverse_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = a @ a.T + np.eye(6)
    npt.assert_allclose(sym_inverse(a), np.linalg.inv(a), atol=1e-9)


def test_crown_inverse_is_accurate_to_roundoff():
    # (L(H) + I)^-1 of small crowns; its diagonal is read out as apex
    # resistances, so it must match to roundoff, one at a time and as the
    # stacks of equal order that the closed route inverts in one call.
    graphs = [f(n) for n in range(1, 7) for f in (path_graph, complete_graph)]
    graphs += [star_graph(leaves) for leaves in range(1, 6)]
    for g in graphs:
        m = laplacian(g) + np.eye(g.n)
        npt.assert_allclose(sym_inverse(m), np.linalg.inv(m), rtol=0, atol=1e-14)
    for order in sorted({g.n for g in graphs}):
        stack = np.stack([laplacian(g) + np.eye(order) for g in graphs if g.n == order])
        npt.assert_allclose(sym_inverse(stack), np.linalg.inv(stack), rtol=0, atol=1e-14)


def test_sym_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError, match="crown block"):
        sym_inverse(laplacian(path_graph(3)), "crown block")
    # one singular member fails the whole stack
    stack = np.stack([np.eye(3), laplacian(path_graph(3)), 2.0 * np.eye(3)])
    with pytest.raises(SingularMatrixError, match="crown block"):
        sym_inverse(stack, "crown block")


@pytest.mark.parametrize(
    "entry, value, message", [((2, 1, 1), np.nan, "non-finite"), ((1, 0, 2), 0.5, "symmetric")]
)
def test_sym_inverse_checks_every_stack_member(entry, value, message):
    stack = np.stack([np.eye(3)] * 3)
    stack[entry] = value
    with pytest.raises(MatrixError, match=message):
        sym_inverse(stack, "crown block")


def test_sym_inverse_of_empty_shapes():
    for shape in ((0, 0), (4, 0, 0)):
        out = sym_inverse(np.zeros(shape))
        assert out.shape == shape
    with pytest.raises(MatrixError, match="square"):
        sym_inverse(np.zeros((2, 3, 3, 3)))


def test_laplacian_group_inverse_on_long_path_matches_pinv():
    # P_240 has Fiedler value about 1.7e-4, the ill-conditioned end of the
    # graphs the closed route inverts.
    lap = laplacian(path_graph(240))
    npt.assert_allclose(
        laplacian_group_inverse(lap), np.linalg.pinv(lap), rtol=0, atol=1e-9
    )


def test_sym_inverse_above_the_schur_leaf_matches_numpy():
    # Order 200 splits twice before reaching the one-loop leaves.
    assert 200 > 2 * linalg.SCHUR_LEAF_ORDER
    rng = np.random.default_rng(17)
    b = rng.normal(size=(200, 200))
    a = b @ b.T + 200.0 * np.eye(200)
    ref = np.linalg.inv(a)
    assert max_abs(sym_inverse(a) - ref) <= 1e-12 * max_abs(ref)
    # a stack goes through the same split, member by member
    stack = np.stack([a, 2.0 * a])
    out = sym_inverse(stack)
    assert max_abs(out[0] - ref) <= 1e-12 * max_abs(ref)
    assert max_abs(out[1] - 0.5 * ref) <= 1e-12 * max_abs(ref)


def _two_paths_laplacian():
    # Two disjoint paths on 0-119 and 120-199.  Their L + J/n is singular
    # and its leading blocks are all positive definite, so the zero pivot
    # is the last row, in the second half of the Schur split.
    edges = [(i, i + 1) for i in range(119)] + [(i, i + 1) for i in range(120, 199)]
    return laplacian(Graph(200, tuple(edges)))


def test_singular_pivot_past_the_schur_split_is_reported():
    with pytest.raises(SingularMatrixError, match=r"L \+ J/n .*at row 199\)"):
        laplacian_group_inverse(_two_paths_laplacian())
    # one singular member fails a stack, with the row of its failing pivot;
    # an indefinite one fails at its first non-positive pivot
    shifted = _two_paths_laplacian() + np.full((200, 200), 1.0 / 200)
    stack = np.stack([2.0 * np.eye(200), shifted, np.eye(200)])
    with pytest.raises(SingularMatrixError, match=r"crown block .*at row 199\)"):
        sym_inverse(stack, "crown block")
    indefinite = np.eye(150)
    indefinite[100, 100] = -1.0
    with pytest.raises(SingularMatrixError, match=r"pivot -1.000e\+00 at row 100\)"):
        sym_inverse(np.stack([np.eye(150), indefinite]))


def _spd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


@pytest.mark.parametrize("orders", [range(1, 65), range(65, 131)], ids=["leaf", "schur"])
def test_one_matrix_rows_match_the_reference_body(orders, monkeypatch):
    # A single matrix runs its Cholesky rows on 1-D vectors and numpy
    # scalars; every inverse and pivot is bit for bit what the (..., j, 1)
    # body gives on the same matrix, through the Schur split too.  A
    # 1-member stack agrees to roundoff: its 1 / sqrt(p) is an array power,
    # which numpy may round differently from the scalar power.
    rng = np.random.default_rng(23)
    mats = [_spd(rng, n) for n in orders]
    got = [linalg._spd_inverse(a) for a in mats]
    stacked = [linalg._spd_inverse(a[None]) for a in mats]
    monkeypatch.setattr(linalg, "_bordered_inverse", linalg._bordered_stack)
    for a, (x, pivots), (xs, ps) in zip(mats, got, stacked):
        ref_x, ref_pivots = linalg._spd_inverse(a)
        npt.assert_array_equal(x, ref_x)
        npt.assert_array_equal(pivots, ref_pivots)
        npt.assert_allclose(xs[0], x, rtol=0, atol=1e-14 * max_abs(x))
        npt.assert_allclose(ps[0], pivots, rtol=1e-13)


def _singular_message(m):
    with pytest.raises(SingularMatrixError) as err:
        sym_inverse(m, "block")
    return str(err.value)


def test_singular_input_fails_alike_as_one_matrix_and_as_a_stack(monkeypatch):
    # The first failing row and its pivot (exact here) are reported the
    # same for one matrix, a 1-member stack and the reference body, below
    # and past the Schur split.
    cases = []
    for n, row in ((5, 2), (100, 70)):
        a = np.diag(np.arange(1.0, n + 1.0))
        a[row, row] = 0.0
        cases.append((a, row, "0.000e+00"))
    indefinite = np.eye(3)
    indefinite[0, 1] = indefinite[1, 0] = 2.0
    cases.append((indefinite, 1, "-3.000e+00"))
    for a, row, pivot in cases:
        one = _singular_message(a)
        assert one.endswith(f"(pivot {pivot} at row {row})")
        assert _singular_message(a[None]) == one
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "_bordered_inverse", linalg._bordered_stack)
            assert _singular_message(a) == one


def test_jacobi_rotates_a_tiny_pair_without_warnings():
    # theta = (a_qq - a_pp) / (2 a_pq) is about 5e299 at a_pq = 1e-300:
    # its square overflows, hypot does not.  At a subnormal a_pq theta
    # itself is inf, and the pair gets the identity.
    for apq in (1e-300, -1e-300, 5e-324):
        a = np.array([[1.0, apq, 0.0], [apq, 2.0, apq], [0.0, apq, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = sym_eigendecompose(a)
        npt.assert_array_equal(dec.values, [3.0, 2.0, 1.0])
        assert dec.off_norm == 0.0


def test_group_inverse_refinement_does_not_raise_the_residual():
    # One refinement step on L(P_240) + J/n leaves a residual no larger
    # than the kernel's own inverse has.
    lap = laplacian(path_graph(240))
    shifted = lap + np.full((240, 240), 1.0 / 240)
    before = max_abs(np.eye(240) - shifted @ sym_inverse(shifted))
    after = max_abs(np.eye(240) - shifted @ (laplacian_group_inverse(lap) + 1.0 / 240))
    assert after <= before


def test_laplacian_group_inverse_fails_loudly():
    disconnected = laplacian(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(SingularMatrixError, match="L \\+ J/n"):
        laplacian_group_inverse(disconnected)
    with pytest.raises(MatrixError, match="sum to zero"):
        laplacian_group_inverse(laplacian(cycle_graph(4)) + np.eye(4))
    assert laplacian_group_inverse(np.zeros((0, 0))).shape == (0, 0)


def test_block_one_inverse_on_laplacian_splits():
    rng = np.random.default_rng(11)
    for g in (path_graph(6), complete_graph(5), Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)))):
        lap = laplacian(g)
        for _ in range(3):
            k = int(rng.integers(1, g.n))
            x = block_one_inverse(lap[:k, :k], lap[:k, k:], lap[k:, k:])
            assert verify_one_inverse(lap, x) <= 1e-10 * max(1.0, max_abs(lap))
            npt.assert_allclose(x, x.T, atol=1e-12)


def test_block_one_inverse_fails_loudly_on_disconnected_input():
    # D = [1] is positive definite, but eliminating vertex 3 leaves vertex 2
    # isolated, so the Schur complement is a disconnected Laplacian.
    lap = laplacian(Graph(4, ((0, 1), (2, 3))))
    k = 3
    with pytest.raises(SingularMatrixError, match="L \\+ J/n"):
        block_one_inverse(lap[:k, :k], lap[:k, k:], lap[k:, k:])


def test_block_one_inverse_shape_check():
    with pytest.raises(MatrixError, match="block B"):
        block_one_inverse(np.eye(2), np.ones((3, 2)), np.eye(2))


def test_shifted_rank_one_inverse_matches_direct():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = int(rng.integers(1, 6))
        pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
        chosen = tuple(p for p in pairs if rng.random() < 0.5)
        lap = laplacian(Graph(t, chosen))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.1, 2 * t))
        if abs(b - t) < 0.25:
            b = t + 0.5
        target = lap + a * np.eye(t) - (a / b) * np.ones((t, t))
        npt.assert_allclose(
            shifted_rank_one_inverse(lap, a, b), np.linalg.inv(target), atol=1e-8
        )


def test_shifted_rank_one_inverse_error_paths():
    lap = laplacian(path_graph(3))
    with pytest.raises(MatrixError, match="positive"):
        shifted_rank_one_inverse(lap, -1.0, 2.0)
    with pytest.raises(ZeroDivisionError):
        shifted_rank_one_inverse(lap, 1.0, 3.0)  # b equal to the order
    with pytest.raises(ZeroDivisionError):
        shifted_rank_one_inverse(lap, 1.0, 0.0)
    # [[2]] is no Laplacian (L J != 0), so the rank-one formula gives 5/6
    # where the inverse of 2 + 1 - 1/3 is 3/8: the identity check catches it.
    with pytest.raises(SingularMatrixError, match="did not invert"):
        shifted_rank_one_inverse(np.array([[2.0]]), 1.0, 3.0)


def test_verify_one_inverse_reports_defect():
    lap = laplacian(path_graph(3))
    lg = laplacian_group_inverse(lap)
    assert verify_one_inverse(lap, lg) <= 1e-12
    assert verify_one_inverse(lap, np.zeros((3, 3))) == pytest.approx(2.0)
    with pytest.raises(MatrixError, match="X must match M's shape"):
        verify_one_inverse(lap, np.zeros((2, 2)))
    with pytest.raises(MatrixError, match="M must be square"):
        verify_one_inverse(np.zeros((2, 3)), np.zeros((2, 3)))


def _stacked_eigendecompose(a):
    return sym_eigendecompose(np.stack([np.eye(2), a]))


@pytest.mark.parametrize(
    "solver",
    [
        sym_eigendecompose,
        _stacked_eigendecompose,
        sym_inverse,
        laplacian_group_inverse,
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(solver, bad):
    with pytest.raises(MatrixError, match="non-finite"):
        solver(np.array([[bad, 1.0], [1.0, 2.0]]))
