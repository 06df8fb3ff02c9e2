"""Eigensolver and structured-inverse tests.

numpy.linalg serves as the independent oracle here; the library's own code
never calls it.
"""

import numpy as np
import numpy.testing as npt
import pytest

from coronakit import linalg
from coronakit.corona import r_edge_corona
from coronakit.graphs import Graph, complete_graph, laplacian, path_graph, star_graph
from coronakit.linalg import (
    EigenDecomposition,
    MatrixError,
    SingularMatrixError,
    block_one_inverse,
    max_abs,
    pseudo_group_inverse,
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
    n = a.shape[0]
    dec = sym_eigendecompose(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    npt.assert_allclose(dec.values, ref, atol=1e-10 * max(1.0, max_abs(a)))
    npt.assert_allclose(dec.vectors @ dec.vectors.T, np.eye(n), atol=1e-10)
    npt.assert_allclose(dec.reconstruct(), a, atol=1e-10 * max(1.0, max_abs(a)))
    return dec


def test_eigendecompose_matches_numpy_and_reconstructs():
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
        npt.assert_array_equal(dec.vectors, np.eye(a.shape[0])[:, order])


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
        npt.assert_array_equal(first.vectors, second.vectors)
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
    lap = laplacian(r_edge_corona(base, crowns).graph)
    dec = sym_eigendecompose(lap)
    npt.assert_allclose(dec.reconstruct(), lap, atol=1e-9)
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


def test_group_inverse_of_triangle_is_known():
    # Lg of the triangle's Laplacian is (3I - J)/9
    lg = pseudo_group_inverse(laplacian(complete_graph(3)))
    npt.assert_allclose(lg, (3.0 * np.eye(3) - np.ones((3, 3))) / 9.0, atol=1e-12)


def test_group_inverse_equations():
    rng = np.random.default_rng(7)
    for g in (path_graph(5), complete_graph(4), Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))):
        lap = laplacian(g)
        lg = pseudo_group_inverse(lap)
        npt.assert_allclose(lap @ lg @ lap, lap, atol=1e-10)
        npt.assert_allclose(lg @ lap @ lg, lg, atol=1e-10)
        npt.assert_allclose(lap @ lg, lg @ lap, atol=1e-10)
        npt.assert_allclose(lg @ np.ones(g.n), np.zeros(g.n), atol=1e-10)
    # full rank: group inverse is the plain inverse
    a = rng.normal(size=(4, 4))
    a = a @ a.T + np.eye(4)
    npt.assert_allclose(pseudo_group_inverse(a), np.linalg.inv(a), atol=1e-9)


def test_sym_inverse_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = a @ a.T + np.eye(6)
    npt.assert_allclose(sym_inverse(a), np.linalg.inv(a), atol=1e-9)


def test_crown_inverse_is_accurate_to_roundoff():
    # (L(H) + I)^-1 of small crowns; its diagonal is read out as apex
    # resistances, so the solver's stopping rule must not leave its
    # off-diagonal tolerance in the eigenvectors.
    graphs = [f(n) for n in range(1, 7) for f in (path_graph, complete_graph)]
    graphs += [star_graph(leaves) for leaves in range(1, 6)]
    for g in graphs:
        m = laplacian(g) + np.eye(g.n)
        npt.assert_allclose(sym_inverse(m), np.linalg.inv(m), rtol=0, atol=1e-14)


def test_sym_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError, match="crown block"):
        sym_inverse(laplacian(path_graph(3)), "crown block")


def test_block_one_inverse_on_laplacian_splits():
    rng = np.random.default_rng(11)
    for g in (path_graph(6), complete_graph(5), Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)))):
        lap = laplacian(g)
        for _ in range(3):
            k = int(rng.integers(1, g.n))
            x = block_one_inverse(lap[:k, :k], lap[:k, k:], lap[k:, k:])
            assert verify_one_inverse(lap, x) <= 1e-10 * max(1.0, max_abs(lap))
            npt.assert_allclose(x, x.T, atol=1e-12)


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


def test_verify_one_inverse_reports_defect():
    lap = laplacian(path_graph(3))
    lg = pseudo_group_inverse(lap)
    assert verify_one_inverse(lap, lg) <= 1e-12
    assert verify_one_inverse(lap, np.zeros((3, 3))) == pytest.approx(2.0)
    with pytest.raises(MatrixError):
        verify_one_inverse(lap, np.zeros((2, 2)))


def test_eigendecomposition_reconstruct_api():
    dec = EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
    npt.assert_allclose(dec.reconstruct(), np.diag([2.0, 1.0]))


@pytest.mark.parametrize("solver", [sym_eigendecompose, pseudo_group_inverse, sym_inverse])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(solver, bad):
    with pytest.raises(MatrixError, match="non-finite"):
        solver(np.array([[bad, 1.0], [1.0, 2.0]]))
