"""Spectral-sum, inverse and sparse-factor tests.

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
    sym_inverse,
    verify_one_inverse,
)


def _laplacian_stack(graphs, o):
    # Each graph's Laplacian in the leading block of an order-o member, the
    # rest zero, as a crown band pads a smaller order.
    laps = np.zeros((len(graphs), o, o))
    for i, g in enumerate(graphs):
        laps[i, : g.n, : g.n] = laplacian(g)
    return laps, np.array([g.n for g in graphs])


def test_path3_spectrum_by_hand():
    # L(P3) has characteristic polynomial x(x-1)(x-3), so its sum of
    # 1/(mu + 1) is 1 + 1/2 + 1/4, alone and padded to order 4.
    for o in (3, 4):
        sums = linalg._spectral_sums(*_laplacian_stack([path_graph(3)], o))
        npt.assert_allclose(sums, [1.75], rtol=0, atol=1e-15)


@pytest.mark.parametrize("t", range(1, 10))
def test_stacked_eigendecompose_matches_exact_spectra(t):
    # A reference that does not come from numpy.linalg: one stacked call over
    # graphs of order t whose Laplacian spectra are known in closed form
    # (Mohar, The Laplacian spectrum of graphs, 1991), alone at order t and
    # padded to order t + 1.  An edgeless graph sums exactly to t.
    k = np.arange(t)
    cases = [
        (Graph(t, ()), [0.0] * t),
        (complete_graph(t), [float(t)] * (t - 1) + [0.0]),
        (path_graph(t), 2.0 - 2.0 * np.cos(np.pi * k / t)),
    ]
    if t >= 2:
        cases.append((star_graph(t - 1), [float(t)] + [1.0] * (t - 2) + [0.0]))
    if t >= 3:
        cases.append((cycle_graph(t), 2.0 - 2.0 * np.cos(2.0 * np.pi * k / t)))
    want = [float(np.sum(1.0 / (np.asarray(exact) + 1.0))) for _, exact in cases]
    for o in (t, t + 1):
        sums = linalg._spectral_sums(*_laplacian_stack([g for g, _ in cases], o))
        assert sums[0] == float(t)
        npt.assert_allclose(sums, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("o", [5, 6, 40])
def test_stacked_eigendecompose_matches_single_calls(o):
    # Every member comes out bit for bit as a one-member call gives it,
    # whatever its stack-mates and their order, and the stack is not written.
    rng = np.random.default_rng(o)
    pairs = [(u, v) for u in range(o) for v in range(u + 1, o)]
    graphs = [
        Graph(o, tuple(e for e, keep in zip(pairs, rng.random(len(pairs)) < p) if keep))
        for p in (0.2, 0.5, 0.9)
    ]
    graphs += [complete_graph(o), path_graph(o), Graph(o, ()), path_graph(o - 1), star_graph(o - 2)]
    laps, sizes = _laplacian_stack(graphs, o)
    before = laps.copy()
    sums = linalg._spectral_sums(laps, sizes)
    npt.assert_array_equal(laps, before)
    for i in range(len(graphs)):
        alone = linalg._spectral_sums(laps[i : i + 1], sizes[i : i + 1])
        assert alone.tobytes() == sums[i : i + 1].tobytes()
    assert linalg._spectral_sums(laps[::-1].copy(), sizes[::-1]).tobytes() == sums[::-1].tobytes()
    for g, got in zip(graphs, sums):
        want = float(np.sum(1.0 / (np.linalg.eigvalsh(laplacian(g)) + 1.0)))
        assert abs(got - want) <= 1e-13 * want


def _eigen_sum(lap):
    return float(np.sum(1.0 / (np.linalg.eigvalsh(lap) + 1.0)))


def _weighted_laplacian(rng, n):
    # A random graph on n vertices, about half the pairs joined, with
    # weights in [0, 1): still a Laplacian, with the null vector 1.
    w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), 1)
    w = w + w.T
    return np.diag(w.sum(axis=1)) - w


def _alone_and_padded(lap):
    # The sums of one Laplacian as a member of order n and padded to n + 1.
    n = len(lap)
    padded = np.zeros((1, n + 1, n + 1))
    padded[0, :n, :n] = lap
    sizes = np.array([n])
    return linalg._spectral_sums(lap[None], sizes), linalg._spectral_sums(padded, sizes)


def test_eigendecompose_matches_numpy():
    # Weighted Laplacians of orders 1-19, 60, 61 and 120, alone and padded,
    # against the sum over numpy's spectrum.
    rng = np.random.default_rng(42)
    for n in [int(n) for n in rng.integers(1, 20, size=25)] + [60, 61, 120]:
        lap = _weighted_laplacian(rng, n)
        want = _eigen_sum(lap)
        for got in _alone_and_padded(lap):
            assert abs(got[0] - want) <= 1e-14 * want


def test_eigendecompose_degenerate_spectra():
    # K_n: eigenvalue n with multiplicity n - 1, plus 0, so the sum is
    # 1 + (n - 1)/(n + 1); an edgeless graph has only 0 and sums exactly to n.
    for n in (5, 8):
        for got in _alone_and_padded(laplacian(complete_graph(n))):
            npt.assert_allclose(got, [1.0 + (n - 1) / (n + 1)], rtol=1e-15, atol=0)
    for n in (1, 4, 5):
        for got in _alone_and_padded(np.zeros((n, n))):
            npt.assert_array_equal(got, [float(n)])


def test_eigendecompose_is_deterministic():
    rng = np.random.default_rng(9)
    for n in (7, 30):
        laps = np.stack([_weighted_laplacian(rng, n) for _ in range(3)])
        sizes = np.full(3, n)
        first = linalg._spectral_sums(laps, sizes)
        second = linalg._spectral_sums(laps.copy(), sizes.copy())
        assert first.tobytes() == second.tobytes()


def test_eigendecompose_nearly_diagonal_regression():
    # A whole corona Laplacian: an empty crown, rows of degree 1 to 6 and
    # mostly zero off the diagonal.  Its deflated row stays within the
    # roundoff bound, and the sum agrees with numpy's spectrum.
    base = complete_graph(3)
    crowns = (
        Graph(0, ()),
        Graph(3, ((0, 1), (0, 2))),
        Graph(3, ((0, 1),)),
    )
    lap = laplacian(build("r_edge", base, crowns).graph)
    want = _eigen_sum(lap)
    for got in _alone_and_padded(lap):
        assert abs(got[0] - want) <= 1e-14 * want


def test_eigendecompose_trivial_sizes():
    # An order-1 member has only 0 and sums exactly to 1, alone or padded.
    for o in (1, 2):
        npt.assert_array_equal(linalg._spectral_sums(np.zeros((1, o, o)), np.array([1])), [1.0])
    npt.assert_array_equal(linalg._spectral_sums(np.zeros((2, 2, 2)), np.array([1, 2])), [1.0, 2.0])


def test_eigendecompose_rejects_bad_input():
    # A member that does not have 1 as its null vector leaves a deflated row
    # far over the roundoff bound, and a pad that is not zero leaves a pad
    # row that is not zero; either raises and says which check failed.
    good = laplacian(path_graph(3))
    with pytest.raises(MatrixError, match="^stack member 0: the deflated null direction's row"):
        linalg._spectral_sums((good + np.eye(3))[None], np.array([3]))
    padded = np.zeros((1, 4, 4))
    padded[0, :3, :3] = good
    padded[0, 3, 3] = 1.0
    with pytest.raises(MatrixError, match="pad row is not exactly zero"):
        linalg._spectral_sums(padded, np.array([3]))


def test_stacked_eigendecompose_trivial_shapes():
    for o in (1, 3, 4):
        assert linalg._spectral_sums(np.zeros((0, o, o)), np.zeros(0, dtype=np.intp)).shape == (0,)
    npt.assert_array_equal(linalg._spectral_sums(np.zeros((3, 1, 1)), np.ones(3, dtype=np.intp)), [1.0] * 3)


def test_unchecked_jacobi_keeps_index_order_and_a_zero_pad_slot():
    # The kernel checks nothing on the way in and returns one sum per member
    # in the members' order.  No reflector touches a pad, so a member padded
    # with a zero row and column (as a crown band pads a smaller order)
    # keeps that row exactly zero, its pad slot is left out, and it sums as
    # it does unpadded; every step runs without a floating-point warning,
    # also where a reflector is zero (a column already zero below T).
    graphs = [path_graph(3), Graph(3, ()), star_graph(2), complete_graph(4), Graph(4, ((0, 1),))]
    laps, sizes = _laplacian_stack(graphs, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = linalg._spectral_sums(laps, sizes)
        for i, g in enumerate(graphs):
            alone = linalg._spectral_sums(laplacian(g)[None], sizes[i : i + 1])
            assert abs(sums[i] - alone[0]) <= 4 * np.finfo(float).eps * alone[0]
    assert sums[1] == 3.0
    npt.assert_allclose(sums[[0, 2]], [1.75, 1.75], rtol=1e-15, atol=0)
    npt.assert_allclose(sums[3], 1.0 + 3.0 / 5.0, rtol=1e-15, atol=0)
    order = [4, 2, 0, 3, 1]
    npt.assert_array_equal(linalg._spectral_sums(laps[order], sizes[order]), sums[order])


def test_stacked_eigendecompose_rejects_an_asymmetric_member():
    # The deflated row is P L P's product with 1, which is roundoff only if
    # 1 is a null vector on both sides: a member whose row sums are zero
    # but whose column sums are not is caught and named.
    stack = np.stack([laplacian(path_graph(3))] * 3)
    stack[1, 0, 2] += 0.5
    stack[1, 0, 0] -= 0.5
    npt.assert_array_equal(stack[1].sum(axis=1), 0.0)
    with pytest.raises(MatrixError, match="^stack member 1: "):
        linalg._spectral_sums(stack, np.full(3, 3))


def test_group_inverse_of_triangle_is_known():
    # Lg of the triangle's Laplacian is (3I - J)/9
    lg = laplacian_group_inverse(laplacian(complete_graph(3)))
    npt.assert_allclose(lg, (3.0 * np.eye(3) - np.ones((3, 3))) / 9.0, atol=1e-12)


@pytest.mark.parametrize("n", [7, 150])
def test_group_inverse_checks_its_input_once(monkeypatch, n):
    # L + J/n is exactly symmetric by construction, so only L is checked,
    # once: one ``_as_symmetric(..., zero_rows=True)`` call is the finite,
    # symmetric and row-sum check.  The result is bit for bit that of
    # checking L + J/n a second time (n = 150 also runs the Schur split of
    # the Cholesky kernel).
    rng = np.random.default_rng(n)
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n // 3)}
    lap = laplacian(Graph(n, tuple(edges)))
    checks = mock.Mock(wraps=linalg._as_symmetric)
    monkeypatch.setattr(linalg, "_as_symmetric", checks)
    got = laplacian_group_inverse(lap)
    assert checks.call_count == 1
    assert checks.call_args.kwargs == {"zero_rows": True}
    assert [a.shape for a in checks.call_args.args[0]] == [(n, n)]
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
def test_one_matrix_rows_match_the_reference_body(orders):
    # A single matrix runs its Cholesky rows on 1-D vectors and numpy
    # scalars; every inverse and pivot is bit for bit what
    # ``_bordered_inverse`` gives on the same matrix as a (1, n, n) stack,
    # through the (..., j, 1) rows, and through the Schur split too.
    rng = np.random.default_rng(23)
    for a in (_spd(rng, n) for n in orders):
        x, pivots = linalg._spd_inverse(a)
        xs, ps = linalg._spd_inverse(a[None])
        assert x.tobytes() == xs[0].tobytes()
        assert pivots.tobytes() == ps[0].tobytes()


def _singular_message(m):
    with pytest.raises(SingularMatrixError) as err:
        sym_inverse(m, "block")
    return str(err.value)


def test_singular_input_fails_alike_as_one_matrix_and_as_a_stack():
    # The first failing row and its pivot (exact here) are reported the
    # same for one matrix and for a 1-member stack, which runs the
    # reference body, below and past the Schur split.
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


def _random_laplacians(seed, orders):
    rng = np.random.default_rng(seed)
    laps = []
    for n in orders:
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(n // 2):
            edges.add(tuple(sorted(map(int, rng.choice(n, 2, replace=False)))))
        laps.append(laplacian(Graph(n, tuple(edges))))
    return laps


def test_stacked_group_inverses_match_one_member_calls_bit_for_bit():
    # Orders 1-64 share one padded stack, shuffled so that small members sit
    # among larger ones; 0, 65 and 100 ride along (empty, and on their own
    # through the Schur split).  Each member is bit for bit its one-member
    # call, which is laplacian_group_inverse.
    orders = list(range(0, 65)) + [65, 100]
    np.random.default_rng(7).shuffle(orders)
    laps = _random_laplacians(5, orders)
    got = linalg.laplacian_group_inverses(laps)
    assert len(got) == len(laps)
    for lap, x in zip(laps, got):
        (alone,) = linalg.laplacian_group_inverses([lap])
        assert x.shape == lap.shape
        assert x.tobytes() == alone.tobytes() == laplacian_group_inverse(lap).tobytes()


def test_stacked_members_are_the_lone_inverse_bit_for_bit():
    # One answer per matrix: on random mixes of orders 1-80, members on both
    # sides of SCHUR_LEAF_ORDER, every member of a stacked call is bit for
    # bit the lone call on the same matrix, whether its stack-mates share
    # its padded Cholesky loop or it is inverted on its own.
    rng = np.random.default_rng(31)
    for seed in range(6):
        orders = [int(n) for n in rng.integers(1, 81, size=int(rng.integers(2, 12)))]
        laps = _random_laplacians(seed, orders)
        for lap, x in zip(laps, linalg.laplacian_group_inverses(laps)):
            assert x.tobytes() == laplacian_group_inverse(lap).tobytes()
        mats = [_spd(rng, n) for n in orders]
        whats = ["member"] * len(mats)
        for a, x in zip(mats, linalg._sym_inverses(mats, whats)):
            assert x.tobytes() == sym_inverse(a).tobytes()


def test_every_cholesky_inverse_is_one_sym_inverses_call(monkeypatch):
    # One body behind every Cholesky inverse: each public inverse makes one
    # ``_sym_inverses`` call, the block {1}-inverse two (D, then the group
    # inverse of H).  A given stack inverted among matrices in one call
    # gives each item the bits it has alone, below and past the Schur split.
    rng = np.random.default_rng(41)
    stacks = [np.stack([_spd(rng, t) for _ in range(3)]) for t in (4, 70)]
    lap = laplacian(path_graph(6))
    eu, ev = np.array(complete_graph(20).edges).T
    assert len(linalg.GroundedFactor.of(20, eu, ev).tail) == 19
    calls = mock.Mock(wraps=linalg._sym_inverses)
    monkeypatch.setattr(linalg, "_sym_inverses", calls)
    for run, whats in (
        (lambda: sym_inverse(_spd(rng, 6)), [["matrix"]]),
        (lambda: sym_inverse(stacks[0], "crown block"), [["crown block"]]),
        (lambda: sym_inverse(stacks[1], "crown block"), [["crown block"]]),
        (lambda: linalg.GroundedFactor.of(20, eu, ev), [["grounded Laplacian block"]]),
        (lambda: shifted_rank_one_inverse(lap, 1.0, 2.0), [["L + aI"]]),
        (lambda: laplacian_group_inverse(lap), [["L + J/n of Laplacian 0 (order 6)"]]),
        (
            lambda: block_one_inverse(lap[:2, :2], lap[:2, 2:], lap[2:, 2:]),
            [["block D"], ["L + J/n of Laplacian 0 (order 2)"]],
        ),
    ):
        calls.reset_mock()
        run()
        assert [c.args[1] for c in calls.call_args_list] == whats
    mats = [stacks[0], _spd(rng, 5), stacks[1], _spd(rng, 3), _spd(rng, 70), np.zeros((0, 0))]
    mats = [0.5 * (a + np.swapaxes(a, -1, -2)) for a in mats]
    for a, x in zip(mats, linalg._sym_inverses(mats, ["item"] * len(mats))):
        assert x.shape == a.shape
        assert x.tobytes() == sym_inverse(a).tobytes()


def _one_member_recipe(lap):
    """A member's group inverse as a stacked call took it with each member checked on its own."""
    (a,) = linalg._as_symmetric([lap], ["Laplacian"])
    n = len(a)
    if n == 0:
        return a
    a += 1.0 / n
    if n <= linalg.SCHUR_LEAF_ORDER:
        w, pivots = linalg._bordered_rows(a[None])
        x, pivots = w[0].T @ w[0], pivots[0]
    else:
        x, pivots = linalg._spd_inverse(a)
    linalg._check_pivots(a, pivots, "L + J/n")
    x = 0.5 * (x + x.T)
    return linalg._refined(x, -(a @ x))


def test_stacked_group_inverses_checked_once_give_the_per_member_bits():
    # The members are checked over one padded stack, not one by one; on
    # mixed orders 0, 1, 64 and 65 among others every member is still bit
    # for bit the one-member recipe: its own checks, its own loop and tail.
    orders = [64, 3, 0, 65, 1, 17, 0, 64, 2, 65, 1]
    laps = _random_laplacians(9, orders)
    for lap, x in zip(laps, linalg.laplacian_group_inverses(laps)):
        want = _one_member_recipe(lap)
        assert x.shape == want.shape == lap.shape
        assert x.tobytes() == want.tobytes()


def test_stacked_group_inverses_name_the_lowest_bad_member():
    # Every member is checked for shape, finiteness and symmetry before any
    # row sum is; whichever stack a member is checked in, the error names
    # the lowest member that fails the first check any member fails.
    good = laplacian(path_graph(3))
    big = laplacian(path_graph(70))
    nan = good.copy()
    nan[0, 0] = np.nan
    inf = good.copy()
    inf[0, 1] = np.inf
    big_asymmetric = np.triu(big)
    for members, want in (
        ([good, np.ones((2, 3)), nan], "^Laplacian 1 must be square, got shape \\(2, 3\\)$"),
        ([good, nan, np.ones(3)], "^Laplacian 1 has non-finite entries$"),
        ([good, inf, np.triu(good)], "^Laplacian 1 has non-finite entries$"),
        ([np.triu(good), inf], "^Laplacian 0 is not symmetric$"),
        ([good, big_asymmetric, nan], "^Laplacian 1 is not symmetric$"),
        ([big, good + np.eye(3), big_asymmetric], "^Laplacian 2 is not symmetric$"),
        ([big, big + np.eye(70), good + np.eye(3)], "^Laplacian 1 rows must sum to zero$"),
    ):
        with pytest.raises(MatrixError, match=want):
            linalg.laplacian_group_inverses(members)


def test_group_inverses_reject_a_stack():
    # A group inverse deflates one matrix's null vector, so a (k, t, t)
    # stack is no Laplacian, whether k differs from t or not: it raises
    # MatrixError naming its position before anything is inverted, and the
    # lowest failing member is named as for any other check.
    lap = laplacian(path_graph(3))
    nan = lap.copy()
    nan[0, 0] = np.nan
    inverses = mock.Mock(wraps=linalg._sym_inverses)
    with mock.patch.object(linalg, "_sym_inverses", inverses):
        for k in (2, 3):
            stack = np.stack([lap] * k)
            want = f"must be a matrix, not a stack of shape \\({k}, 3, 3\\)$"
            with pytest.raises(MatrixError, match="^Laplacian 0 " + want):
                laplacian_group_inverse(stack)
            with pytest.raises(MatrixError, match="^Laplacian 1 " + want):
                linalg.laplacian_group_inverses([lap, stack, nan])
            with pytest.raises(MatrixError, match="^Laplacian 0 has non-finite entries$"):
                linalg.laplacian_group_inverses([nan, stack])
    assert inverses.call_count == 0


def test_stacked_group_inverses_of_no_members():
    assert linalg.laplacian_group_inverses([]) == []
    assert linalg.laplacian_group_inverses(()) == []


def test_stacked_group_inverses_fail_loudly_and_name_the_member():
    good = laplacian(path_graph(3))
    with pytest.raises(MatrixError, match="^Laplacian 1 rows must sum to zero$"):
        linalg.laplacian_group_inverses([good, laplacian(cycle_graph(4)) + np.eye(4)])
    with pytest.raises(MatrixError, match="^Laplacian 0 is not symmetric$"):
        linalg.laplacian_group_inverses([np.triu(good), good])
    disconnected = laplacian(Graph(4, ((0, 1), (2, 3))))
    for members, k, n in (
        ([good, complete_graph(5), disconnected], 2, 4),
        ([disconnected, good], 0, 4),
        ([good, laplacian(Graph(70, tuple((i, i + 1) for i in range(68))))], 1, 70),
    ):
        members = [laplacian(m) if isinstance(m, Graph) else m for m in members]
        want = f"^L \\+ J/n of Laplacian {k} \\(order {n}\\) is singular or not positive definite"
        with pytest.raises(SingularMatrixError, match=want):
            linalg.laplacian_group_inverses(members)


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


@pytest.mark.parametrize(
    "solver",
    [
        sym_inverse,
        laplacian_group_inverse,
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(solver, bad):
    with pytest.raises(MatrixError, match="non-finite"):
        solver(np.array([[bad, 1.0], [1.0, 2.0]]))


def _factor(g):
    eu, ev = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    return linalg.GroundedFactor.of(g.n, eu, ev), eu, ev


def _random_graph(rng, n, m):
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((u, v))
    return Graph(n, tuple(edges))


@pytest.mark.parametrize(
    "name, g, head, tail",
    [
        ("K1", Graph(1, ()), 0, 0),
        ("P2", path_graph(2), 1, 0),
        ("star", star_graph(12), 12, 0),
        ("cycle", cycle_graph(9), 8, 0),
        ("K5", complete_graph(5), 4, 0),
        ("K40", complete_graph(40), 0, 39),
        ("K40 with a tail", Graph(43, complete_graph(40).edges + ((39, 40), (40, 41), (41, 42))), 3, 39),
        ("sparse random", _random_graph(np.random.default_rng(3), 120, 150), 119, 0),
        ("dense random", _random_graph(np.random.default_rng(4), 70, 1400), None, None),
    ],
)
def test_grounded_factor_reads_the_group_inverse(name, g, head, tail):
    # Against numpy's pseudo-inverse: L# on the diagonal and the edges, its
    # trace, and its forms in any vectors (each centred inside gram).  The
    # head and tail sizes show which part of the factor ran.
    factor, eu, ev = _factor(g)
    if head is not None:
        assert (len(factor.head), len(factor.tail)) == (head, tail), name
    assert len(factor.head) + len(factor.tail) == g.n - 1
    want = np.linalg.pinv(laplacian(g))
    scale = max(1.0, max_abs(want))
    assert max_abs(factor.diagonal - np.diag(want)) <= 1e-12 * scale
    assert max_abs(factor.cells(eu, ev) - want[eu, ev]) <= 1e-12 * scale
    assert max_abs(factor.cells(eu[::-1], eu[::-1]) - np.diag(want)[eu[::-1]]) <= 1e-12 * scale
    assert abs(factor.trace - np.trace(want)) <= 1e-12 * max(1.0, np.trace(want))
    vectors = np.random.default_rng(5).standard_normal((3, g.n))
    forms = factor.gram(vectors)
    assert max_abs(forms - vectors @ want @ vectors.T) <= 1e-11 * scale * max(1.0, max_abs(forms))


def test_grounded_factor_pivots_leaves_first_then_by_degree_and_id():
    # A path is all leaves: each pivot is exactly 1, and the last vertex
    # left is the ground.  A cycle has none: the lowest id goes first.
    factor, _, _ = _factor(path_graph(6))
    assert factor.pivots == [1.0] * 5 and factor.ground not in factor.head
    factor, _, _ = _factor(cycle_graph(5))
    assert factor.head[0] == 0 and factor.pivots[0] == 2.0


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, ((0, 1), (2, 3))),
        Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4))),
        Graph(80, complete_graph(40).edges + tuple((40 + u, 40 + v) for u, v in complete_graph(40).edges)),
    ],
)
def test_grounded_factor_of_a_disconnected_graph_raises(g):
    # A component eliminated down to its last vertex leaves a zero pivot;
    # two cliques wider than DENSE_FRONT make a singular dense block.
    with pytest.raises(SingularMatrixError):
        _factor(g)


def test_grounded_factor_needs_a_vertex():
    with pytest.raises(MatrixError, match="at least one vertex"):
        linalg.GroundedFactor.of(0, [], [])
