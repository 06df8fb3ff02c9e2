"""Closed-form blocks, dispatch, and Kirchhoff formulas against the oracle."""

import contextlib
import dataclasses
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import coronakit
from coronakit import closed_form as cf
from coronakit import linalg, resistance
from coronakit.corona import build
from coronakit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    incidence,
    laplacian,
    path_graph,
    star_graph,
)
from coronakit.linalg import max_abs, verify_one_inverse
from coronakit.resistance import (
    DisconnectedGraphError,
    kirchhoff_index,
    resistance_matrix,
    resistances_from_inverse,
)
from coronakit.suite import INSTANCE_TOLERANCES, random_connected_graph, random_crowns

K1 = Graph(1, ())
K2 = complete_graph(2)
PAIR_TOL = 1e-8


def _shifted_totals(blocks):
    """Per crown, tr and 1^T . 1 of the shifted block the R-edge terms are defined on: G_k + J/2."""
    traces, ones = blocks.crowns.totals
    t = np.array(blocks.crowns.sizes, dtype=float)
    return traces + 0.5 * t, ones + 0.5 * t * t


def pendant_pair_example():
    """K2 with one pendant crown vertex on each host: 5 vertices, 5 edges."""
    return K2, (K1, K1)


def test_worked_example_resistances():
    g, crowns = pendant_pair_example()
    r = cf.rv_resistance_matrix(g, crowns)
    # vertex ids: 0,1 original; 2 edge-vertex; 3,4 pendant crown vertices
    assert r[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert r[0, 4] == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert r[3, 4] == pytest.approx(8.0 / 3.0, abs=1e-12)
    oracle = resistance_matrix(build("r_vertex", g, crowns).graph)
    npt.assert_allclose(r, oracle, atol=1e-12)


def test_worked_example_kirchhoff():
    g, crowns = pendant_pair_example()
    breakdown = cf.rv_kirchhoff_terms(g, crowns)
    assert breakdown.value == pytest.approx(40.0 / 3.0, abs=1e-9)
    assert breakdown.expanded == pytest.approx(40.0 / 3.0, abs=1e-9)
    assert breakdown.deviation <= 1e-9
    oracle = kirchhoff_index(build("r_vertex", g, crowns).graph)
    assert breakdown.value == pytest.approx(oracle, abs=1e-9)


def test_edge_corona_crown_pair_resistance():
    # two isolated crown vertices on the single edge of K2: their resistance
    # is exactly 2 (two disjoint 2-ohm paths through the anchor... it is the
    # series pair of unit edges meeting at the anchor).
    g = K2
    crowns = (Graph(2, ()),)
    built = build("r_edge", g, crowns)
    r = cf.re_resistance_matrix(g, crowns)
    a, b = built.partition.crowns[0]
    assert r[a, b] == pytest.approx(2.0, abs=1e-12)
    npt.assert_allclose(r, resistance_matrix(built.graph), atol=1e-10)


def test_one_inverse_on_named_instances():
    named = [
        ("r_vertex", K2, (K1, K1)),
        ("r_vertex", path_graph(3), (complete_graph(2), K1, empty_graph(0))),
        ("r_vertex", complete_graph(3), (empty_graph(0),) * 3),
        ("r_edge", K2, (Graph(2, ()),)),
        ("r_edge", path_graph(3), (complete_graph(2), empty_graph(0))),
        ("r_edge", cycle_graph(4), (K1, empty_graph(0), Graph(3, ((0, 1),)), K1)),
    ]
    for kind, g, crowns in named:
        if kind == "r_vertex":
            x = cf.one_inverse(cf.rv_blocks(g, crowns))
            built = build("r_vertex", g, crowns)
        else:
            x = cf.one_inverse(cf.re_blocks(g, crowns))
            built = build("r_edge", g, crowns)
        lap = laplacian(built.graph)
        assert verify_one_inverse(lap, x) <= 1e-10 * max(1.0, max_abs(lap))
        npt.assert_allclose(x, x.T, atol=1e-12)


def _host_excess(blocks):
    """t_k - 1^T G_k 1 on each crown's anchor, 0 on every other skeleton vertex.

    Eliminating crown k leaves this term on its anchor's diagonal, so on the
    original vertices it is the Schur complement's distance from (3/2) L(G),
    on the edge-vertices the edge block's distance from 2I.
    """
    g = blocks.base
    excess = np.zeros(g.n + g.m)
    excess[blocks.hosts] = np.asarray(blocks.crowns.sizes, dtype=float) - blocks.crowns.totals[1]
    return excess


def test_internal_identities():
    g = path_graph(4)
    crowns_v = (K1, Graph(2, ((0, 1),)), empty_graph(0), Graph(3, ()))
    blocks_v = cf.rv_blocks(g, crowns_v)
    assert max_abs(_host_excess(blocks_v)[: g.n]) <= 1e-12
    # the Schur complement of the non-original block, formed on the corona
    lap = laplacian(build("r_vertex", g, crowns_v).graph)
    a, c, rest = lap[: g.n, : g.n], lap[: g.n, g.n :], lap[g.n :, g.n :]
    schur = a - c @ np.linalg.solve(rest, c.T)
    npt.assert_allclose(schur, 1.5 * laplacian(g), atol=1e-12)

    crowns_e = (Graph(2, ()), K1, Graph(3, ((0, 1), (1, 2))))
    blocks_e = cf.re_blocks(g, crowns_e)
    assert max_abs(_host_excess(blocks_e)[: g.n]) <= 1e-12
    assert max_abs(_host_excess(blocks_e)[g.n :]) <= 1e-12


def _off_in_one_entry(invert, by=1e-6):
    """Wrap a crown-stack inverse so its first entry comes back ``by`` off."""

    def wrapped(*args, **kwargs):
        inv = invert(*args, **kwargs).copy()
        inv[0, 0, 0] += by
        return inv

    return wrapped


def test_crown_inverse_error_trips_the_identity_checks():
    # Both kinds invert their crowns through the same kernel, and the one
    # crown check, in CrownSet.of, names the crown whose G 1 = 1 fails.
    g = path_graph(3)
    crowns = (complete_graph(2), K1, empty_graph(0))
    for blocks, some in ((cf.rv_blocks, crowns), (cf.re_blocks, crowns[:2])):
        with mock.patch.object(cf, "sym_inverse", _off_in_one_entry(cf.sym_inverse)):
            with pytest.raises(linalg.MatrixError, match=r"^crown 0 \(order 2\): .* exceeds 1\.000e-12$"):
                blocks(g, some)


def test_crown_identity_bound_is_1e_12_up_to_order_10():
    # The bound grows only with a crown's own roundoff, 4 eps t^2 (t + 1),
    # which stays under the 1e-12 floor through order 10: an order-3 crown
    # whose inverse is 2e-12 off in one entry still raises.
    with mock.patch.object(cf, "sym_inverse", _off_in_one_entry(cf.sym_inverse, 2e-12)):
        with pytest.raises(linalg.MatrixError, match=r"^crown 0 \(order 3\): .* exceeds 1\.000e-12$"):
            cf.CrownSet.of((path_graph(3),))
    assert 4.0 * np.finfo(float).eps * 10**2 * 11 < cf.IDENTITY_TOL


def test_a_part_checks_nothing_and_the_blocks_raise_no_defect():
    # The crown identity is checked once, when a set is built: a part reads
    # the set's totals as they are, and the blocks take them without
    # raising, so a forged total reaches the complement it would spoil.
    crowns = cf.CrownSet.of((complete_graph(2), path_graph(3)))
    traces, ones = crowns.totals
    forged = cf.CrownSet(crowns.graphs, crowns.stacks, (traces, ones + np.array([0.0, 1e-3])))
    sym = mock.Mock(wraps=linalg.sym_inverse)
    with mock.patch.object(cf, "sym_inverse", sym):
        edge = cf.re_blocks(K2, forged.part(1, 2))
        vertex = cf.rv_blocks(K2, forged.part(0, 2))
    assert sym.call_count == 0
    assert max_abs(_host_excess(edge)[K2.n :]) == pytest.approx(1e-3, rel=1e-9)
    assert max_abs(_host_excess(vertex)[: K2.n]) == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("t", [65, 80, 100, 128])
@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_dense_crowns_past_the_schur_split_get_an_answer(kind, t):
    # 1^T G 1 sums t^2 computed entries, so its roundoff passes 1e-12 past
    # order 64; the crown check's bound grows with it, and the closed route
    # answers within the suite's bounds.  R-vertex over P_2 with K_t on
    # vertex 0, R-edge over K_2.
    g, crowns = (
        (path_graph(2), (complete_graph(t), empty_graph(0)))
        if kind == "r_vertex"
        else (K2, (complete_graph(t),))
    )
    blocks = cf._blocks(kind, g, crowns)
    built = build(kind, g, crowns).graph
    breakdown = cf.kirchhoff_terms(blocks)
    oracle = kirchhoff_index(built)
    assert abs(breakdown.value - oracle) <= INSTANCE_TOLERANCES["kf_rel_err"] * max(1.0, oracle)
    worst = max_abs(cf.resistance_map(blocks) - resistance_matrix(built))
    assert worst <= INSTANCE_TOLERANCES["pair_dispatch_max"]
    # L(K_t) has 0 once and t with multiplicity t - 1.
    exact = 1.0 + (t - 1) / (t + 1) + (t / 2.0 if kind == "r_edge" else 0.0)
    assert breakdown.terms["trace_crown_eigen"] == pytest.approx(exact, rel=1e-11)


def test_crown_block_spectral_traces():
    # tr of each vertex-corona crown block inverse is the sum of 1/(mu+1)
    # over that crown's Laplacian spectrum; the edge-corona variant adds
    # t/2 because the rank-one shift moves the all-ones eigenvalue from 1
    # to 2/(2+t), and 1/(2/(2+t)) - 1/1 = t/2.
    crowns = (Graph(2, ()), Graph(3, ((0, 1), (0, 2))), K1)
    g = complete_graph(3)
    blocks_v = cf.rv_blocks(g, crowns)
    want = sum(blocks_v.crowns.eigen_sums)
    assert blocks_v.crowns.totals[0].sum() == pytest.approx(want, abs=1e-10)

    blocks_e = cf.re_blocks(g, crowns)
    traces, ones = _shifted_totals(blocks_e)
    want_e = sum(blocks_e.crowns.eigen_sums + [c.n / 2.0 for c in crowns])
    assert traces.sum() == pytest.approx(want_e, abs=1e-10)

    # all-ones quadratic form of each shifted crown inverse is t(2+t)/2
    for c, total in zip(crowns, ones):
        assert total == pytest.approx(c.n * (2.0 + c.n) / 2.0, abs=1e-10)


def test_empty_crown_trace_needs_the_shift():
    # two isolated crown vertices: bare spectral sum gives 2, the true
    # trace of the shifted inverse is 3.
    crown = Graph(2, ())
    blocks = cf.re_blocks(K2, (crown,))
    assert _shifted_totals(blocks)[0].sum() == pytest.approx(3.0, abs=1e-12)
    assert blocks.crowns.eigen_sums[0] == pytest.approx(2.0, abs=1e-12)


def test_dispatch_matches_oracle_on_structured_instances():
    instances = [
        ("r_vertex", path_graph(3), (complete_graph(2), K1, empty_graph(0))),
        ("r_vertex", star_graph(3), (K1, empty_graph(0), Graph(2, ()), K1)),
        ("r_vertex", cycle_graph(4), (Graph(3, ((0, 1),)), empty_graph(0), K1, Graph(2, ()))),
        ("r_edge", path_graph(3), (complete_graph(2), empty_graph(0))),
        ("r_edge", complete_graph(3), (Graph(2, ()), K1, Graph(3, ((0, 1), (1, 2))))),
        ("r_edge", star_graph(4), (K1, K1, empty_graph(0), Graph(2, ()))),
    ]
    for kind, g, crowns in instances:
        if kind == "r_vertex":
            closed = cf.rv_resistance_matrix(g, crowns)
            built = build("r_vertex", g, crowns)
        else:
            closed = cf.re_resistance_matrix(g, crowns)
            built = build("r_edge", g, crowns)
        oracle = resistance_matrix(built.graph)
        assert max_abs(closed - oracle) <= PAIR_TOL


def test_dispatch_matches_one_inverse_readout():
    g = path_graph(3)
    crowns = (Graph(2, ((0, 1),)), K1, empty_graph(0))
    x = cf.one_inverse(cf.rv_blocks(g, crowns))
    r = cf.rv_resistance_matrix(g, crowns)
    readout = resistances_from_inverse(x)
    total = r.shape[0]
    for u in range(total):
        for v in range(total):
            assert readout[u, v] == pytest.approx(r[u, v], abs=1e-10)


def test_single_pair_entry_points():
    g, crowns = pendant_pair_example()
    assert cf.rv_resistance_matrix(g, crowns)[3, 4] == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert cf.rv_resistance_matrix(g, crowns)[2, 2] == 0.0
    ge, crowns_e = K2, (Graph(2, ()),)
    built = build("r_edge", ge, crowns_e)
    a, b = built.partition.crowns[0]
    assert cf.re_resistance_matrix(ge, crowns_e)[a, b] == pytest.approx(2.0, abs=1e-12)


def _skeleton_gathers():
    """A wrapper of ``_skeleton_block`` and the list of how many skeleton vertices each call read."""
    sizes = []
    real = cf._skeleton_block

    def gather(blocks, at):
        sizes.append(len(at))
        return real(blocks, at)

    return mock.patch.object(cf, "_skeleton_block", gather), sizes


def _crown_cell_reads():
    """A wrapper of ``_crown_cells`` and the list of how many crown cells each call read."""
    sizes = []
    real = cf._crown_cells

    def read(blocks, c, d):
        sizes.append(len(c))
        return real(blocks, c, d)

    return mock.patch.object(cf, "_crown_cells", read), sizes


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_pair_resistance_is_the_map_cell_bit_for_bit(kind):
    # Pairs within one crown, across two crowns, between skeleton vertices,
    # from a crown to its own anchor, and u == v, over the crown zoo and
    # random coronas with crowns of orders 0-4.  Every cell is read with the
    # skeleton gather and the crown-cell gather watched, so a pair reads at
    # most two skeleton vertices and four crown cells.
    prefix = "rv" if kind == "r_vertex" else "re"
    make_blocks = getattr(cf, f"{prefix}_blocks")
    rng = random.Random(29)
    hosts = (lambda g: g.n) if kind == "r_vertex" else (lambda g: g.m)
    cases = [(g, crowns, None) for p, g, crowns in _crown_zoo_instances() if p == prefix]
    for _ in range(4):
        g = random_connected_graph(rng, 3, 6)
        cases.append((g, random_crowns(rng, hosts(g), 4), None))
    # On a larger base the grouping of the edge-block sums shows in the
    # last bit; there every pair of skeleton vertices is read.
    g = random_connected_graph(rng, 30, 30)
    cases.append((g, random_crowns(rng, hosts(g), 2), g.n + g.m))
    for g, crowns, span in cases:
        r = cf.resistance_map(make_blocks(g, crowns))[:span, :span]
        blocks = make_blocks(g, crowns)
        watch, gathered = _skeleton_gathers()
        watch_crowns, read = _crown_cell_reads()
        with watch, watch_crowns:
            cells = [cf.pair_resistance(blocks, u, v).hex() for u, v in np.ndindex(r.shape)]
        assert cells == [float(x).hex() for x in r.reshape(-1)]
        assert len(gathered) == r.size and max(gathered) <= 2
        assert len(read) == r.size and max(read) <= 4


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_pair_resistance_rejects_vertices_out_of_range(kind):
    g = cycle_graph(4)
    crowns = (K2, K1, empty_graph(0), empty_graph(0))
    blocks = getattr(cf, f"{kind}_blocks")(g, crowns)
    total = len(cf.resistance_map(blocks))
    assert cf.pair_resistance(blocks, total - 1, 0) > 0.0
    for u, v in ((-1, 0), (0, -1), (-total, 1), (total, 0), (0, total), (total + 5, -7)):
        bad = u if not 0 <= u < total else v
        with pytest.raises(IndexError, match=f"vertex {bad} .* {total} vertices"):
            cf.pair_resistance(blocks, u, v)


def test_original_pairs_scale_base_resistance_by_two_thirds():
    # the original-corner combination is crown-independent: whatever hangs
    # off the skeleton, two original vertices sit at 2/3 of their base-graph
    # resistance.
    rng = random.Random(123)
    for _ in range(5):
        g = random_connected_graph(rng, 2, 5)
        r_base = resistance_matrix(g)
        crowns_v = random_crowns(rng, g.n, 3)
        r_v = cf.rv_resistance_matrix(g, crowns_v)
        npt.assert_allclose(r_v[: g.n, : g.n], (2.0 / 3.0) * r_base, atol=PAIR_TOL)
        crowns_e = random_crowns(rng, g.m, 3)
        r_e = cf.re_resistance_matrix(g, crowns_e)
        npt.assert_allclose(r_e[: g.n, : g.n], (2.0 / 3.0) * r_base, atol=PAIR_TOL)


def test_all_empty_crowns_reduce_to_skeleton():
    for g in (path_graph(4), complete_graph(3), star_graph(3)):
        crowns_v = tuple(empty_graph(0) for _ in range(g.n))
        crowns_e = tuple(empty_graph(0) for _ in range(g.m))
        built = build("r_vertex", g, crowns_v)
        oracle = resistance_matrix(built.graph)
        npt.assert_allclose(cf.rv_resistance_matrix(g, crowns_v), oracle, atol=PAIR_TOL)
        npt.assert_allclose(cf.re_resistance_matrix(g, crowns_e), oracle, atol=PAIR_TOL)


def test_kirchhoff_three_way_agreement_random():
    rng = random.Random(321)
    for _ in range(8):
        g = random_connected_graph(rng, 2, 5)
        crowns_v = random_crowns(rng, g.n, 3)
        breakdown = cf.rv_kirchhoff_terms(g, crowns_v)
        oracle = kirchhoff_index(build("r_vertex", g, crowns_v).graph)
        assert breakdown.value == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        assert breakdown.deviation <= 1e-9

        crowns_e = random_crowns(rng, g.m, 3)
        breakdown_e = cf.re_kirchhoff_terms(g, crowns_e)
        oracle_e = kirchhoff_index(build("r_edge", g, crowns_e).graph)
        assert breakdown_e.value == pytest.approx(oracle_e, rel=1e-9, abs=1e-9)
        assert breakdown_e.deviation <= 1e-9


def test_kirchhoff_term_names_are_stable():
    g, crowns = pendant_pair_example()
    terms = cf.rv_kirchhoff_terms(g, crowns).terms
    assert set(terms) == {
        "trace_base",
        "trace_edge_const",
        "trace_degree",
        "trace_tree_const",
        "trace_crown_eigen",
        "trace_crown_host",
        "ones_edge_const",
        "ones_degree_quad",
        "ones_degree_crown",
        "ones_crown_count",
        "ones_crown_quad",
    }
    terms_e = cf.re_kirchhoff_terms(K2, (Graph(2, ()),)).terms
    assert set(terms_e) == {
        "trace_base",
        "trace_edge_const",
        "trace_degree",
        "trace_tree_const",
        "trace_crown_eigen",
        "trace_crown_edge",
        "ones_edge_const",
        "ones_degree_quad",
        "ones_degree_crown",
        "ones_crown_count",
        "ones_crown_shift",
        "ones_crown_quad",
    }


def _incidence_reference(blocks):
    """The skeleton corner and every Kirchhoff term, by matmuls with the incidence matrix.

    B is the dense incidence matrix of the base and U the anchor columns:
    I_n for R-vertex, B/2 for R-edge.  The arithmetic otherwise follows
    ``kirchhoff_terms`` term for term.
    """
    g, ls = blocks.base, blocks.l_sharp
    n, m = g.n, g.m
    b = incidence(g)
    lb = ls @ b
    # Filled block by block in place: at K_80's m = 3160 each (m, m)
    # temporary is 80 MB.
    skeleton = np.empty((n + m, n + m))
    skeleton[:n, :n] = (2.0 / 3.0) * ls
    skeleton[:n, n:] = lb / 3.0
    skeleton[n:, :n] = lb.T / 3.0
    btlb = b.T @ lb
    corner = skeleton[n:, n:]
    np.add(btlb, btlb.T, out=corner)
    del btlb
    corner /= 12.0
    corner[np.diag_indices(m)] += 0.5
    edge = blocks.kind == "r_edge"
    u = 0.5 * b if edge else np.eye(n)
    pi = g.degrees().astype(float)
    tau = np.array(blocks.crowns.sizes, dtype=float)
    u_tau = u @ tau
    pi_c, u_tau_c = pi - pi.mean(), u_tau - u_tau.mean()
    shift = 0.5 if edge else 0.0
    sums = blocks.crowns.eigen_sums
    terms = {
        "trace_base": (2.0 / 3.0) * float(np.trace(ls)),
        "trace_edge_const": m / 2.0,
        "trace_degree": (1.0 / 3.0) * float(pi @ np.diag(ls)),
        "trace_tree_const": -(n - 1) / 6.0,
        "trace_crown_eigen": sum(float(v) + shift * t for v, t in zip(sums, blocks.crowns.sizes)),
        # diag(U^T Lg U), one column sum per host
        ("trace_crown_edge" if edge else "trace_crown_host"): (2.0 / 3.0)
        * float(tau @ (u * (ls @ u)).sum(axis=0)),
        "ones_edge_const": m / 2.0,
        "ones_degree_quad": (1.0 / 6.0) * float(pi_c @ ls @ pi_c),
        "ones_degree_crown": (2.0 / 3.0) * float(pi_c @ ls @ u_tau_c),
        "ones_crown_count": float(sum(blocks.crowns.sizes)),
        "ones_crown_quad": (2.0 / 3.0) * float(u_tau_c @ ls @ u_tau_c),
    }
    if edge:
        terms["ones_crown_shift"] = 0.5 * float(np.sum(tau * (2.0 + tau)))
    return skeleton, terms


def test_edge_list_gathers_match_the_incidence_matrix():
    # The closed route reads B only through the base edge list.  Random
    # bases, a star, a tree and K1 (no edges at all) against the dense
    # matmuls, which read the dense L# handed to the one base side both
    # kinds share; the Kirchhoff terms read the side's sparse factor, so
    # they agree to roundoff, not bit for bit.
    rng = random.Random(1313)
    tree = Graph(8, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (0, 7)))
    bases = [random_connected_graph(rng, 2, 9) for _ in range(6)] + [star_graph(7), tree, K1]
    for g in bases:
        side = cf.BaseSide.of(g, linalg.laplacian_group_inverse(laplacian(g)))
        for kind, hosts in (("r_vertex", g.n), ("r_edge", g.m)):
            blocks = cf._blocks(kind, side, random_crowns(rng, hosts, 3))
            skeleton, want = _incidence_reference(blocks)
            scale = max(1.0, max_abs(blocks.l_sharp))
            nm = len(skeleton)
            assert max_abs(cf.one_inverse(blocks)[:nm, :nm] - skeleton) <= 1e-13 * scale
            got = cf.kirchhoff_terms(blocks).terms
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert abs(got[name] - value) <= 1e-13 * max(1.0, abs(value)), name


def _skeleton_corner(ls, eu, ev):
    """The R-graph skeleton's corner, block by block, with slices and edge-endpoint gathers.

    (2/3) Lg, (1/3) Lg B, (1/2)I + (1/6) B^T Lg B; column k of B is 1 at
    rows eu[k] and ev[k], so each product is a gather.
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


def test_skeleton_gather_is_the_blockwise_corner_bit_for_bit():
    # One gather through the pairs each skeleton vertex joins scales every
    # block by 1/6: an original vertex's column is 2e_i, so the factors 4
    # and 2 it brings are powers of two and 1/6 times them rounds as 2/3
    # and 1/3 do.  Random bases up to n = 30, a star, a tree and K1.
    rng = random.Random(1616)
    tree = Graph(8, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (0, 7)))
    bases = [random_connected_graph(rng, 2, 30) for _ in range(12)] + [star_graph(9), tree, K1]
    for g in bases:
        for kind, hosts in (("r_vertex", g.n), ("r_edge", g.m)):
            blocks = cf._blocks(kind, g, random_crowns(rng, hosts, 3))
            eu, ev = (e[g.n :] for e in blocks.ends)
            want = _skeleton_corner(blocks.l_sharp, eu, ev)
            got = cf._skeleton_block(blocks, np.arange(g.n + g.m))
            assert got.shape == want.shape
            assert (got.view(np.int64) == want.view(np.int64)).all()


def test_random_sweep_both_kinds():
    rng = random.Random(777)
    for _ in range(10):
        g = random_connected_graph(rng, 2, 5, m_max=8)
        crowns_v = random_crowns(rng, g.n, 3)
        built_v = build("r_vertex", g, crowns_v)
        x_v = cf.one_inverse(cf.rv_blocks(g, crowns_v))
        lap_v = laplacian(built_v.graph)
        assert verify_one_inverse(lap_v, x_v) <= PAIR_TOL * max(1.0, max_abs(lap_v))
        assert (
            max_abs(cf.rv_resistance_matrix(g, crowns_v) - resistance_matrix(built_v.graph))
            <= PAIR_TOL
        )

        crowns_e = random_crowns(rng, g.m, 3)
        built_e = build("r_edge", g, crowns_e)
        x_e = cf.one_inverse(cf.re_blocks(g, crowns_e))
        lap_e = laplacian(built_e.graph)
        assert verify_one_inverse(lap_e, x_e) <= PAIR_TOL * max(1.0, max_abs(lap_e))
        assert (
            max_abs(cf.re_resistance_matrix(g, crowns_e) - resistance_matrix(built_e.graph))
            <= PAIR_TOL
        )


def test_input_validation():
    disconnected = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraphError):
        cf.rv_blocks(disconnected, (empty_graph(0),) * 4)
    with pytest.raises(ValueError, match="crowns"):
        cf.rv_blocks(path_graph(3), (K1,))
    with pytest.raises(ValueError, match="crowns"):
        cf.re_blocks(path_graph(3), (K1,) * 3)
    with pytest.raises(ValueError):
        cf.rv_blocks(empty_graph(0), ())


def test_base_side_checks_its_base_and_takes_each_inverse_once():
    # A base side rejects a handed-in L# of any shape but (n, n), as the
    # blocks did.  Handed none, it takes the dense L# and the sparse factor
    # each once, on first read, whichever blocks read them.
    g = path_graph(4)
    for shape in ((5, 5), (4, 3), (4,), (3, 4, 4)):
        with pytest.raises(ValueError, match=r"^l_sharp must have shape \(4, 4\), got "):
            cf.BaseSide.of(g, np.zeros(shape))
    with pytest.raises(DisconnectedGraphError):
        cf.BaseSide.of(Graph(4, ((0, 1), (2, 3))), np.zeros((4, 4)))
    dense = mock.Mock(wraps=cf.laplacian_group_inverse)
    sparse = mock.Mock(wraps=linalg.GroundedFactor.of)
    with (
        mock.patch.object(cf, "laplacian_group_inverse", dense),
        mock.patch.object(linalg.GroundedFactor, "of", sparse),
    ):
        side = cf.BaseSide.of(g)
        assert dense.call_count == sparse.call_count == 0
        for make_blocks, hosts in ((cf.rv_blocks, g.n), (cf.re_blocks, g.m)):
            blocks = make_blocks(side, (K1,) * hosts)
            cf.resistance_map(blocks)
            cf.kirchhoff_terms(blocks)
            assert blocks.base is g and blocks.l_sharp is side.l_sharp
    assert dense.call_count == sparse.call_count == 1


def _crown_zoo_instances():
    """Both kinds over a triangle, crowns empty, disconnected and complete."""
    crowns = (empty_graph(0), Graph(3, ((0, 1),)), complete_graph(4))
    g = complete_graph(3)
    return [("rv", g, crowns), ("re", g, crowns)]


def test_closed_route_never_calls_the_oracle():
    oracle_called = AssertionError("the closed route called the oracle")
    with (
        mock.patch.object(resistance, "resistance_matrix", side_effect=oracle_called),
        mock.patch.object(resistance, "kirchhoff_index", side_effect=oracle_called),
    ):
        for prefix, g, crowns in _crown_zoo_instances():
            for name in ("resistance_matrix", "kirchhoff_terms"):
                getattr(cf, f"{prefix}_{name}")(g, crowns)
            blocks = getattr(cf, f"{prefix}_blocks")(g, crowns)
            cf.one_inverse(blocks)
            cf.resistance_map(blocks)
            cf.kirchhoff_terms(blocks)


def test_closed_route_inverts_without_the_eigensolver():
    # Every inverse of the closed route is a Cholesky solve; only the
    # Kirchhoff expansion's crown spectra (_crown_eigen_sums) reach the
    # package's one spectral kernel, the tridiagonal _spectral_sums.
    g = cycle_graph(4)
    crowns = (complete_graph(2), Graph(3, ((0, 1),)), empty_graph(0), Graph(2, ()))
    eig_called = AssertionError("the closed route called the eigensolver")
    bindings = [
        (module, name)
        for module in vars(coronakit).values()
        if getattr(module, "__name__", "").startswith("coronakit.")
        for name, obj in vars(module).items()
        if obj is linalg._spectral_sums
    ]
    assert (cf, "_spectral_sums") in bindings

    def spectral_sums(crown_set):
        return np.array(
            [float(np.sum(1.0 / (np.linalg.eigvalsh(laplacian(c)) + 1.0))) for c in crowns]
        )

    for kind, corona_kind in (("rv", "r_vertex"), ("re", "r_edge")):
        with contextlib.ExitStack() as patches:
            for module, name in bindings:
                patches.enter_context(mock.patch.object(module, name, side_effect=eig_called))
            blocks = getattr(cf, f"{kind}_blocks")(g, crowns)
            x = cf.one_inverse(blocks)
            r = cf.resistance_map(blocks)
            with pytest.raises(AssertionError, match="eigensolver"):
                cf.kirchhoff_terms(blocks)
            with mock.patch.object(cf, "_crown_eigen_sums", side_effect=spectral_sums):
                breakdown = cf.kirchhoff_terms(blocks)
        built = build(corona_kind, g, crowns)
        lap = laplacian(built.graph)
        assert verify_one_inverse(lap, x) <= 1e-10 * max(1.0, max_abs(lap))
        assert max_abs(r - resistance_matrix(built.graph)) <= PAIR_TOL
        assert breakdown.deviation <= 1e-9


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_each_crown_laplacian_is_built_once(kind):
    # The blocks hold the per-order Laplacian stacks, each built in one
    # scatter over its crowns' edges; the crown inverses and the Kirchhoff
    # expansion's crown spectra both read them.  The base enters through
    # the sparse factor, built from its edge list, so a closed Kirchhoff
    # evaluation calls ``laplacian`` for nothing at all.
    g = cycle_graph(4)
    crowns = (complete_graph(2), Graph(3, ((0, 1),)), empty_graph(0), path_graph(2))
    lap = mock.Mock(wraps=laplacian)
    with mock.patch.object(cf, "laplacian", lap):
        breakdown = cf.kirchhoff_terms(getattr(cf, f"{kind}_blocks")(g, crowns))
    assert breakdown.deviation <= 1e-9
    assert lap.call_count == 0


def test_crown_laplacian_stacks_are_laplacian_bit_for_bit():
    # Orders 1-9 mixed in one corona, edgeless and disconnected crowns
    # among them: every stack member's leading t x t block is
    # laplacian(crown), signed zeros included, and each band's stack holds
    # the crowns of orders o - 3 to o.
    rng = random.Random(17)
    crowns = [empty_graph(0)]
    for t in range(1, 10):
        pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
        sampled = Graph(t, tuple(e for e in pairs if rng.random() < 0.5))
        crowns += [Graph(t, ()), complete_graph(t), path_graph(t), sampled, empty_graph(0)]
    rng.shuffle(crowns)
    crowns = tuple(crowns)
    seen = []
    layouts = []
    for members, laps, _ in cf.CrownSet.of(crowns).stacks:
        o = laps.shape[-1]
        assert laps.shape == (len(members), o, o)
        assert {crowns[i].n for i in members} <= {o - 3, o - 2, o - 1, o}
        for i, lap in zip(members, laps):
            t = crowns[i].n
            want = laplacian(crowns[i])
            assert np.ascontiguousarray(lap[:t, :t]).tobytes() == want.tobytes()
        seen += members.tolist()
        layouts.append(o)
    assert layouts == [4, 8, 12]
    assert sorted(seen) == [i for i, c in enumerate(crowns) if c.n]


def test_layout_stacks_hold_each_crown_in_its_leading_block():
    # Orders 1-13 (bands 4-16): edgeless, complete, path, disconnected and
    # random crowns.  Each member's leading t x t blocks are laplacian(H)
    # and the inverse of L(H) + I, bit for bit for orders up to 9 and 12,
    # and the per-crown totals and crown-cell gather read them.  Orders 10,
    # 11 and 13 are inverted by BLAS products at the padded order 12 or 16,
    # which may round in another order: a few ulps.  (The crowns were always
    # inverted as stacks; a lone matrix runs the 1-D body, which agrees with
    # a stack to roundoff only.)
    rng = random.Random(29)
    crowns = [empty_graph(0)]
    for t in range(1, 14):
        pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
        split = Graph(t, tuple((u, u + 1) for u in range(t - 1) if u + 1 != t // 2))
        for _ in range(3):
            crowns.append(Graph(t, tuple(e for e in pairs if rng.random() < 0.5)))
        crowns += [Graph(t, ()), complete_graph(t), path_graph(t), split]
    rng.shuffle(crowns)
    crowns = tuple(crowns)
    blocks = cf.rv_blocks(path_graph(len(crowns)), crowns)
    traces, ones = blocks.crowns.totals
    offsets = np.cumsum(blocks.crowns.sizes) - blocks.crowns.sizes
    for members, laps, inv in blocks.crowns.stacks:
        o = laps.shape[-1]
        for k, i in enumerate(members):
            t = crowns[i].n
            lap = laplacian(crowns[i])
            want = linalg.sym_inverse((lap + np.eye(t))[None], "crown block")[0]
            got = np.ascontiguousarray(inv[k, :t, :t])
            assert np.ascontiguousarray(laps[k, :t, :t]).tobytes() == lap.tobytes()
            if t <= 9 or t == 12:
                assert got.tobytes() == want.tobytes(), t
                assert (traces[i], ones[i]) == (np.trace(want), want.sum())
            else:
                assert max_abs(got - want) <= 4 * np.spacing(max_abs(want)), t
            rows, cols = (offsets[i] + a.reshape(-1) for a in np.indices((t, t)))
            assert cf._crown_cells(blocks.crowns, rows, cols).tobytes() == got.tobytes()
            # Each pad is exact: +0.0 in the Laplacian, the identity in the inverse.
            for p in range(t, o):
                assert laps[k, p].tobytes() == laps[k, :, p].tobytes() == np.zeros(o).tobytes()
                unit = np.zeros(o)
                unit[p] = 1.0
                assert inv[k, p].tobytes() == inv[k, :, p].tobytes() == unit.tobytes()
    assert [laps.shape[-1] for _, laps, _ in blocks.crowns.stacks] == [4, 8, 12, 16]


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_one_inverse_crown_corner_is_the_layout_stacks_bit_for_bit(kind):
    # Crowns of orders 0-7, so orders 1-3 and 5-7 sit padded in their bands.
    # With the skeleton cells patched to -0.0, the additive identity for
    # every float, the crown corner of X is exactly what one_inverse adds:
    # each crown's leading t x t block of its stack, bit for bit, and 0
    # across crowns, so no pad row or column reaches X.
    rng = random.Random(41)
    g = random_connected_graph(rng, 9, 12)
    hosts = g.n if kind == "r_vertex" else g.m
    crowns = [empty_graph(0), K1, Graph(2, ()), path_graph(3), complete_graph(4)]
    crowns += [Graph(5, ((0, 1), (2, 3))), cycle_graph(6), complete_graph(7)]
    crowns += random_crowns(rng, hosts - len(crowns), 7)
    rng.shuffle(crowns)
    blocks = cf._blocks(kind, g, tuple(crowns))
    nm = g.n + g.m

    def negative_zeros(blocks, at):
        return np.full((len(at), len(at)), -0.0)

    with mock.patch.object(cf, "_skeleton_block", negative_zeros):
        corner = cf.one_inverse(blocks)[nm:, nm:]
    offsets = np.cumsum(blocks.crowns.sizes) - blocks.crowns.sizes
    inside = np.zeros(corner.shape, dtype=bool)
    for members, _, inv in blocks.crowns.stacks:
        for k, i in enumerate(members):
            t = crowns[i].n
            at = slice(offsets[i], offsets[i] + t)
            assert corner[at, at].tobytes() == np.ascontiguousarray(inv[k, :t, :t]).tobytes()
            inside[at, at] = True
    assert sorted({c.n for c in crowns} - {0}) == list(range(1, 8))
    assert (corner[~inside] == 0.0).all()


def test_blocks_take_the_crown_slot_rule_from_corona():
    # The blocks once read every kind but r_vertex as R-edge: an r_graph
    # with crowns got R-edge anchors under the r_graph label, and its
    # expanded Kirchhoff index dropped the R-edge shift.
    g = path_graph(3)
    with pytest.raises(ValueError, match=r"^need 0 crowns \(r_graph takes none\), got 2$"):
        cf._blocks("r_graph", g, (Graph(1), complete_graph(2)))
    with pytest.raises(ValueError, match="^unknown corona kind 'bogus'$"):
        cf._blocks("bogus", g, ())
    breakdown = cf.kirchhoff_terms(cf._blocks("r_graph", g, ()))
    assert abs(breakdown.value - kirchhoff_index(build("r_graph", g).graph)) <= 1e-9
    assert breakdown.deviation <= 1e-9


def test_apex_resistance_is_the_grounded_inverse_diagonal():
    # diag((L(H) + I)^{-1}), read off the crown stacks, equals the oracle's
    # apex row on the joined crown, for the blocks of both kinds
    for prefix, g, crowns in _crown_zoo_instances():
        blocks = getattr(cf, f"{prefix}_blocks")(g, crowns)
        c = np.arange(sum(blocks.crowns.sizes))
        diagonal = cf._crown_cells(blocks.crowns, c, c)
        off = 0
        for crown in crowns:
            oracle = resistance_matrix(build("r_vertex", Graph(1), (crown,)).graph)[0, 1:]
            npt.assert_allclose(diagonal[off : off + crown.n], oracle, atol=1e-12)
            off += crown.n


@st.composite
def near_degenerate_coronas(draw):
    """Long paths, stars, dense complete crowns and all-empty crowns.

    Corona orders stay under about 60 so that the oracle's Jacobi solve
    keeps each example fast.
    """
    kind = draw(st.sampled_from(("r_vertex", "r_edge")))
    if draw(st.booleans()):
        g = path_graph(draw(st.integers(2, 25)))
    else:
        g = star_graph(draw(st.integers(1, 8)))
    hosts = g.n if kind == "r_vertex" else g.m
    if g.n > 9:
        # a long path: all crowns empty but at most one dense K_t
        crowns = [empty_graph(0)] * hosts
        if draw(st.booleans()):
            crowns[draw(st.integers(0, hosts - 1))] = complete_graph(draw(st.integers(1, 6)))
    else:
        crowns = [complete_graph(draw(st.integers(0, 4))) for _ in range(hosts)]
    return kind, g, tuple(crowns)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(near_degenerate_coronas())
def test_near_degenerate_families_match_the_oracle(instance):
    kind, g, crowns = instance
    if kind == "r_vertex":
        closed = cf.rv_resistance_matrix(g, crowns)
        kf = cf.rv_kirchhoff_terms(g, crowns).value
        built = build("r_vertex", g, crowns)
    else:
        closed = cf.re_resistance_matrix(g, crowns)
        kf = cf.re_kirchhoff_terms(g, crowns).value
        built = build("r_edge", g, crowns)
    oracle = resistance_matrix(built.graph)
    assert max_abs(closed - oracle) <= PAIR_TOL
    kf_oracle = float(np.triu(oracle).sum())
    assert abs(kf - kf_oracle) <= 1e-6 * kf_oracle


def _kirchhoff_of_r_path(n):
    """Exact Kirchhoff index of R(P_n), a chain of n - 1 triangles.

    With base vertices 0..n-1 and edge vertex k on triangle k, every
    resistance is 2/3 times the number of triangles crossed: j - i between
    base vertices i < j; k - i + 1 from edge vertex k to a base vertex
    i <= k, and i - k to one i > k; l - k + 1 between edge vertices k < l.
    """
    m = n - 1
    # n - d base pairs and m - d edge pairs lie d apart; edge vertex k
    # crosses 1..k+1 triangles to the base vertices up to k, 1..n-1-k to
    # the rest.
    base = sum(d * (n - d) for d in range(1, n))
    mixed = sum((k + 1) * (k + 2) // 2 + (n - 1 - k) * (n - k) // 2 for k in range(m))
    edge = sum((d + 1) * (m - d) for d in range(1, m))
    return Fraction(2, 3) * (base + mixed + edge)


def test_exact_r_path_references():
    assert [_kirchhoff_of_r_path(n) for n in (10, 100, 600)] == [434, 444334, 95999334]


@pytest.mark.parametrize("n", [10, 100, 600])
def test_kirchhoff_of_paths_is_exact(n):
    # Exact rationals, which the value/expanded cross-check cannot stand in
    # for: both read the same group inverse of the base.  At n = 600 the
    # oracle solves R(P_600) at order 1199.
    empties = tuple(empty_graph(0) for _ in range(n))
    blocks = cf.rv_blocks(path_graph(n), empties)
    exact_path = Fraction(n * (n * n - 1), 6)
    for value in (n * float(np.trace(blocks.l_sharp)), kirchhoff_index(path_graph(n))):
        assert abs(Fraction(value) - exact_path) <= Fraction(1e-11) * exact_path
    exact = _kirchhoff_of_r_path(n)
    oracle = kirchhoff_index(build("r_graph", path_graph(n)).graph)
    for value in (cf.kirchhoff_terms(blocks).value, oracle):
        assert abs(Fraction(value) - exact) <= Fraction(1e-11) * exact


def test_closed_and_oracle_kirchhoff_agree_at_corona_order_599():
    # P_150 with a K2 crown on every vertex: N = 150 + 149 + 300, the
    # ill-conditioned end the oracle reaches.
    g = path_graph(150)
    crowns = tuple(K2 for _ in range(150))
    closed = cf.rv_kirchhoff_terms(g, crowns).value
    oracle = kirchhoff_index(build("r_vertex", g, crowns).graph)
    assert abs(closed - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_kirchhoff_terms_build_nothing_of_corona_order(kind):
    # The Kirchhoff value and its terms read l_sharp, the edge endpoints and
    # the crown totals and stacks; neither a skeleton cell nor a crown cell
    # is gathered on that path.
    rng = random.Random(5)
    cases = [(g, crowns) for prefix, g, crowns in _crown_zoo_instances() if prefix == kind]
    for _ in range(5):
        g = random_connected_graph(rng, 2, 7)
        cases.append((g, random_crowns(rng, g.n if kind == "rv" else g.m, 4)))
    built_corner = AssertionError("the Kirchhoff path built a corona-order matrix")
    for g, crowns in cases:
        blocks = getattr(cf, f"{kind}_blocks")(g, crowns)
        with (
            mock.patch.object(cf, "_skeleton_block", side_effect=built_corner),
            mock.patch.object(cf, "_crown_cells", side_effect=built_corner),
        ):
            breakdown = cf.kirchhoff_terms(blocks)
        x = cf.one_inverse(blocks)
        vertices = len(x)
        assert breakdown.value == pytest.approx(
            vertices * np.trace(x) - x.sum(), rel=1e-12, abs=1e-12
        )
        assert breakdown.deviation <= 1e-9


def _sparse_base(rng, n, m):
    """Connected graph on n vertices with m edges: a random tree plus random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, tuple(edges))


@pytest.mark.parametrize("n", [2, 3, 10, 100, 600, 2000, 4000])
def test_sparse_kirchhoff_of_paths_is_exact(n):
    # The path factors with unit pivots and integer entries throughout, so
    # n tr(L#) off the sparse factor is exactly n(n^2 - 1)/6, where the
    # dense kernel is off by 1.5e-11 at n = 2000; the closed Kirchhoff index
    # of R(P_n), read off that factor, lands on its exact value to roundoff.
    g = path_graph(n)
    eu, ev = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    factor = linalg.GroundedFactor.of(n, eu, ev)
    assert Fraction(n * factor.trace) == Fraction(n * (n * n - 1), 6)
    if n <= 2000:
        blocks = cf.rv_blocks(g, tuple(empty_graph(0) for _ in range(n)))
        exact = _kirchhoff_of_r_path(n)
        assert abs(Fraction(cf.kirchhoff_terms(blocks).value) - exact) <= Fraction(1e-15) * exact


def _kirchhoff_reference(blocks, skeleton):
    """N tr X - 1^T X 1 of the blocks' {1}-inverse X, without forming X.

    X is the skeleton corner S read through the anchors plus the grounded
    crown corner, zero across crowns, so skeleton vertex j's row and column
    appear reps_j = 1 + (crown vertices anchored at j) times:
    tr X = reps . diag(S) + sum tr G_k and 1^T X 1 = reps^T S reps +
    sum 1^T G_k 1.
    """
    reps = 1.0 + np.bincount(blocks.anchor, minlength=len(skeleton))
    traces, ones = blocks.crowns.totals
    vertices = len(skeleton) + len(blocks.anchor)
    trace = float(reps @ np.diag(skeleton)) + float(traces.sum())
    return vertices * trace - (float(reps @ skeleton @ reps) + float(ones.sum()))


@pytest.mark.parametrize(
    "name, g",
    [
        ("K1", K1),
        ("K2", K2),
        ("K40", complete_graph(40)),
        ("K80", complete_graph(80)),
        ("star", star_graph(30)),
        ("path", path_graph(200)),
        ("dense random 30", _sparse_base(random.Random(81), 30, 300)),
        ("dense random 80", _sparse_base(random.Random(82), 80, 2500)),
        ("K40 with a tail", Graph(43, complete_graph(40).edges + ((39, 40), (40, 41), (41, 42)))),
    ],
)
def test_sparse_kirchhoff_agrees_with_the_dense_route(name, g):
    # The Kirchhoff terms read the sparse factor; the dense references are
    # the incidence matmuls over the dense L# for every term, and
    # N tr X - 1^T X 1 of the {1}-inverse X for the value and the expansion,
    # summed from the incidence skeleton corner and the crown totals at
    # order n + m, without forming X.  All agree to 1e-12 relative.  K_n has
    # every front wider than DENSE_FRONT, so it runs the dense block alone;
    # "K40 with a tail" eliminates its path first, then inverts the clique
    # as the dense block.
    rng = random.Random(sum(map(ord, name)))
    for kind, hosts in (("r_vertex", g.n), ("r_edge", g.m)):
        blocks = cf._blocks(kind, g, random_crowns(rng, hosts, 3))
        sparse = cf.kirchhoff_terms(blocks)
        skeleton, terms = _incidence_reference(blocks)
        want = _kirchhoff_reference(blocks, skeleton)
        del skeleton  # (n + m)^2 floats: 84 MB at K_80
        for got in (sparse.value, sparse.expanded):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
        assert sparse.terms.keys() == terms.keys()
        for key, want in terms.items():
            assert abs(sparse.terms[key] - want) <= 1e-12 * max(1.0, abs(want)), (name, key)
        assert sparse.deviation <= 1e-9 * max(1.0, abs(sparse.value))


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_sparse_kirchhoff_takes_no_dense_group_inverse(kind):
    # Blocks built without l_sharp give the Kirchhoff index without the
    # dense kernel, and at n = 2000 hold under a quarter of one n x n float
    # array at their peak.
    n = 2000
    rng = random.Random(71)
    g = _sparse_base(rng, n, n + n // 5)
    crowns = random_crowns(rng, g.n if kind == "rv" else g.m, 3)
    blocks = getattr(cf, f"{kind}_blocks")(g, crowns)
    dense = AssertionError("the sparse route took the dense group inverse")
    tracemalloc.start()
    try:
        with (
            mock.patch.object(cf, "laplacian_group_inverse", side_effect=dense),
            mock.patch.object(linalg, "laplacian_group_inverse", side_effect=dense),
        ):
            breakdown = cf.kirchhoff_terms(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, f"peak {peak / (8 * n * n):.2f} n^2 floats"
    assert breakdown.deviation <= 1e-9 * breakdown.value


def test_kirchhoff_terms_never_read_l_sharp():
    # The Kirchhoff index has one route, the sparse factor: blocks on a base
    # side handed a dense L#, or having formed one since, give the same bits
    # as blocks whose side never held one.
    g = path_graph(30)
    ls = linalg.laplacian_group_inverse(laplacian(g))
    rng = random.Random(4)
    for make_blocks, hosts in ((cf.rv_blocks, g.n), (cf.re_blocks, g.m)):
        crowns = random_crowns(rng, hosts, 3)
        want = cf.kirchhoff_terms(make_blocks(g, crowns))
        formed = make_blocks(g, crowns)
        assert "l_sharp" not in vars(formed.side) and formed.l_sharp.shape == (30, 30)
        handed = make_blocks(cf.BaseSide.of(g, ls), crowns)
        assert handed.l_sharp is ls
        for blocks in (formed, handed):
            got = cf.kirchhoff_terms(blocks)
            assert float(got.value).hex() == float(want.value).hex()
            assert float(got.expanded).hex() == float(want.expanded).hex()
            assert {k: float(v).hex() for k, v in got.terms.items()} == {
                k: float(v).hex() for k, v in want.terms.items()
            }


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_kirchhoff_peak_memory_stays_at_base_order(kind):
    # n = 300 with crowns of order 0-4: the corona has about 1000-1400
    # vertices, but the Kirchhoff path and single-pair resistances hold
    # only base-order matrices (the group inverse's own work, with the
    # caller's L, is under 5 n^2 floats; the (n + m)-square skeleton corner
    # alone would be about 4.8 n^2).  The Kirchhoff path gathers no skeleton
    # or crown cell, and a pair gathers at most two skeleton vertices and
    # four crown cells.
    n = 300
    rng = random.Random(11)
    g = _sparse_base(rng, n, n + n // 5)
    crowns = random_crowns(rng, g.n if kind == "rv" else g.m, 4)
    nm = n + g.m
    total = nm + sum(c.n for c in crowns)
    pairs = ((0, 1), (0, nm), (n, total - 1), (total - 1, total - 2))
    make_blocks = getattr(cf, f"{kind}_blocks")
    watch, gathered = _skeleton_gathers()
    watch_crowns, read = _crown_cell_reads()
    tracemalloc.start()
    try:
        with watch, watch_crowns:
            blocks = make_blocks(g, crowns)
            breakdown = cf.kirchhoff_terms(blocks)
            kf_gathers, kf_reads = len(gathered), len(read)
            cells = [cf.pair_resistance(blocks, u, v) for u, v in pairs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert breakdown.deviation <= 1e-8 * breakdown.value
    assert all(cell > 0.0 for cell in cells)
    assert kf_gathers == 0 and len(gathered) == len(pairs) and max(gathered) <= 2
    assert kf_reads == 0 and len(read) == len(pairs) and max(read) <= 4
    assert peak < 5 * n * n * 8, f"peak {peak / (8 * n * n):.2f} n^2 floats"


def test_crown_eigen_sums_take_one_call_per_layout_order():
    # Orders 1-9 share three bands (4, 8, 12): an order t below its band o
    # is padded with o - t zero rows and columns and read with the band.
    # Every sum is == that band's own stacked call, and within roundoff of
    # the per-order call and of numpy's spectrum, including crowns with
    # several exact zero eigenvalues (edgeless and disconnected crowns).
    rng = random.Random(3)
    crowns = [empty_graph(0)]
    for t in range(1, 10):
        pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
        sampled = Graph(t, tuple(e for e in pairs if rng.random() < 0.5))
        crowns += [Graph(t, ()), complete_graph(t), path_graph(t), sampled]
    crowns = tuple(crowns)
    blocks = cf.rv_blocks(path_graph(len(crowns)), crowns)
    want = np.zeros(len(crowns))
    alone = np.zeros(len(crowns))
    for o in (4, 8, 12):
        of_layout = [i for i, c in enumerate(crowns) if o - 4 < c.n <= o]
        laps = np.zeros((len(of_layout), o, o))
        for k, i in enumerate(of_layout):
            laps[k, : crowns[i].n, : crowns[i].n] = laplacian(crowns[i])
        sizes = np.array([crowns[i].n for i in of_layout])
        want[of_layout] = linalg._spectral_sums(laps, sizes)
    for t in range(1, 10):
        of_order = [i for i, c in enumerate(crowns) if c.n == t]
        laps = np.stack([laplacian(crowns[i]) for i in of_order])
        alone[of_order] = linalg._spectral_sums(laps, np.full(len(of_order), t))
    eig = mock.Mock(wraps=linalg._spectral_sums)
    with mock.patch.object(cf, "_spectral_sums", eig):
        got = blocks.crowns.eigen_sums
    assert eig.call_count == 3
    assert [c.args[0].shape[-1] for c in eig.call_args_list] == [4, 8, 12]
    assert (got == want).all()
    npt.assert_allclose(got, alone, rtol=1e-15, atol=0)
    exact = [_eigvalsh_sum(c) for c in crowns]
    npt.assert_allclose(got, exact, rtol=1e-14, atol=0)
    assert got[0] == 0.0
    # The edgeless crown of order t comes first among order t's four.
    assert [got[4 * t - 3] for t in range(1, 10)] == list(range(1, 10))


def _eigvalsh_sum(crown):
    return float(np.sum(1.0 / (np.linalg.eigvalsh(laplacian(crown)) + 1.0))) if crown.n else 0.0


def _clique_sum(t):
    # K_t's spectrum is 0 and t, t - 1 times.
    return 1.0 + (t - 1) / (t + 1) if t else 0.0


@pytest.mark.parametrize("t", [1, 2, 3, 7, 64, 65, 128, 299, 300])
def test_crown_eigen_sums_are_exact_up_to_order_300(t):
    # Empty, edgeless, disconnected, K_t and P_t crowns, against numpy's
    # spectrum and against each spectrum's sum in closed form (Mohar, The
    # Laplacian spectrum of graphs, 1991): two cliques K_h + K_(t - h) sum
    # as K_h and K_(t - h) do, and P_t's spectrum is 2 - 2 cos(pi k / t).
    # An edgeless crown sums exactly to t.
    h = t // 2
    k = np.arange(t)
    cliques = complete_graph(h).edges + tuple(
        (h + u, h + v) for u, v in complete_graph(t - h).edges
    )
    cases = [
        (empty_graph(0), 0.0),
        (Graph(t, ()), float(t)),
        (Graph(t, cliques), _clique_sum(h) + _clique_sum(t - h)),
        (complete_graph(t), _clique_sum(t)),
        (path_graph(t), float(np.sum(1.0 / (3.0 - 2.0 * np.cos(np.pi * k / t))))),
    ]
    sums = cf.CrownSet.of(tuple(c for c, _ in cases)).eigen_sums
    assert sums[0] == 0.0 and sums[1] == float(t)
    for (crown, closed), got in zip(cases, sums):
        assert abs(got - _eigvalsh_sum(crown)) <= 1e-12 * max(1.0, got), crown
        assert abs(got - closed) <= 1e-12 * max(1.0, closed), crown


def test_a_padded_spectrum_must_read_zero_in_its_pad_slot():
    # A padded member's pad row starts exactly zero and no reflector touches
    # it, so it must end exactly zero; and the deflated row of every member
    # is roundoff of the reflection, within its own bound.  Anything else
    # raises instead of being summed or dropped.  An order-3 crown is padded
    # to band 4.
    crowns = cf.CrownSet.of((path_graph(3), complete_graph(4)))
    ((members, laps, inv),) = crowns.stacks
    sums = cf._crown_eigen_sums(crowns)
    # P3: 0, 1, 3; K4: 0, 4, 4, 4.  The unpadded member's last slot is a
    # true eigenvalue, and is summed.
    assert sums[0] == pytest.approx(1.0 + 1.0 / 2.0 + 1.0 / 4.0, abs=1e-15)
    assert sums[1] == pytest.approx(1.0 + 3.0 / 5.0, abs=1e-15)

    def forged(cells, value):
        lap = laps.copy()
        for i, j in cells:
            lap[0, i, j] = lap[0, j, i] = value
        return dataclasses.replace(crowns, stacks=((members, lap, inv),))

    # A pad coupled to itself passes the deflation and is caught at the
    # end; a pad coupled to the crown may be caught by either check.
    for pad in (1e-300, -1e-300, 0.5):
        with pytest.raises(linalg.MatrixError, match="pad row"):
            cf._crown_eigen_sums(forged(((3, 3),), pad))
        for cells in (((0, 3),), ((1, 3), (3, 3))):
            with pytest.raises(linalg.MatrixError, match="pad row|deflated null direction"):
                cf._crown_eigen_sums(forged(cells, pad))
    with pytest.raises(linalg.MatrixError):
        cf._crown_eigen_sums(forged(((3, 3),), np.nan))
    # A row that does not sum to zero leaves a deflated row past its bound,
    # 4 eps o ||L||_F (about 1.1e-14 for P3 here); one roundoff-sized off is
    # within it.
    for off, raises in ((1e-6, True), (1e-12, True), (1e-15, False)):
        forged_set = forged(((0, 0),), laps[0, 0, 0] + off)
        if raises:
            with pytest.raises(linalg.MatrixError, match="deflated null direction"):
                cf._crown_eigen_sums(forged_set)
        else:
            assert cf._crown_eigen_sums(forged_set) == pytest.approx(sums, abs=1e-14)


def _members(stacks, blocks):
    """Each corona's block of the (members, stack) pairs a chunk readout gives, in input order."""
    out = [None] * len(blocks)
    for group, stack in stacks:
        for slot, k in enumerate(group):
            n = len(cf._vertices(blocks[k]))
            out[k] = np.ascontiguousarray(stack[slot, :n, :n])
    return out


def test_chunk_readouts_are_each_member_alone_bit_for_bit():
    # One chunk of both kinds over shared base sides, on adjacent parts of
    # one crown set, then a part that skips a crown, a set of its own and a
    # repeated member of the first set, so that parts of one set are split
    # by another set inside one stack, and a corona past the Cholesky leaf
    # order, which is a stack of its own.  Each member's X and map are its
    # bits alone, its pad cells never reach it, and the crown cells take
    # one gather per whole crown set of a stack: per readout, the shared
    # set and the set of its own in the chunk's stack, and the large
    # corona's set in its own.
    rng = random.Random(8)
    bases = [random_connected_graph(rng, 3, 6) for _ in range(3)]
    sides = [cf.BaseSide.of(g) for g in bases]
    slots = [n for g in bases for n in (g.n, g.m)]
    whole = cf.CrownSet.of(random_crowns(rng, sum(slots) + 1, 5))
    members, lo = [], 0
    for g, side in zip(bases, sides):
        for kind, count in (("r_vertex", g.n), ("r_edge", g.m)):
            members.append(cf._blocks(kind, side, whole.part(lo, lo + count)))
            lo += count
    skipped = cf._blocks("r_vertex", sides[0], whole.part(lo + 1 - bases[0].n, lo + 1))
    big = random_connected_graph(rng, 30, 30)
    members += [skipped, cf.rv_blocks(bases[1], random_crowns(rng, bases[1].n, 3)), members[0]]
    members.append(cf.rv_blocks(big, random_crowns(rng, big.n, 2)))
    watch, read = _crown_cell_reads()
    with watch:
        xs = _members(cf.one_inverses(members), members)
        maps = _members(cf.resistance_maps(members), members)
    assert len(read) == 2 * 3
    assert len(maps[-1]) > linalg.SCHUR_LEAF_ORDER >= max(len(r) for r in maps[:-1])
    assert len({len(x) for x in xs[:-1]}) > 1
    for blocks, x, r in zip(members, xs, maps):
        assert x.tobytes() == cf.one_inverse(blocks).tobytes()
        assert r.tobytes() == cf.resistance_map(blocks).tobytes()
    assert cf.one_inverses([]) == cf.resistance_maps([]) == []


def test_every_pad_row_of_a_padded_spectrum_must_read_zero():
    # Crowns of orders 1 and 2 sit in band 4 with three and two pad rows.
    # A pad coupled to itself in a row that is not the member's last passes
    # the deflation, since no reflector touches it, and must still be
    # caught: every pad row is checked, not only the last.
    crowns = cf.CrownSet.of((K1, K2))
    ((members, laps, inv),) = crowns.stacks
    assert laps.shape == (2, 4, 4)
    assert cf._crown_eigen_sums(crowns) == pytest.approx([1.0, 1.0 + 1.0 / 3.0], abs=1e-15)
    for member, rows in ((0, (1, 2)), (1, (2,))):
        for row in rows:
            for value in (1e-300, 0.5):
                lap = laps.copy()
                lap[member, row, row] = value
                forged = dataclasses.replace(crowns, stacks=((members, lap, inv),))
                with pytest.raises(linalg.MatrixError, match="pad row"):
                    cf._crown_eigen_sums(forged)


@pytest.mark.parametrize("kind", ["rv", "re"])
def test_blocks_build_each_corona_order_matrix_once(kind):
    g = cycle_graph(4)
    crowns = (complete_graph(2), Graph(3, ((0, 1),)), empty_graph(0), path_graph(2))
    # Each call gathers the skeleton cells and the same-crown cells it reads
    # once: all of them for the {1}-inverse and the map, a crown vertex's own
    # cell for a pair from the skeleton to it, none for the Kirchhoff index.
    blocks = getattr(cf, f"{kind}_blocks")(g, crowns)
    nm = g.n + g.m
    same = sum(c.n * c.n for c in crowns)
    watch, gathered = _skeleton_gathers()
    watch_crowns, read = _crown_cell_reads()
    with watch, watch_crowns:
        x = cf.one_inverse(blocks)
        r = cf.resistance_map(blocks)
        assert gathered == [nm, nm] and read == [same, same]
        cf.resistance_map(blocks)
        assert gathered == [nm, nm, nm] and read == [same, same, same]
        cell = cf.pair_resistance(blocks, 0, len(x) - 1)
        cf.one_inverse(blocks)
        cf.kirchhoff_terms(blocks)
    assert gathered == [nm, nm, nm, 2, nm]
    assert read == [same, same, same, 1, same]
    assert cell == r[0, -1]
