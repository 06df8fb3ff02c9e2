"""Randomized comparison suite: generators, reports, and tamper detection."""

import json
import random
from unittest import mock

import numpy as np
import pytest

from coronakit import closed_form, linalg, resistance, suite
from coronakit.graphs import Graph, complete_graph, is_connected, laplacian, path_graph


def test_random_connected_graph_bounds():
    rng = random.Random(5)
    for _ in range(50):
        g = suite.random_connected_graph(rng, 2, 6, m_max=8)
        assert 2 <= g.n <= 6
        assert g.n - 1 <= g.m <= 8
        assert is_connected(g)
    # An order range with no graph in it is rejected before anything is drawn.
    state = rng.getstate()
    for n_min, n_max in ((0, 3), (4, 3), (-1, 2)):
        with pytest.raises(ValueError, match="need 1 <= n_min <= n_max"):
            suite.random_connected_graph(rng, n_min, n_max)
    assert rng.getstate() == state


def test_random_crowns_sizes():
    rng = random.Random(6)
    crowns = suite.random_crowns(rng, 40, t_max=3)
    assert len(crowns) == 40
    sizes = {c.n for c in crowns}
    assert sizes <= {0, 1, 2, 3}
    assert len(sizes) > 1  # 40 draws should hit several sizes


def test_graph_digest_distinguishes_and_repeats():
    a = suite.graph_digest(complete_graph(3))
    assert a == suite.graph_digest(complete_graph(3))
    assert a != suite.graph_digest(complete_graph(4))
    assert len(a) == 12


def test_identity_battery_clean():
    worst, count = suite.run_identity_battery(seed=11, count=15, n_max=7)
    assert count == 15
    assert set(worst) == set(suite.IDENTITY_TOLERANCES)
    for name, value in worst.items():
        assert value <= suite.IDENTITY_TOLERANCES[name], name


def test_instance_report_shape():
    rng = random.Random(2)
    g = suite.random_connected_graph(rng, 3, 4)
    crowns = suite.random_crowns(rng, g.n)
    report = suite.check_corona_instance("r_vertex", g, crowns, case=7)
    assert report.passed
    assert report.kind == "r_vertex"
    assert report.case == 7
    assert report.crown_sizes == tuple(c.n for c in crowns)
    assert set(report.values) == {"kf_closed", "kf_expanded", "kf_oracle"}
    d = report.to_dict()
    assert d["base"] == {"digest": suite.graph_digest(g), "n": g.n, "m": g.m}
    assert set(report.residuals) <= set(suite.INSTANCE_TOLERANCES)

    report_e = suite.check_corona_instance("r_edge", g, suite.random_crowns(rng, g.m))
    assert report_e.passed
    assert "complement_defect" in report_e.residuals
    assert "ones_shift_defect" in report_e.residuals

    with pytest.raises(ValueError, match="kind"):
        suite.check_corona_instance("r_total", g, crowns)
    # A plain R-graph is a valid corona kind but has no crowns to check.
    with pytest.raises(ValueError, match="^the suite checks r_vertex and r_edge coronas"):
        suite.check_corona_instance("r_graph", g, ())


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_instance_does_each_piece_of_work_once(kind):
    # Blocks once, the {1}-inverse assembled once (the Kirchhoff value reads
    # the blocks, not X), the corona Laplacian's group inverse taken once, and
    # the crown spectra in one call.
    g = path_graph(4)
    hosts = g.n if kind == "r_vertex" else g.m
    crowns = (complete_graph(2), Graph(0, ()), path_graph(3), Graph(1, ()))[:hosts]
    order = g.n + g.m + sum(c.n for c in crowns)
    ginv = mock.Mock(wraps=linalg.laplacian_group_inverse)
    with (
        mock.patch.object(closed_form, "_blocks", wraps=closed_form._blocks) as blocks,
        mock.patch.object(closed_form, "one_inverse", wraps=closed_form.one_inverse) as assemble,
        mock.patch.object(closed_form, "_crown_eigen_sums", wraps=closed_form._crown_eigen_sums) as eigen,
        mock.patch.object(suite, "laplacian_group_inverse", ginv),
        mock.patch.object(resistance, "laplacian_group_inverse", ginv),
    ):
        report = suite.check_corona_instance(kind, g, crowns)
    assert report.passed
    assert blocks.call_count == 1
    assert assemble.call_count == 1
    assert [c.args[0].shape for c in ginv.call_args_list].count((order, order)) == 1
    (read,) = [c.args[0] for c in eigen.call_args_list]
    assert read.graphs == crowns
    for members, laps, _ in read.stacks:
        for k, i in enumerate(members):
            t = crowns[i].n
            assert (laps[k, :t, :t] == laplacian(crowns[i])).all()


@pytest.mark.parametrize("kind", ["r_graph", "r_total"])
def test_instance_checks_the_kind_before_building(kind):
    # An R-graph is a valid corona but not one the suite checks, and an
    # unknown kind is no corona at all: both get the suite's message, and
    # no corona is built first.
    built = AssertionError("the suite built a corona it does not check")
    want = f"^the suite checks r_vertex and r_edge coronas, got kind '{kind}'$"
    with mock.patch.object(suite, "build", side_effect=built) as build:
        with pytest.raises(ValueError, match=want):
            suite.check_corona_instance(kind, path_graph(3), ())
    build.assert_not_called()


def test_identity_battery_solves_its_graph_once():
    # The edge-sum, neighbor-recursion and cut-vertex checks read resistance
    # matrices already built; only the battery graph's own group inverse is
    # n x n (the cut-vertex corona is larger).
    g = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)))
    ginv = mock.Mock(wraps=linalg.laplacian_group_inverse)
    with (
        mock.patch.object(suite, "laplacian_group_inverse", ginv),
        mock.patch.object(resistance, "laplacian_group_inverse", ginv),
    ):
        out = suite.identity_residuals(g, random.Random(4))
    assert {"edge_resistance_sum", "neighbor_recursion"} <= set(out)
    assert [c.args[0].shape for c in ginv.call_args_list].count((g.n, g.n)) == 1


def test_run_suite_passes_and_counts():
    report = suite.run_suite(seed=3, cases=4, n_max=4)
    assert report.verdict == "pass"
    assert len(report.instances) == 8  # one of each kind per case
    kinds = [inst.kind for inst in report.instances]
    assert kinds.count("r_vertex") == 4 and kinds.count("r_edge") == 4


def _drawn_instances(seed, cases, n_max, t_max):
    """The (kind, base, crowns, case) of every instance a run draws, in the run's rng order."""
    rng = random.Random(seed)
    out = []
    for case in range(cases):
        g = suite.random_connected_graph(rng, 2, n_max, m_max=8)
        suite.identity_residuals(g, rng)
        out.append(("r_vertex", g, suite.random_crowns(rng, g.n, t_max), case))
        out.append(("r_edge", g, suite.random_crowns(rng, g.m, t_max), case))
    return out


def _bits(values):
    return {name: np.float64(value).tobytes() for name, value in values.items()}


@pytest.mark.parametrize("t_max", [0, 3, 6])
@pytest.mark.parametrize("cases", [0, 1, 7])
def test_run_suite_reports_what_each_instance_reports_alone(cases, t_max):
    # A run checks each instance on its part of one run-level crown set; an
    # instance checked alone inverts and sweeps its own crowns.  Every value
    # and residual must agree bit for bit.  t_max 0 leaves every crown
    # empty (no layout at all); t_max 6 puts odd and even orders up to 6 in
    # the run's stacks.
    for seed in (0, 17, 404):
        report = suite.run_suite(seed=seed, cases=cases, t_max=t_max)
        drawn = _drawn_instances(seed, cases, 5, t_max)
        assert len(report.instances) == len(drawn) == 2 * cases
        for got, (kind, g, crowns, case) in zip(report.instances, drawn):
            alone = suite.check_corona_instance(kind, g, crowns, case)
            assert got.kind == kind and got.case == case
            assert got.crown_sizes == alone.crown_sizes
            assert _bits(got.values) == _bits(alone.values)
            assert _bits(got.residuals) == _bits(alone.residuals)
            assert got.passed is alone.passed


def test_run_suite_inverts_and_sweeps_its_crowns_once_per_layout_order():
    # Every crown of a run is inverted by one sym_inverse call and swept by
    # one Jacobi call per layout order t + t % 2 present in the run, not
    # once per instance.
    inverse = mock.Mock(wraps=closed_form.sym_inverse)
    eig = mock.Mock(wraps=closed_form._jacobi_eigenvalues)
    with (
        mock.patch.object(closed_form, "sym_inverse", inverse),
        mock.patch.object(closed_form, "_jacobi_eigenvalues", eig),
    ):
        report = suite.run_suite(seed=8, cases=5)
    assert report.verdict == "pass"
    layouts = sorted({t + t % 2 for inst in report.instances for t in inst.crown_sizes} - {0})
    assert layouts == [2, 4]
    assert [c.args[0].shape[-1] for c in inverse.call_args_list] == layouts
    assert [c.args[0].shape[-1] for c in eig.call_args_list] == layouts


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_crown_set_part_calls_no_crown_kernel(kind):
    # Once the whole set is built and swept, a part, the blocks built on it
    # and everything read off them make no crown inverse or Jacobi call,
    # and read what a set of the part's crowns alone would hold.
    rng = random.Random(12)
    g = suite.random_connected_graph(rng, 3, 5)
    slots = g.n if kind == "r_vertex" else g.m
    before = suite.random_crowns(rng, 6, 4)
    crowns = suite.random_crowns(rng, slots, 4)
    whole = closed_form.CrownSet.of(before + crowns + suite.random_crowns(rng, 3, 4))
    whole.eigen_sums
    called = AssertionError("a part called a crown kernel")
    with (
        mock.patch.object(closed_form, "sym_inverse", side_effect=called),
        mock.patch.object(closed_form, "_jacobi_eigenvalues", side_effect=called),
    ):
        part = whole.part(len(before), len(before) + slots)
        blocks = closed_form._blocks(kind, g, part)
        x = closed_form.one_inverse(blocks)
        r = closed_form.resistance_map(blocks)
        breakdown = closed_form.kirchhoff_terms(blocks)
    alone = closed_form._blocks(kind, g, crowns)
    assert blocks.crowns.sizes == alone.crowns.sizes
    for got, want in zip(blocks.crowns.totals, alone.crowns.totals):
        assert got.tobytes() == want.tobytes()
    assert blocks.crowns.eigen_sums.tobytes() == alone.crowns.eigen_sums.tobytes()
    assert x.tobytes() == closed_form.one_inverse(alone).tobytes()
    assert r.tobytes() == closed_form.resistance_map(alone).tobytes()
    assert breakdown == closed_form.kirchhoff_terms(alone)


def test_crown_set_part_bounds_and_crowns_are_checked():
    crowns = (complete_graph(2), Graph(1, ()), path_graph(3))
    whole = closed_form.CrownSet.of(crowns)
    assert whole.graphs == crowns and whole.sizes == (2, 1, 3) and len(whole) == 3
    # A part keeps its own crown graphs, so it cannot disagree with them.
    assert whole.part(1, 3).graphs == crowns[1:]
    assert whole.part(1, 3).part(1, 2).graphs == crowns[2:]
    assert whole.part(1, 3).part(1, 2).sizes == (3,)
    assert whole.part(1, 3).part(1, 2).first == 2
    for lo, hi in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(IndexError, match="not a part"):
            whole.part(lo, hi)


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_instance_on_a_part_reports_what_it_reports_on_the_graphs(kind):
    # The part is cut from the middle of a larger set, so its stack members
    # do not start at 0; every value and residual must still be bit for bit
    # those of the instance checked on the part's crown graphs.
    rng = random.Random(31)
    g = suite.random_connected_graph(rng, 3, 5)
    slots = g.n if kind == "r_vertex" else g.m
    before = suite.random_crowns(rng, 5, 5)
    crowns = suite.random_crowns(rng, slots, 5)
    whole = closed_form.CrownSet.of(before + crowns + suite.random_crowns(rng, 2, 5))
    part = whole.part(len(before), len(before) + slots)
    got = suite.check_corona_instance(kind, g, part, case=3)
    want = suite.check_corona_instance(kind, g, crowns, case=3)
    assert got.passed and got.passed is want.passed
    assert got.crown_sizes == want.crown_sizes == tuple(c.n for c in crowns)
    assert _bits(got.values) == _bits(want.values)
    assert _bits(got.residuals) == _bits(want.residuals)
    assert got.to_dict() == want.to_dict()


def test_run_suite_zero_cases():
    report = suite.run_suite(seed=0, cases=0)
    assert report.verdict == "pass"
    assert report.instances == ()
    parsed = json.loads(report.to_json())
    assert parsed["verdict"] == "pass"
    assert parsed["summary"]["instances_total"] == 0


def test_run_suite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        suite.run_suite(cases=-1)
    with pytest.raises(ValueError):
        suite.run_suite(n_max=1)
    with pytest.raises(ValueError, match="t_max"):
        suite.run_suite(t_max=-1)


def test_report_json_is_byte_stable():
    a = suite.run_suite(seed=9, cases=3, n_max=4).to_json()
    b = suite.run_suite(seed=9, cases=3, n_max=4).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == suite.SCHEMA
    assert parsed["parameters"] == {"seed": 9, "cases": 3, "n_max": 4, "t_max": 3}
    assert "timestamp" not in a


def test_round_floats_normalizes_numpy_scalars():
    messy = {
        "f": np.float64(1.0) / 3.0,
        "b": np.bool_(True),
        "i": np.int64(4),
        "nested": [np.float64(2.5), {"x": np.bool_(False)}],
    }
    clean = suite.round_floats(messy)
    assert json.dumps(clean)  # must not raise
    assert clean["f"] == float(f"{1.0 / 3.0:.12g}")
    assert clean["b"] is True
    assert clean["i"] == 4
    assert clean["nested"][1]["x"] is False


def test_tampered_coefficient_flips_verdict():
    # scaling the original-vertex block of the {1}-inverse emulates getting
    # the leading 2/3 coefficient wrong; the suite must notice.
    real = closed_form.one_inverse

    def skewed(blocks):
        x = real(blocks).copy()
        if blocks.kind == "r_vertex":
            n = blocks.base.n
            x[:n, :n] *= 0.75
        return x

    with mock.patch.object(closed_form, "one_inverse", side_effect=skewed):
        report = suite.run_suite(seed=1, cases=2, n_max=4)
    assert report.verdict == "fail"
    # The suite's own readout of the hooked inverse must catch it, not only
    # the Kirchhoff breakdown that assembles through the same hook.
    tol = suite.INSTANCE_TOLERANCES["pair_inverse_max"]
    assert any(inst.residuals["pair_inverse_max"] > tol for inst in report.instances)
    assert suite.run_suite(seed=1, cases=2, n_max=4).verdict == "pass"


def test_identity_failure_alone_fails_verdict():
    report = suite.run_suite(seed=2, cases=2, n_max=4)
    bad = dict(report.identity_worst)
    bad["edge_resistance_sum"] = 1.0
    doctored = suite.ComparisonReport(
        seed=report.seed,
        cases=report.cases,
        n_max=report.n_max,
        t_max=report.t_max,
        identity_worst=bad,
        instances=report.instances,
    )
    assert doctored.verdict == "fail"
    assert not doctored.identities_passed
