"""Randomized comparison suite: generators, reports, and tamper detection."""

import json
import random
from unittest import mock

import numpy as np
import pytest

from coronakit import closed_form, linalg, resistance, suite
from coronakit.graphs import Graph, complete_graph, is_connected, path_graph


def test_random_connected_graph_bounds():
    rng = random.Random(5)
    for _ in range(50):
        g = suite.random_connected_graph(rng, 2, 6, m_max=8)
        assert 2 <= g.n <= 6
        assert g.n - 1 <= g.m <= 8
        assert is_connected(g)


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


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_instance_does_each_piece_of_work_once(kind):
    # Blocks twice (the suite's own, and the one-inverse hook's), the
    # corona Laplacian pseudo-inverted once, and each crown spectrum once.
    g = path_graph(4)
    hosts = g.n if kind == "r_vertex" else g.m
    crowns = (complete_graph(2), Graph(0, ()), path_graph(3), Graph(1, ()))[:hosts]
    order = g.n + g.m + sum(c.n for c in crowns)
    pinv = mock.Mock(wraps=linalg.pseudo_group_inverse)
    with (
        mock.patch.object(closed_form, "_blocks", wraps=closed_form._blocks) as blocks,
        mock.patch.object(closed_form, "crown_eigen_sum", wraps=closed_form.crown_eigen_sum) as eigen,
        mock.patch.object(suite, "pseudo_group_inverse", pinv),
        mock.patch.object(resistance, "pseudo_group_inverse", pinv),
    ):
        report = suite.check_corona_instance(kind, g, crowns)
    assert report.passed
    assert blocks.call_count == 2
    assert [c.args[0].shape for c in pinv.call_args_list].count((order, order)) == 1
    assert [c.args[0] for c in eigen.call_args_list] == list(crowns)


def test_run_suite_passes_and_counts():
    report = suite.run_suite(seed=3, cases=4, n_max=4)
    assert report.verdict == "pass"
    assert len(report.instances) == 8  # one of each kind per case
    kinds = [inst.kind for inst in report.instances]
    assert kinds.count("r_vertex") == 4 and kinds.count("r_edge") == 4


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
    real = closed_form.rv_one_inverse

    def skewed(g, crowns):
        x = real(g, crowns).copy()
        x[: g.n, : g.n] *= 0.75
        return x

    with mock.patch.object(closed_form, "rv_one_inverse", side_effect=skewed):
        report = suite.run_suite(seed=1, cases=2, n_max=4)
    assert report.verdict == "fail"
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
