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

    crowns_e = closed_form.CrownSet.of(suite.random_crowns(rng, g.m))
    report_e = suite.check_corona_instance("r_edge", g, crowns_e)
    assert report_e.passed
    # The identity behind the edge-block complement is the crown set's to
    # check, not the report's.
    sizes = np.array(crowns_e.sizes, dtype=float)
    assert linalg.max_abs(sizes - crowns_e.totals[1]) <= 1e-12
    assert "ones_shift_defect" in report_e.residuals

    with pytest.raises(ValueError, match="kind"):
        suite.check_corona_instance("r_total", g, crowns)
    # A plain R-graph is a valid corona kind but has no crowns to check.
    with pytest.raises(ValueError, match="^the suite checks r_vertex and r_edge coronas"):
        suite.check_corona_instance("r_graph", g, ())


def test_every_instance_tolerance_is_read_by_a_report():
    # A residual dropped from the reports must not leave its tolerance behind.
    g = path_graph(3)
    vertex_crowns = (complete_graph(2), Graph(1, ()), Graph(0, ()))
    vertex = suite.check_corona_instance("r_vertex", g, vertex_crowns)
    edge = suite.check_corona_instance("r_edge", g, (path_graph(3), Graph(2, ())))
    assert set(suite.INSTANCE_TOLERANCES) == set(vertex.residuals) | set(edge.residuals)


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_a_crown_near_order_300_passes(kind):
    # An order-245 crown's 1^T G 1 sums 245^2 entries, so its roundoff is
    # past 1e-12; the crown set checks it against a bound that grows with
    # the order, and the instance passes on every reported residual.
    crown = suite.random_crown(random.Random(27), 300)
    assert crown.n == 245
    # R-vertex over P_2 has two anchors, R-edge one.
    crowns = (crown, Graph(0, ())) if kind == "r_vertex" else (crown,)
    report = suite.check_corona_instance(kind, path_graph(2), crowns)
    assert report.passed, report.residuals


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_instance_does_each_piece_of_work_once(kind):
    # Blocks once, on a base side handed no base group inverse, which the
    # side takes once, on first read; the {1}-inverse assembled once (the
    # Kirchhoff value reads the base's sparse factor, not X); the corona
    # Laplacian's group inverse taken once, as the one member of one stacked
    # call; and the crown spectra in one call.
    g = path_graph(4)
    hosts = g.n if kind == "r_vertex" else g.m
    crowns = (complete_graph(2), Graph(0, ()), path_graph(3), Graph(1, ()))[:hosts]
    order = g.n + g.m + sum(c.n for c in crowns)
    taken = []

    def take(lap):
        taken.append(linalg.laplacian_group_inverse(lap))
        return taken[-1]

    ginv = mock.Mock(side_effect=take)
    stacked = mock.Mock(wraps=linalg.laplacian_group_inverses)
    with (
        mock.patch.object(closed_form, "_blocks", wraps=closed_form._blocks) as blocks,
        mock.patch.object(closed_form, "one_inverse", wraps=closed_form.one_inverse) as assemble,
        mock.patch.object(closed_form, "_crown_eigen_sums", wraps=closed_form._crown_eigen_sums) as eigen,
        mock.patch.object(closed_form, "laplacian_group_inverse", ginv),
        mock.patch.object(suite, "laplacian_group_inverses", stacked),
        mock.patch.object(resistance, "laplacian_group_inverse", ginv),
    ):
        report = suite.check_corona_instance(kind, g, crowns)
    assert report.passed
    assert blocks.call_count == 1
    assert assemble.call_count == 1
    assert [c.args[0].shape for c in ginv.call_args_list] == [(g.n, g.n)]
    assert blocks.call_args.args[1].l_sharp is taken[0]
    assert stacked.call_count == 1
    assert [lap.shape for lap in stacked.call_args.args[0]] == [(order, order)]
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
    # The edge-sum and neighbor-recursion checks read the resistances of the
    # graph's own group inverse, taken in the battery's one stacked group
    # inverse call with the Kron-reduced H and the cut-vertex corona (order
    # n + m + 2), and bit for bit the lone call's; no group inverse is a
    # lone call.  The split's A and D and the shift's L(H) are checked in one
    # _as_symmetric call, and the D block and the shift's L(H) + aI inverted
    # in one stacked Cholesky call; nothing goes through the oracle's
    # resistance_matrix.
    g = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)))
    lone = mock.Mock(side_effect=AssertionError("the battery took a lone group inverse"))
    stacked = mock.Mock(wraps=linalg.laplacian_group_inverses)
    cholesky = mock.Mock(wraps=linalg._sym_inverses)
    checks = mock.Mock(wraps=linalg._as_symmetric)
    oracle = mock.Mock(side_effect=AssertionError("the battery called the oracle"))
    with (
        mock.patch.object(linalg, "laplacian_group_inverse", lone),
        mock.patch.object(suite, "laplacian_group_inverses", stacked),
        mock.patch.object(suite, "_sym_inverses", cholesky),
        mock.patch.object(suite, "_as_symmetric", checks),
        mock.patch.object(resistance, "laplacian_group_inverse", oracle),
    ):
        out = suite.identity_residuals(g, random.Random(4))
    assert set(out) == set(suite.IDENTITY_TOLERANCES)
    # Random(4) splits at k = 2, so A and H are 2 x 2 and D is 3 x 3, and
    # draws a shift crown of order 3.
    assert stacked.call_count == cholesky.call_count == checks.call_count == 1
    assert [lap.shape[0] for lap in stacked.call_args.args[0]] == [2, g.n, g.n + g.m + 2]
    assert [a.shape[0] for a in cholesky.call_args.args[0]] == [3, 3]
    assert cholesky.call_args.args[1] == ["block D", "L + aI"]
    assert [a.shape[0] for a in checks.call_args.args[0]] == [2, 3, 3]
    assert checks.call_args.args[1] == ["block A", "block D", "Laplacian"]
    ls = linalg.laplacian_group_inverse(laplacian(g))
    assert _bits(out)["group_inverse_nullvector"] == np.float64(linalg.max_abs(ls @ np.ones(g.n))).tobytes()


def test_run_identity_battery_is_the_one_case_battery_in_chunks():
    # 150 cases make three battery chunks of at most _CHUNK cases; the worst
    # of each identity is bit for bit the largest of the one-case batteries.
    with mock.patch.object(suite, "_battery", wraps=suite._battery) as battery:
        worst, count = suite.run_identity_battery(seed=5, count=150, n_max=10)
    assert count == 150
    assert [len(c.args[0]) for c in battery.call_args_list] == [suite._CHUNK, suite._CHUNK, 22]
    rng = random.Random(5)
    want: dict[str, float] = {}
    for _ in range(150):
        g = suite.random_connected_graph(rng, 2, 10)
        for name, value in suite.identity_residuals(g, rng).items():
            want[name] = max(want.get(name, 0.0), value)
    assert _bits(worst) == _bits(want)


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
    # instance checked alone inverts and sums its own crowns.  Every value
    # and residual must agree bit for bit.  t_max 0 leaves every crown
    # empty (no band at all); t_max 6 puts orders up to 6 in the run's
    # stacks, with one to three pad rows in a member.
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
    # Every crown of a run is inverted by one sym_inverse call and its
    # spectral sums read by one _spectral_sums call per band 4 ceil(t / 4)
    # present in the run, not once per instance.
    inverse = mock.Mock(wraps=closed_form.sym_inverse)
    eig = mock.Mock(wraps=closed_form._spectral_sums)
    with (
        mock.patch.object(closed_form, "sym_inverse", inverse),
        mock.patch.object(closed_form, "_spectral_sums", eig),
    ):
        report = suite.run_suite(seed=8, cases=5)
    assert report.verdict == "pass"
    orders = {t for inst in report.instances for t in inst.crown_sizes}
    bands = sorted({t + (-t) % 4 for t in orders} - {0})
    assert orders == {0, 1, 2, 3} and bands == [4]
    assert [c.args[0].shape[-1] for c in inverse.call_args_list] == bands
    assert [c.args[0].shape[-1] for c in eig.call_args_list] == bands


@pytest.mark.parametrize("cases", [7, 70])
def test_run_suite_identity_worst_is_the_worst_one_case_battery(cases):
    # The run computes the battery in chunks of cases, with each stacked
    # member bit for bit as alone, so each identity's worst is bit for bit
    # the largest over one-case batteries on the same draws; 70 cases make
    # two battery chunks.
    for seed in (0, 17, 404):
        report = suite.run_suite(seed=seed, cases=cases)
        rng = random.Random(seed)
        want: dict[str, float] = {}
        for _ in range(cases):
            g = suite.random_connected_graph(rng, 2, 5, m_max=8)
            for name, value in suite.identity_residuals(g, rng).items():
                want[name] = max(want.get(name, 0.0), value)
            suite.random_crowns(rng, g.n, 3)
            suite.random_crowns(rng, g.m, 3)
        assert _bits(report.identity_worst) == _bits(want)


def test_run_suite_takes_each_base_inverse_once_and_stacks_its_oracles():
    # No lone group inverse: each case's base L# is taken once, as a member
    # of the battery's one stacked call, after the 5 Kron-reduced H and
    # before the 5 cut-vertex coronas, and both kinds' blocks read that
    # member; the 10 oracle coronas take theirs in one more stacked call.
    # No battery inverse is a lone sym_inverse call: the 5 D blocks and the
    # shifts' L(H) + aI are one stacked Cholesky call.
    returned = []

    def take(laps):
        returned.append(linalg.laplacian_group_inverses(laps))
        return returned[-1]

    lone = mock.Mock(side_effect=AssertionError("a lone group inverse"))
    stacked = mock.Mock(side_effect=take)
    cholesky = mock.Mock(wraps=linalg._sym_inverses)
    sym = mock.Mock(wraps=linalg.sym_inverse)
    with (
        mock.patch.object(closed_form, "_blocks", wraps=closed_form._blocks) as blocks,
        mock.patch.object(closed_form, "laplacian_group_inverse", lone),
        mock.patch.object(linalg, "laplacian_group_inverse", lone),
        mock.patch.object(linalg, "sym_inverse", sym),
        mock.patch.object(resistance, "laplacian_group_inverse", lone),
        mock.patch.object(suite, "laplacian_group_inverses", stacked),
        mock.patch.object(suite, "_sym_inverses", cholesky),
    ):
        report = suite.run_suite(seed=1, cases=5)
    assert report.verdict == "pass"
    drawn = _drawn_instances(1, 5, 5, 3)
    bases = [g for kind, g, _, _ in drawn if kind == "r_vertex"]
    assert stacked.call_count == 2
    battery, oracles = ([lap.shape[0] for lap in c.args[0]] for c in stacked.call_args_list)
    assert all(0 < k < g.n for k, g in zip(battery[:5], bases))
    assert battery[5:10] == [g.n for g in bases]
    assert battery[10:] == [g.n + g.m + 2 for g in bases]
    assert oracles == [g.n + g.m + sum(c.n for c in crowns) for _, g, crowns, _ in drawn]
    # Both kinds' blocks share one base side, which holds the base inverse
    # the battery took.
    sides = [c.args[1] for c in blocks.call_args_list]
    for case in range(5):
        assert sides[2 * case] is sides[2 * case + 1]
        assert sides[2 * case].l_sharp is returned[0][5 + case]
    assert sym.call_count == 0
    assert cholesky.call_count == 1
    members, whats = cholesky.call_args.args
    assert [a.shape[0] for a in members[:5]] == [g.n - k for g, k in zip(bases, battery)]
    assert whats[:5] == ["block D"] * 5 and set(whats[5:]) <= {"L + aI"}


@pytest.mark.parametrize("seed, cases", [(1, 5), (47, 6)])
def test_run_suite_builds_each_base_side_once(seed, cases):
    # Both kinds over one base share its base side: a run checks each
    # case's base for connectivity once, through the oracle's check,
    # factors it once for both Kirchhoff readouts and takes its digest
    # once, over the base's own edge list.
    connected = mock.Mock(wraps=resistance.is_connected)
    factor = mock.Mock(wraps=linalg.GroundedFactor.of)
    digest = mock.Mock(wraps=suite.graph_digest)
    with (
        mock.patch.object(resistance, "is_connected", connected),
        mock.patch.object(linalg.GroundedFactor, "of", factor),
        mock.patch.object(suite, "graph_digest", digest),
    ):
        report = suite.run_suite(seed=seed, cases=cases)
    assert report.verdict == "pass" and len(report.instances) == 2 * cases
    bases = [g for kind, g, _, _ in _drawn_instances(seed, cases, 5, 3) if kind == "r_vertex"]
    assert [c.args[0] for c in connected.call_args_list] == bases
    assert [c.args[0] for c in digest.call_args_list] == bases
    assert [
        (n, [tuple(e) for e in zip(eu.tolist(), ev.tolist())])
        for n, eu, ev in (c.args for c in factor.call_args_list)
    ] == [(g.n, list(g.edges)) for g in bases]


@pytest.mark.parametrize("member, caught", [(0, "block_one_inverse_scaled"), (-1, "cut_vertex_additivity")])
def test_a_perturbed_battery_member_flips_the_identities(member, caught):
    # One member of the battery's stacked group inverse call, a Kron-reduced
    # H's or a cut-vertex corona's, off by 1e-3 I: that case's residual
    # fails, and the verdict with it, while every instance still passes.
    real = linalg.laplacian_group_inverses
    calls = []

    def perturbed(laps):
        out = real(laps)
        calls.append(len(out))
        if len(calls) == 1:
            out[member] = out[member] + 1e-3 * np.eye(len(out[member]))
        return out

    with mock.patch.object(suite, "laplacian_group_inverses", side_effect=perturbed):
        report = suite.run_suite(seed=1, cases=5)
    assert not report.identities_passed and report.verdict == "fail"
    tol = suite.IDENTITY_TOLERANCES
    assert caught in {name for name, value in report.identity_worst.items() if not value <= tol[name]}
    assert all(inst.passed for inst in report.instances)
    assert suite.run_suite(seed=1, cases=5).identities_passed


@pytest.mark.parametrize(
    "member, error, message",
    [
        (0, linalg.MatrixError, "^Laplacian 0 rows must sum to zero$"),
        (-1, linalg.SingularMatrixError, "did not invert"),
    ],
)
def test_a_perturbed_battery_cholesky_member_fails_loudly(member, error, message):
    # A wrong D block inverse leaves a Kron-reduced H whose rows do not sum
    # to zero, and a wrong shift inverse fails the residual check of
    # shifted_rank_one_inverse: either raises rather than reports.
    real = linalg._sym_inverses

    def perturbed(mats, whats):
        out = real(mats, whats)
        out[member] = out[member] + 1e-3 * np.eye(len(out[member]))
        return out

    with mock.patch.object(suite, "_sym_inverses", side_effect=perturbed):
        with pytest.raises(error, match=message):
            suite.run_suite(seed=1, cases=5)


def test_run_suite_checks_its_instances_in_bounded_chunks():
    # 80 instances make more than one chunk of at most _CHUNK; crowns of
    # order up to 80 put coronas past the Cholesky leaf order, and a chunk
    # closes before its Laplacians pass _CHUNK_ENTRIES entries.  Each chunk
    # takes its oracles in one stacked call, and every instance still
    # reports bit for bit what it reports alone.
    for seed, cases, t_max in ((2, 40, 3), (6, 6, 80)):
        stacked = mock.Mock(wraps=linalg.laplacian_group_inverses)
        with mock.patch.object(suite, "laplacian_group_inverses", stacked):
            report = suite.run_suite(seed=seed, cases=cases, t_max=t_max)
        assert report.verdict == "pass"
        # The first call is the battery's one chunk, every case's H, then
        # every case's base and then every case's cut-vertex corona; the
        # oracle chunks follow.
        battery, *chunks = ([lap.shape[0] for lap in c.args[0]] for c in stacked.call_args_list)
        assert len(battery) == 3 * cases
        drawn = _drawn_instances(seed, cases, 5, t_max)
        assert [order for chunk in chunks for order in chunk] == [
            g.n + g.m + sum(c.n for c in crowns) for _, g, crowns, _ in drawn
        ]
        assert len(chunks) > 1
        for chunk, following in zip(chunks, chunks[1:] + [None]):
            entries = sum(order * order for order in chunk)
            assert len(chunk) <= suite._CHUNK
            assert len(chunk) == 1 or entries <= suite._CHUNK_ENTRIES
            # A chunk closes only when it is full or the next corona would overflow it.
            if following is not None:
                full = len(chunk) == suite._CHUNK
                assert full or entries + following[0] ** 2 > suite._CHUNK_ENTRIES
        if seed == 2:
            assert [len(chunk) for chunk in chunks] == [suite._CHUNK, 80 - suite._CHUNK]
        else:
            assert max(max(chunk) for chunk in chunks) > linalg.SCHUR_LEAF_ORDER
        for got, (kind, g, crowns, case) in zip(report.instances, drawn):
            alone = suite.check_corona_instance(kind, g, crowns, case)
            assert _bits(got.values) == _bits(alone.values)
            assert _bits(got.residuals) == _bits(alone.residuals)


@pytest.mark.parametrize("kind", ["r_vertex", "r_edge"])
def test_crown_set_part_calls_no_crown_kernel(kind):
    # Once the whole set is built and summed, a part, the blocks built on it
    # and everything read off them make no crown inverse or spectral-sum call,
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
        mock.patch.object(closed_form, "_spectral_sums", side_effect=called),
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


def test_a_wrong_base_factor_flips_the_verdict():
    # The report checks the Kirchhoff value that kirchhoff_terms reads off
    # the base's sparse factor, the value ``corona kf`` prints, against the
    # oracle.  A factor of the wrong graph, the base plus one edge, fails
    # that check, and the expansion's, since Foster's theorem no longer holds
    # over the base's edges, while the map and the assembled {1}-inverse,
    # which read the dense L#, still pass theirs.  A factor whose quadratic
    # forms are off fails that check alone: the value and the expansion read
    # the same forms.
    real_of, real_gram = linalg.GroundedFactor.of, linalg.GroundedFactor.gram

    def plus_one_edge(n, eu, ev):
        return real_of(n, np.append(eu, 0), np.append(ev, n - 1))

    def skewed(factor, vectors):
        return 1.5 * real_gram(factor, vectors)

    g = path_graph(5)
    cases = (
        ("r_vertex", (complete_graph(2), Graph(1, ()), Graph(0, ()), path_graph(3), Graph(1, ()))),
        ("r_edge", (path_graph(3), Graph(0, ()), complete_graph(2), Graph(1, ()))),
    )
    tol = suite.INSTANCE_TOLERANCES
    for kind, crowns in cases:
        assert suite.check_corona_instance(kind, g, crowns).passed
        with mock.patch.object(linalg.GroundedFactor, "of", side_effect=plus_one_edge):
            report = suite.check_corona_instance(kind, g, crowns)
        caught = {name for name, value in report.residuals.items() if not value <= tol[name]}
        assert not report.passed
        assert "kf_terms_rel_err" in caught
        assert not caught & {"one_inverse_scaled", "pair_dispatch_max", "pair_inverse_max", "kf_rel_err"}
        with mock.patch.object(linalg.GroundedFactor, "gram", skewed):
            report = suite.check_corona_instance(kind, g, crowns)
        caught = {name for name, value in report.residuals.items() if not value <= tol[name]}
        assert not report.passed and caught == {"kf_terms_rel_err"}
    with mock.patch.object(linalg.GroundedFactor, "gram", skewed):
        assert suite.run_suite(seed=1, cases=2, n_max=4).verdict == "fail"
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
