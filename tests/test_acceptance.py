"""Shipped acceptance criteria, one test and one printed verdict line each.

Every numeric bound here is part of the package contract:

  1. oracle sanity on K2, P3, K3 (1e-10)
  2. identity battery, 200 seeded connected graphs with up to 10 vertices
     (1e-9 for the group-inverse null vector, 1e-8 elsewhere, under 30 s)
  3. R-vertex corona: closed forms equal the oracle on 50 seeded instances
     (1e-8, all five pair-case types covered, under 60 s)
  4. R-edge corona: same protocol plus the two structural identities at
     1e-12 and the shifted same-crown formula actually exercised
  5. Kirchhoff agreement at 1e-6 relative on every instance from 3 and 4,
     and the conformance document's rejected variants stay rejected
  6. all-empty crowns degenerate both products to the plain R-graph, with
     original pairs at exactly 2/3 of the base resistance (1e-8)
  7. single-coefficient tampering (2/3 -> 1/2, 1/4 -> 1/6, 1/6 -> 1/4)
     flips the CLI suite verdict to failure
"""

import functools
import random
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from coronakit import closed_form as cf
from coronakit import suite
from coronakit.cli import main as cli_main
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
from coronakit.resistance import kirchhoff_index, resistance_matrix

K1 = Graph(1, ())
K2 = complete_graph(2)

RV_SEED = 1031
RE_SEED = 1032
BATTERY_SEED = 2026
INSTANCES = 50
PAIR_TOL = 1e-8
STRUCT_TOL = 1e-12
KF_REL_TOL = 1e-6

CASE_TYPES = (
    "original-original",
    "skeleton-edge",
    "same-crown",
    "crown-skeleton",
    "crown-crown",
)


def _finish(num: int, problems: list[str], detail: str) -> None:
    verdict = "PASS" if not problems else "FAIL"
    print(f"\nACCEPTANCE {num}: {verdict} ({detail})", flush=True)
    assert not problems, f"criterion {num}: " + "; ".join(problems)


# Vertex classes outside the crowns; a crown vertex's class is its crown index.
ORIGINAL, SKELETON = -1, -2


def _vertex_classes(partition) -> list[int]:
    """Crown index of every vertex; ORIGINAL or SKELETON (edge-vertex, apex) otherwise."""
    classes = [SKELETON] * partition.total()
    for v in partition.original:
        classes[v] = ORIGINAL
    for k, crown in enumerate(partition.crowns):
        for v in crown:
            classes[v] = k
    return classes


def _classify(class_u: int, class_v: int) -> str:
    if class_u < 0 and class_v < 0:
        return "original-original" if class_u == class_v == ORIGINAL else "skeleton-edge"
    if class_u >= 0 and class_v >= 0:
        return "same-crown" if class_u == class_v else "crown-crown"
    return "crown-skeleton"


@dataclass(frozen=True)
class InstanceEval:
    """Everything criteria 3, 4, and 5 need from one corona instance."""

    kind: str
    n: int
    m: int
    crown_sizes: tuple[int, ...]
    crown_edge_total: int
    pair_err: float
    class_counts: dict
    class_errs: dict
    inverse_defect: float
    schur_defect: float
    complement_defect: float
    kf_closed: float
    kf_oracle: float


def _evaluate(kind: str, g: Graph, crowns: tuple[Graph, ...]) -> InstanceEval:
    if kind == "r_vertex":
        built = build("r_vertex", g, crowns)
        blocks = cf.rv_blocks(g, crowns)
        x = cf.one_inverse(blocks)
        closed = cf.rv_resistance_matrix(g, crowns)
        kf_closed = cf.rv_kirchhoff_terms(g, crowns).value
        complement_defect = 0.0
    else:
        built = build("r_edge", g, crowns)
        blocks = cf.re_blocks(g, crowns)
        x = cf.one_inverse(blocks)
        closed = cf.re_resistance_matrix(g, crowns)
        kf_closed = cf.re_kirchhoff_terms(g, crowns).value
        complement_defect = blocks.complement_defect
    oracle = resistance_matrix(built.graph)
    diff = np.abs(closed - oracle)
    counts = {name: 0 for name in CASE_TYPES}
    errs = {name: 0.0 for name in CASE_TYPES}
    classes = _vertex_classes(built.partition)
    total = len(classes)
    for u in range(total):
        for v in range(u + 1, total):
            name = _classify(classes[u], classes[v])
            counts[name] += 1
            errs[name] = max(errs[name], float(diff[u, v]))
    return InstanceEval(
        kind=kind,
        n=g.n,
        m=g.m,
        crown_sizes=tuple(c.n for c in crowns),
        crown_edge_total=sum(c.m for c in crowns),
        pair_err=float(diff.max()),
        class_counts=counts,
        class_errs=errs,
        inverse_defect=verify_one_inverse(laplacian(built.graph), x),
        schur_defect=blocks.schur_defect,
        complement_defect=complement_defect,
        kf_closed=kf_closed,
        kf_oracle=kirchhoff_index(built.graph),
    )


@functools.lru_cache(maxsize=None)
def _corpus(kind: str) -> tuple[tuple[InstanceEval, ...], float]:
    """50 seeded instances (n <= 6, m <= 8, t_i <= 3, arbitrary crown edges)."""
    rng = random.Random(RV_SEED if kind == "r_vertex" else RE_SEED)
    start = time.perf_counter()
    evals = []
    for _ in range(INSTANCES):
        g = suite.random_connected_graph(rng, 2, 6, m_max=8)
        slots = g.n if kind == "r_vertex" else g.m
        evals.append(_evaluate(kind, g, suite.random_crowns(rng, slots, t_max=3)))
    return tuple(evals), time.perf_counter() - start


def _equivalence_problems(kind: str, budget: float) -> tuple[list[str], str]:
    evals, elapsed = _corpus(kind)
    problems: list[str] = []
    if len(evals) != INSTANCES:
        problems.append(f"expected {INSTANCES} instances, got {len(evals)}")
    worst_pair = max(e.pair_err for e in evals)
    worst_inv = max(e.inverse_defect for e in evals)
    if worst_pair > PAIR_TOL:
        problems.append(f"dispatch vs oracle max err {worst_pair:.3e} > {PAIR_TOL}")
    if worst_inv > PAIR_TOL:
        problems.append(f"one-inverse defect {worst_inv:.3e} > {PAIR_TOL}")
    coverage = {
        name: sum(e.class_counts[name] for e in evals) for name in CASE_TYPES
    }
    for name, count in coverage.items():
        if count == 0:
            problems.append(f"pair case type {name!r} never exercised")
    detail = (
        f"{len(evals)} instances, max pair err {worst_pair:.2e}, "
        f"max MXM-M defect {worst_inv:.2e}, case counts "
        + "/".join(str(coverage[name]) for name in CASE_TYPES)
        + f", {elapsed:.2f}s"
    )
    if elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    return problems, detail


def test_criterion_1_oracle_sanity():
    problems = []
    start = time.perf_counter()
    r2 = resistance_matrix(K2)
    r3 = resistance_matrix(path_graph(3))
    rk = resistance_matrix(complete_graph(3))
    kf_p3 = kirchhoff_index(path_graph(3))
    kf_k3 = kirchhoff_index(complete_graph(3))
    elapsed = time.perf_counter() - start
    checks = [
        ("K2 r(0,1)", r2[0, 1], 1.0),
        ("P3 r(0,1)", r3[0, 1], 1.0),
        ("P3 r(1,2)", r3[1, 2], 1.0),
        ("P3 r(0,2)", r3[0, 2], 2.0),
        ("K3 r(0,1)", rk[0, 1], 2.0 / 3.0),
        ("K3 r(0,2)", rk[0, 2], 2.0 / 3.0),
        ("K3 r(1,2)", rk[1, 2], 2.0 / 3.0),
        ("Kf(P3)", kf_p3, 4.0),
        ("Kf(K3)", kf_k3, 2.0),
    ]
    for name, got, want in checks:
        if abs(got - want) > 1e-10:
            problems.append(f"{name} = {got!r}, want {want}")
    if elapsed > 1.0:
        problems.append(f"oracle sanity took {elapsed:.3f}s, expected milliseconds")
    _finish(1, problems, f"9 frozen values within 1e-10, {elapsed * 1000:.1f}ms")


def test_criterion_2_identity_battery():
    tolerances = {
        "group_inverse_nullvector": 1e-9,
        "kirchhoff_two_routes": 1e-8,
        "edge_resistance_sum": 1e-8,
        "neighbor_recursion": 1e-8,
        "shifted_inverse_scaled": 1e-8,
        "block_one_inverse_scaled": 1e-8,
        "cut_vertex_additivity": 1e-8,
    }
    start = time.perf_counter()
    worst, count = suite.run_identity_battery(seed=BATTERY_SEED, count=200, n_max=10)
    elapsed = time.perf_counter() - start
    problems = []
    if count != 200:
        problems.append(f"battery ran {count} graphs, want 200")
    if set(worst) != set(tolerances):
        problems.append(f"identity set mismatch: {sorted(worst)}")
    for name, tol in tolerances.items():
        value = worst.get(name, float("inf"))
        if value > tol:
            problems.append(f"{name} worst residual {value:.3e} > {tol}")
    if elapsed >= 30.0:
        problems.append(f"battery took {elapsed:.1f}s, budget 30s")
    worst_overall = max(worst.values()) if worst else float("inf")
    _finish(
        2,
        problems,
        f"200 graphs, 7 identities, worst residual {worst_overall:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_r_vertex_equivalence():
    problems, detail = _equivalence_problems("r_vertex", budget=60.0)
    _finish(3, problems, detail)


def test_criterion_4_r_edge_equivalence():
    problems, detail = _equivalence_problems("r_edge", budget=60.0)
    evals, _ = _corpus("r_edge")
    worst_schur = max(e.schur_defect for e in evals)
    worst_complement = max(e.complement_defect for e in evals)
    if worst_schur > STRUCT_TOL:
        problems.append(f"Schur defect {worst_schur:.3e} > {STRUCT_TOL}")
    if worst_complement > STRUCT_TOL:
        problems.append(f"edge-block complement defect {worst_complement:.3e} > {STRUCT_TOL}")
    same_crown_pairs = sum(e.class_counts["same-crown"] for e in evals)
    if same_crown_pairs == 0:
        problems.append("shifted same-crown formula never exercised")
    if not any(e.crown_edge_total > 0 for e in evals):
        problems.append("no instance carried crown edges")
    detail += (
        f", Schur defect {worst_schur:.1e}, complement defect {worst_complement:.1e}"
    )
    _finish(4, problems, detail)


def test_criterion_5_kirchhoff_adjudication():
    problems = []
    worst_rel = 0.0
    for kind in ("r_vertex", "r_edge"):
        for e in _corpus(kind)[0]:
            rel = abs(e.kf_closed - e.kf_oracle) / abs(e.kf_oracle)
            worst_rel = max(worst_rel, rel)
            if rel > KF_REL_TOL:
                problems.append(
                    f"{e.kind} n={e.n} crowns={e.crown_sizes}: "
                    f"Kf rel err {rel:.3e} > {KF_REL_TOL}"
                )

    # rejected variant 1: Kirchhoff prefactor n + 2m + sum t
    bd = cf.rv_kirchhoff_terms(K2, (K1, K1))
    trace_part = sum(v for k, v in bd.terms.items() if k.startswith("trace_"))
    ones_part = sum(v for k, v in bd.terms.items() if k.startswith("ones_"))
    oracle_a = kirchhoff_index(build("r_vertex", K2, (K1, K1)).graph)
    shipped_a = 5 * trace_part - ones_part
    variant_a = 6 * trace_part - ones_part
    if abs(shipped_a - oracle_a) > 1e-9:
        problems.append(f"shipped prefactor drifted: {shipped_a} vs oracle {oracle_a}")
    if abs(variant_a - oracle_a) < 1.0:
        problems.append("prefactor variant n+2m+sum t no longer rejected")

    # rejected variant 2: tree constant -(n-1)/4 instead of -(n-1)/6
    bde = cf.re_kirchhoff_terms(K2, (K1,))
    oracle_b = kirchhoff_index(build("r_edge", K2, (K1,)).graph)
    variant_b = bde.expanded - 4 * (2 - 1) / 12.0
    if abs(bde.expanded - oracle_b) > 1e-9:
        problems.append(f"shipped tree constant drifted: {bde.expanded} vs {oracle_b}")
    if abs(variant_b - oracle_b) < 0.1:
        problems.append("tree-constant variant -(n-1)/4 no longer rejected")

    # rejected variant 3: bare crown spectral sum, missing the +t/2 shift
    crown = Graph(2, ())
    blocks = cf.re_blocks(K2, (crown,))
    # the shifted crown block is the grounded inverse plus J/2
    true_trace = float(blocks.crowns.totals[0][0]) + crown.n / 2.0
    bare = blocks.crowns.eigen_sums[0]
    if abs(true_trace - 3.0) > 1e-10 or abs(bare - 2.0) > 1e-10:
        problems.append(f"shift counterexample drifted: trace {true_trace}, bare {bare}")
    bdc = cf.re_kirchhoff_terms(K2, (crown,))
    oracle_c = kirchhoff_index(build("r_edge", K2, (crown,)).graph)
    variant_c = bdc.expanded - 5 * (true_trace - bare)
    if abs(bdc.expanded - oracle_c) > 1e-9:
        problems.append(f"shipped crown trace drifted: {bdc.expanded} vs {oracle_c}")
    if abs(variant_c - oracle_c) < 1.0:
        problems.append("bare-spectrum variant no longer rejected")

    conformance = Path(__file__).resolve().parents[1] / "CONFORMANCE.md"
    if not conformance.is_file():
        problems.append("CONFORMANCE.md missing")
    else:
        text = conformance.read_text(encoding="utf-8")
        for marker in (
            "Variant 1",
            "Variant 2",
            "Variant 3",
            "n + 2m",
            "16.5",
            "-(n-1)/4",
            "t_k/2",
        ):
            if marker not in text:
                problems.append(f"CONFORMANCE.md lost the {marker!r} adjudication")
        if text.count("rejected") < 3:
            problems.append("CONFORMANCE.md no longer marks three variants rejected")
    _finish(
        5,
        problems,
        f"100 instances, worst Kf rel err {worst_rel:.2e}, 3 variants rejected",
    )


def test_criterion_6_empty_crown_degeneracy():
    problems = []
    worst = 0.0
    for g in (path_graph(4), complete_graph(3), star_graph(3), cycle_graph(5)):
        plain = build("r_graph", g)
        crowns_v = tuple(empty_graph(0) for _ in range(g.n))
        crowns_e = tuple(empty_graph(0) for _ in range(g.m))
        built_v = build("r_vertex", g, crowns_v)
        built_e = build("r_edge", g, crowns_e)
        if built_v.graph != plain.graph:
            problems.append(f"empty-crown R-vertex corona of {g.n}-vertex base != R(G)")
        if built_e.graph != plain.graph:
            problems.append(f"empty-crown R-edge corona of {g.n}-vertex base != R(G)")
        oracle = resistance_matrix(plain.graph)
        base_r = resistance_matrix(g)
        for label, closed in (
            ("r_vertex", cf.rv_resistance_matrix(g, crowns_v)),
            ("r_edge", cf.re_resistance_matrix(g, crowns_e)),
        ):
            err = max_abs(closed - oracle)
            scale_err = max_abs(closed[: g.n, : g.n] - (2.0 / 3.0) * base_r)
            worst = max(worst, err, scale_err)
            if err > PAIR_TOL:
                problems.append(f"{label} empty-crown dispatch off by {err:.3e}")
            if scale_err > PAIR_TOL:
                problems.append(
                    f"{label} original pairs not 2/3 of base resistance ({scale_err:.3e})"
                )
    _finish(6, problems, f"4 bases, both kinds, worst deviation {worst:.2e}")


def test_criterion_7_mutation_sensitivity(capsys):
    # n_max 5 matters: on a 2-vertex base the group inverse annihilates
    # every incidence-weighted direction, so the two quadratic-coefficient
    # mutations would be invisible there.
    suite_args = ["suite", "--seed", "0", "--cases", "8", "--nmax", "5"]
    problems = []

    # Each mutant wraps the one assembler and moves one coefficient of the
    # corona kind it targets, leaving the other kind's inverse untouched.
    real = cf.one_inverse

    def corner_two_thirds_to_half(blocks):
        x = real(blocks).copy()
        if blocks.kind == "r_vertex":
            n = blocks.base.n
            x[:n, :n] += (0.5 - 2.0 / 3.0) * blocks.l_sharp
        return x

    def crown_quarter_to_sixth(blocks):
        x = real(blocks).copy()
        if blocks.kind == "r_edge":
            n = blocks.base.n
            nm = n + blocks.base.m
            m_full = incidence(blocks.base)[:, blocks.anchor - n]
            delta = (2.0 / 3.0) * (1.0 / 6.0 - 0.25) * (
                m_full.T @ blocks.l_sharp @ m_full
            )
            x[nm:, nm:] += delta
        return x

    def edge_quad_sixth_to_quarter(blocks):
        x = real(blocks).copy()
        if blocks.kind == "r_vertex":
            n, m = blocks.base.n, blocks.base.m
            b = incidence(blocks.base)
            quad = b.T @ blocks.l_sharp @ b
            x[n : n + m, n : n + m] += (0.25 - 1.0 / 6.0) * quad
        return x

    mutations = [
        (corner_two_thirds_to_half, "2/3 -> 1/2 original corner"),
        (crown_quarter_to_sixth, "1/4 -> 1/6 crown-corner weight"),
        (edge_quad_sixth_to_quarter, "1/6 -> 1/4 edge-block quadratic"),
    ]

    if cli_main(list(suite_args)) != 0:
        problems.append("clean suite run did not pass")
    capsys.readouterr()
    for mutant, label in mutations:
        with mock.patch.object(cf, "one_inverse", side_effect=mutant):
            code = cli_main(list(suite_args))
        out = capsys.readouterr().out
        if code != 1:
            problems.append(f"mutation {label!r} left the suite passing (exit {code})")
        elif "verdict: fail" not in out:
            problems.append(f"mutation {label!r} exit code 1 but no failing verdict line")
        elif "pair_inverse_max" not in out:
            problems.append(f"mutation {label!r} not caught by the suite's one-inverse readout")
    _finish(7, problems, "3 single-coefficient mutations all flip the suite verdict")
