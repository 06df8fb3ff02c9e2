"""Randomized cross-validation of the closed forms against the oracle.

Two independent routes to every number: structured block assembly on one
side, the deflated Cholesky group inverse of the full corona Laplacian on
the other.  The suite draws seeded random bases and crowns, runs both
routes, and reports worst-case residuals per named check.  All randomness
flows from one ``random.Random(seed)``, and the JSON report is byte-stable
for a given parameter set.

Closed-form entry points are looked up on the module object at call time,
so a test harness can monkeypatch a deliberately wrong one and watch the
verdict flip.  The hooks are ``closed_form.rv_blocks``/``re_blocks``,
which an instance calls once, and ``closed_form.one_inverse``, which
assembles the {1}-inverse from those blocks.

``run_suite`` draws every case first, in one fixed rng order per case
(base, identity battery, R-vertex crowns, R-edge crowns), then builds one
``closed_form.CrownSet`` over every crown of the run and checks each
instance on its part of that set.  So every crown of the run is inverted
and checked once, in one ``sym_inverse`` call per layout order when the
set is built, and summed in one spectral-sum call per layout order when
the first instance reads the crown spectra; ``check_corona_instance`` called
on crown graphs makes a set of its own.  Each case's base graph has its
Laplacian group inverse taken once, as it is drawn, and handed to the
identity battery as ``ls`` and to both kinds' blocks as ``l_sharp``, which
the map and the {1}-inverse read; the Kirchhoff index reads the base
through the sparse factor, as ``corona kf`` does, and each report checks
that value against the oracle.  Each corona's group inverse is taken
once, by the oracle: the run checks its instances in chunks of
consecutive ones, and each chunk's coronas go through one
``laplacian_group_inverses`` call, each member bit for bit as alone, so
an instance checked alone, a chunk of one, reports what it reports in a
run.  The battery's Kron-reduced graph and cut-vertex corona are still
inverted one at a time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import closed_form
from .corona import build
from .graphs import Graph, laplacian, serialize_edge_list
from .linalg import (
    block_one_inverse,
    laplacian_group_inverse,
    laplacian_group_inverses,
    max_abs,
    shifted_rank_one_inverse,
    verify_one_inverse,
)
from .resistance import (
    cut_vertex_check,
    edge_sum_check,
    kirchhoff_from_one_inverse,
    neighbor_recursion_check,
    resistance_matrix,
    resistances_from_inverse,
)

SCHEMA = "corona-suite-report/3"

# Residual tolerances, one entry per named check.  Identity-level checks
# are exact linear algebra; pair and Kirchhoff comparisons set two
# independently built inverses side by side.  No check here has a bound
# that must grow with the crown order: each crown's G 1 = 1 is checked once,
# by ``closed_form.CrownSet.of`` against its own roundoff bound, and a crown
# over it raises rather than being reported.
IDENTITY_TOLERANCES: dict[str, float] = {
    "group_inverse_nullvector": 1e-9,
    "block_one_inverse_scaled": 1e-8,
    "kirchhoff_two_routes": 1e-8,
    "edge_resistance_sum": 1e-8,
    "neighbor_recursion": 1e-8,
    "shifted_inverse_scaled": 1e-8,
    "cut_vertex_additivity": 1e-8,
}

INSTANCE_TOLERANCES: dict[str, float] = {
    "one_inverse_scaled": 1e-8,
    "pair_dispatch_max": 1e-8,
    "pair_inverse_max": 1e-8,
    "crown_trace_defect": 1e-8,
    "ones_shift_defect": 1e-8,
    "kf_rel_err": 1e-6,
    "kf_terms_rel_err": 1e-8,
    "kf_expanded_dev": 1e-8,
}


def graph_digest(g: Graph) -> str:
    """Short stable identifier: sha256 of the canonical edge list."""
    return hashlib.sha256(serialize_edge_list(g).encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Random generators


def random_connected_graph(
    rng: random.Random, n_min: int = 2, n_max: int = 6, m_max: int | None = None
) -> Graph:
    """Connected graph with uniform order in [n_min, n_max].

    A random attachment tree guarantees connectivity; extra edges are then
    sampled without replacement up to the target count.  ``m_max`` caps the
    edge count (never below the n - 1 a tree needs); when omitted the cap is
    n + 5, enough slack for cycles without blowing up corona sizes.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}, {n_max}")
    n = rng.randint(n_min, n_max)
    if n == 1:
        return Graph(1, ())
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    cap = min(n * (n - 1) // 2, m_max if m_max is not None else n + 5)
    target = rng.randint(n - 1, max(n - 1, cap))
    spare = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    )
    extra = rng.sample(spare, min(target - len(edges), len(spare)))
    return Graph(n, tuple(sorted(edges | set(extra))))


def random_crown(rng: random.Random, t_max: int = 3) -> Graph:
    """Crown graph of random order in [0, t_max] with independent 1/2 edges.

    Crowns may be empty or disconnected; nothing in the closed forms needs
    them connected.
    """
    t = rng.randint(0, t_max)
    edges = tuple(
        (u, v) for u in range(t) for v in range(u + 1, t) if rng.random() < 0.5
    )
    return Graph(t, edges)


def random_crowns(rng: random.Random, count: int, t_max: int = 3) -> tuple[Graph, ...]:
    return tuple(random_crown(rng, t_max) for _ in range(count))


# ---------------------------------------------------------------------------
# Identity battery: identities that hold for every connected graph


def identity_residuals(
    g: Graph, rng: random.Random, ls: np.ndarray | None = None
) -> dict[str, float]:
    """Residual per named identity, evaluated on one connected graph.

    The block-inverse and shifted-inverse draws use the rng so the battery
    covers a different split and shift on every graph.  ``ls`` is the group
    inverse of L(g), taken here when omitted; ``run_suite`` hands in the
    one it takes per case and shares with both corona kinds' blocks.
    """
    n = g.n
    lap = laplacian(g)
    if ls is None:
        ls = laplacian_group_inverse(lap)
    out: dict[str, float] = {}

    out["group_inverse_nullvector"] = max_abs(ls @ np.ones(n))

    if n >= 2:
        k = rng.randint(1, n - 1)
        x = block_one_inverse(lap[:k, :k], lap[:k, k:], lap[k:, k:])
        out["block_one_inverse_scaled"] = verify_one_inverse(lap, x) / max(
            1.0, max_abs(lap)
        )
        out["kirchhoff_two_routes"] = abs(
            kirchhoff_from_one_inverse(ls) - kirchhoff_from_one_inverse(x)
        )

        r = resistances_from_inverse(ls)
        out["edge_resistance_sum"] = edge_sum_check(g, r)

        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3)}
        out["neighbor_recursion"] = max(
            neighbor_recursion_check(g, r, i, j) for i, j in pairs
        )

        # Cut-vertex additivity on a corona built from this graph: pendant
        # crown vertices reach the rest only through their host, so the
        # host splits the resistance exactly.
        hosts = rng.sample(range(n), 2)
        crowns = tuple(
            Graph(1, ()) if v in hosts else Graph(0, ()) for v in range(n)
        )
        built = build("r_vertex", g, crowns)
        first, second = sorted(hosts)
        pendant = built.partition.crowns[first][0]
        out["cut_vertex_additivity"] = cut_vertex_check(
            resistance_matrix(built.graph), pendant, first, second
        )

    shift_h = random_crown(rng, 4)
    a = 0.5 + 1.5 * rng.random()
    b = rng.uniform(0.1, 2.0 * max(shift_h.n, 1))
    if abs(b - shift_h.n) < 0.25:
        b = shift_h.n + 0.5
    if shift_h.n > 0:
        lap_h = laplacian(shift_h)
        x = shifted_rank_one_inverse(lap_h, a, b)
        target = lap_h + a * np.eye(shift_h.n) - (a / b) * np.ones(
            (shift_h.n, shift_h.n)
        )
        out["shifted_inverse_scaled"] = max_abs(target @ x - np.eye(shift_h.n)) / max(
            1.0, max_abs(target)
        )
    return out


def run_identity_battery(seed: int, count: int, n_max: int = 10) -> tuple[dict[str, float], int]:
    """Worst residual per identity over ``count`` random connected graphs of order 2..n_max."""
    rng = random.Random(seed)
    worst: dict[str, float] = {}
    for _ in range(count):
        g = random_connected_graph(rng, 2, n_max)
        for name, value in identity_residuals(g, rng).items():
            worst[name] = max(worst.get(name, 0.0), value)
    return worst, count


# ---------------------------------------------------------------------------
# Instance checks: closed forms against the oracle on one corona


@dataclass(frozen=True)
class InstanceReport:
    """One corona instance's closed-form-versus-oracle comparison."""

    kind: str
    case: int
    base_digest: str
    n: int
    m: int
    crown_sizes: tuple[int, ...]
    values: dict[str, float]
    residuals: dict[str, float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "base": {"digest": self.base_digest, "n": self.n, "m": self.m},
            "crown_sizes": list(self.crown_sizes),
            "values": dict(self.values),
            "residuals": dict(self.residuals),
            "passed": self.passed,
        }


def _instance_passed(residuals: dict[str, float]) -> bool:
    return all(
        value <= INSTANCE_TOLERANCES[name] for name, value in residuals.items()
    )


# Per crowned kind, the name of its closed_form block hook.
_KINDS = {"r_vertex": "rv_blocks", "r_edge": "re_blocks"}

# A run checks its instances in chunks of at most _CHUNK consecutive ones,
# and each chunk takes its oracles in one stacked call.  A chunk also closes
# before its corona Laplacians pass _CHUNK_ENTRIES entries in all (64
# coronas of the Cholesky leaf order), so large crowns cannot make one
# chunk hold many large coronas at once; a corona past it is a chunk alone.
_CHUNK = 64
_CHUNK_ENTRIES = _CHUNK * 64 * 64

# One instance to check: kind, base, crown set, case, and the base group
# inverse when it has been taken already (None: the blocks take it).
_Instance = tuple[str, Graph, closed_form.CrownSet, int, np.ndarray | None]


def check_corona_instance(
    kind: str, g: Graph, crowns: tuple[Graph, ...] | closed_form.CrownSet, case: int = 0
) -> InstanceReport:
    """Run every closed-form route on one instance and compare to the oracle.

    Checks, in order: the assembled {1}-inverse really inverts (M X M = M),
    resistances read off that inverse match the oracle entrywise, the
    closed resistance matrix matches the oracle entrywise, the crown
    totals agree with the crown spectra and the expanded R-edge term, and
    the Kirchhoff index agrees between the assembled inverse, the value
    ``kirchhoff_terms`` reads off the blocks, its expanded invariant
    formula, and the oracle.  Each crown's G 1 = 1 is not
    reported: building the crown set checks it and raises past its bound.
    ``crowns`` is the crown graphs or a ``CrownSet`` over them, such as
    their part of a larger set; the blocks read the set, and the oracle
    builds the corona from the crown graphs the set keeps.  The instance is
    a chunk of one for the stacked oracle call ``run_suite`` makes per
    chunk, so it reports bit for bit what it reports in a run.
    """
    if kind not in _KINDS:
        raise ValueError(f"the suite checks r_vertex and r_edge coronas, got kind {kind!r}")
    if not isinstance(crowns, closed_form.CrownSet):
        crowns = closed_form.CrownSet.of(crowns)
    (report,) = _check_instances([(kind, g, crowns, case, None)])
    return report


def _check_instances(instances: list[_Instance]) -> list[InstanceReport]:
    """Check instances with one oracle call for all of them.

    Each corona is built and its blocks taken, on the instance's base
    group inverse or, when it has none, on one the blocks take on first
    read, with the same bits.  Then one ``laplacian_group_inverses`` call
    takes every corona Laplacian's group inverse, each bit for bit as it
    would come alone; then each instance is read and compared.
    """
    laps = [laplacian(build(kind, g, crowns.graphs).graph) for kind, g, crowns, _, _ in instances]
    blocks = [
        getattr(closed_form, _KINDS[kind])(g, crowns, ls) for kind, g, crowns, _, ls in instances
    ]
    oracles = laplacian_group_inverses(laps)
    return [_report(*args) for args in zip(instances, blocks, laps, oracles)]


def _report(
    instance: _Instance, blocks: closed_form.CoronaBlocks, lap_c: np.ndarray, oracle_x: np.ndarray
) -> InstanceReport:
    """One instance's report, from its blocks, its corona Laplacian and that Laplacian's group inverse."""
    kind, g, crowns, case, _ = instance
    x = closed_form.one_inverse(blocks)
    closed_r = closed_form.resistance_map(blocks)
    breakdown = closed_form.kirchhoff_terms(blocks)
    oracle_r = resistances_from_inverse(oracle_x)
    inverse_r = resistances_from_inverse(x)

    kf_closed = kirchhoff_from_one_inverse(x)
    kf_oracle = float(len(lap_c) * np.trace(oracle_x))
    # The crown corner of X is the grounded inverse G for both kinds, and
    # the blocks hold each crown's tr G_k and 1^T G_k 1.  The R-edge terms
    # (trace_crown_edge, ones_crown_shift) are defined on the shifted corner
    # G + J/2 per crown, so the checks below add shift * t to each crown's
    # trace and shift * t^2 to its all-ones sum.
    shift = 0.5 if kind == "r_edge" else 0.0
    sizes = np.array(blocks.crowns.sizes, dtype=float)
    traces, ones = blocks.crowns.totals

    residuals = {
        "one_inverse_scaled": verify_one_inverse(lap_c, x) / max(1.0, max_abs(lap_c)),
        "pair_dispatch_max": max_abs(closed_r - oracle_r),
        "pair_inverse_max": max_abs(inverse_r - oracle_r),
        "kf_rel_err": abs(kf_closed - kf_oracle) / max(1.0, abs(kf_oracle)),
        "kf_terms_rel_err": abs(breakdown.value - kf_oracle) / max(1.0, abs(kf_oracle)),
        "kf_expanded_dev": breakdown.deviation,
        "crown_trace_defect": abs(
            float(traces.sum()) + shift * float(sizes.sum())
            - breakdown.terms["trace_crown_eigen"]
        ),
    }
    if kind == "r_edge":
        residuals["ones_shift_defect"] = abs(
            float(ones.sum()) + shift * float(np.sum(sizes**2))
            - breakdown.terms["ones_crown_shift"]
        )

    return InstanceReport(
        kind=kind,
        case=case,
        base_digest=graph_digest(g),
        n=g.n,
        m=g.m,
        crown_sizes=crowns.sizes,
        values={
            "kf_closed": kf_closed,
            "kf_expanded": breakdown.expanded,
            "kf_oracle": kf_oracle,
        },
        residuals=residuals,
        passed=_instance_passed(residuals),
    )


# ---------------------------------------------------------------------------
# Full suite


@dataclass(frozen=True)
class ComparisonReport:
    """Aggregated suite outcome: identity battery plus per-instance comparisons."""

    seed: int
    cases: int
    n_max: int
    t_max: int
    identity_worst: dict[str, float]
    instances: tuple[InstanceReport, ...] = field(default_factory=tuple)

    @property
    def identities_passed(self) -> bool:
        return all(
            value <= IDENTITY_TOLERANCES[name]
            for name, value in self.identity_worst.items()
        )

    @property
    def verdict(self) -> str:
        instances_ok = all(inst.passed for inst in self.instances)
        return "pass" if (self.identities_passed and instances_ok) else "fail"

    def to_dict(self) -> dict:
        identity = {
            name: {
                "max_residual": value,
                "tolerance": IDENTITY_TOLERANCES[name],
                "passed": value <= IDENTITY_TOLERANCES[name],
            }
            for name, value in self.identity_worst.items()
        }
        return round_floats(
            {
                "schema": SCHEMA,
                "parameters": {
                    "seed": self.seed,
                    "cases": self.cases,
                    "n_max": self.n_max,
                    "t_max": self.t_max,
                },
                "tolerances": {
                    "identity": dict(IDENTITY_TOLERANCES),
                    "instance": dict(INSTANCE_TOLERANCES),
                },
                "identity_checks": identity,
                "instances": [inst.to_dict() for inst in self.instances],
                "summary": {
                    "instances_total": len(self.instances),
                    "instances_passed": sum(1 for i in self.instances if i.passed),
                },
                "verdict": self.verdict,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def round_floats(obj):
    """12-significant-digit float normalization for byte-stable JSON.

    Also folds numpy scalars (float64, bool_, int64) back to plain Python
    types so json.dumps never chokes on a stray array element.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def run_suite(
    seed: int = 0, cases: int = 20, n_max: int = 5, t_max: int = 3
) -> ComparisonReport:
    """Draw ``cases`` random bases; run the battery and both corona kinds on each.

    Instance bases are capped at 8 edges to keep the brute-force oracle
    cheap; the verdict is "pass" only if every residual everywhere sits
    inside its tolerance.  Every case is drawn before any instance is
    checked, so that one ``CrownSet`` holds every crown of the run and
    each instance reads its part of it.  Each base's group inverse is
    taken once, as the case is drawn, and serves its battery and both of
    its instances.  The instances are checked in order, in chunks of at
    most ``_CHUNK`` whose corona Laplacians hold at most ``_CHUNK_ENTRIES``
    entries in all (a larger corona is a chunk alone), and each chunk takes
    its oracle group inverses in one stacked call.
    """
    if cases < 0:
        raise ValueError("cases must be nonnegative")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rng = random.Random(seed)
    identity_worst: dict[str, float] = {}
    drawn: list[tuple[Graph, np.ndarray, tuple[Graph, ...], tuple[Graph, ...]]] = []
    for _ in range(cases):
        g = random_connected_graph(rng, 2, n_max, m_max=8)
        ls = laplacian_group_inverse(laplacian(g))
        for name, value in identity_residuals(g, rng, ls).items():
            identity_worst[name] = max(identity_worst.get(name, 0.0), value)
        drawn.append((g, ls, random_crowns(rng, g.n, t_max), random_crowns(rng, g.m, t_max)))
    crown_set = closed_form.CrownSet.of(tuple(c for _, _, rv, re in drawn for c in rv + re))
    instances: list[InstanceReport] = []
    chunk: list[_Instance] = []
    entries = lo = 0
    for case, (g, ls, rv, re) in enumerate(drawn):
        for kind, crowns in (("r_vertex", rv), ("r_edge", re)):
            order = g.n + g.m + sum(c.n for c in crowns)
            if chunk and (len(chunk) == _CHUNK or entries + order * order > _CHUNK_ENTRIES):
                instances.extend(_check_instances(chunk))
                chunk, entries = [], 0
            chunk.append((kind, g, crown_set.part(lo, lo + len(crowns)), case, ls))
            entries += order * order
            lo += len(crowns)
    instances.extend(_check_instances(chunk))
    return ComparisonReport(
        seed=seed,
        cases=cases,
        n_max=n_max,
        t_max=t_max,
        identity_worst=identity_worst,
        instances=tuple(instances),
    )
