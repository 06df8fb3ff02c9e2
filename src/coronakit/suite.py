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
which an instance calls once on its base side and crown set, and
``closed_form.one_inverses``, which assembles every {1}-inverse of a chunk
from those blocks in one call and gives them as (members, stack) pairs; a
wrong one changes an instance's X in its block of its stack.

``run_suite`` draws every case first, in one fixed rng order per case
(base, identity battery, R-vertex crowns, R-edge crowns), then builds
one ``closed_form.CrownSet`` over every crown of the run and checks each
instance on its part of that set.  So every crown of the run is inverted
and checked once, in one ``sym_inverse`` call per band of crown orders
(1-4, 5-8, ...) when the set is built, and summed in one spectral-sum
call per band when the first instance reads the crown spectra;
``check_corona_instance`` called on crown graphs makes a set of its own.  The identity battery is
drawn per case, in the rng order above, and computed in the chunks
``_chunks`` cuts (at most ``_CHUNK`` consecutive cases, fewer when their
largest matrices would pass ``_CHUNK_ENTRIES`` entries): per chunk, one
``_as_symmetric`` call checks every split's A and D and every shift's
L(H), one stacked Cholesky call (``linalg._sym_inverses``) takes every D
block and every shift's L(H) + aI, and one ``laplacian_group_inverses``
call every Kron-reduced H, base Laplacian and cut-vertex corona.  Each
case's base group inverse is that call's member: the battery reads it,
and the case's one ``closed_form.BaseSide`` holds it for both kinds'
blocks, whose map and {1}-inverse read it.  That side checks the base's
connectivity once and takes the base's sparse factor once, which the
Kirchhoff index of both kinds reads, as ``corona kf`` does, and each
report checks that value against the oracle; the base's digest is taken
once per case too.  Each corona's group inverse is taken once, by the
oracle: the run checks its instances in chunks cut by the same rule, and
each chunk's coronas go through one ``laplacian_group_inverses`` call.
The closed readouts are taken per chunk too: one ``closed_form.one_inverses``
and one ``closed_form.resistance_maps`` call, each giving its stacks; the
oracles are put in the same stacks, and the oracle's and X's resistances
are read and compared with the closed map there (``_pair_maxima``); only
the Kirchhoff values and the {1}-inverse check run instance by instance.
The package's kernels and readouts give each matrix one answer, whatever
it is stacked with, so an instance checked alone, a chunk of one whose
base side takes the base group inverse itself, reports bit for bit what it
reports in a run, a run reports the same bytes whatever its chunk size,
and ``identity_residuals``, the battery of one case, reports bit for bit
what its case reports in a run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import closed_form
from .corona import build
from .graphs import Graph, laplacian, serialize_edge_list
from .linalg import (
    SCHUR_LEAF_ORDER,
    _as_symmetric,
    _block_assembled,
    _kron_reduced,
    _rank_one_inverse,
    _rank_one_shift,
    _stacks,
    _sym_inverses,
    laplacian_group_inverses,
    max_abs,
    verify_one_inverse,
)
from .resistance import (
    cut_vertex_check,
    edge_sum_check,
    kirchhoff_from_one_inverse,
    neighbor_recursion_check,
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


@dataclass(frozen=True)
class _Case:
    """One battery case: a connected graph and the battery's draws on it.

    ``k`` splits the Laplacian for the block {1}-inverse (0 when the graph
    has one vertex, and then there are no ``pairs`` or ``hosts`` either),
    ``pairs`` are the neighbour-recursion pairs, ``hosts`` the two vertices
    that get a pendant crown vertex for cut-vertex additivity, and
    ``shift``, ``a`` and ``b`` the rank-one shift's crown and coefficients.
    """

    g: Graph
    k: int
    pairs: frozenset[tuple[int, int]]
    hosts: tuple[int, ...]
    shift: Graph
    a: float
    b: float


def _draw_case(g: Graph, rng: random.Random) -> _Case:
    """The battery's draws on ``g``, in the battery's rng order."""
    n = g.n
    k, pairs, hosts = 0, frozenset(), ()
    if n >= 2:
        k = rng.randint(1, n - 1)
        pairs = frozenset(tuple(sorted(rng.sample(range(n), 2))) for _ in range(3))
        hosts = tuple(rng.sample(range(n), 2))
    shift = random_crown(rng, 4)
    a = 0.5 + 1.5 * rng.random()
    b = rng.uniform(0.1, 2.0 * max(shift.n, 1))
    if abs(b - shift.n) < 0.25:
        b = shift.n + 0.5
    return _Case(g, k, pairs, hosts, shift, a, b)


def _battery(cases: list[_Case]) -> tuple[list[dict[str, float]], list[np.ndarray]]:
    """Residual per named identity for each case, and each case's base group inverse L#.

    Every split's A and D and every shift's L(H) are checked in one
    ``_as_symmetric`` call.  Every D block and every shift's L(H) + aI go
    through one ``_sym_inverses`` call, and every Kron-reduced H, base
    Laplacian and cut-vertex corona Laplacian, in that order, through one
    ``laplacian_group_inverses`` call; each member comes out bit for bit as
    it would alone, so a case's residuals do not depend on the cases it is
    computed with.  The algebra around those inverses is the steps
    ``block_one_inverse`` and ``shifted_rank_one_inverse`` run through.
    """
    laps = [laplacian(c.g) for c in cases]
    split = [(c, lap) for c, lap in zip(cases, laps) if c.k]
    shifted = [c for c in cases if c.shift.n]
    checked = _as_symmetric(
        [lap[: c.k, : c.k] for c, lap in split]
        + [lap[c.k :, c.k :] for c, lap in split]
        + [laplacian(c.shift) for c in shifted],
        ["block A"] * len(split) + ["block D"] * len(split) + ["Laplacian"] * len(shifted),
    )
    s = len(split)
    shifts = [_rank_one_shift(lap, c.a, c.b) for c, lap in zip(shifted, checked[2 * s :])]
    inverses = _sym_inverses(checked[s : 2 * s] + shifts, ["block D"] * s + ["L + aI"] * len(shifts))
    d_invs = inverses[:s]
    reduced = [
        _kron_reduced(a, lap[: c.k, c.k :], d_inv)
        for (c, lap), a, d_inv in zip(split, checked[:s], d_invs)
    ]
    # Cut-vertex additivity on a corona built from each graph: pendant
    # crown vertices reach the rest only through their host, so the host
    # splits the resistance exactly.
    cuts = [
        build("r_vertex", c.g, tuple(Graph(1 if v in c.hosts else 0, ()) for v in range(c.g.n)))
        for c, _ in split
    ]
    group = laplacian_group_inverses(
        [h for _, h in reduced] + laps + [laplacian(cut.graph) for cut in cuts]
    )
    bases = group[s : s + len(cases)]
    kron = iter(zip(d_invs, reduced, group[:s], cuts, group[s + len(cases) :]))
    shifted_pairs = iter(zip(shifts, inverses[s:]))

    out = []
    for c, lap, ls in zip(cases, laps, bases):
        n = c.g.n
        residuals = {"group_inverse_nullvector": max_abs(ls @ np.ones(n))}
        if c.k:
            d_inv, (bd, _), hg, cut, cut_x = next(kron)
            x = _block_assembled(hg, bd, d_inv)
            residuals["block_one_inverse_scaled"] = verify_one_inverse(lap, x) / max(
                1.0, max_abs(lap)
            )
            residuals["kirchhoff_two_routes"] = abs(
                kirchhoff_from_one_inverse(ls) - kirchhoff_from_one_inverse(x)
            )
            r = resistances_from_inverse(ls)
            residuals["edge_resistance_sum"] = edge_sum_check(c.g, r)
            residuals["neighbor_recursion"] = max(
                neighbor_recursion_check(c.g, r, i, j) for i, j in c.pairs
            )
            first, second = sorted(c.hosts)
            pendant = cut.partition.crowns[first][0]
            residuals["cut_vertex_additivity"] = cut_vertex_check(
                resistances_from_inverse(cut_x), pendant, first, second
            )
        if c.shift.n:
            shift, shift_inv = next(shifted_pairs)
            _, residuals["shifted_inverse_scaled"] = _rank_one_inverse(shift, shift_inv, c.a, c.b)
        out.append(residuals)
    return out, bases


def identity_residuals(g: Graph, rng: random.Random) -> dict[str, float]:
    """Residual per named identity, evaluated on one connected graph.

    The block-inverse and shifted-inverse draws use the rng so the battery
    covers a different split and shift on every graph.  This is the battery
    of one case: ``run_identity_battery`` and ``run_suite`` draw their
    cases the same way and compute them in chunks, with the same bits per
    case.
    """
    (out,), _ = _battery([_draw_case(g, rng)])
    return out


def _worst(cases: list[_Case]) -> tuple[dict[str, float], list[np.ndarray]]:
    """Worst residual per identity over the cases, and each case's base L#, in chunks as ``_chunks`` cuts them."""
    worst: dict[str, float] = {}
    bases: list[np.ndarray] = []
    # A case's largest matrix is its cut-vertex corona, of order n + m + 2.
    for chunk in _chunks(cases, [c.g.n + c.g.m + len(c.hosts) for c in cases]):
        out, ls = _battery(chunk)
        bases += ls
        for residuals in out:
            for name, value in residuals.items():
                worst[name] = max(worst.get(name, 0.0), value)
    return worst, bases


def run_identity_battery(seed: int, count: int, n_max: int = 10) -> tuple[dict[str, float], int]:
    """Worst residual per identity over ``count`` random connected graphs of order 2..n_max."""
    rng = random.Random(seed)
    cases = [_draw_case(random_connected_graph(rng, 2, n_max), rng) for _ in range(count)]
    worst, _ = _worst(cases)
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
_CHUNK_ENTRIES = _CHUNK * SCHUR_LEAF_ORDER**2


def _chunks(items: list, orders: list[int]) -> Iterator[list]:
    """``items`` in consecutive chunks of at most _CHUNK, by the rule above.

    ``orders[i]`` is the order of the largest matrix item i inverts, and a
    chunk closes before the squares of its orders pass _CHUNK_ENTRIES; an
    item past it alone is a chunk alone.
    """
    chunk: list = []
    entries = 0
    for item, order in zip(items, orders):
        if chunk and (len(chunk) == _CHUNK or entries + order * order > _CHUNK_ENTRIES):
            yield chunk
            chunk, entries = [], 0
        chunk.append(item)
        entries += order * order
    if chunk:
        yield chunk


# One instance to check: kind, base side, crown set, case, and the base's
# digest.  Both instances of a case share its base side and digest.
_Instance = tuple[str, closed_form.BaseSide, closed_form.CrownSet, int, str]


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
    a chunk of one for the stacked calls ``run_suite`` makes per chunk, the
    oracle's, ``closed_form.one_inverses`` and
    ``closed_form.resistance_maps``, and a chunk of one is read unpadded, so
    it reports bit for bit what it reports in a run.
    """
    if kind not in _KINDS:
        raise ValueError(f"the suite checks r_vertex and r_edge coronas, got kind {kind!r}")
    if not isinstance(crowns, closed_form.CrownSet):
        crowns = closed_form.CrownSet.of(crowns)
    side = closed_form.BaseSide.of(g)
    (report,) = _check_instances([(kind, side, crowns, case, graph_digest(g))])
    return report


def _check_instances(instances: list[_Instance]) -> list[InstanceReport]:
    """Check a chunk of instances, each stage in one call for all of them.

    Each corona is built and its blocks taken on the instance's base
    side, which holds the base group inverse or, when it was handed none,
    takes one on first read, with the same bits.  Then one
    ``laplacian_group_inverses`` call takes every corona Laplacian's group
    inverse, one ``closed_form.one_inverses`` call every {1}-inverse X and
    one ``closed_form.resistance_maps`` call every closed map, each member
    bit for bit as it would come alone, as a block of the stacks those
    calls give.  ``_pair_maxima`` reads the oracle's and X's resistances
    on the same stacks and compares all three maps there; then each
    instance is read and compared, on a contiguous copy of its X.
    """
    laps = [
        laplacian(build(kind, side.graph, crowns.graphs).graph)
        for kind, side, crowns, _, _ in instances
    ]
    blocks = [
        getattr(closed_form, _KINDS[kind])(side, crowns) for kind, side, crowns, _, _ in instances
    ]
    oracles = laplacian_group_inverses(laps)
    xs = closed_form.one_inverses(blocks)
    maxima = _pair_maxima(closed_form.resistance_maps(blocks), xs, oracles)
    # Each X is read on its own from here: a contiguous copy of its block,
    # so the Kirchhoff value's and the {1}-inverse check's matrix products
    # see the bits of X alone.
    mine = [np.empty((0, 0))] * len(instances)
    for members, stack in xs:
        for slot, k in enumerate(members):
            n = len(laps[k])
            mine[k] = np.ascontiguousarray(stack[slot, :n, :n])
    return [_report(*args) for args in zip(instances, blocks, laps, oracles, mine, maxima)]


def _pair_maxima(
    maps: list[tuple[list[int], np.ndarray]],
    xs: list[tuple[list[int], np.ndarray]],
    oracles: list[np.ndarray],
) -> list[tuple[float, float]]:
    """Per instance, max |closed map - oracle's| and max |X's map - oracle's|, over its own block.

    ``maps`` and ``xs`` are the closed maps and the {1}-inverses on the
    stacks the chunk readouts give, and the oracles are put in the same
    stacks by ``linalg._stacks``: all three follow ``linalg._groups`` of
    the instances' corona orders.  The resistances of X and of the oracle
    are read per stack, and the differences are set to 0 on each member's
    pad rows and columns, where no stack holds a value of the member; so a
    member's maxima over its padded block are those over its own block.
    Both differences are taken in place, so the stacks of ``maps`` hold the
    closed differences afterwards.
    """
    out = [(0.0, 0.0)] * len(oracles)
    for (members, closed), (_, x), (_, oracle) in zip(maps, xs, _stacks(oracles, 0.0)):
        oracle_r = resistances_from_inverse(oracle)
        dispatch = np.abs(np.subtract(closed, oracle_r, out=closed), out=closed)
        inverse = resistances_from_inverse(x)
        inverse = np.abs(np.subtract(inverse, oracle_r, out=inverse), out=inverse)
        sizes = np.array([len(oracles[k]) for k in members])
        pad = np.arange(closed.shape[-1]) >= sizes[:, None]
        pad = pad[:, :, None] | pad[:, None, :]
        dispatch[pad] = 0.0
        inverse[pad] = 0.0
        for k, a, b in zip(members, dispatch.max(axis=(1, 2)).tolist(), inverse.max(axis=(1, 2)).tolist()):
            out[k] = (a, b)
    return out


def _report(
    instance: _Instance,
    blocks: closed_form.CoronaBlocks,
    lap_c: np.ndarray,
    oracle_x: np.ndarray,
    x: np.ndarray,
    maxima: tuple[float, float],
) -> InstanceReport:
    """One instance's report, from its blocks, its corona Laplacian, that Laplacian's group inverse, X and its pair maxima."""
    kind, side, crowns, case, digest = instance
    breakdown = closed_form.kirchhoff_terms(blocks)

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
        "pair_dispatch_max": maxima[0],
        "pair_inverse_max": maxima[1],
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
        base_digest=digest,
        n=side.graph.n,
        m=side.graph.m,
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
    taken once, in its battery chunk's stacked call, and serves its battery
    and, through the case's one ``closed_form.BaseSide``, both of its
    instances, which also share that side's connectivity check and sparse
    factor and the case's digest.  The instances are checked in order, in chunks of at
    most ``_CHUNK`` whose corona Laplacians hold at most ``_CHUNK_ENTRIES``
    entries in all (a larger corona is a chunk alone), and each chunk takes
    its oracle group inverses, its {1}-inverses and its closed maps in one
    stacked call each.
    """
    if cases < 0:
        raise ValueError("cases must be nonnegative")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rng = random.Random(seed)
    drawn: list[tuple[_Case, tuple[Graph, ...], tuple[Graph, ...]]] = []
    for _ in range(cases):
        g = random_connected_graph(rng, 2, n_max, m_max=8)
        case = _draw_case(g, rng)
        drawn.append((case, random_crowns(rng, g.n, t_max), random_crowns(rng, g.m, t_max)))
    identity_worst, bases = _worst([case for case, _, _ in drawn])
    crown_set = closed_form.CrownSet.of(tuple(c for _, rv, re in drawn for c in rv + re))
    todo: list[_Instance] = []
    orders: list[int] = []
    lo = 0
    for number, ((case, rv, re), ls) in enumerate(zip(drawn, bases)):
        g = case.g
        side, digest = closed_form.BaseSide.of(g, ls), graph_digest(g)
        for kind, crowns in (("r_vertex", rv), ("r_edge", re)):
            todo.append((kind, side, crown_set.part(lo, lo + len(crowns)), number, digest))
            orders.append(g.n + g.m + sum(c.n for c in crowns))
            lo += len(crowns)
    instances = [report for chunk in _chunks(todo, orders) for report in _check_instances(chunk)]
    return ComparisonReport(
        seed=seed,
        cases=cases,
        n_max=n_max,
        t_max=t_max,
        identity_worst=identity_worst,
        instances=tuple(instances),
    )
