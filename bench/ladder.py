"""Size ladder of the closed Kirchhoff index, read off the sparse grounded factor of the base.

    python3 bench/ladder.py [--out BENCH_kf_ladder.json] [--sizes 120 480 ...] [--repeats 3]
    python3 bench/ladder.py --crowns [--before FILE] [--out BENCH_crown_sums.json]
    python3 bench/ladder.py --suite [--before FILE] [--out BENCH_suite_battery.json]

Run it from anywhere; it imports the package from this checkout's ``src/``.
Each case is the R-vertex corona with every crown empty, R(G), over a base
G from one of three families at each size n: the path P_n, a random
connected graph with m = 1.2 n edges (a random attachment tree plus
chords, seeded by n), and the square grid of side ceil(sqrt(n)).  Each
case runs ``closed_form.kirchhoff_terms``, which reads the
``GroundedFactor`` of L(G); its time is the best of ``--repeats`` runs
(one above n = 1000), from the base graph to the breakdown, and its memory
is the tracemalloc peak of one more run.  Then K_80 and K_200, whose
every front is wider than ``linalg.DENSE_FRONT`` so the factor is one
dense block, and one ``corona kf --method closed --format json`` run over
P_4000 in a child process, with its wall time and peak RSS.  Paths are checked against the
exact Kirchhoff index of R(P_n).  BLAS runs on one thread.  The report is
one JSON document written to ``--out``.  The default is not
``BENCH_kf_sparse.json``: that file records the sparse route against the
dense group inverse it replaced, a comparison this ladder no longer runs.

With ``--crowns`` only the crown rung runs: the crowns' spectral sums,
``closed_form._crown_eigen_sums`` over a ``CrownSet`` of eight crowns of
one order t, for K_t and for random crowns with edge probability 1/2, at t
in CROWN_ORDERS.  Each row has the best of ``--repeats`` times, the
tracemalloc peak of one more run, the worst relative gap between a sum and
the Cholesky trace tr (L(H) + I)^{-1} of the same crown, and for K_t the
worst relative error against the exact 1 + (t - 1)/(t + 1).  One more row,
family ``mixed`` with t = 4, is the crown pass of one ``corona kf`` op of
perfbench's kf_closed workload: ``CrownSet.of`` and ``eigen_sums`` over 60
crowns whose orders cycle 0..4, shuffled, with edges at 1/2, as that
workload draws them; its time is the best of ``--repeats`` passes of
MIXED_OPS such ops, per op.  ``--before`` takes the report of the same
command on another checkout and keeps its rows, with each row's time there
and the speedup, so one file holds both.

With ``--suite`` only the suite rung runs, in process over the suite
seeds 0-99: ``suite.run_suite(seed, cases=5)`` and its ``to_json()``, the
op of ``corona suite --cases 5``, and the identity battery alone as
``suite.run_identity_battery(seed, 5, n_max=5)``, five graphs of order 2-5
per seed, each with its own base group inverse.  Each row is the best of
``--repeats`` passes over the 100 seeds, as the mean time of one seed,
with the tracemalloc peak of one more pass; ``--before`` works as for the
crown rung.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coronakit import closed_form, linalg, suite  # noqa: E402
from coronakit.graphs import Graph, complete_graph, empty_graph, path_graph  # noqa: E402
from coronakit.graphs import serialize_edge_list  # noqa: E402

SIZES = (120, 480, 1000, 2000, 4000)
CROWN_ORDERS = (4, 16, 64, 128, 300)
CROWNS_PER_ORDER = 8
MIXED_CROWNS, MIXED_T_MAX, MIXED_OPS = 60, 4, 100


def random_base(n: int) -> Graph:
    rng = random.Random(n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + n // 5:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, tuple(edges))


def grid_base(n: int) -> Graph:
    side = math.ceil(math.sqrt(n))
    edges = [(v, v + 1) for v in range(side * side) if v % side != side - 1]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    return Graph(side * side, tuple(edges))


FAMILIES = {"path": path_graph, "random": random_base, "grid": grid_base}


def r_path_kirchhoff(n: int) -> Fraction:
    """Kf(R(P_n)) exactly: every resistance is 2/3 per triangle crossed."""
    m = n - 1
    base = sum(d * (n - d) for d in range(1, n))
    mixed = sum((k + 1) * (k + 2) // 2 + (n - 1 - k) * (n - k) // 2 for k in range(m))
    edge = sum((d + 1) * (m - d) for d in range(1, m))
    return Fraction(2, 3) * (base + mixed + edge)


def kirchhoff(g: Graph, crowns: tuple[Graph, ...]) -> float:
    return closed_form.kirchhoff_terms(closed_form.rv_blocks(g, crowns)).value


def measure(g: Graph, repeats: int) -> tuple[float, float, float]:
    """Best wall time in s, tracemalloc peak in MB, and the Kirchhoff value."""
    crowns = tuple(empty_graph(0) for _ in range(g.n))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        value = kirchhoff(g, crowns)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        kirchhoff(g, crowns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 2**20, value


def case(family: str, g: Graph, repeats: int) -> dict:
    eu, ev = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    factor = linalg.GroundedFactor.of(g.n, eu, ev)
    kf_s, kf_mb, kf = measure(g, repeats)
    row = {
        "family": family,
        "n": g.n,
        "m": g.m,
        "head": len(factor.head),
        "tail": len(factor.tail),
        "fill": sum(map(len, factor.columns)),
        "kf_s": kf_s,
        "kf_peak_mb": kf_mb,
        "kf": kf,
    }
    if family == "path":
        exact = r_path_kirchhoff(g.n)
        row["kf_exact"] = float(exact)
        row["rel_err"] = float(abs(Fraction(kf) - exact) / exact)
    print(
        f"{family:6s} n={g.n:5d} m={g.m:5d} head {row['head']:5d} tail {row['tail']:4d}: "
        f"{kf_s:8.4f} s {kf_mb:7.1f} MB",
        file=sys.stderr,
    )
    return row


def cli_case(n: int) -> dict:
    """``corona kf --method closed`` over the R-vertex corona of P_n with empty crowns, in a child."""
    with tempfile.TemporaryDirectory() as folder:
        base = Path(folder) / "base.edges"
        base.write_text(serialize_edge_list(path_graph(n)), encoding="ascii")
        spec = Path(folder) / "corona.spec"
        spec.write_text("kind = r_vertex\nbase = base.edges\n", encoding="ascii")
        argv = [sys.executable, "-m", "coronakit.cli", "kf", str(spec), "--method", "closed"]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        start = time.perf_counter()
        out = subprocess.run(argv + ["--format", "json"], check=True, capture_output=True, env=env)
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    value = json.loads(out.stdout)["closed"]
    exact = r_path_kirchhoff(n)
    row = {
        "command": f"corona kf <R-vertex over P_{n}> --method closed --format json",
        "n": n,
        "wall_s": wall,
        "peak_rss_mb": peak_mb,
        "kf": value,
        "rel_err": float(abs(Fraction(value) - exact) / exact),
    }
    print(f"cli    P_{n}: {wall:.3f} s, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return row


def crowns_of(family: str, t: int) -> tuple[Graph, ...]:
    if family == "complete":
        return (complete_graph(t),) * CROWNS_PER_ORDER
    rng = random.Random(t)
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    return tuple(
        Graph(t, tuple(e for e in pairs if rng.random() < 0.5)) for _ in range(CROWNS_PER_ORDER)
    )


def mixed_crowns() -> tuple[Graph, ...]:
    """MIXED_CROWNS crowns whose orders cycle 0..MIXED_T_MAX, shuffled, with edges at 1/2, as kf_closed draws them."""
    rng = random.Random(MIXED_CROWNS)
    sizes = [k % (MIXED_T_MAX + 1) for k in range(MIXED_CROWNS)]
    rng.shuffle(sizes)
    return tuple(
        Graph(t, tuple((u, v) for u in range(t) for v in range(u + 1, t) if rng.random() < 0.5))
        for t in sizes
    )


def timed(op, repeats: int, per: int = 1):
    """The best of ``repeats`` passes of ``per`` calls of ``op``, per call; the tracemalloc peak of one more call; its result."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(per):
            op()
        best = min(best, (time.perf_counter() - start) / per)
    tracemalloc.start()
    try:
        result = op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak, result


def crown_case(family: str, t: int, repeats: int) -> dict:
    """The spectral sums of eight crowns of order t (or the mixed crowns), against their Cholesky traces."""
    if family == "mixed":
        graphs = mixed_crowns()

        def op():
            crowns = closed_form.CrownSet.of(graphs)
            return crowns, crowns.eigen_sums

        best, peak, (crowns, sums) = timed(op, repeats, MIXED_OPS)
    else:
        crowns = closed_form.CrownSet.of(crowns_of(family, t))
        best, peak, sums = timed(lambda: closed_form._crown_eigen_sums(crowns), repeats)
    traces = crowns.totals[0]
    # An empty crown sums to exactly 0, as its trace does.
    full = traces > 0.0
    row = {
        "family": family,
        "t": t,
        "crowns": len(crowns),
        "s": best,
        "peak_mb": peak / 2**20,
        "trace_gap": float(np.max(np.abs(sums - traces)[full] / traces[full])),
    }
    if family == "complete":
        exact = 1.0 + (t - 1) / (t + 1)
        row["rel_err"] = float(np.max(np.abs(sums - exact))) / exact
    print(
        f"crowns {family:8s} t={t:3d} x{len(crowns)}: {best * 1e3:9.3f} ms {row['peak_mb']:6.2f} MB, "
        f"trace gap {row['trace_gap']:.1e}",
        file=sys.stderr,
    )
    return row


def crown_report(repeats: int, before: str | None) -> dict:
    rows = [crown_case(f, t, repeats) for f in ("complete", "random") for t in CROWN_ORDERS]
    rows.append(crown_case("mixed", MIXED_T_MAX, repeats))
    report = {
        "schema": "coronakit-bench-crown-sums/1",
        "what": "each crown's sum of 1/(mu + 1) over its Laplacian spectrum, "
        f"closed_form._crown_eigen_sums over {CROWNS_PER_ORDER} crowns of one order; "
        f"the mixed row is CrownSet.of and eigen_sums over {MIXED_CROWNS} crowns of orders "
        f"0-{MIXED_T_MAX}, per op",
        "machine": machine(),
        "rows": rows,
    }
    return with_before(report, before, lambda row: (row["family"], row["t"]), "s")


SUITE_SEEDS = range(100)

SUITE_ROWS = {
    "run_suite + to_json": lambda seed: suite.run_suite(seed, cases=5).to_json(),
    "identity battery": lambda seed: suite.run_identity_battery(seed, 5, n_max=5),
}


def suite_case(what: str, repeats: int) -> dict:
    """One suite row: the best pass over SUITE_SEEDS as ms per seed, and one more pass's peak."""
    op = SUITE_ROWS[what]
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for seed in SUITE_SEEDS:
            op(seed)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        for seed in SUITE_SEEDS:
            op(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    seeds = len(SUITE_SEEDS)
    row = {"what": what, "seeds": seeds, "ms": 1e3 * best / seeds, "peak_mb": peak / 2**20}
    print(f"suite  {what:20s}: {row['ms']:7.3f} ms per seed, {row['peak_mb']:5.2f} MB", file=sys.stderr)
    return row


def suite_report(repeats: int, before: str | None) -> dict:
    rows = [suite_case(what, repeats) for what in SUITE_ROWS]
    report = {
        "schema": "coronakit-bench-suite-battery/1",
        "what": "in-process corona suite --cases 5 (run_suite and to_json) and the identity "
        f"battery alone (run_identity_battery, 5 graphs of order 2-5), per seed over seeds "
        f"{SUITE_SEEDS.start}-{SUITE_SEEDS.stop - 1}",
        "machine": machine(),
        "rows": rows,
    }
    return with_before(report, before, lambda row: row["what"], "ms")


def with_before(report: dict, before: str | None, key, field: str) -> dict:
    """The report, with another checkout's report of the same rung and each row's time there and speedup."""
    if before is not None:
        earlier = json.loads(Path(before).read_text(encoding="ascii"))
        then = {key(r): r for r in earlier["rows"]}
        for row in report["rows"]:
            row[f"before_{field}"] = then[key(row)][field]
            row["speedup"] = row[f"before_{field}"] / row[field]
        report["before"] = earlier
    return report


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--out",
        help="report file (default BENCH_kf_ladder.json; BENCH_crown_sums.json with --crowns, "
        "BENCH_suite_battery.json with --suite)",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    rung = parser.add_mutually_exclusive_group()
    rung.add_argument("--crowns", action="store_true", help="run only the crown rung")
    rung.add_argument("--suite", action="store_true", help="run only the suite rung")
    parser.add_argument("--before", help="crown or suite rung report of another checkout to compare with")
    args = parser.parse_args()
    if args.crowns or args.suite:
        if args.crowns:
            name, rung_report = "BENCH_crown_sums.json", crown_report
        else:
            name, rung_report = "BENCH_suite_battery.json", suite_report
        out = args.out or str(ROOT / name)
        report = rung_report(args.repeats, args.before)
        Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
        print(f"wrote {out}", file=sys.stderr)
        return
    args.out = args.out or str(ROOT / "BENCH_kf_ladder.json")
    # The child runs first: a child forked from a parent that has grown
    # counts the parent's pages in its peak RSS until it execs.
    cli = cli_case(4000)
    rows = []
    for n in args.sizes:
        for family, make in FAMILIES.items():
            rows.append(case(family, make(n), args.repeats if n <= 1000 else 1))
    complete = [case("complete", complete_graph(n), args.repeats) for n in (80, 200)]
    report = {
        "schema": "coronakit-bench-kf-sparse/2",
        "what": "closed Kirchhoff index of R(G) (R-vertex corona, empty crowns), "
        "read off the sparse grounded factor of the base",
        "machine": machine(),
        "dense_front": linalg.DENSE_FRONT,
        "ladder": rows,
        "complete": complete,
        "cli": cli,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
