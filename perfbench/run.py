"""Benchmark of the ``corona`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there and exits non-zero if there is none.  Workloads: resist_closed,
resist_oracle, kf_closed and suite (see gen.py and BENCHMARK.json).

One op is one in-process call of ``coronakit.cli.main(argv)`` with stdout
captured: a closed loop with one client, so the next op starts when the
previous one returns.  Each workload cycles a fixed list of instances
drawn from ``--seed``.  After an untimed warm-up op, the window cycles the
list for ``--seconds``; timing statistics use the window's whole cycles
(every op if no cycle completed).  After the window, each input's first
output is checked against an independent reference (verify.py), and every
op must have exited 0 with output byte-identical to the first op on the
same input.  A failed op is one that raised, exited non-zero, or failed a
check.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over separate processes, each timed from its start until it is ready for
its first timed op (imports, input generation, one warm-up op).

``--trace 1`` runs half the window untraced and half traced (tracer.py) over
the first 15 instances of the list, traces any of them the window missed,
and reports per-layer metrics for one pass over those instances: counts
from one op per instance, times as the median over that instance's ops,
summed over the instances.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the machine
record, the instances and each metric with its unit and sample count.
Inputs, spans and a results file go to ``.bench_build/perfbench/<workload>``.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count once, when numpy first loads it, so the
# cap goes into the environment before anything here imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import gen
import tracer as tracing
import verify
from calibrate import REFERENCE_MS, reference_ms

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
TRACE_SLOTS = 15
PACKAGE_MODULES = ("cli", "specfile", "graphs", "corona", "closed_form", "resistance", "linalg", "suite")


def launch() -> dict[str, object]:
    """Import the package from this tree's ``src/``; its modules by short name."""
    package = ROOT / "src" / "coronakit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    modules = {name: importlib.import_module(f"coronakit.{name}") for name in PACKAGE_MODULES}
    loaded = Path(modules["cli"].__file__).resolve().parent
    if loaded != package.resolve():
        sys.exit(f"perfbench: imported the package from {loaded}, not {package}")
    return modules


def machine_record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


@dataclass
class Op:
    slot: int
    seconds: float
    code: object
    digest: str
    done: float
    stderr: str
    # REFERENCE_MS over the reference kernel's time around this op (see
    # Runner.window); 1.0 for ops outside a calibrated window.
    scale: float = 1.0

    @property
    def ms(self) -> float:
        """Wall time rescaled to the reference machine speed."""
        return self.seconds * 1e3 * self.scale


class Runner:
    """Runs ops against one instance list and keeps what the checks need."""

    def __init__(self, instances: list[gen.Instance], main) -> None:
        self.instances = instances
        self.main = main
        self.ops: list[Op] = []
        self.first_text: dict[int, str] = {}
        self.first_digest: dict[int, str] = {}

    def op(self, slot: int) -> Op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.main(list(self.instances[slot].argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash inside the program is a failed op
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.first_text.setdefault(slot, text)
        self.first_digest.setdefault(slot, digest)
        op = Op(slot, elapsed, code, digest, time.perf_counter(), err.getvalue()[-300:])
        self.ops.append(op)
        return op

    def window(self, slots, seconds: float, tracer=None, calibrate=False) -> tuple[list[Op], float]:
        """Cycle ``slots`` in order until ``seconds`` have passed.

        With ``calibrate``, the reference kernel also runs before the first
        op and after every op.  One kernel run is short and noisy, so op j's
        scale uses the median of the six runs from two before it to three
        after it.
        """
        ops: list[Op] = []
        refs: list[float] = []
        t0 = time.perf_counter()
        deadline = t0 + seconds
        if calibrate:
            refs.append(reference_ms())
        while time.perf_counter() < deadline:
            slot = slots[len(ops) % len(slots)]
            if tracer:
                tracer.begin_op(len(self.ops))
            ops.append(self.op(slot))
            if tracer:
                tracer.end_op()
            if calibrate:
                refs.append(reference_ms())
        if calibrate:
            for j, op in enumerate(ops):
                op.scale = REFERENCE_MS / statistics.median(refs[max(0, j - 2): j + 4])
        return ops, t0

    def failures(self, tol) -> list[str]:
        """One reason per failed op; checks each input's first output once."""
        verdicts = {}
        for slot, text in self.first_text.items():
            try:
                verdicts[slot] = verify.check(self.instances[slot], text, tol)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[slot] = f"unreadable output: {exc!r}"
        reasons = []
        for i, op in enumerate(self.ops):
            ident = self.instances[op.slot].ident
            if op.code != 0:
                reasons.append(f"op {i} {ident}: exit {op.code!r} {op.stderr.strip()}")
            elif op.digest != self.first_digest[op.slot]:
                reasons.append(f"op {i} {ident}: output differs from the first op on this input")
            elif verdicts[op.slot]:
                reasons.append(f"op {i} {ident}: {verdicts[op.slot]}")
        return reasons


def whole_cycles(ops: list[Op], cycle: int) -> list[Op]:
    """The ops of the window's whole cycles; all ops if no cycle completed."""
    whole = len(ops) // cycle * cycle
    return ops[:whole] if whole else ops


def percentile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q))


def prepare(workload: str, seed: int) -> list[gen.Instance]:
    inputs = WORK / workload / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    return gen.generate(workload, seed, inputs)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh benchmark process until it is ready to time.

    Returns the wall time and the same rescaled by the reference kernel
    timed just before and just after the probe.
    """
    before = reference_ms()
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        try:
            code = child.wait(timeout=170)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after printing {line!r}")
    return elapsed, elapsed * 2.0 * REFERENCE_MS / (before + reference_ms())


def end_to_end(runner: Runner, args, tol, say) -> tuple[dict, list[str]]:
    """Times are rescaled to the reference machine speed (calibrate.py)."""
    cycle = len(runner.instances)
    ops, t0 = runner.window(range(cycle), args.seconds, calibrate=True)
    used = whole_cycles(ops, cycle)
    failures = runner.failures(tol)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ms = [op.ms for op in used]
    busy_s = sum(ms) / 1e3
    pairs = sum(runner.instances[op.slot].pairs() for op in used)
    wall_ms = [op.seconds * 1e3 for op in used]
    say(f"window: {len(ops)} ops in {args.seconds} s; statistics over {len(used)} ops "
        f"({len(used) // cycle} whole cycles of {cycle})")
    say(f"unscaled wall time: op p50 {percentile(wall_ms, 50):.3f} ms, p90 "
        f"{percentile(wall_ms, 90):.3f} ms, {len(used) / (used[-1].done - t0):.4f} ops/s "
        f"over the window; setup {statistics.median(s for s, _ in setups):.4f} s")
    say(f"machine speed scale (reference {REFERENCE_MS} ms over measured): median "
        f"{statistics.median(op.scale for op in used):.4f}, range "
        f"{min(op.scale for op in used):.4f}-{max(op.scale for op in used):.4f}")
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "op_ms_p50": (percentile(ms, 50), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(used) / busy_s, "1/s"),
        "pairs_per_s": (pairs / busy_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    say(f"op_ms percentiles from {len(ms)} samples, "
        f"{sum(v > metrics['op_ms_p90'][0] for v in ms)} above p90")
    return metrics, failures


# Per-layer metrics combined over instances by max; the rest are summed.
MAX_KEYS = ("closed_form.pinv_order_max", "linalg.eig.order_max")

LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "specfile.load_s": "s",
    "graphs.self_s": "s",
    "graphs.laplacian.calls": "count",
    "corona.build_s": "s",
    "corona.build.calls": "count",
    "corona.role_of.calls": "count",
    "closed_form.dispatch.self_s": "s",
    "closed_form.blocks.calls": "count",
    "closed_form.blocks.self_s": "s",
    "suite.blocks_per_instance": "calls/instance",
    "closed_form.kf.self_s": "s",
    "closed_form.kf.peak_mb": "MiB",
    "closed_form.oracle_calls": "count",
    "closed_form.pinv_order_max": "order",
    "resistance.calls": "count",
    "resistance.self_s": "s",
    "linalg.eig.calls": "count",
    "linalg.eig.s": "s",
    "linalg.eig.order_max": "order",
    "linalg.eig.work_n3": "order3",
    "linalg.eig.ns_per_n3": "ns/order3",
    "linalg.pinv.calls": "count",
    "linalg.inverse.calls": "count",
    "linalg.self_s": "s",
    "suite.instances": "count",
    "suite.self_s": "s",
    "trace.op_ms_p50_untraced": "ms",
    "trace.op_ms_p50_traced": "ms",
    "trace.overhead_ratio": "ratio",
}


def per_pass(per_op: dict[int, dict], runner: Runner, slots) -> tuple[dict, list[str]]:
    """Per-layer metrics for one pass over ``slots``, from the traced ops.

    Counts come from one op per instance and must repeat on every op of
    that instance; times are the median over the instance's traced ops.
    """
    by_slot: dict[int, list[dict]] = {slot: [] for slot in slots}
    for op_id, values in per_op.items():
        by_slot[runner.ops[op_id].slot].append(values)
    keys = next(iter(per_op.values())).keys()
    total: dict[str, float] = {}
    unsteady = []
    for key in keys:
        parts = []
        for slot in slots:
            values = [v[key] for v in by_slot[slot]]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    unsteady.append(f"{key} on {runner.instances[slot].ident}: {sorted(set(values))}")
                parts.append(values[0])
            else:
                parts.append(statistics.median(values))
        total[key] = max(parts) if key in MAX_KEYS else sum(parts)
    blocks_in = total.pop("closed_form.blocks_in_instances")
    total["suite.blocks_per_instance"] = blocks_in / total["suite.instances"] if total["suite.instances"] else 0.0
    work = total["linalg.eig.work_n3"]
    total["linalg.eig.ns_per_n3"] = total["linalg.eig.s"] * 1e9 / work if work else 0.0
    total["cli.output_bytes"] = sum(len(runner.first_text[slot]) for slot in slots)
    return total, unsteady


def kf_peak_mb(runner: Runner, modules, per_op: dict[int, dict], say) -> float:
    """tracemalloc peak inside the closed-form Kirchhoff call, in one extra op.

    The op reruns the traced input whose Kirchhoff calls took longest, which
    is the largest one; 0 if no traced op made such a call.
    """
    busiest = max(per_op, key=lambda i: per_op[i]["closed_form.kf.self_s"])
    if per_op[busiest]["closed_form.kf.self_s"] == 0.0:
        return 0.0
    memory = tracing.Tracer(measure_memory=True)
    memory.install(modules, only=tracing.MEMORY_SPANS)
    try:
        runner.op(runner.ops[busiest].slot)
    finally:
        memory.uninstall()
    say(f"kf memory pass on {runner.instances[runner.ops[busiest].slot].ident}: "
        f"peak {memory.peak_mb():.3f} MiB inside the call")
    return memory.peak_mb()


def per_layer(runner: Runner, args, modules, tol, say) -> tuple[dict, list[str]]:
    slots = list(range(min(TRACE_SLOTS, len(runner.instances))))
    plain, _ = runner.window(slots, args.seconds / 2)
    plain = whole_cycles(plain, len(slots))
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        traced, _ = runner.window(slots, args.seconds / 2, tracer)
        traced = whole_cycles(traced, len(slots))
        seen = {runner.ops[i].slot for i in tracer.op_counts}
        for slot in slots:
            if slot not in seen:
                tracer.begin_op(len(runner.ops))
                runner.op(slot)
                tracer.end_op()
    finally:
        tracer.uninstall()
    per_op = tracer.op_metrics()
    total, unsteady = per_pass(per_op, runner, slots)
    for line in unsteady:
        say(f"warning: count differs between ops on one input: {line}")
    total["closed_form.kf.peak_mb"] = kf_peak_mb(runner, modules, per_op, say)
    failures = runner.failures(tol)
    # The overhead compares like with like: ops on inputs both windows ran.
    common = {op.slot for op in plain} & {op.slot for op in traced}
    untraced_ms = percentile([op.seconds * 1e3 for op in plain if op.slot in common], 50)
    traced_ms = percentile([op.seconds * 1e3 for op in traced if op.slot in common], 50)
    tracer.write(WORK / args.workload / "spans.tsv")
    say(f"traced {len(per_op)} ops over {len(slots)} instances; {len(tracer.start)} spans "
        f"written to {WORK / args.workload / 'spans.tsv'}")
    say(f"trace overhead: traced op p50 {traced_ms:.3f} ms, untraced {untraced_ms:.3f} ms, "
        f"over the {len(common)} instances both windows ran")
    total["trace.op_ms_p50_untraced"] = untraced_ms
    total["trace.op_ms_p50_traced"] = traced_ms
    total["trace.overhead_ratio"] = traced_ms / untraced_ms
    return {key: (total[key], unit) for key, unit in LAYER_UNITS.items()}, failures


def describe(inst: gen.Instance) -> str:
    if inst.kind == "suite":
        return f"{inst.ident} suite seed={inst.suite_seed} corona orders={inst.suite_coronas}"
    sizes = [c.n for c in inst.crowns]
    return (f"{inst.ident} {inst.kind} n={inst.n} m={inst.m} N={inst.order} "
            f"crowns={len(sizes)} nonempty={sum(1 for t in sizes if t)} sum_t={sum(sizes)} "
            f"max_t={max(sizes, default=0)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    modules = launch()
    instances = prepare(args.workload, args.seed)
    runner = Runner(instances, modules["cli"].main)
    runner.op(0)  # warm-up
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    lines: list[str] = []

    def say(line: str) -> None:
        lines.append(line)
        print(line)

    machine = machine_record()
    say("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    say(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, one client, "
        f"{len(instances)} instances cycled in order")
    tol = verify.tolerances(modules["suite"].INSTANCE_TOLERANCES)
    if args.trace:
        metrics, failures = per_layer(runner, args, modules, tol, say)
    else:
        metrics, failures = end_to_end(runner, args, tol, say)
    for slot in sorted(runner.first_text):
        say("  instance " + describe(instances[slot]))
    for name, (value, unit) in metrics.items():
        say(f"{name} {value} {unit}")
    attempted = len(runner.ops)
    say(f"fail_ratio {len(failures) / attempted} ratio ({len(failures)} failed of {attempted} attempted)")
    for reason in failures[:20]:
        say(f"  failed: {reason}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, machine=machine, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  instances=[inst.record() for inst in instances], failures=failures, log=lines)
    out = WORK / args.workload / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
