"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

1. With one closed-form coefficient deliberately wrong (the 2/3 weight on
   the original-vertex corner of the assembled inverse, set to 1/2, the
   first mutation of the acceptance tests), ops of resist_closed and
   kf_closed must fail their checks; without it, none may.
2. On fixed tiny inputs, the tracer's counts must match hand counts:
   ``corona.role_of.calls`` = N(N-1) for ``resist --all``, the largest
   pseudo-inverse under the closed route is the base order n, and the
   suite computes the closed-form blocks 4 times per instance.

The wrong coefficient is patched in at the public closed-form functions
the command line calls, so the check does not depend on private names.
Prints one line per check; exits 0 if all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import run  # first: it caps the BLAS thread pool before numpy loads

import numpy as np

import gen
import tracer as tracing
import verify

DELTA = 0.5 - 2.0 / 3.0
WINDOW_S = 1.5


def _corner_shift(ls, n, m, crowns, anchor_offset):
    """Change in every corona resistance when X[:n, :n] gains DELTA * L#.

    Inside the skeleton the change follows from r = X_uu + X_vv - 2 X_uv; a
    crown vertex reaches everything outside its crown through its anchor,
    a cut vertex, so it inherits the anchor's change.
    """
    d = np.diag(ls)
    skel = np.zeros((n + m, n + m))
    skel[:n, :n] = DELTA * (d[:, None] + d[None, :] - 2.0 * ls)
    skel[:n, n:] = DELTA * d[:, None]
    skel[n:, :n] = skel[:n, n:].T
    np.fill_diagonal(skel, 0.0)
    rep = np.concatenate(
        [np.arange(n + m)]
        + [np.full(c.n, anchor_offset + k, dtype=int) for k, c in enumerate(crowns)]
    )
    return skel[np.ix_(rep, rep)]


def mutations(closed_form):
    """Patches giving the closed routes the CLI uses a 1/2 corner weight."""

    def resistance(real, blocks, edge_kind):
        def mutant(g, crowns):
            shift = _corner_shift(
                blocks(g, crowns).l_sharp, g.n, g.m, crowns, g.n if edge_kind else 0
            )
            return real(g, crowns) + shift

        return mutant

    def kirchhoff(real, blocks):
        def mutant(g, crowns):
            out = real(g, crowns)
            ls = blocks(g, crowns).l_sharp
            order = g.n + g.m + sum(c.n for c in crowns)
            # Kf = N tr X - 1'X1, and L# 1 = 0, so only the trace moves.
            value = out.value + DELTA * order * float(ls.trace())
            return dataclasses.replace(out, value=value, deviation=abs(value - out.expanded))

        return mutant

    cf = closed_form
    return [
        mock.patch.object(cf, "rv_resistance_matrix",
                          resistance(cf.rv_resistance_matrix, cf.rv_blocks, False)),
        mock.patch.object(cf, "re_resistance_matrix",
                          resistance(cf.re_resistance_matrix, cf.re_blocks, True)),
        mock.patch.object(cf, "rv_kirchhoff_terms", kirchhoff(cf.rv_kirchhoff_terms, cf.rv_blocks)),
        mock.patch.object(cf, "re_kirchhoff_terms", kirchhoff(cf.re_kirchhoff_terms, cf.re_blocks)),
    ]


def failures_in_window(modules, tol, workload, patches) -> tuple[int, int]:
    instances = run.prepare(workload, 0)
    runner = run.Runner(instances, modules["cli"].main)
    for patch in patches:
        patch.start()
    try:
        runner.window(range(len(instances)), WINDOW_S)
    finally:
        for patch in patches:
            patch.stop()
    return len(runner.failures(tol)), len(runner.ops)


def traced_pass(modules, instances) -> dict:
    runner = run.Runner(instances, modules["cli"].main)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for slot in range(len(instances)):
            tracer.begin_op(len(runner.ops))
            op = runner.op(slot)
            tracer.end_op()
            if op.code != 0:
                raise RuntimeError(f"{instances[slot].ident} exited {op.code!r}")
    finally:
        tracer.uninstall()
    per_op = tracer.op_metrics()
    # One op per input, so op i ran slot i.
    return {slot: run.per_pass({slot: per_op[slot]}, runner, [slot])[0] for slot in per_op}


def hand_count_instances() -> list[gen.Instance]:
    root = run.WORK / "selftest"
    k1, k2 = gen.SimpleGraph(1, ()), gen.SimpleGraph(2, ((0, 1),))
    empty = gen.SimpleGraph(0, ())
    argv = ["resist", "--all", "--method", "closed", "--format", "csv"]
    rv = gen.corona_instance(root, "rv-c4", "r_vertex", gen.cycle(4), (k1, empty, k2, k1), argv)
    re = gen.corona_instance(root, "re-c5", "r_edge", gen.cycle(5), (k1, empty, k1, empty, k2), argv)
    suite = gen.Instance("suite-0", "suite", ["suite", "--seed", "0", "--cases", "1", "--format", "json"])
    return [rv, re, suite]


def main() -> int:
    modules = run.launch()
    tol = verify.tolerances(modules["suite"].INSTANCE_TOLERANCES)
    results = []

    for workload in ("resist_closed", "kf_closed"):
        failed, attempted = failures_in_window(modules, tol, workload, [])
        results.append((failed == 0, f"{workload} clean: {failed}/{attempted} ops failed, want 0"))
        failed, attempted = failures_in_window(modules, tol, workload, mutations(modules["closed_form"]))
        results.append((
            failed == attempted > 0,
            f"{workload} with the 1/2 corner weight: {failed}/{attempted} ops failed, want all",
        ))

    rv, re, suite = hand_count_instances()
    counts = traced_pass(modules, [rv, re, suite])
    for slot, inst in enumerate((rv, re)):
        got = counts[slot]
        want = inst.order * (inst.order - 1)
        results.append((got["corona.role_of.calls"] == want,
                        f"{inst.ident}: role_of calls {got['corona.role_of.calls']}, want N(N-1) = {want}"))
        results.append((got["closed_form.pinv_order_max"] == inst.n,
                        f"{inst.ident}: largest closed-route pseudo-inverse "
                        f"{got['closed_form.pinv_order_max']}, want n = {inst.n}"))
    got = counts[2]
    results.append((got["suite.instances"] == 2 and got["suite.blocks_per_instance"] == 4,
                    f"suite --cases 1: {got['suite.instances']} instances, "
                    f"{got['suite.blocks_per_instance']} block builds per instance, want 2 and 4"))

    for ok, line in results:
        print(("ok    " if ok else "FAIL  ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
