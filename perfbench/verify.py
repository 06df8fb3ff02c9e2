"""Independent checks of the program's outputs, run outside every timed window.

The references here use numpy's own LAPACK routines on a corona Laplacian
that this file assembles from the generated graphs; nothing is taken from
the package under test except its tolerance table, and a tolerance from
that table is used only where it is tighter than the one set here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import Instance

# The values of the matching entries of suite.INSTANCE_TOLERANCES when this
# benchmark was written.  See ``tolerances``.
TOLERANCES = {
    "pair_dispatch_max": 1e-8,
    "kf_rel_err": 1e-6,
    "kf_expanded_dev": 1e-8,
}

# The program prints floats with 12 significant digits.
PRINTED_DIGITS = 12


def tolerances(program_table: dict[str, float]) -> dict[str, float]:
    """The tighter of this file's tolerance and the program's, per check."""
    return {k: min(v, program_table.get(k, v)) for k, v in TOLERANCES.items()}


def corona_laplacian(inst: Instance) -> np.ndarray:
    """Laplacian of the corona in the package's documented vertex layout.

    Original vertices, then one vertex per base edge in sorted edge order,
    then the crowns one after another, each joined to its anchor: original
    vertex k for r_vertex, edge vertex k for r_edge.
    """
    n, m, order = inst.n, inst.m, inst.order
    edges = list(inst.base.edges)
    for e, (u, v) in enumerate(sorted(inst.base.edges)):
        edges += [(u, n + e), (v, n + e)]
    anchors = range(n) if inst.kind == "r_vertex" else range(n, n + m)
    off = n + m
    for anchor, crown in zip(anchors, inst.crowns):
        edges += [(off + a, off + b) for a, b in crown.edges]
        edges += [(anchor, off + a) for a in range(crown.n)]
        off += crown.n
    lap = np.zeros((order, order))
    ends = np.array(edges).T
    np.add.at(lap, (ends[0], ends[1]), -1.0)
    np.add.at(lap, (ends[1], ends[0]), -1.0)
    lap[np.diag_indices(order)] = -lap.sum(axis=1)
    return lap


def _ulp(x: float) -> float:
    """One unit in the last printed digit of ``x``."""
    if x == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - PRINTED_DIGITS + 1)


def check_resist(inst: Instance, text: str, tol: dict[str, float]) -> str | None:
    """CSV of every pair against pinv of the corona Laplacian; None if all good."""
    lines = text.splitlines()
    if not lines or lines[0] not in ("u,v,closed", "u,v,oracle"):
        return f"unexpected CSV header {lines[:1]!r}"
    order = inst.order
    want_rows = order * (order - 1) // 2
    if len(lines) - 1 != want_rows:
        return f"{len(lines) - 1} rows, want N(N-1)/2 = {want_rows}"
    table = np.array([row.split(",") for row in lines[1:]], dtype=float)
    iu, iv = np.triu_indices(order, 1)
    if not (np.array_equal(table[:, 0], iu) and np.array_equal(table[:, 1], iv)):
        return "rows do not list each pair u < v once, in order"
    x = np.linalg.pinv(corona_laplacian(inst), hermitian=True)
    d = np.diag(x)
    ref = d[iu] + d[iv] - 2.0 * x[iu, iv]
    worst = float(np.max(np.abs(table[:, 2] - ref)))
    if not worst <= tol["pair_dispatch_max"]:
        return f"max |r - pinv reference| = {worst:.3e} > {tol['pair_dispatch_max']:.0e}"
    return None


def check_kf(inst: Instance, text: str, tol: dict[str, float]) -> str | None:
    """Kirchhoff JSON against N * sum 1/lambda of the corona Laplacian."""
    doc = json.loads(text)
    order = inst.order
    if doc.get("kind") != inst.kind or doc.get("vertices") != order:
        return f"kind/vertices {doc.get('kind')}/{doc.get('vertices')}, want {inst.kind}/{order}"
    closed, expanded = float(doc["closed"]), float(doc["expanded"])
    lam = np.linalg.eigvalsh(corona_laplacian(inst))
    ref = order * float(np.sum(1.0 / lam[1:]))
    rel = abs(closed - ref) / max(1.0, abs(ref))
    if not rel <= tol["kf_rel_err"]:
        return f"|closed - reference| / reference = {rel:.3e} > {tol['kf_rel_err']:.0e}"
    # Both values are printed rounded, each off by at most half a unit in
    # the last printed digit; a gap within the tolerance at full precision
    # shows on the page as at most the tolerance plus one such unit.
    gap = abs(closed - expanded)
    if not gap <= tol["kf_expanded_dev"] + _ulp(max(abs(closed), abs(expanded))):
        return f"|closed - expanded| = {gap:.3e} > {tol['kf_expanded_dev']:.0e} (+ print rounding)"
    return None


def check_suite(inst: Instance, text: str, tol: dict[str, float]) -> str | None:
    """Suite report must pass; records the corona orders it covered."""
    doc = json.loads(text)
    if doc.get("verdict") != "pass":
        return f"suite verdict {doc.get('verdict')!r}"
    inst.suite_coronas = [
        c["base"]["n"] + c["base"]["m"] + sum(c["crown_sizes"]) for c in doc["instances"]
    ]
    return None


def check(inst: Instance, text: str, tol: dict[str, float]) -> str | None:
    """Dispatch on the subcommand; returns a failure reason or None."""
    command = inst.argv[0]
    if command == "resist":
        return check_resist(inst, text, tol)
    if command == "kf":
        return check_kf(inst, text, tol)
    return check_suite(inst, text, tol)
