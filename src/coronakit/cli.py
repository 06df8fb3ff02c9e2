"""Command line front end.

Four subcommands: ``build`` materializes a corona described by a spec file,
``resist`` and ``kf`` answer resistance and Kirchhoff-index queries by the
closed forms and/or the brute-force oracle, and ``suite`` runs the seeded
cross-validation battery.

Exit codes: 0 on success, 1 when the suite verdict is "fail", 2 on any
input problem (unreadable files, malformed spec, out-of-range vertices),
3 on an internal numerical fault (a Schur or complement defect, Jacobi
non-convergence): those are the program's failures, not the input's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, closed_form
from .corona import CoronaResult
from .graphs import empty_graph, serialize_edge_list
from .linalg import MatrixError
from .resistance import kirchhoff_index, resistance_matrix
from .specfile import CoronaSpec, build_from_spec, load_corona_spec
from .suite import (
    INSTANCE_TOLERANCES,
    IDENTITY_TOLERANCES,
    round_floats,
    run_suite,
)


class CliInputError(ValueError):
    """Anything wrong with what the user handed us; maps to exit code 2."""


def _closed_ingredients(spec: CoronaSpec) -> tuple:
    """(base, crowns) to feed the closed forms, folding r_graph into r_vertex.

    A plain R-graph is the R-vertex corona with every crown empty, so one
    code path serves both.
    """
    if spec.kind == "r_graph":
        return spec.base, tuple(empty_graph(0) for _ in range(spec.base.n))
    return spec.base, spec.crowns


def _closed_resistance_matrix(spec: CoronaSpec) -> np.ndarray:
    base, crowns = _closed_ingredients(spec)
    if spec.kind == "r_edge":
        return closed_form.re_resistance_matrix(base, crowns)
    return closed_form.rv_resistance_matrix(base, crowns)


def _closed_kirchhoff(spec: CoronaSpec) -> closed_form.KirchhoffBreakdown:
    base, crowns = _closed_ingredients(spec)
    if spec.kind == "r_edge":
        return closed_form.re_kirchhoff_terms(base, crowns)
    return closed_form.rv_kirchhoff_terms(base, crowns)


def _load(spec_path: str) -> tuple[CoronaSpec, CoronaResult]:
    spec = load_corona_spec(spec_path)
    return spec, build_from_spec(spec)


# ---------------------------------------------------------------------------
# build


def cmd_build(args: argparse.Namespace) -> int:
    spec, built = _load(args.spec)
    text = serialize_edge_list(built.graph)
    part = built.partition
    sidecar = {
        "kind": built.kind,
        "vertices": part.total(),
        "original": list(part.original),
        "edge_vertices": list(part.edge_vertices),
        "crowns": [list(c) for c in part.crowns],
    }
    if args.output is None:
        sys.stdout.write(text)
        return 0
    out = Path(args.output)
    out.write_text(text, encoding="ascii")
    side_path = out.with_name(out.name + ".partition.json")
    side_path.write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    print(f"wrote {out} ({part.total()} vertices, {built.graph.m} edges)")
    print(f"wrote {side_path}")
    return 0


# ---------------------------------------------------------------------------
# resist


# Text-format label of each resist column.
_TEXT_CELLS = {"closed": "closed={:.10g}", "oracle": "oracle={:.10g}", "abs_diff": "|diff|={:.3e}"}


def cmd_resist(args: argparse.Namespace) -> int:
    spec, built = _load(args.spec)
    total = built.partition.total()
    if args.pair is not None:
        for w in args.pair:
            if not 0 <= w < total:
                raise CliInputError(
                    f"vertex {w} out of range for a {total}-vertex corona"
                )
        us, vs = [args.pair[0]], [args.pair[1]]
    else:
        us, vs = (side.tolist() for side in np.triu_indices(total, 1))
    columns = {}
    if args.method in ("closed", "both"):
        columns["closed"] = _closed_resistance_matrix(spec)[us, vs]
    if args.method in ("oracle", "both"):
        columns["oracle"] = resistance_matrix(built.graph)[us, vs]
    if args.method == "both":
        columns["abs_diff"] = np.abs(columns["closed"] - columns["oracle"])
    values = {name: col.tolist() for name, col in columns.items()}

    if args.format == "json":
        names = ("u", "v", *values)
        doc = {
            "schema": "corona-resist/1",
            "kind": built.kind,
            "vertices": total,
            "method": args.method,
            "pairs": [dict(zip(names, row)) for row in zip(us, vs, *values.values())],
        }
        print(json.dumps(round_floats(doc), indent=2, sort_keys=True))
        return 0
    if args.format == "csv":
        lines = [",".join(["u", "v", *values])]
        cells = [map(str, us), map(str, vs)]
        cells += [[f"{x:.12g}" for x in col] for col in values.values()]
        sep = ","
    else:
        lines = []
        cells = [[f"r({u}, {v})" for u, v in zip(us, vs)]]
        cells += [list(map(_TEXT_CELLS[name].format, col)) for name, col in values.items()]
        sep = "  "
    lines += map(sep.join, zip(*cells))
    if args.format == "text" and args.method == "both" and len(us) > 1:
        lines.append(
            f"max |closed - oracle| over {len(us)} pairs: {max(values['abs_diff']):.3e}"
        )
    sys.stdout.writelines(line + "\n" for line in lines)
    return 0


# ---------------------------------------------------------------------------
# kf


def cmd_kf(args: argparse.Namespace) -> int:
    spec, built = _load(args.spec)
    doc: dict = {
        "schema": "corona-kf/1",
        "kind": built.kind,
        "vertices": built.partition.total(),
        "method": args.method,
    }
    if args.method in ("closed", "both"):
        breakdown = _closed_kirchhoff(spec)
        doc["closed"] = breakdown.value
        doc["expanded"] = breakdown.expanded
        doc["terms"] = dict(breakdown.terms)
    if args.method in ("oracle", "both"):
        doc["oracle"] = kirchhoff_index(built.graph)
    if args.method == "both":
        doc["abs_diff"] = abs(doc["closed"] - doc["oracle"])

    if args.format == "json":
        print(json.dumps(round_floats(doc), indent=2, sort_keys=True))
        return 0
    print(f"kind: {doc['kind']}")
    print(f"vertices: {doc['vertices']}")
    if "closed" in doc:
        print(f"kf closed:   {doc['closed']:.10g}")
        print(f"kf expanded: {doc['expanded']:.10g}")
    if "oracle" in doc:
        print(f"kf oracle:   {doc['oracle']:.10g}")
    if "abs_diff" in doc:
        print(f"|closed - oracle| = {doc['abs_diff']:.3e}")
    if "terms" in doc and args.terms:
        print("terms (trace_* scale by the vertex count, ones_* subtract):")
        for name in sorted(doc["terms"]):
            print(f"  {name}: {doc['terms'][name]:.10g}")
    return 0


# ---------------------------------------------------------------------------
# suite


def cmd_suite(args: argparse.Namespace) -> int:
    report = run_suite(
        seed=args.seed, cases=args.cases, n_max=args.nmax, t_max=args.tmax
    )
    if args.format == "json":
        text = report.to_json()
    else:
        lines = [
            f"suite seed={report.seed} cases={report.cases} "
            f"n_max={report.n_max} t_max={report.t_max}",
            "identity battery (worst residual / tolerance):",
        ]
        for name in sorted(report.identity_worst):
            value = report.identity_worst[name]
            tol = IDENTITY_TOLERANCES[name]
            mark = "ok" if value <= tol else "FAIL"
            lines.append(f"  {name}: {value:.3e} / {tol:.0e}  {mark}")
        passed = sum(1 for inst in report.instances if inst.passed)
        lines.append(f"instances: {passed}/{len(report.instances)} passed")
        for inst in report.instances:
            if not inst.passed:
                bad = {
                    name: f"{value:.3e}"
                    for name, value in inst.residuals.items()
                    if value > INSTANCE_TOLERANCES[name]
                }
                lines.append(
                    f"  FAIL case {inst.case} {inst.kind} "
                    f"base={inst.base_digest} residuals={bad}"
                )
        lines.append(f"verdict: {report.verdict}")
        text = "\n".join(lines) + "\n"
    if args.output is not None:
        Path(args.output).write_text(text, encoding="ascii")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0 if report.verdict == "pass" else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corona",
        description="Corona graph construction, resistance distances, Kirchhoff indices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", help="materialize the corona a spec file describes"
    )
    p_build.add_argument("spec", help="path to a corona spec file")
    p_build.add_argument(
        "-o",
        "--output",
        help="edge-list output path; a .partition.json sidecar lands next to it "
        "(omit to print the edge list to stdout)",
    )
    p_build.set_defaults(func=cmd_build)

    p_resist = sub.add_parser(
        "resist", help="resistance distances on the corona a spec file describes"
    )
    p_resist.add_argument("spec", help="path to a corona spec file")
    group = p_resist.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--pair", nargs=2, type=int, metavar=("U", "V"), help="one vertex pair"
    )
    group.add_argument(
        "--all", action="store_true", help="every unordered vertex pair"
    )
    p_resist.add_argument(
        "--method", choices=("closed", "oracle", "both"), default="both"
    )
    p_resist.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_resist.set_defaults(func=cmd_resist)

    p_kf = sub.add_parser(
        "kf", help="Kirchhoff index of the corona a spec file describes"
    )
    p_kf.add_argument("spec", help="path to a corona spec file")
    p_kf.add_argument(
        "--method", choices=("closed", "oracle", "both"), default="both"
    )
    p_kf.add_argument("--format", choices=("text", "json"), default="text")
    p_kf.add_argument(
        "--terms",
        action="store_true",
        help="print the named summands of the expanded closed form",
    )
    p_kf.set_defaults(func=cmd_kf)

    p_suite = sub.add_parser(
        "suite", help="seeded closed-form versus oracle cross-validation"
    )
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--cases", type=int, default=20)
    p_suite.add_argument("--nmax", type=int, default=5, help="largest base order")
    p_suite.add_argument("--tmax", type=int, default=3, help="largest crown order")
    p_suite.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_suite.add_argument("-o", "--output", help="write the report here instead of stdout")
    p_suite.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
