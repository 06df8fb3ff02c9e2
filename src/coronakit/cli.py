"""Command line front end.

Four subcommands: ``build`` materializes a corona described by a spec file,
``resist`` and ``kf`` answer resistance and Kirchhoff-index queries by the
closed forms and/or the brute-force oracle, and ``suite`` runs the seeded
cross-validation battery.

Exit codes: 0 on success, 1 when the suite verdict is "fail", 2 on any
input problem (unreadable files, malformed spec, out-of-range vertices),
3 on an internal numerical fault (a crown inverse off its G 1 = 1 identity,
a crown spectral sum that fails its own checks): those are the program's
failures, not the input's.
141 when the reader of stdout closed it early (``corona resist ... | head``),
the status a shell reports for a tool killed by SIGPIPE; nothing is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, closed_form
from .corona import crown_slots
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


def _closed(what: str, spec: CoronaSpec):
    """``closed_form.rv_<what>`` or ``re_<what>`` on the spec's base and crowns.

    The function is looked up by name at call time, so a patched or
    wrapped one runs.  A plain R-graph is the R-vertex corona with every
    crown empty, so it takes the R-vertex route.
    """
    kind, crowns = spec.kind, spec.crowns
    if kind == "r_graph":
        kind = "r_vertex"
        crowns = tuple(empty_graph(0) for _ in crown_slots(kind, spec.base)[1])
    prefix = "re" if kind == "r_edge" else "rv"
    return getattr(closed_form, f"{prefix}_{what}")(spec.base, crowns)


# ---------------------------------------------------------------------------
# build


def cmd_build(args: argparse.Namespace) -> int:
    built = build_from_spec(load_corona_spec(args.spec))
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


# Text-format cell of each resist column, a %-template of one float.
_TEXT_CELLS = {"closed": "closed=%.10g", "oracle": "oracle=%.10g", "abs_diff": "|diff|=%.3e"}

# Pairs per streamed block of ``resist --all``: each block is gathered,
# formatted and written before the next one starts.
_BLOCK_PAIRS = 1 << 16


# A %.12g cell whose text is not the repr of the float it reads: integral
# cells, inf and nan (no "." and no "e"), exponents e+12 to e+15 (repr
# writes those out in full) and e-308 and below (a subnormal's repr can be
# shorter).  Cells are NUL-separated.
_JSON_REDO = re.compile(
    r"(?<![^\0])(?:-?[0-9]+|-?inf|nan|[^\0]*e(?:\+1[2-5]|-3(?:0[89]|[1-9][0-9])))(?=\0)"
)


def _json_floats(values: list) -> list:
    """How ``json.dumps(round_floats(x))`` prints each float x of ``values``.

    The 12-digit rounding, then the JSON encoder's own float text: the
    ``repr`` of the rounded float, or NaN, Infinity and -Infinity.  A
    ``%.12g`` text of at most 12 digits is already the shortest repr of
    the float it reads back as, so only the cells ``_JSON_REDO`` finds go
    through ``json.dumps``; the rest are formatted once.
    """
    text = "%.12g\0" * len(values) % tuple(values)
    return _JSON_REDO.sub(lambda cell: json.dumps(float(cell[0])), text).split("\0")[:-1]


def _distinct_cells(col: np.ndarray, template: str, as_json: bool = False) -> np.ndarray:
    """``template % x`` for every float x of ``col``, formatting each distinct x once.

    Values are keyed by their bits, so -0.0 stays apart from 0.0 (they
    print differently) and every cell is exactly its own float's rendering.
    The distinct values go through one %-pass over the repeated template,
    split on NUL since a template may hold a newline.  With ``as_json`` the
    template takes each value's JSON text (``%s``) instead of the float.
    """
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    values = keys.view(np.float64).tolist()
    if as_json:
        values = _json_floats(values)
    text = (template + "\0") * len(values) % tuple(values)
    return np.array(text.split("\0")[:-1], dtype=object)[inverse]


def _labels(template: str, total: int) -> np.ndarray:
    """``template % w`` for every vertex w."""
    text = (template + "\0") * total % tuple(range(total))
    return np.array(text.split("\0")[:-1], dtype=object)


def _pair_blocks(total: int):
    """(us, vs) of the pairs u < v in row-major order, ``_BLOCK_PAIRS`` at a time."""
    rows = np.arange(total)
    starts = rows * (2 * total - rows - 1) // 2  # index of row u's first pair
    count = total * (total - 1) // 2
    for lo in range(0, count, _BLOCK_PAIRS):
        hi = min(lo + _BLOCK_PAIRS, count)
        first, last = np.searchsorted(starts, (lo, hi - 1), side="right") - 1
        spans = np.diff(np.clip(starts[first : last + 2], lo, hi))
        us = np.repeat(rows[first : last + 1], spans)
        yield us, np.arange(lo + 1, hi + 1) - starts[us] + us


def _write_pairs(args: argparse.Namespace, kind: str, total: int, blocks) -> None:
    """Print the resist rows that ``blocks`` yields, one block at a time.

    ``blocks`` yields (us, vs, cells): the pairs' vertices and one float
    column per method.  A row is its pieces left to right, each a (key,
    %-template) with the row's separators and fixed text folded in: key
    "u" or "v" prints that vertex's label, any other key that column's
    float.  Each block's table is joined and written before the next block
    is drawn.
    """
    names = [name for name in ("closed", "oracle") if args.method in (name, "both")]
    if args.method == "both":
        names.append("abs_diff")
    as_json = args.format == "json"
    if args.format == "csv":
        head = ",".join(["u", "v", *names]) + "\n"
        pieces = [("u", "%d,"), ("v", "%d,")] + [(name, "%.12g,") for name in names]
        pieces[-1] = (names[-1], "%.12g\n")
    elif args.format == "text":
        head = ""
        pieces = [("u", "r(%d, "), ("v", "%d)")]
        pieces += [(name, "  " + _TEXT_CELLS[name]) for name in names]
        pieces[-1] = (names[-1], pieces[-1][1] + "\n")
    else:
        # corona-resist/1 as json.dumps(..., indent=2, sort_keys=True) lays it out.
        head = '{\n  "kind": %s,\n  "method": %s,\n  "pairs": [' % (
            json.dumps(kind), json.dumps(args.method)
        )
        pieces = [(name, ',\n      "%s": %%s' % name) for name in sorted(names)]
        pieces[0] = (pieces[0][0], ",\n    {" + pieces[0][1][1:])
        pieces += [("u", ',\n      "u": %d'), ("v", ',\n      "v": %d\n    }')]
    # A JSON row opens with the "," that parts it from the row before, so
    # the table's first row drops its first character.
    lead = int(as_json)
    labels = {t: _labels(t, total) for key, t in pieces if key in ("u", "v")}
    out = sys.stdout
    out.write(head)
    count, worst = 0, None
    for us, vs, cells in blocks:
        count += len(us)
        cells.update(u=us, v=vs)
        if args.method == "both":
            cells["abs_diff"] = np.abs(cells["closed"] - cells["oracle"])
            top = cells["abs_diff"].max()
            worst = top if worst is None else np.maximum(worst, top)
        table = np.empty((len(us), len(pieces)), dtype=object)
        for j, (key, template) in enumerate(pieces):
            if key in ("u", "v"):
                table[:, j] = labels[template][cells[key]]
            else:
                table[:, j] = _distinct_cells(cells[key], template, as_json)
        table[0, 0] = table[0, 0][lead:]
        lead = 0
        out.write("".join(table.ravel().tolist()))
    if as_json:
        out.write(
            '%s],\n  "schema": "corona-resist/1",\n  "vertices": %d\n}\n'
            % ("\n  " if count else "", total)
        )
    elif args.format == "text" and args.method == "both" and count > 1:
        out.write("max |closed - oracle| over %d pairs: %.3e\n" % (count, worst))


def cmd_resist(args: argparse.Namespace) -> int:
    spec = load_corona_spec(args.spec)
    total = spec.order()
    closed = args.method in ("closed", "both")
    oracle = args.method in ("oracle", "both")
    if args.pair is not None:
        for w in args.pair:
            if not 0 <= w < total:
                raise CliInputError(
                    f"vertex {w} out of range for a {total}-vertex corona"
                )
        us, vs = np.array(args.pair)[:, None]
        cells = {}
        if closed:
            cell = closed_form.pair_resistance(_closed("blocks", spec), *args.pair)
            cells["closed"] = np.array([cell])
        if oracle:
            cells["oracle"] = resistance_matrix(build_from_spec(spec).graph)[us, vs]
        _write_pairs(args, spec.kind, total, [(us, vs, cells)])
        return 0
    maps = {}
    if closed:
        maps["closed"] = _closed("resistance_matrix", spec)
    if oracle:
        maps["oracle"] = resistance_matrix(build_from_spec(spec).graph)
    blocks = (
        (us, vs, {name: m[us, vs] for name, m in maps.items()})
        for us, vs in _pair_blocks(total)
    )
    _write_pairs(args, spec.kind, total, blocks)
    return 0


# ---------------------------------------------------------------------------
# kf


def cmd_kf(args: argparse.Namespace) -> int:
    spec = load_corona_spec(args.spec)
    doc: dict = {
        "schema": "corona-kf/1",
        "kind": spec.kind,
        "vertices": spec.order(),
        "method": args.method,
    }
    if args.method in ("closed", "both"):
        breakdown = _closed("kirchhoff_terms", spec)
        doc["closed"] = breakdown.value
        doc["expanded"] = breakdown.expanded
        doc["terms"] = dict(breakdown.terms)
    if args.method in ("oracle", "both"):
        doc["oracle"] = kirchhoff_index(build_from_spec(spec).graph)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``corona`` argument parser, built once per process."""
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The handler is looked up at call time, so a patched or wrapped one runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        status = handler(args)
        # Flush here, not at exit, so that a reader gone before the last
        # buffer went out is met by the arm below as well.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone, which is no fault of the input.  Point stdout
        # at devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MatrixError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
