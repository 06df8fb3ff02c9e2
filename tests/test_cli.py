"""End-to-end command line behavior via in-process main() calls."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import coronakit
from coronakit import cli, closed_form
from coronakit.cli import main
from coronakit.corona import build
from coronakit.graphs import (
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
)
from coronakit.linalg import MatrixError
from coronakit.resistance import resistance_matrix
from coronakit.suite import round_floats


@pytest.fixture
def rv_spec(tmp_path):
    """K2 base, one pendant crown vertex per host: the worked 5-vertex corona."""
    (tmp_path / "base.edges").write_text(serialize_edge_list(complete_graph(2)))
    (tmp_path / "k1.edges").write_text("1\n")
    spec = tmp_path / "build.spec"
    spec.write_text(
        "kind = r_vertex\nbase = base.edges\ncrown.0 = k1.edges\ncrown.1 = k1.edges\n"
    )
    return spec


@pytest.fixture
def re_spec(tmp_path):
    """C_4 base with R-edge crowns of orders 0, 1, 2 and 3 (empty, K1, K2, P3)."""
    (tmp_path / "c4.edges").write_text(serialize_edge_list(cycle_graph(4)))
    (tmp_path / "k1.edges").write_text("1\n")
    (tmp_path / "k2.edges").write_text(serialize_edge_list(complete_graph(2)))
    (tmp_path / "p3.edges").write_text(serialize_edge_list(path_graph(3)))
    spec = tmp_path / "edge.spec"
    spec.write_text(
        "kind = r_edge\nbase = c4.edges\n"
        "crown.1 = k1.edges\ncrown.2 = k2.edges\ncrown.3 = p3.edges\n"
    )
    return spec


@pytest.fixture
def rg_spec(tmp_path):
    (tmp_path / "p3.edges").write_text(serialize_edge_list(path_graph(3)))
    spec = tmp_path / "plain.spec"
    spec.write_text("kind = r_graph\nbase = p3.edges\n")
    return spec


def test_build_to_stdout(rg_spec, capsys):
    assert main(["build", str(rg_spec)]) == 0
    out = capsys.readouterr().out
    g = parse_edge_list(out)
    assert g.n == 5 and g.m == 6


def test_build_writes_edge_list_and_sidecar(rv_spec, tmp_path, capsys):
    out_path = tmp_path / "corona.edges"
    assert main(["build", str(rv_spec), "-o", str(out_path)]) == 0
    g = parse_edge_list(out_path.read_text())
    assert g.n == 5 and g.m == 5
    sidecar = json.loads((tmp_path / "corona.edges.partition.json").read_text())
    assert sidecar["kind"] == "r_vertex"
    assert sidecar["vertices"] == 5
    assert sidecar["original"] == [0, 1]
    assert sidecar["edge_vertices"] == [2]
    assert sidecar["crowns"] == [[3], [4]]
    stdout = capsys.readouterr().out
    assert "wrote" in stdout


RE_BUILD_EDGES = """\
14
0 1
0 3
0 4
0 5
1 2
1 4
1 6
2 3
2 6
2 7
3 5
3 7
5 8
6 9
6 10
7 11
7 12
7 13
9 10
11 12
12 13
"""

RE_BUILD_SIDECAR = """\
{
  "crowns": [
    [],
    [
      8
    ],
    [
      9,
      10
    ],
    [
      11,
      12,
      13
    ]
  ],
  "edge_vertices": [
    4,
    5,
    6,
    7
  ],
  "kind": "r_edge",
  "original": [
    0,
    1,
    2,
    3
  ],
  "vertices": 14
}
"""


def test_r_edge_build_output_is_pinned(re_spec, tmp_path, capsys):
    # Exact bytes of the edge list and the sidecar: crown k hangs from
    # edge-vertex 4 + k, and the empty crown 0 keeps its (empty) slot.
    out_path = tmp_path / "corona.edges"
    assert main(["build", str(re_spec), "-o", str(out_path)]) == 0
    side_path = tmp_path / "corona.edges.partition.json"
    assert out_path.read_bytes() == RE_BUILD_EDGES.encode("ascii")
    assert side_path.read_bytes() == RE_BUILD_SIDECAR.encode("ascii")
    assert capsys.readouterr().out == (
        f"wrote {out_path} (14 vertices, 21 edges)\nwrote {side_path}\n"
    )


def test_resist_single_pair_text(rv_spec, capsys):
    assert main(["resist", str(rv_spec), "--pair", "3", "4"]) == 0
    out = capsys.readouterr().out
    assert "r(3, 4)" in out
    assert "closed=2.666666667" in out
    assert "oracle=2.666666667" in out


def test_resist_all_json(rv_spec, capsys):
    assert main(["resist", str(rv_spec), "--all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "corona-resist/1"
    assert doc["kind"] == "r_vertex"
    assert doc["vertices"] == 5
    assert len(doc["pairs"]) == 10
    by_pair = {(row["u"], row["v"]): row for row in doc["pairs"]}
    assert by_pair[(0, 1)]["closed"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert all(row["abs_diff"] <= 1e-9 for row in doc["pairs"])


def test_resist_csv_columns_follow_method(rv_spec, capsys):
    assert main(["resist", str(rv_spec), "--all", "--format", "csv", "--method", "oracle"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "u,v,oracle"
    assert len(lines) == 11

    assert main(["resist", str(rv_spec), "--pair", "0", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "u,v,closed,oracle,abs_diff"
    first = lines[1].split(",")
    assert first[:2] == ["0", "1"]
    assert float(first[2]) == pytest.approx(2.0 / 3.0, abs=1e-9)


RESIST_ALL_BOTH_TEXT = """\
r(0, 1)  closed=0.6666666667  oracle=0.6666666667  |diff|=1.110e-16
r(0, 2)  closed=0.6666666667  oracle=0.6666666667  |diff|=0.000e+00
r(0, 3)  closed=1  oracle=1  |diff|=2.220e-16
r(0, 4)  closed=1.666666667  oracle=1.666666667  |diff|=4.441e-16
r(1, 2)  closed=0.6666666667  oracle=0.6666666667  |diff|=0.000e+00
r(1, 3)  closed=1.666666667  oracle=1.666666667  |diff|=4.441e-16
r(1, 4)  closed=1  oracle=1  |diff|=0.000e+00
r(2, 3)  closed=1.666666667  oracle=1.666666667  |diff|=4.441e-16
r(2, 4)  closed=1.666666667  oracle=1.666666667  |diff|=4.441e-16
r(3, 4)  closed=2.666666667  oracle=2.666666667  |diff|=8.882e-16
max |closed - oracle| over 10 pairs: 8.882e-16
"""


def test_resist_text_output_is_pinned(rv_spec, capsys):
    # Exact stdout, with the closing max-difference line; a reversed --pair
    # is printed in the order it was given.
    assert main(["resist", str(rv_spec), "--all", "--method", "both"]) == 0
    assert capsys.readouterr().out == RESIST_ALL_BOTH_TEXT
    assert main(["resist", str(rv_spec), "--pair", "4", "3"]) == 0
    assert capsys.readouterr().out == (
        "r(4, 3)  closed=2.666666667  oracle=2.666666667  |diff|=8.882e-16\n"
    )


@pytest.mark.parametrize("fixture", ["rv_spec", "re_spec", "rg_spec"])
def test_resist_pair_closed_is_its_all_row(fixture, request, capsys):
    # A closed --pair is read off the blocks, never from the full map, and
    # prints byte for byte its row of --all: either order, and 0 for u == v.
    spec = str(request.getfixturevalue(fixture))
    assert main(["resist", spec, "--all", "--method", "closed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = {}
    for line in lines:
        pair, cell = line[2:].split(")  ")
        u, v = map(int, pair.split(", "))
        cells[u, v] = cells[v, u] = cell
    total = max(u for u, _ in cells) + 1
    assert len(lines) == total * (total - 1) // 2
    never = mock.Mock(side_effect=AssertionError("built the full resistance map"))
    with mock.patch.object(closed_form, "resistance_map", never):
        for u in range(total):
            for v in range(total):
                assert main(["resist", spec, "--pair", str(u), str(v), "--method", "closed"]) == 0
                cell = cells.get((u, v), "closed=0")
                assert capsys.readouterr().out == f"r({u}, {v})  {cell}\n"


RE_KF_CLOSED_JSON = """\
{
  "closed": 128.666666667,
  "expanded": 128.666666667,
  "kind": "r_edge",
  "method": "closed",
  "schema": "corona-kf/1",
  "terms": {
    "ones_crown_count": 6.0,
    "ones_crown_quad": 0.833333333333,
    "ones_crown_shift": 13.0,
    "ones_degree_crown": 0.0,
    "ones_degree_quad": 0.0,
    "ones_edge_const": 2.0,
    "trace_base": 0.833333333333,
    "trace_crown_edge": 0.5,
    "trace_crown_eigen": 7.08333333333,
    "trace_degree": 0.833333333333,
    "trace_edge_const": 2.0,
    "trace_tree_const": -0.5
  },
  "vertices": 14
}
"""

RE_RESIST_ALL_CSV = """\
u,v,closed
0,1,0.5
0,2,0.666666666667
0,3,0.5
0,4,0.625
0,5,0.625
0,6,0.958333333333
0,7,0.958333333333
0,8,1.625
0,9,1.625
0,10,1.625
0,11,1.58333333333
0,12,1.45833333333
0,13,1.58333333333
1,2,0.5
1,3,0.666666666667
1,4,0.625
1,5,0.958333333333
1,6,0.625
1,7,0.958333333333
1,8,1.95833333333
1,9,1.29166666667
1,10,1.29166666667
1,11,1.58333333333
1,12,1.45833333333
1,13,1.58333333333
2,3,0.5
2,4,0.958333333333
2,5,0.958333333333
2,6,0.625
2,7,0.625
2,8,1.95833333333
2,9,1.29166666667
2,10,1.29166666667
2,11,1.25
2,12,1.125
2,13,1.25
3,4,0.958333333333
3,5,0.625
3,6,0.958333333333
3,7,0.625
3,8,1.625
3,9,1.625
3,10,1.625
3,11,1.25
3,12,1.125
3,13,1.25
4,5,1.16666666667
4,6,1.16666666667
4,7,1.33333333333
4,8,2.16666666667
4,9,1.83333333333
4,10,1.83333333333
4,11,1.95833333333
4,12,1.83333333333
4,13,1.95833333333
5,6,1.33333333333
5,7,1.16666666667
5,8,1
5,9,2
5,10,2
5,11,1.79166666667
5,12,1.66666666667
5,13,1.79166666667
6,7,1.16666666667
6,8,2.33333333333
6,9,0.666666666667
6,10,0.666666666667
6,11,1.79166666667
6,12,1.66666666667
6,13,1.79166666667
7,8,2.16666666667
7,9,1.83333333333
7,10,1.83333333333
7,11,0.625
7,12,0.5
7,13,0.625
8,9,3
8,10,3
8,11,2.79166666667
8,12,2.66666666667
8,13,2.79166666667
9,10,0.666666666667
9,11,2.45833333333
9,12,2.33333333333
9,13,2.45833333333
10,11,2.45833333333
10,12,2.33333333333
10,13,2.45833333333
11,12,0.625
11,13,1
12,13,0.625
"""


def test_distinct_cells_keep_bit_distinct_values_apart():
    # The writer formats each distinct bit pattern once: 0.0 and -0.0 print
    # differently, and two neighbouring floats that print alike at 12 digits
    # are still two keys; repeats share one string.
    tiny = 0.1
    neighbour = float(np.nextafter(tiny, 1.0))
    assert neighbour != tiny and f"{neighbour:.12g}" == f"{tiny:.12g}"
    col = np.array(
        [0.0, -0.0, tiny, neighbour, np.inf, -np.inf, np.nan, 2.5, 2.5, -0.0, 1e-300, 1e16, tiny]
    )
    cells = cli._distinct_cells(col, "%.12g")
    assert cells.tolist() == [f"{x:.12g}" for x in col.tolist()]
    assert cells[0] == "0" and cells[1] == "-0"
    # per-cell str.format rendering of each text column, the reference
    text_cells = {"closed": "closed={:.10g}", "oracle": "oracle={:.10g}", "abs_diff": "|diff|={:.3e}"}
    for name, reference in text_cells.items():
        cells = cli._distinct_cells(col, cli._TEXT_CELLS[name])
        assert cells.tolist() == [reference.format(x) for x in col.tolist()]
    # Folded templates carry a row's separators, newlines included.
    for template, reference in [
        ("%.12g,", "{:.12g},"),
        ("%.12g\n", "{:.12g}\n"),
        ("  closed=%.10g\n", "  closed={:.10g}\n"),
        ("\n%.3e\n\n", "\n{:.3e}\n\n"),
    ]:
        cells = cli._distinct_cells(col, template)
        assert cells.tolist() == [reference.format(x) for x in col.tolist()]
    # JSON cells print each float as json.dumps(round_floats(x)) does; the
    # integer-valued 1234567890123.0 rounds to 1234567890120.0, which repr
    # prints without the exponent that %.12g uses.
    col = np.append(col, [1234567890123.0, 1e12, 9999999999999998.0])
    cells = cli._distinct_cells(col, ',\n  "x": %s', as_json=True)
    assert cells.tolist() == [',\n  "x": ' + json.dumps(round_floats(x)) for x in col.tolist()]
    assert cells[-3] == ',\n  "x": 1234567890120.0'


def test_json_floats_are_the_encoders_text():
    # _json_floats formats each float once with %.12g and sends only the
    # cells whose text is not already the rounded float's repr through
    # json.dumps.  Random values of every magnitude and raw bit patterns,
    # plus the edges: integral values, exponents e+11 to e+16, subnormals
    # (whose repr can be shorter than 12 digits), signed zeros, inf, nan.
    rng = np.random.default_rng(99)
    values = np.concatenate(
        [
            rng.uniform(-1e3, 1e3, 4000),
            rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-40, 40, 4000),
            rng.integers(-(10**7), 10**7, 1000).astype(float),
            rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64),
            rng.integers(0, 2**52, 1000, dtype=np.uint64).view(np.float64),
            np.round(rng.uniform(0.0, 100.0, 1000), 3),
        ]
    ).tolist()
    values += [
        0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -3.0, 2.9999999999999,
        1e11, 999999999999.5, 1e12, 1234567890123.0, 1.5e13, 1e15, 9999999999999998.0,
        1e16, 1.5e16, 1e-4, 1e-5, 5e-324, 1e-310, 2.2250738585072014e-308,
        1.7976931348623157e308,
    ]
    assert cli._json_floats(values) == [json.dumps(round_floats(x)) for x in values]


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_resist_all_table_matches_per_cell_rendering(tmp_path, capsys, fmt):
    # C_30 with a K2 crown on every vertex (N = 120): many crown rows repeat
    # bit for bit, so deduplication fires on every column.
    g, crowns = cycle_graph(30), (complete_graph(2),) * 30
    (tmp_path / "c30.edges").write_text(serialize_edge_list(g))
    (tmp_path / "k2.edges").write_text(serialize_edge_list(crowns[0]))
    spec = tmp_path / "c30.spec"
    spec.write_text(
        "kind = r_vertex\nbase = c30.edges\n"
        + "".join(f"crown.{i} = k2.edges\n" for i in range(30))
    )
    closed = closed_form.rv_resistance_matrix(g, crowns)
    oracle = resistance_matrix(build("r_vertex", g, crowns).graph)
    order = len(closed)
    assert order == 120
    rows = []
    diffs = []
    for u in range(order):
        for v in range(u + 1, order):
            c, o = float(closed[u, v]), float(oracle[u, v])
            diffs.append(abs(c - o))
            if fmt == "csv":
                rows.append(f"{u},{v},{c:.12g},{o:.12g},{abs(c - o):.12g}\n")
            else:
                rows.append(
                    f"r({u}, {v})  closed={c:.10g}  oracle={o:.10g}  |diff|={abs(c - o):.3e}\n"
                )
    if fmt == "csv":
        want = "u,v,closed,oracle,abs_diff\n" + "".join(rows)
    else:
        want = "".join(rows) + f"max |closed - oracle| over {len(rows)} pairs: {max(diffs):.3e}\n"
    assert main(["resist", str(spec), "--all", "--method", "both", "--format", fmt]) == 0
    assert capsys.readouterr().out == want


# Floats that the JSON rendering must print as json.dumps(round_floats(x)):
# signed zeros, infinities, nan, 1e16, an integer-valued float whose repr
# and %.12g disagree on the exponent form, and two neighbours that print
# alike at 12 digits.
_AWKWARD = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1234567890123.0,
    0.1, float(np.nextafter(0.1, 1.0)), 2.5,
]


def _resist_json_reference(kind, order, method, pairs, closed, oracle):
    """corona-resist/1 as the encoder prints it, built pair by pair."""
    rows = []
    for u, v in pairs:
        row = {"u": u, "v": v}
        if method in ("closed", "both"):
            row["closed"] = float(closed[u, v])
        if method in ("oracle", "both"):
            row["oracle"] = float(oracle[u, v])
        if method == "both":
            row["abs_diff"] = abs(row["closed"] - row["oracle"])
        rows.append(row)
    doc = {"schema": "corona-resist/1", "kind": kind, "vertices": order, "method": method}
    doc["pairs"] = rows
    return json.dumps(round_floats(doc), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("method", ["closed", "oracle", "both"])
@pytest.mark.parametrize(
    "kind, crown, order", [("r_graph", 0, 1), ("r_vertex", 1, 2), ("r_vertex", 10, 11)]
)
def test_resist_json_is_the_encoders_bytes(tmp_path, capsys, method, kind, crown, order):
    # The JSON writer prints what json.dumps(round_floats(doc), indent=2,
    # sort_keys=True) prints for the same pairs: no pairs (N = 1), one pair
    # (N = 2), and at N = 11 every awkward float, repeated, in both columns
    # and in abs_diff; then a reversed --pair.
    (tmp_path / "k1.edges").write_text("1\n")
    (tmp_path / "crown.edges").write_text(f"{crown}\n")
    spec = tmp_path / "s.spec"
    crown_line = "crown.0 = crown.edges\n" if crown else ""
    spec.write_text(f"kind = {kind}\nbase = k1.edges\n{crown_line}")
    # Cell (u, v) is _AWKWARD[(u + v) % 10] closed and the one before it
    # oracle, so no column meets inf - inf.
    closed = np.resize(np.array(_AWKWARD), (order, order))
    oracle = np.resize(np.roll(_AWKWARD, 1), (order, order))
    with (
        mock.patch.object(closed_form, "rv_resistance_matrix", lambda g, crowns: closed),
        mock.patch.object(cli, "resistance_matrix", lambda graph: oracle),
        mock.patch.object(closed_form, "pair_resistance", lambda blocks, u, v: closed[u, v]),
    ):
        argv = ["resist", str(spec), "--method", method, "--format", "json"]
        assert main(argv + ["--all"]) == 0
        pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        want = _resist_json_reference(kind, order, method, pairs, closed, oracle)
        assert capsys.readouterr().out == want
        if order > 1:
            u, v = order - 1, order - 2
            assert main(argv + ["--pair", str(u), str(v)]) == 0
            want = _resist_json_reference(kind, order, method, [(u, v)], closed, oracle)
            assert capsys.readouterr().out == want


@pytest.mark.parametrize("method", ["closed", "oracle", "both"])
def test_resist_json_matches_the_encoder_on_real_maps(re_spec, capsys, method):
    # Unpatched, on the R-edge fixture (N = 14): --all and --pair 4 3.
    spec = cli.load_corona_spec(re_spec)
    closed = cli._closed("resistance_matrix", spec)
    oracle = resistance_matrix(cli.build_from_spec(spec).graph)
    order = len(closed)
    argv = ["resist", str(re_spec), "--method", method, "--format", "json"]
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    for tail, pairs in ((["--all"], pairs), (["--pair", "4", "3"], [(4, 3)])):
        assert main(argv + tail) == 0
        want = _resist_json_reference("r_edge", order, method, pairs, closed, oracle)
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("total", [0, 1, 2, 3, 14, 40])
def test_pair_blocks_walk_the_upper_triangle_in_row_major_order(total):
    want = np.triu_indices(total, 1)
    for size in (1, 2, 5, 13, 1 << 16):
        with mock.patch.object(cli, "_BLOCK_PAIRS", size):
            blocks = list(cli._pair_blocks(total))
        assert all(0 < len(us) <= size for us, _ in blocks)
        us = np.concatenate([np.zeros(0, int), *(us for us, _ in blocks)])
        vs = np.concatenate([np.zeros(0, int), *(vs for _, vs in blocks)])
        assert np.array_equal(us, want[0]) and np.array_equal(vs, want[1])


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_resist_streams_blocks_that_split_rows(re_spec, capsys, fmt):
    # Blocks of a few pairs print the single-block bytes, whether a block
    # edge falls inside a row or at its end: the text footer takes its max
    # over all blocks and JSON rows keep their separators across blocks.
    order = 14
    row_starts = {u * (2 * order - u - 1) // 2 for u in range(order)}
    for method in ("closed", "oracle", "both"):
        argv = ["resist", str(re_spec), "--all", "--method", method, "--format", fmt]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        for size in (1, 5, 13):
            edges = set(range(size, order * (order - 1) // 2, size))
            assert edges & row_starts and edges - row_starts
            with mock.patch.object(cli, "_BLOCK_PAIRS", size):
                assert main(argv) == 0
            assert capsys.readouterr().out == whole, (method, size)


def test_closed_only_commands_build_no_corona(re_spec, capsys):
    # --method closed reads the vertex count and kind off the spec; only the
    # oracle builds the corona graph.
    no_build = AssertionError("the closed route built the corona")
    with mock.patch.object(cli, "build_from_spec", side_effect=no_build):
        assert main(["resist", str(re_spec), "--all", "--method", "closed", "--format", "csv"]) == 0
        assert capsys.readouterr().out == RE_RESIST_ALL_CSV
        assert main(["kf", str(re_spec), "--method", "closed", "--format", "json", "--terms"]) == 0
        assert capsys.readouterr().out == RE_KF_CLOSED_JSON
    wrapped = mock.Mock(wraps=cli.build_from_spec)
    with mock.patch.object(cli, "build_from_spec", wrapped):
        assert main(["resist", str(re_spec), "--pair", "0", "1", "--method", "oracle"]) == 0
        assert main(["kf", str(re_spec), "--method", "both"]) == 0
    assert wrapped.call_count == 2
    capsys.readouterr()


def test_r_edge_closed_output_is_pinned(re_spec, capsys):
    # Exact stdout of the closed R-edge route: the Kirchhoff value with its
    # term table, and every pairwise resistance.
    assert main(["kf", str(re_spec), "--method", "closed", "--format", "json", "--terms"]) == 0
    assert capsys.readouterr().out == RE_KF_CLOSED_JSON
    assert main(["resist", str(re_spec), "--all", "--method", "closed", "--format", "csv"]) == 0
    assert capsys.readouterr().out == RE_RESIST_ALL_CSV


@pytest.mark.parametrize(
    "kind, crown_line, vertices, r, kf",
    [
        # K1 with a K2 crown is a triangle: every resistance 2/3, Kf = 2.
        ("r_vertex", "crown.0 = k2.edges\n", 3, 2.0 / 3.0, 2.0),
        # K1 has no edges, so no edge-vertex and no crown: one vertex.
        ("r_edge", "", 1, None, 0.0),
        ("r_graph", "", 1, None, 0.0),
    ],
    ids=["r_vertex", "r_edge", "r_graph"],
)
def test_single_vertex_base(tmp_path, capsys, kind, crown_line, vertices, r, kf):
    # m = 0: the base edge list, and with it every endpoint gather, is empty.
    (tmp_path / "k1.edges").write_text("1\n")
    (tmp_path / "k2.edges").write_text(serialize_edge_list(complete_graph(2)))
    spec = tmp_path / "k1.spec"
    spec.write_text(f"kind = {kind}\nbase = k1.edges\n{crown_line}")
    assert main(["resist", str(spec), "--all", "--method", "both", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == vertices
    assert len(doc["pairs"]) == vertices * (vertices - 1) // 2
    for row in doc["pairs"]:
        assert row["closed"] == pytest.approx(r, abs=1e-12)
        assert row["abs_diff"] <= 1e-12
    assert main(["kf", str(spec), "--method", "both", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] == pytest.approx(kf, abs=1e-12)
    assert doc["oracle"] == pytest.approx(kf, abs=1e-12)
    assert doc["abs_diff"] <= 1e-12


def test_resist_rejects_out_of_range_vertex(rv_spec, capsys):
    assert main(["resist", str(rv_spec), "--pair", "0", "9"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "out of range" in err


def test_kf_json_with_terms(rv_spec, capsys):
    assert main(["kf", str(rv_spec), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "corona-kf/1"
    assert doc["closed"] == pytest.approx(40.0 / 3.0, abs=1e-6)
    assert doc["expanded"] == pytest.approx(40.0 / 3.0, abs=1e-6)
    assert doc["oracle"] == pytest.approx(40.0 / 3.0, abs=1e-6)
    assert doc["abs_diff"] <= 1e-9
    assert "trace_base" in doc["terms"]


def test_closed_kf_eigensolves_once_per_crown_order(tmp_path, capsys):
    # 40 crowns of orders 0-4 on C_40: the crowns are held as one stack per
    # band, and orders 1-4 share the band of order 4, so they are inverted
    # by one Cholesky call and read by one spectral-sum call, not one per
    # crown or per crown order.
    (tmp_path / "c40.edges").write_text(serialize_edge_list(cycle_graph(40)))
    lines = ["kind = r_vertex", "base = c40.edges"]
    for i in range(40):
        t = i % 5
        if t:
            name = f"{'p' if i % 2 else 'k'}{t}.edges"
            crown = path_graph(t) if i % 2 else complete_graph(t)
            (tmp_path / name).write_text(serialize_edge_list(crown))
            lines.append(f"crown.{i} = {name}")
    spec = tmp_path / "c40.spec"
    spec.write_text("\n".join(lines) + "\n")
    eig = mock.Mock(wraps=closed_form._spectral_sums)
    inverse = mock.Mock(wraps=closed_form.sym_inverse)
    with (
        mock.patch.object(closed_form, "_spectral_sums", eig),
        mock.patch.object(closed_form, "sym_inverse", inverse),
    ):
        assert main(["kf", str(spec), "--method", "closed", "--format", "json", "--terms"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] == pytest.approx(doc["expanded"], rel=1e-9)
    assert [c.args[0].shape[-1] for c in eig.call_args_list] == [4]
    assert [c.args[0].shape[-1] for c in inverse.call_args_list] == [4]


@pytest.mark.parametrize("fixture", ["rv_spec", "re_spec"])
def test_closed_resist_sweeps_no_crown_spectrum(fixture, request, capsys):
    # The crown spectra are summed on first read, and only the Kirchhoff
    # expansion reads them: resist builds its crown set's inverses alone.
    spec = str(request.getfixturevalue(fixture))
    swept = AssertionError("resist swept a crown spectrum")
    with mock.patch.object(closed_form, "_spectral_sums", side_effect=swept):
        assert main(["resist", spec, "--all", "--method", "closed"]) == 0
        assert main(["resist", spec, "--pair", "0", "1", "--method", "closed"]) == 0
    assert capsys.readouterr().out


def test_r_edge_over_k1_prints_every_term_as_a_float(tmp_path, capsys):
    # K1 has no edges, so an R-edge corona over it has no crown host; the
    # empty crown spectral sum is 0.0 like every other term, not the int 0.
    (tmp_path / "k1.edges").write_text("1\n")
    spec = tmp_path / "k1.spec"
    spec.write_text("kind = r_edge\nbase = k1.edges\n")
    assert main(["kf", str(spec), "--method", "closed", "--format", "json", "--terms"]) == 0
    out = capsys.readouterr().out
    assert '"trace_crown_eigen": 0.0,' in out
    terms = json.loads(out)["terms"]
    assert all(type(value) is float for value in terms.values()), terms


def test_parser_is_built_once_and_handlers_are_looked_up_per_call(rv_spec, capsys):
    argv = ["kf", str(rv_spec), "--method", "closed", "--format", "json"]
    cli.build_parser.cache_clear()
    assert main(argv) == 0
    first = capsys.readouterr().out
    with mock.patch.object(cli, "cmd_kf", return_value=0) as handler:
        assert main(argv) == 0
    assert handler.call_count == 1
    assert handler.call_args.args[0].spec == str(rv_spec)
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_kf_text_terms_flag(rg_spec, capsys):
    assert main(["kf", str(rg_spec), "--terms"]) == 0
    out = capsys.readouterr().out
    assert "kf closed:" in out
    assert "trace_tree_const" in out


def test_kf_oracle_only(rg_spec, capsys):
    assert main(["kf", str(rg_spec), "--method", "oracle", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "closed" not in doc and "terms" not in doc
    assert doc["oracle"] > 0


def test_suite_text_passes(capsys):
    assert main(["suite", "--seed", "4", "--cases", "3", "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "identity battery" in out
    assert "instances: 6/6 passed" in out


def test_suite_json_output_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["suite", "--seed", "12", "--cases", "2", "--format", "json"]
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["verdict"] == "pass"


def test_suite_failure_exit_code(capsys):
    real = closed_form.one_inverses

    def skewed(members):
        stacks = real(members)
        for group, stack in stacks:
            for slot, k in enumerate(group):
                if members[k].kind == "r_vertex":
                    n = members[k].base.n
                    stack[slot, :n, :n] *= 0.75
        return stacks

    with mock.patch.object(closed_form, "one_inverses", side_effect=skewed):
        code = main(["suite", "--seed", "4", "--cases", "2", "--nmax", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: fail" in out
    assert "FAIL case" in out
    assert "pair_inverse_max" in out


def test_missing_spec_file_exits_2(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.spec")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("kind = r_star\n")
    assert main(["kf", str(bad)]) == 2
    assert "kind must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["r_graph", "r_vertex", "r_edge"])
@pytest.mark.parametrize("command", [["resist", "--all"], ["kf"]])
def test_oracle_on_an_empty_base_exits_2(tmp_path, capsys, kind, command):
    # A base of order 0 builds a corona of order 0, which the oracle cannot
    # take resistances on: bad input, exit 2, and nothing on stdout.
    (tmp_path / "e0.edges").write_text("0\n")
    spec = tmp_path / "e0.spec"
    spec.write_text(f"kind = {kind}\nbase = e0.edges\n")
    argv = [command[0], str(spec), *command[1:], "--method", "oracle"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph must have at least one vertex\n"


def test_internal_matrix_fault_exits_3(rv_spec, capsys):
    # a numerical fault inside the closed route is the program's, not the
    # input's: it must not be reported as exit 2, "bad input"
    fault = MatrixError("crown 0 (order 1): |t - 1^T (L(H) + I)^-1 1| = 1.000e-03 exceeds 1.000e-12")
    with mock.patch.object(closed_form, "rv_blocks", side_effect=fault):
        code = main(["resist", str(rv_spec), "--pair", "0", "1", "--method", "closed"])
    assert code == 3
    assert capsys.readouterr().err.startswith("internal error: crown 0 (order 1): ")


@pytest.mark.parametrize(
    "kind, base, t", [("r_vertex", path_graph(2), 65), ("r_edge", complete_graph(2), 90)]
)
def test_dense_crowns_past_the_schur_split_exit_0(tmp_path, capsys, kind, base, t):
    # A valid dense crown is answered, not reported as an internal error:
    # its G 1 = 1 roundoff grows with its order past 1e-12.
    (tmp_path / "base.edges").write_text(serialize_edge_list(base))
    (tmp_path / "kt.edges").write_text(serialize_edge_list(complete_graph(t)))
    spec = tmp_path / "dense.spec"
    spec.write_text(f"kind = {kind}\nbase = base.edges\ncrown.0 = kt.edges\n")
    assert main(["kf", str(spec), "--method", "closed"]) == 0
    assert main(["resist", str(spec), "--pair", "0", "1", "--method", "closed"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out


def test_resist_requires_pair_or_all(rv_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resist", str(rv_spec)])
    assert exc.value.code == 2
    capsys.readouterr()


def _path_corona_spec(tmp_path, n):
    """Spec of the R-vertex corona over P_n with a K2 crown per vertex (N = 4n - 1)."""
    (tmp_path / "path.edges").write_text(serialize_edge_list(path_graph(n)))
    (tmp_path / "k2.edges").write_text(serialize_edge_list(complete_graph(2)))
    spec = tmp_path / "path.spec"
    spec.write_text(
        "kind = r_vertex\nbase = path.edges\n"
        + "".join(f"crown.{i} = k2.edges\n" for i in range(n))
    )
    return spec


def _cli_child(argv, stdout):
    """``corona`` in a child process, with stdout block-buffered as at a shell prompt."""
    package_root = str(Path(coronakit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-m", "coronakit.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": path},
    )


def test_a_closed_stdout_is_not_reported_as_bad_input(tmp_path):
    # "corona resist ... | head -1": the reader closes the pipe after one
    # line, long before the 28 441 rows of R(P_60) with a K2 crown per
    # vertex (N = 239) are written.  The tool stops quietly with status 141,
    # as a shell reports a tool killed by SIGPIPE, and prints no "error:".
    spec = _path_corona_spec(tmp_path, 60)
    argv = ["resist", str(spec), "--all", "--method", "closed", "--format", "csv"]
    proc = _cli_child(argv, subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first == b"u,v,closed\n"
    assert b"error:" not in err and err == b""


def test_a_stdout_closed_before_the_last_buffer_goes_out_exits_quietly(tmp_path, capsys):
    # The 55 rows of R(P_3) with K2 crowns (N = 11) fit in one stdout
    # buffer (for a pipe, at least one 4096-byte page), so nothing is
    # written until the handler has returned.  The pipe's read end is
    # closed before the child starts, so that last flush is the write that
    # fails; it still ends in 141 with nothing on stderr, not in
    # "Exception ignored ... BrokenPipeError" and status 120 at exit.
    spec = _path_corona_spec(tmp_path, 3)
    argv = ["resist", str(spec), "--all", "--method", "closed", "--format", "csv"]
    assert main(argv) == 0
    assert 0 < len(capsys.readouterr().out) < 4096
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_child(argv, write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_installed_entry_point_reports_version():
    # the child imports the same coronakit as this process, installed or
    # put on the path by pytest's ``pythonpath`` setting
    package_root = str(Path(coronakit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "coronakit.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "corona" in proc.stdout
