"""End-to-end command line behavior via in-process main() calls."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import coronakit
from coronakit import closed_form
from coronakit.cli import main
from coronakit.graphs import complete_graph, parse_edge_list, path_graph, serialize_edge_list
from coronakit.linalg import MatrixError


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
r(0, 2)  closed=0.6666666667  oracle=0.6666666667  |diff|=4.441e-16
r(0, 3)  closed=1  oracle=1  |diff|=6.661e-16
r(0, 4)  closed=1.666666667  oracle=1.666666667  |diff|=2.220e-16
r(1, 2)  closed=0.6666666667  oracle=0.6666666667  |diff|=2.220e-16
r(1, 3)  closed=1.666666667  oracle=1.666666667  |diff|=8.882e-16
r(1, 4)  closed=1  oracle=1  |diff|=0.000e+00
r(2, 3)  closed=1.666666667  oracle=1.666666667  |diff|=1.332e-15
r(2, 4)  closed=1.666666667  oracle=1.666666667  |diff|=4.441e-16
r(3, 4)  closed=2.666666667  oracle=2.666666667  |diff|=4.441e-16
max |closed - oracle| over 10 pairs: 1.332e-15
"""


def test_resist_text_output_is_pinned(rv_spec, capsys):
    # Exact stdout, with the closing max-difference line; a reversed --pair
    # is printed in the order it was given.
    assert main(["resist", str(rv_spec), "--all", "--method", "both"]) == 0
    assert capsys.readouterr().out == RESIST_ALL_BOTH_TEXT
    assert main(["resist", str(rv_spec), "--pair", "4", "3"]) == 0
    assert capsys.readouterr().out == (
        "r(4, 3)  closed=2.666666667  oracle=2.666666667  |diff|=4.441e-16\n"
    )


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
    real = closed_form.rv_one_inverse

    def skewed(g, crowns):
        x = real(g, crowns).copy()
        x[: g.n, : g.n] *= 0.75
        return x

    with mock.patch.object(closed_form, "rv_one_inverse", side_effect=skewed):
        code = main(["suite", "--seed", "4", "--cases", "2", "--nmax", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: fail" in out
    assert "FAIL case" in out


def test_missing_spec_file_exits_2(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.spec")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("kind = r_star\n")
    assert main(["kf", str(bad)]) == 2
    assert "kind must be one of" in capsys.readouterr().err


def test_internal_matrix_fault_exits_3(rv_spec, capsys):
    # a numerical fault inside the closed route is the program's, not the
    # input's: it must not be reported as exit 2, "bad input"
    fault = MatrixError("Schur complement defect 1.000e-03 exceeds 1e-12")
    with mock.patch.object(closed_form, "rv_resistance_matrix", side_effect=fault):
        code = main(["resist", str(rv_spec), "--pair", "0", "1", "--method", "closed"])
    assert code == 3
    assert capsys.readouterr().err.startswith("internal error: Schur complement defect")


def test_resist_requires_pair_or_all(rv_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resist", str(rv_spec)])
    assert exc.value.code == 2
    capsys.readouterr()


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
