"""Corona spec document parsing and the build dispatch."""

from unittest import mock

import pytest

from coronakit import specfile
from coronakit.corona import build
from coronakit.graphs import (
    complete_graph,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
)
from coronakit.specfile import SpecFileError, build_from_spec, load_corona_spec


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_r_vertex_spec_round_trip(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    write(tmp_path, "h0.edges", serialize_edge_list(complete_graph(2)))
    spec_path = write(
        tmp_path,
        "build.spec",
        "kind = r_vertex\nbase = base.edges\ncrown.0 = h0.edges\n",
    )
    spec = load_corona_spec(spec_path)
    assert spec.kind == "r_vertex"
    assert spec.base == path_graph(3)
    assert len(spec.crowns) == 3
    assert spec.crowns[0] == complete_graph(2)
    assert spec.crowns[1].n == 0 and spec.crowns[2].n == 0
    built = build_from_spec(spec)
    expected = build("r_vertex", path_graph(3), spec.crowns)
    assert built.graph == expected.graph
    assert built.partition == expected.partition
    assert spec.order() == built.partition.total()


def test_r_edge_spec_counts_edges(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    write(tmp_path, "h1.edges", "1\n")
    spec = load_corona_spec(
        write(tmp_path, "b.spec", "kind = r_edge\nbase = base.edges\ncrown.1 = h1.edges\n")
    )
    assert spec.kind == "r_edge"
    assert len(spec.crowns) == 2  # one slot per base edge
    assert spec.crowns[0].n == 0
    assert spec.crowns[1].n == 1
    built = build_from_spec(spec)
    assert built.graph.n == 3 + 2 + 1
    assert spec.order() == built.partition.total()


def test_r_graph_spec_takes_no_crowns(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(complete_graph(2)))
    spec = load_corona_spec(write(tmp_path, "g.spec", "kind = r_graph\nbase = base.edges\n"))
    assert spec.crowns == ()
    assert build_from_spec(spec).graph == complete_graph(3)
    assert spec.order() == 3

    bad = write(
        tmp_path,
        "bad.spec",
        "kind = r_graph\nbase = base.edges\ncrown.0 = base.edges\n",
    )
    with pytest.raises(SpecFileError, match="takes no crown"):
        load_corona_spec(bad)


@pytest.mark.parametrize(
    "kind, crown, message",
    [
        ("r_vertex", 9, "crown.9 out of range (base has 5 vertex slots)"),
        ("r_edge", 4, "crown.4 out of range (base has 4 edge slots)"),
        ("r_graph", 0, "kind r_graph takes no crown.* keys"),
    ],
)
def test_crown_slot_messages_are_pinned(tmp_path, kind, crown, message):
    write(tmp_path, "base.edges", serialize_edge_list(star_graph(4)))
    body = f"kind = {kind}\nbase = base.edges\ncrown.{crown} = base.edges\n"
    bad = write(tmp_path, "bad.spec", body)
    with pytest.raises(SpecFileError) as exc:
        load_corona_spec(bad)
    assert str(exc.value) == f"{bad}: {message}"


def test_paths_resolve_relative_to_spec_file(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    write(sub, "base.edges", serialize_edge_list(complete_graph(2)))
    spec_path = write(sub, "here.spec", "kind = r_graph\nbase = base.edges\n")
    spec = load_corona_spec(spec_path)  # cwd is unrelated to tmp_path
    assert spec.base == complete_graph(2)


def test_comments_and_blank_lines(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    text = "# corona build\n\nkind = r_vertex   # inline comment\nbase = base.edges\n"
    spec = load_corona_spec(write(tmp_path, "c.spec", text))
    assert spec.kind == "r_vertex"
    assert all(c.n == 0 for c in spec.crowns)


@pytest.mark.parametrize(
    ("body", "fragment"),
    [
        ("kind r_vertex\n", "expected 'key = value'"),
        ("kind =\nbase = base.edges\n", "empty value"),
        ("kind = r_star\nbase = base.edges\n", "kind must be one of"),
        ("kind = r_vertex\nkind = r_edge\nbase = base.edges\n", "duplicate key 'kind'"),
        ("kind = r_vertex\nbase = base.edges\nbase = base.edges\n", "duplicate key 'base'"),
        ("kind = r_vertex\nbase = base.edges\ncrown.x = base.edges\n", "crown index"),
        (
            "kind = r_vertex\nbase = base.edges\ncrown.1 = b\ncrown.1 = b\n",
            "duplicate key 'crown.1'",
        ),
        ("kind = r_vertex\nbase = base.edges\nflavor = mint\n", "unknown key"),
        ("base = base.edges\n", "missing required key 'kind'"),
        ("kind = r_vertex\n", "missing required key 'base'"),
        ("kind = r_vertex\nbase = base.edges\ncrown.7 = base.edges\n", "out of range"),
    ],
)
def test_malformed_specs(tmp_path, body, fragment):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    bad = write(tmp_path, "bad.spec", body)
    with pytest.raises(SpecFileError, match=fragment):
        load_corona_spec(bad)


def test_errors_carry_spec_path_and_line(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    bad = write(tmp_path, "bad.spec", "kind = r_vertex\nbase = base.edges\nnope\n")
    with pytest.raises(SpecFileError) as exc:
        load_corona_spec(bad)
    assert f"{bad}:3" in str(exc.value)


def test_crown_index_is_ascii_decimal(tmp_path):
    # str.isdigit() accepts superscripts, which int() then rejects, and other
    # scripts' digits, which int() reads as numbers; neither is a crown index.
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    for suffix in ("\u00b2", "\u0661"):
        body = f"kind = r_vertex\nbase = base.edges\ncrown.{suffix} = base.edges\n"
        bad = write(tmp_path, "bad.spec", body)
        with pytest.raises(SpecFileError, match="crown index") as exc:
            load_corona_spec(bad)
        assert f"{bad}:3" in str(exc.value)


def test_missing_files_reported_with_context(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read"):
        load_corona_spec(tmp_path / "absent.spec")
    spec_path = write(tmp_path, "s.spec", "kind = r_graph\nbase = nowhere.edges\n")
    with pytest.raises(SpecFileError, match="base.*cannot read"):
        load_corona_spec(spec_path)


def test_bad_referenced_edge_list(tmp_path):
    write(tmp_path, "base.edges", "2\n0 zero\n")
    spec_path = write(tmp_path, "s.spec", "kind = r_graph\nbase = base.edges\n")
    with pytest.raises(SpecFileError, match="base.edges"):
        load_corona_spec(spec_path)


def test_shared_crown_file_is_parsed_once(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(4)))
    write(tmp_path, "k2.edges", serialize_edge_list(complete_graph(2)))
    body = "kind = r_vertex\nbase = base.edges\n" + "".join(
        f"crown.{i} = k2.edges\n" for i in (3, 0, 2)
    )
    spec_path = write(tmp_path, "s.spec", body)
    with mock.patch.object(specfile, "parse_edge_list", wraps=parse_edge_list) as parse:
        spec = load_corona_spec(spec_path)
    assert parse.call_count == 2  # the base and the one crown file
    assert [c.n for c in spec.crowns] == [2, 0, 2, 2]
    # A shared bad file is reported under the lowest crown index naming it.
    write(tmp_path, "k2.edges", "2\n0 zero\n")
    with mock.patch.object(specfile, "parse_edge_list", wraps=parse_edge_list) as parse:
        with pytest.raises(SpecFileError, match=r"crown\.0: .*k2\.edges"):
            load_corona_spec(spec_path)
    assert parse.call_count == 2


def test_crown_paths_are_named_as_pathlib_joins_them(tmp_path):
    # Files open at the plain join of the spec's directory and the written
    # path; messages name them in pathlib's normalised spelling, with "./"
    # and "//" folded away, exactly as a Path join prints them.
    (tmp_path / "sub").mkdir()
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(2)))
    write(tmp_path, "sub/k2.edges", serialize_edge_list(complete_graph(2)))
    spec_path = write(
        tmp_path,
        "s.spec",
        "kind = r_vertex\nbase = ./base.edges\n"
        "crown.0 = ./sub//k2.edges\ncrown.1 = sub//./k2.edges/\n",
    )
    spec = load_corona_spec(spec_path)
    assert spec.crowns == (complete_graph(2), complete_graph(2))
    write(tmp_path, "s.spec", "kind = r_vertex\nbase = base.edges\ncrown.1 = ./sub//gone.edges\n")
    with pytest.raises(SpecFileError) as exc:
        load_corona_spec(spec_path)
    assert str(exc.value) == (
        f"{spec_path}: crown.1: cannot read {tmp_path}/sub/gone.edges: No such file or directory"
    )
    write(tmp_path, "sub/bad.edges", "2\n0 zero\n")
    write(tmp_path, "s.spec", "kind = r_vertex\nbase = base.edges\ncrown.0 = .//sub/./bad.edges\n")
    with pytest.raises(SpecFileError, match=rf"^{spec_path}: crown\.0: {tmp_path}/sub/bad\.edges: "):
        load_corona_spec(spec_path)


def test_files_that_are_not_utf8_name_the_spec_key_and_path(tmp_path):
    write(tmp_path, "base.edges", serialize_edge_list(path_graph(3)))
    (tmp_path / "bad.edges").write_bytes(b"2\n0 1\n\xff\n")
    body = "kind = r_vertex\nbase = base.edges\ncrown.1 = bad.edges\n"
    spec_path = write(tmp_path, "s.spec", body)
    with pytest.raises(SpecFileError) as exc:
        load_corona_spec(spec_path)
    assert str(exc.value) == (
        f"{spec_path}: crown.1: cannot read {tmp_path}/bad.edges: "
        "not valid UTF-8 (byte 0xff at offset 6: invalid start byte)"
    )
    bad_spec = tmp_path / "bad.spec"
    bad_spec.write_bytes(b"kind = r_vertex\nbase = base.edges \xe2\x82")
    with pytest.raises(SpecFileError) as exc:
        load_corona_spec(bad_spec)
    assert str(exc.value) == (
        f"cannot read {bad_spec}: "
        "not valid UTF-8 (byte 0xe2 at offset 34: unexpected end of data)"
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_files_load_as_lf(tmp_path, newline):
    # Files are read as bytes; their newlines are translated as text mode
    # translates them, for the spec and every edge list alike.
    graphs = {"base": path_graph(4), "k3": complete_graph(3), "s3": star_graph(3)}
    body = "kind = r_vertex  # a comment\nbase = base.edges\n"
    body += "crown.0 = k3.edges\ncrown.2 = s3.edges\n"
    specs = []
    for sep, sub in (("\n", "lf"), (newline, "other")):
        (tmp_path / sub).mkdir()
        for name, g in graphs.items():
            text = "# header\n" + serialize_edge_list(g) + "\n"
            (tmp_path / sub / f"{name}.edges").write_bytes(text.replace("\n", sep).encode())
        spec_path = tmp_path / sub / "s.spec"
        spec_path.write_bytes(body.replace("\n", sep).encode())
        specs.append(load_corona_spec(spec_path))
    lf, other = specs
    assert other == lf
    assert lf.base == graphs["base"]
    assert lf.crowns == (graphs["k3"], path_graph(0), graphs["s3"], path_graph(0))
