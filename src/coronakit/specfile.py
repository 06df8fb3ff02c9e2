"""Plain-text description files for corona builds.

A corona spec is a small key = value document:

    kind = r_vertex          # r_graph | r_vertex | r_edge
    base = path/to/base.edges
    crown.0 = path/to/h0.edges
    crown.2 = path/to/h2.edges   # crown indices not listed are empty

Paths are resolved relative to the spec file.  Crown indices are 0-based
and count vertices of the base graph for r_vertex, edges for r_edge;
r_graph takes no crowns at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .corona import KINDS, CoronaResult, build, crown_slots
from .graphs import EdgeListError, Graph, empty_graph, parse_edge_list


class SpecFileError(ValueError):
    """Malformed corona spec document or unreadable referenced graph."""


@dataclass(frozen=True)
class CoronaSpec:
    """Parsed corona description: the build kind, base graph, and crowns."""

    kind: str
    base: Graph
    crowns: tuple[Graph, ...]

    def order(self) -> int:
        """Vertex count of the corona this spec describes, without building it.

        The builder's layout is the base's n vertices, its m edge-vertices
        and then every crown's vertices; r_graph has no crowns.
        """
        return self.base.n + self.base.m + sum(c.n for c in self.crowns)


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, with its newlines translated as text mode does.

    The bytes are read in one call and decoded, and ``\r\n`` and a lone
    ``\r`` both become ``\n``.  Raises ``OSError``, or
    ``UnicodeDecodeError`` for bytes that are not UTF-8.
    """
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _unreadable(path: Path, err: OSError | UnicodeDecodeError) -> str:
    """The ``cannot read`` message for a file that failed to open, read or decode."""
    if isinstance(err, UnicodeDecodeError):
        byte = err.object[err.start]
        where = f"byte {byte:#04x} at offset {err.start}: {err.reason}"
        return f"cannot read {path}: not valid UTF-8 ({where})"
    return f"cannot read {path}: {err.strerror}"


def _load_graph(root: str, rel: str, context: str) -> Graph:
    """Parse the edge list at ``rel``, relative to the directory ``root``.

    The file is opened at the plain string join; messages name it as
    ``Path(root, rel)`` does.  A path that only the normalised spelling
    reads (a trailing ``/`` or ``/.`` after a file name) is read there.
    """
    try:
        try:
            text = _read_text(os.path.join(root, rel))
        except OSError:
            text = _read_text(Path(root, rel))
    except (OSError, UnicodeDecodeError) as err:
        raise SpecFileError(f"{context}: {_unreadable(Path(root, rel), err)}") from err
    try:
        return parse_edge_list(text)
    except EdgeListError as err:
        raise SpecFileError(f"{context}: {Path(root, rel)}: {err}") from err


def load_corona_spec(path: str | Path) -> CoronaSpec:
    """Parse a corona spec file and load every graph it references."""
    spec_path = Path(path)
    try:
        text = _read_text(spec_path)
    except (OSError, UnicodeDecodeError) as err:
        raise SpecFileError(_unreadable(spec_path, err)) from err
    kind: str | None = None
    base_rel: str | None = None
    crown_rel: dict[int, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"{spec_path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise SpecFileError(f"{spec_path}:{lineno}: empty value for {key!r}")
        if key == "kind":
            if kind is not None:
                raise SpecFileError(f"{spec_path}:{lineno}: duplicate key 'kind'")
            if value not in KINDS:
                raise SpecFileError(
                    f"{spec_path}:{lineno}: kind must be one of {', '.join(KINDS)}, got {value!r}"
                )
            kind = value
        elif key == "base":
            if base_rel is not None:
                raise SpecFileError(f"{spec_path}:{lineno}: duplicate key 'base'")
            base_rel = value
        elif key.startswith("crown."):
            suffix = key[len("crown.") :]
            if not (suffix.isascii() and suffix.isdigit()):
                raise SpecFileError(
                    f"{spec_path}:{lineno}: crown index must be a nonnegative integer, got {key!r}"
                )
            index = int(suffix)
            if index in crown_rel:
                raise SpecFileError(f"{spec_path}:{lineno}: duplicate key {key!r}")
            crown_rel[index] = value
        else:
            raise SpecFileError(f"{spec_path}:{lineno}: unknown key {key!r}")
    if kind is None:
        raise SpecFileError(f"{spec_path}: missing required key 'kind'")
    if base_rel is None:
        raise SpecFileError(f"{spec_path}: missing required key 'base'")
    root = os.fspath(spec_path.parent)
    base = _load_graph(root, base_rel, f"{spec_path}: base")
    unit, anchors = crown_slots(kind, base)
    if unit is None and crown_rel:
        raise SpecFileError(f"{spec_path}: kind {kind} takes no crown.* keys")
    slots = len(anchors)
    for index in sorted(crown_rel):
        if index >= slots:
            raise SpecFileError(
                f"{spec_path}: crown.{index} out of range (base has {slots} {unit} slots)"
            )
    # Crowns that name one file share one parse; loading in index order
    # means a bad file is reported under the lowest crown.k naming it.
    loaded: dict[str, Graph] = {}
    for index in sorted(crown_rel):
        rel = crown_rel[index]
        if rel not in loaded:
            loaded[rel] = _load_graph(root, rel, f"{spec_path}: crown.{index}")
    empty = empty_graph(0)
    crowns = tuple(loaded[crown_rel[i]] if i in crown_rel else empty for i in range(slots))
    return CoronaSpec(kind, base, crowns)


def build_from_spec(spec: CoronaSpec) -> CoronaResult:
    """Build the corona the spec describes."""
    return build(spec.kind, spec.base, spec.crowns)
