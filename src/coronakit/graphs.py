"""Simple undirected graphs and a plain-text edge-list format.

Vertices are the integers ``0..n-1``.  Edges are unordered pairs, stored in
canonical ``(min, max)`` form and sorted lexicographically; that sorted order
is the edge order every matrix builder in this package indexes by.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list text.  ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``0..n-1``.

    The constructor canonicalizes the edge list (endpoint order, then
    lexicographic sort) and rejects self-loops, duplicates, and out-of-range
    endpoints, so two equal graphs always compare equal as values.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        seen: set[tuple[int, int]] = set()
        canon: list[tuple[int, int]] = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def _checked(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on edges already canonical, distinct and in range, not validated again."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", tuple(sorted(pairs)))
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.array(self.edges, dtype=np.intp).reshape(-1), minlength=self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    u, v = np.array(g.edges, dtype=np.intp).reshape(g.m, 2).T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A as a dense float array."""
    lap = -adjacency(g)
    lap[np.diag_indices(g.n)] = g.degrees()
    return lap


def incidence(g: Graph) -> np.ndarray:
    """Unoriented vertex-edge incidence matrix, n rows by m columns.

    Column ``e`` has ones exactly at the two endpoints of edge ``e`` (in the
    canonical edge order), so ``B @ B.T == D + A``.
    """
    b = np.zeros((g.n, g.m))
    for e, (u, v) in enumerate(g.edges):
        b[u, e] = 1.0
        b[v, e] = 1.0
    return b


def is_connected(g: Graph) -> bool:
    """Breadth-first connectivity check; the empty graph counts as connected."""
    if g.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    First significant line is the vertex count; each following line is one
    edge ``u v``.  ``#`` starts a comment, blank lines are skipped, and both
    LF and CRLF are accepted.  Fields are split as ``str.split()`` splits
    them, on any Unicode whitespace, and each is an ASCII decimal integer
    with an optional sign.  Endpoints may appear in either order; the
    stored graph is canonical.  Raises EdgeListError with the 1-based line
    number for malformed lines, out-of-range or repeated endpoints, and
    self-loops.

    An edge line is read by one match of a compiled pattern; any other
    line after the count is blank, a comment or malformed.  The edges are
    checked here, line by line, so the Graph is built without checking
    them a second time.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        match = None if n is None else _EDGE_LINE.fullmatch(raw)
        if match is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is not None:
                raise EdgeListError(lineno, f"expected an edge 'u v', got {line!r}")
            fields = line.split()
            if len(fields) != 1 or not _is_int(fields[0]):
                raise EdgeListError(lineno, f"expected a vertex count, got {line!r}")
            n = int(fields[0])
            if n < 0:
                raise EdgeListError(lineno, f"vertex count must be nonnegative, got {n}")
            continue
        u, v = int(match[1]), int(match[2])
        if u == v:
            raise EdgeListError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(lineno, f"edge ({u}, {v}) out of range for n={n}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise EdgeListError(lineno, f"duplicate edge {pair}")
        seen.add(pair)
        edges.append(pair)
    if n is None:
        raise EdgeListError(1, "empty document: missing vertex count")
    return Graph._checked(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: LF line endings, canonical sorted edges."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ASCII decimal integers only: int() would also read "1_0" as 10 and
# accept digits from other scripts.  The sign stays, so negative counts and
# endpoints get their own messages.
_INT = re.compile(r"[+-]?[0-9]+")
# A whole edge line: two such integers, whitespace as str.split() knows it
# (``\s`` matches exactly the characters of str.isspace), then an optional
# comment.
_EDGE_LINE = re.compile(r"\s*([+-]?[0-9]+)\s+([+-]?[0-9]+)\s*(?:#.*)?")


def _is_int(s: str) -> bool:
    return _INT.fullmatch(s) is not None


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(leaves: int) -> Graph:
    """Star with a central vertex 0 and the given number of leaves."""
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))
