"""Builders for R-graphs, their corona products, and apex joins.

The R-graph of G adds one new vertex per edge, adjacent to that edge's two
endpoints.  The two corona products then hang an arbitrary "crown" graph
off each original vertex (R-vertex corona) or off each added edge-vertex
(R-edge corona), joining the anchor to every crown vertex.

Vertex numbering is frozen as [original vertices of G; edge-vertices in
canonical edge order; crown 0's vertices; crown 1's; ...], all 0-indexed.
Every matrix computation in this package relies on that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class VertexPartition:
    """Where each vertex of a built product graph came from.

    The id lists are disjoint and together cover 0..n-1 of the product
    graph; ``crowns[k]`` holds the (contiguous) ids of crown k's vertices.
    """

    original: tuple[int, ...]
    edge_vertices: tuple[int, ...]
    crowns: tuple[tuple[int, ...], ...]
    apex: int | None = None

    def total(self) -> int:
        return (
            len(self.original)
            + len(self.edge_vertices)
            + sum(len(c) for c in self.crowns)
            + (0 if self.apex is None else 1)
        )


@dataclass(frozen=True)
class CoronaResult:
    """A built product graph plus its vertex bookkeeping."""

    graph: Graph
    partition: VertexPartition
    kind: str


def r_graph(g: Graph) -> CoronaResult:
    """R(G): subdivide-and-keep.  One new vertex per edge, adjacent to both ends."""
    edges = list(g.edges)
    for e, (u, v) in enumerate(g.edges):
        w = g.n + e
        edges.append((u, w))
        edges.append((v, w))
    graph = Graph(g.n + g.m, tuple(edges))
    part = VertexPartition(
        original=tuple(range(g.n)),
        edge_vertices=tuple(range(g.n, g.n + g.m)),
        crowns=(),
    )
    return CoronaResult(graph, part, "r_graph")


def _with_crowns(base: CoronaResult, anchors: tuple[int, ...], crowns: tuple[Graph, ...], kind: str) -> CoronaResult:
    edges = list(base.graph.edges)
    offset = base.graph.n
    crown_ids: list[tuple[int, ...]] = []
    for anchor, crown in zip(anchors, crowns):
        ids = tuple(range(offset, offset + crown.n))
        crown_ids.append(ids)
        for a, b in crown.edges:
            edges.append((offset + a, offset + b))
        for a in range(crown.n):
            edges.append((anchor, offset + a))
        offset += crown.n
    graph = Graph(offset, tuple(edges))
    part = VertexPartition(
        original=base.partition.original,
        edge_vertices=base.partition.edge_vertices,
        crowns=tuple(crown_ids),
    )
    return CoronaResult(graph, part, kind)


def r_vertex_corona(g: Graph, crowns: tuple[Graph, ...]) -> CoronaResult:
    """R-vertex corona: crown i is joined to original vertex i of R(G).

    Needs exactly one crown per vertex of g; empty crowns are fine (all
    empty reduces the product to plain R(G)).
    """
    crowns = tuple(crowns)
    if len(crowns) != g.n:
        raise ValueError(f"need {g.n} crowns (one per vertex), got {len(crowns)}")
    base = r_graph(g)
    return _with_crowns(base, tuple(range(g.n)), crowns, "r_vertex")


def r_edge_corona(g: Graph, crowns: tuple[Graph, ...]) -> CoronaResult:
    """R-edge corona: crown k is joined to edge-vertex k of R(G)."""
    crowns = tuple(crowns)
    if len(crowns) != g.m:
        raise ValueError(f"need {g.m} crowns (one per edge), got {len(crowns)}")
    base = r_graph(g)
    anchors = tuple(range(g.n, g.n + g.m))
    return _with_crowns(base, anchors, crowns, "r_edge")


def apex_join(h: Graph) -> CoronaResult:
    """Join a single new apex vertex to every vertex of h.

    This is the crown-plus-anchor fragment that the corona products repeat;
    resistances from the apex into h are what a crown vertex adds across
    its anchor, a cut vertex.
    """
    apex = h.n
    edges = list(h.edges) + [(v, apex) for v in range(h.n)]
    graph = Graph(h.n + 1, tuple(edges))
    part = VertexPartition(
        original=(),
        edge_vertices=(),
        crowns=(tuple(range(h.n)),),
        apex=apex,
    )
    return CoronaResult(graph, part, "apex_join")
