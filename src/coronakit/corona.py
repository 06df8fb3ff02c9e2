"""The one builder of R-graphs and their corona products, and the crown-slot rule.

The R-graph of G adds one new vertex per edge, adjacent to that edge's two
endpoints.  The two corona products then hang an arbitrary "crown" graph
off each original vertex (R-vertex corona) or off each added edge-vertex
(R-edge corona), joining the anchor to every crown vertex.  The kinds
differ only in which skeleton vertex anchors each crown, and
``crown_slots`` is the one place that says so.

Vertex numbering is frozen as [original vertices of G; edge-vertices in
canonical edge order; crown 0's vertices; crown 1's; ...], all 0-indexed.
Every matrix computation in this package relies on that layout.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass

from .graphs import Graph

KINDS = ("r_graph", "r_vertex", "r_edge")


@dataclass(frozen=True)
class VertexPartition:
    """Where each vertex of a built product graph came from.

    The id lists are disjoint and together cover 0..n-1 of the product
    graph; ``crowns[k]`` holds the (contiguous) ids of crown k's vertices.
    """

    original: tuple[int, ...]
    edge_vertices: tuple[int, ...]
    crowns: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return len(self.original) + len(self.edge_vertices) + sum(len(c) for c in self.crowns)


@dataclass(frozen=True)
class CoronaResult:
    """A built product graph plus its vertex bookkeeping."""

    graph: Graph
    partition: VertexPartition
    kind: str


def crown_slots(kind: str, g: Graph) -> tuple[str | None, range]:
    """What a crown slot of the ``kind`` corona over g counts, and each slot's anchor.

    Crown i of an R-vertex corona hangs from original vertex i, crown k of
    an R-edge corona from edge-vertex n + k; an R-graph has no slots.
    """
    if kind == "r_graph":
        return None, range(0)
    if kind == "r_vertex":
        return "vertex", range(g.n)
    if kind == "r_edge":
        return "edge", range(g.n, g.n + g.m)
    raise ValueError(f"unknown corona kind {kind!r}")


def crown_anchors(kind: str, g: Graph, crowns: Sized) -> range:
    """Each crown's anchor in the ``kind`` corona over g; needs one crown per slot.

    Only the number of crowns is read, so ``crowns`` may be the crown
    graphs or anything holding one entry per crown.
    """
    unit, anchors = crown_slots(kind, g)
    if len(crowns) != len(anchors):
        per = f"one per {unit}" if unit else f"{kind} takes none"
        raise ValueError(f"need {len(anchors)} crowns ({per}), got {len(crowns)}")
    return anchors


def build(kind: str, g: Graph, crowns: tuple[Graph, ...] = ()) -> CoronaResult:
    """The ``kind`` corona of g: R(G) with each crown joined to its slot's anchor.

    Needs exactly one crown per slot; empty crowns are fine (all empty
    reduces either corona to plain R(G)).  An apex join, H plus one vertex
    adjacent to all of H, is ``build("r_vertex", Graph(1), (H,))``.
    """
    crowns = tuple(crowns)
    anchors = crown_anchors(kind, g, crowns)
    edges = list(g.edges)
    for e, (u, v) in enumerate(g.edges):
        edges += ((u, g.n + e), (v, g.n + e))
    offset = g.n + g.m
    crown_ids: list[tuple[int, ...]] = []
    for anchor, crown in zip(anchors, crowns):
        edges += [(offset + a, offset + b) for a, b in crown.edges]
        edges += [(anchor, offset + a) for a in range(crown.n)]
        crown_ids.append(tuple(range(offset, offset + crown.n)))
        offset += crown.n
    part = VertexPartition(tuple(range(g.n)), tuple(range(g.n, g.n + g.m)), tuple(crown_ids))
    # Every pair above is (smaller, larger), in range and distinct: g's own
    # edges, then each skeleton or crown vertex joined to ones numbered
    # before it, so the edge list needs no second validation.
    return CoronaResult(Graph._checked(offset, edges), part, kind)
