"""The hypergraph view of splitting instances.

The paper (Section 1.2) reads ``B = (U ∪ V, E)`` equivalently as a
hypergraph: ``U`` is the vertex set and every right node ``v ∈ V`` is the
hyperedge containing its bipartite neighbors; the rank r of the hypergraph
is the maximum hyperedge size.  Weak splitting then says: 2-color the
*hyperedges* so every vertex lies in at least one hyperedge of each color.

This module provides that lens as a first-class API: a :class:`Hypergraph`
with lossless conversions to/from :class:`BipartiteInstance`, so users who
think in hypergraph terms (e.g. coming from the edge-coloring literature
the paper surveys) can build instances naturally.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.bipartite.instance import BipartiteInstance
from repro.utils.validation import require

__all__ = ["Hypergraph"]


class Hypergraph:
    """A hypergraph on vertices ``0 .. n_vertices-1`` with listed hyperedges.

    ``edges[j]`` is the (ordered, possibly repeating across edges) vertex
    list of hyperedge ``j``.  Vertices may repeat *across* hyperedges
    freely; repetition *inside* one hyperedge is rejected (a hyperedge is a
    set).
    """

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: Sequence[Iterable[int]]) -> None:
        require(n_vertices >= 0, f"n_vertices must be >= 0, got {n_vertices}")
        self.n_vertices = n_vertices
        normalized: List[Tuple[int, ...]] = []
        for j, edge in enumerate(edges):
            members = tuple(int(x) for x in edge)
            require(
                len(set(members)) == len(members),
                f"hyperedge {j} repeats a vertex",
            )
            for x in members:
                require(0 <= x < n_vertices, f"hyperedge {j} member {x} out of range")
            normalized.append(members)
        self.edges: Tuple[Tuple[int, ...], ...] = tuple(normalized)

    @property
    def n_edges(self) -> int:
        """Number of hyperedges."""
        return len(self.edges)

    @property
    def rank(self) -> int:
        """Maximum hyperedge size — the paper's r."""
        return max((len(e) for e in self.edges), default=0)

    def vertex_degree(self, v: int) -> int:
        """Number of hyperedges containing vertex ``v``."""
        return sum(1 for e in self.edges if v in e)

    def min_vertex_degree(self) -> int:
        """The paper's δ: minimum over vertices of the hyperedge count."""
        counts = [0] * self.n_vertices
        for e in self.edges:
            for v in e:
                counts[v] += 1
        return min(counts) if counts else 0

    # ------------------------------------------------------------ conversions
    def to_bipartite(self) -> BipartiteInstance:
        """The incidence bipartite instance: vertices left, hyperedges right."""
        bip_edges = [(v, j) for j, e in enumerate(self.edges) for v in e]
        return BipartiteInstance(self.n_vertices, self.n_edges, bip_edges)

    @classmethod
    def from_bipartite(cls, inst: BipartiteInstance) -> "Hypergraph":
        """Inverse of :meth:`to_bipartite` (constraints become vertices)."""
        edges = [tuple(inst.right_neighbor_set(v)) for v in range(inst.n_right)]
        return cls(inst.n_left, edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(vertices={self.n_vertices}, edges={self.n_edges}, "
            f"rank={self.rank})"
        )
