"""Undirected multigraphs with edge identities, and orientations of them.

The directed degree splitting of Definition 2.1 operates on multigraphs: the
auxiliary graph ``G`` built by Degree–Rank Reduction II explicitly "can have
multiple edges between two nodes with distinct corresponding nodes", and the
bipartite graph itself is treated as a (bipartite) multigraph by Reduction I.

An :class:`Orientation` assigns each edge a direction; for edge
``e = (a, b)`` the value ``+1`` means ``a → b`` and ``-1`` means ``b → a``.
Self-loops are permitted (they contribute one incoming and one outgoing edge
regardless of orientation, hence never affect discrepancy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.utils.validation import require

__all__ = ["Multigraph", "Orientation"]


class Multigraph:
    """An undirected multigraph on nodes ``0 .. n-1`` with an edge list."""

    __slots__ = ("n", "edges", "incidence")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]) -> None:
        require(n >= 0, f"n must be >= 0, got {n}")
        self.n = n
        self.edges: Tuple[Tuple[int, int], ...] = tuple((int(a), int(b)) for a, b in edges)
        incidence: List[List[int]] = [[] for _ in range(n)]
        for eid, (a, b) in enumerate(self.edges):
            require(0 <= a < n and 0 <= b < n, f"edge {eid} endpoint out of range")
            incidence[a].append(eid)
            if b != a:
                incidence[b].append(eid)
        self.incidence: Tuple[Tuple[int, ...], ...] = tuple(tuple(x) for x in incidence)

    @property
    def n_edges(self) -> int:
        """Number of edges (with multiplicity)."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Degree of ``v`` (self-loops count twice)."""
        deg = len(self.incidence[v])
        deg += sum(1 for e in self.incidence[v] if self.edges[e] == (v, v))
        return deg

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        return max((self.degree(v) for v in range(self.n)), default=0)


@dataclass(frozen=True)
class Orientation:
    """An orientation of a :class:`Multigraph`.

    ``direction[e]`` is ``+1`` for "from ``edges[e][0]`` to ``edges[e][1]``"
    and ``-1`` for the reverse.
    """

    graph: Multigraph
    direction: Tuple[int, ...]

    def __post_init__(self) -> None:
        require(
            len(self.direction) == self.graph.n_edges,
            "orientation must cover every edge",
        )
        for d in self.direction:
            require(d in (1, -1), f"direction entries must be +/-1, got {d}")

    def head(self, e: int) -> int:
        """The node the edge points *to*."""
        a, b = self.graph.edges[e]
        return b if self.direction[e] == 1 else a

    def tail(self, e: int) -> int:
        """The node the edge points *from*."""
        a, b = self.graph.edges[e]
        return a if self.direction[e] == 1 else b

    def out_degree(self, v: int) -> int:
        """Number of edges directed away from ``v`` (self-loops count once)."""
        return sum(1 for e in self.graph.incidence[v] if self.tail(e) == v)

    def in_degree(self, v: int) -> int:
        """Number of edges directed into ``v`` (self-loops count once)."""
        return sum(1 for e in self.graph.incidence[v] if self.head(e) == v)

    def discrepancy(self, v: int) -> int:
        """``|in(v) − out(v)|`` — Definition 2.1's per-node discrepancy.

        Self-loops contribute one in and one out, cancelling exactly, which
        matches the convention that a self-loop is both incoming and
        outgoing.
        """
        balance = 0
        for e in self.graph.incidence[v]:
            a, b = self.graph.edges[e]
            if a == b:
                continue  # one in + one out: net zero
            balance += 1 if self.head(e) == v else -1
        return abs(balance)

    def max_discrepancy(self) -> int:
        """Maximum discrepancy over all nodes."""
        return max((self.discrepancy(v) for v in range(self.graph.n)), default=0)
