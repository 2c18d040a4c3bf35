"""Bipartite splitting instances.

The paper phrases every splitting problem on a bipartite graph
``B = (U ∪ V, E)`` (Definition 1.1): the *left* side ``U`` holds constraint
nodes, the *right* side ``V`` holds variable nodes.  Equivalently, ``U`` is the
vertex set of a hypergraph whose hyperedges are the right-side nodes.  The
paper's parameters are

* ``delta``  — minimum degree of the nodes in ``U`` (written δ),
* ``Delta``  — maximum degree of the nodes in ``U`` (written ∆), and
* ``rank``   — maximum degree of the nodes in ``V`` (written r), i.e. the rank
  of the corresponding hypergraph.

:class:`BipartiteInstance` stores the graph as an explicit edge list together
with incidence lists on both sides.  Storing edge identities (rather than mere
adjacency) is essential for the degree–rank reductions of Section 2, which
repeatedly *orient and delete individual edges*; it also lets us keep parallel
edges apart in the auxiliary multigraphs of Degree–Rank Reduction II.

Instances are immutable once constructed.  All reductions produce fresh
instances via :meth:`BipartiteInstance.subgraph` and carry edge-id maps back to
their parent, so a coloring computed on a reduced graph can always be
interpreted on the original one (the weak splitting property is preserved
under adding edges back, Lemma 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.utils.validation import require

__all__ = [
    "RED",
    "BLUE",
    "Coloring",
    "BipartiteInstance",
    "InstanceStats",
]

#: Color constants for 2-colorings of the right-hand side.
RED = 0
BLUE = 1

#: A (partial) coloring assigns an int color (or None) to every right node.
Coloring = List[Optional[int]]


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics of an instance, in the paper's notation."""

    n: int  #: total number of nodes |U| + |V|
    n_left: int  #: |U|
    n_right: int  #: |V|
    n_edges: int  #: |E|
    delta: int  #: minimum degree in U (0 if U empty)
    Delta: int  #: maximum degree in U (0 if U empty)
    rank: int  #: maximum degree in V (0 if V empty)
    min_rank: int  #: minimum degree in V (0 if V empty)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InstanceStats(n={self.n}, |U|={self.n_left}, |V|={self.n_right}, "
            f"|E|={self.n_edges}, delta={self.delta}, Delta={self.Delta}, r={self.rank})"
        )


class BipartiteInstance:
    """An immutable bipartite graph ``B = (U ∪ V, E)`` with edge identities.

    Parameters
    ----------
    n_left:
        Number of constraint nodes ``|U|``.  Left nodes are ``0 .. n_left-1``.
    n_right:
        Number of variable nodes ``|V|``.  Right nodes are ``0 .. n_right-1``.
    edges:
        Sequence of ``(u, v)`` pairs with ``u`` a left node and ``v`` a right
        node.  Edge ``i`` of the instance is ``edges[i]``; algorithms refer to
        edges by these indices.
    allow_multi:
        Whether parallel edges are permitted.  Splitting instances produced by
        the generators are simple; set this for auxiliary constructions.
    """

    __slots__ = ("n_left", "n_right", "edges", "left_inc", "right_inc", "_stats")

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Sequence[Tuple[int, int]],
        allow_multi: bool = False,
    ) -> None:
        require(n_left >= 0, f"n_left must be >= 0, got {n_left}")
        require(n_right >= 0, f"n_right must be >= 0, got {n_right}")
        self.n_left = n_left
        self.n_right = n_right
        self.edges: Tuple[Tuple[int, int], ...] = tuple((int(u), int(v)) for u, v in edges)
        left_inc: List[List[int]] = [[] for _ in range(n_left)]
        right_inc: List[List[int]] = [[] for _ in range(n_right)]
        seen: Set[Tuple[int, int]] = set()
        for eid, (u, v) in enumerate(self.edges):
            require(0 <= u < n_left, f"edge {eid}: left endpoint {u} out of range")
            require(0 <= v < n_right, f"edge {eid}: right endpoint {v} out of range")
            if not allow_multi:
                require((u, v) not in seen, f"parallel edge ({u}, {v}) in simple instance")
                seen.add((u, v))
            left_inc[u].append(eid)
            right_inc[v].append(eid)
        self.left_inc: Tuple[Tuple[int, ...], ...] = tuple(tuple(x) for x in left_inc)
        self.right_inc: Tuple[Tuple[int, ...], ...] = tuple(tuple(x) for x in right_inc)
        self._stats: Optional[InstanceStats] = None

    # ------------------------------------------------------------------ sizes
    @property
    def n(self) -> int:
        """Total node count ``|U| + |V|`` — the paper's ``n``."""
        return self.n_left + self.n_right

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self.edges)

    # ---------------------------------------------------------------- degrees
    def left_degree(self, u: int) -> int:
        """Degree of constraint node ``u ∈ U``."""
        return len(self.left_inc[u])

    def right_degree(self, v: int) -> int:
        """Degree of variable node ``v ∈ V``."""
        return len(self.right_inc[v])

    @property
    def delta(self) -> int:
        """Minimum degree δ over ``U`` (0 for empty ``U``)."""
        return self.stats().delta

    @property
    def Delta(self) -> int:
        """Maximum degree ∆ over ``U`` (0 for empty ``U``)."""
        return self.stats().Delta

    @property
    def rank(self) -> int:
        """Maximum degree r over ``V`` — the hypergraph rank (0 for empty V)."""
        return self.stats().rank

    def stats(self) -> InstanceStats:
        """Compute (and cache) the instance summary statistics."""
        if self._stats is None:
            left_degs = [len(x) for x in self.left_inc]
            right_degs = [len(x) for x in self.right_inc]
            self._stats = InstanceStats(
                n=self.n,
                n_left=self.n_left,
                n_right=self.n_right,
                n_edges=self.n_edges,
                delta=min(left_degs) if left_degs else 0,
                Delta=max(left_degs) if left_degs else 0,
                rank=max(right_degs) if right_degs else 0,
                min_rank=min(right_degs) if right_degs else 0,
            )
        return self._stats

    # ------------------------------------------------------------- neighbors
    def left_neighbors(self, u: int) -> List[int]:
        """Right-side neighbors of ``u`` (with multiplicity, in edge order)."""
        return [self.edges[e][1] for e in self.left_inc[u]]

    def right_neighbors(self, v: int) -> List[int]:
        """Left-side neighbors of ``v`` (with multiplicity, in edge order)."""
        return [self.edges[e][0] for e in self.right_inc[v]]

    def left_neighbor_set(self, u: int) -> Set[int]:
        """Distinct right-side neighbors of ``u``."""
        return {self.edges[e][1] for e in self.left_inc[u]}

    def right_neighbor_set(self, v: int) -> Set[int]:
        """Distinct left-side neighbors of ``v``."""
        return {self.edges[e][0] for e in self.right_inc[v]}

    # ------------------------------------------------------------- subgraphs
    def subgraph(self, keep_edges: Iterable[int]) -> Tuple["BipartiteInstance", List[int]]:
        """Edge-induced subgraph on the same node sets.

        Returns the new instance together with ``edge_map`` mapping each new
        edge id to the original edge id, so colorings and orientations can be
        pulled back.  Node identities are preserved; nodes that lose all their
        edges remain as isolated nodes (the degree–rank reduction analyses
        reason about exactly this graph).
        """
        keep = sorted(set(keep_edges))
        for e in keep:
            require(0 <= e < self.n_edges, f"edge id {e} out of range")
        new_edges = [self.edges[e] for e in keep]
        sub = BipartiteInstance(self.n_left, self.n_right, new_edges, allow_multi=True)
        return sub, keep

    def without_edges(self, drop_edges: Iterable[int]) -> Tuple["BipartiteInstance", List[int]]:
        """Complement form of :meth:`subgraph`: delete ``drop_edges``."""
        drop = set(drop_edges)
        return self.subgraph(e for e in range(self.n_edges) if e not in drop)

    # ------------------------------------------------------------ components
    def connected_components(self) -> List[Tuple[List[int], List[int], List[int]]]:
        """Connected components as ``(left_nodes, right_nodes, edge_ids)`` triples.

        Isolated nodes (on either side) each form their own singleton
        component with no edges.  Used by the shattering algorithms, which
        solve each residual component independently (Theorem 1.2).
        """
        left_comp = [-1] * self.n_left
        right_comp = [-1] * self.n_right
        comps: List[Tuple[List[int], List[int], List[int]]] = []
        for start in range(self.n_left):
            if left_comp[start] != -1:
                continue
            cid = len(comps)
            lefts: List[int] = []
            rights: List[int] = []
            eids: List[int] = []
            stack: List[Tuple[str, int]] = [("L", start)]
            left_comp[start] = cid
            while stack:
                side, x = stack.pop()
                if side == "L":
                    lefts.append(x)
                    for e in self.left_inc[x]:
                        eids.append(e)
                        v = self.edges[e][1]
                        if right_comp[v] == -1:
                            right_comp[v] = cid
                            stack.append(("R", v))
                else:
                    rights.append(x)
                    for e in self.right_inc[x]:
                        u = self.edges[e][0]
                        if left_comp[u] == -1:
                            left_comp[u] = cid
                            stack.append(("L", u))
            comps.append((sorted(lefts), sorted(rights), sorted(set(eids))))
        for v in range(self.n_right):
            if right_comp[v] == -1:
                right_comp[v] = len(comps)
                comps.append(([], [v], []))
        return comps

    def induced_component(
        self, lefts: Sequence[int], rights: Sequence[int], eids: Sequence[int]
    ) -> Tuple["BipartiteInstance", Dict[int, int], Dict[int, int]]:
        """Relabelled instance for a single component.

        Returns ``(sub, left_map, right_map)`` where the maps send *original*
        ids to ids in ``sub``.
        """
        left_map = {u: i for i, u in enumerate(lefts)}
        right_map = {v: i for i, v in enumerate(rights)}
        new_edges = [(left_map[self.edges[e][0]], right_map[self.edges[e][1]]) for e in eids]
        sub = BipartiteInstance(len(lefts), len(rights), new_edges, allow_multi=True)
        return sub, left_map, right_map

    # --------------------------------------------------------------- exports
    def adjacency(self) -> List[List[int]]:
        """Both sides as one graph: left ``u`` -> node ``u``, right ``v`` ->
        node ``n_left + v``; each row lists its edges in edge-id order."""
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(self.n_left + v)
            adj[self.n_left + v].append(u)
        return adj

    def degree_histogram_left(self) -> Dict[int, int]:
        """Histogram ``degree -> count`` over ``U``."""
        hist: Dict[int, int] = {}
        for inc in self.left_inc:
            hist[len(inc)] = hist.get(len(inc), 0) + 1
        return hist

    def degree_histogram_right(self) -> Dict[int, int]:
        """Histogram ``degree -> count`` over ``V``."""
        hist: Dict[int, int] = {}
        for inc in self.right_inc:
            hist[len(inc)] = hist.get(len(inc), 0) + 1
        return hist

    def is_simple(self) -> bool:
        """True iff the instance has no parallel edges."""
        return len(set(self.edges)) == len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"BipartiteInstance(|U|={s.n_left}, |V|={s.n_right}, |E|={s.n_edges}, "
            f"delta={s.delta}, Delta={s.Delta}, r={s.rank})"
        )
