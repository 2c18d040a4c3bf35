"""Girth computation and high-girth instance construction (Section 5).

Theorems 5.2 and 5.3 require bipartite instances of girth at least 10.  The
cleanest scalable source of such instances is the *incidence construction*:
given a general graph ``G`` of girth ``g``, the bipartite incidence graph
between the vertices of ``G`` (left) and the edges of ``G`` (right) has girth
exactly ``2g``.  Thus any graph with girth >= 5 yields a rank-2 splitting
instance with girth >= 10, and left degrees equal to the degrees of ``G``.

To obtain graphs of girth >= 5 with controllable degree we sample random
``d``-regular graphs and *peel* edges lying on cycles shorter than 5.  Random
regular graphs contain only ``O(1)`` short cycles in expectation, so peeling
removes a vanishing fraction of edges and the minimum degree stays ``d - O(1)``
with high probability; the constructor verifies the resulting δ and girth
explicitly and retries/raises rather than returning a non-conforming instance.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.bipartite.instance import BipartiteInstance
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = [
    "bipartite_girth",
    "graph_girth",
    "incidence_instance",
    "peel_short_cycles",
    "high_girth_instance",
    "tree_instance",
]


def _girth_of_adjacency(adj: Sequence[Sequence[int]]) -> Optional[int]:
    """Girth of a simple graph given as adjacency lists; None if acyclic.

    Standard BFS-from-every-vertex bound: for each root, the first non-tree
    edge closing two BFS branches gives a cycle of length
    ``dist[a] + dist[b] + 1``; the minimum over all roots is exact.
    """
    n = len(adj)
    best: Optional[int] = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            if best is not None and dist[x] * 2 >= best:
                continue
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y and parent[y] != x:
                    cycle = dist[x] + dist[y] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def bipartite_girth(inst: BipartiteInstance) -> Optional[int]:
    """Girth of a (simple) bipartite instance; None if it is a forest."""
    require(inst.is_simple(), "girth is only defined for simple instances")
    return _girth_of_adjacency(inst.adjacency())


def graph_girth(adj: Sequence[Sequence[int]]) -> Optional[int]:
    """Girth of a general simple graph given as adjacency lists."""
    return _girth_of_adjacency(adj)


def incidence_instance(adj: Sequence[Sequence[int]]) -> BipartiteInstance:
    """Vertex–edge incidence instance of a general graph.

    Left node ``u`` = vertex ``u`` of ``G``; right nodes enumerate the edges of
    ``G``; each edge is incident to its two endpoints, so the rank is exactly 2
    and ``girth(B) = 2 * girth(G)``.
    """
    n = len(adj)
    edge_ids = {}
    bip_edges: List[Tuple[int, int]] = []
    for u in range(n):
        for v in adj[u]:
            if u < v:
                eid = edge_ids.setdefault((u, v), len(edge_ids))
                bip_edges.append((u, eid))
                bip_edges.append((v, eid))
    return BipartiteInstance(n, len(edge_ids), bip_edges)


def peel_short_cycles(
    adj: Sequence[Sequence[int]], min_girth: int, seed: SeedLike = None
) -> List[List[int]]:
    """Remove one edge from every cycle shorter than ``min_girth``.

    Repeatedly finds a shortest cycle (BFS) and deletes one of its edges until
    the girth is at least ``min_girth``.  Returns a fresh adjacency list.
    """
    rng = ensure_rng(seed)
    work = [sorted(nbrs) for nbrs in adj]
    while True:
        cycle_edge = _find_short_cycle_edge(work, min_girth)
        if cycle_edge is None:
            return work
        a, b = cycle_edge
        work[a].remove(b)
        work[b].remove(a)


def _find_short_cycle_edge(
    adj: Sequence[Sequence[int]], min_girth: int
) -> Optional[Tuple[int, int]]:
    """Return an edge on some cycle of length < ``min_girth``, or None."""
    n = len(adj)
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            if (dist[x] + 1) * 2 >= min_girth + 1:
                continue
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y and parent[y] != x:
                    if dist[x] + dist[y] + 1 < min_girth:
                        return (x, y)
    return None


def tree_instance(roots: int, d: int, r: int) -> BipartiteInstance:
    """Acyclic (girth ∞ >= 10) instance with δ = ``d`` and rank = ``r``.

    A two-level hierarchical construction:

    * ``roots`` root constraints, each with ``d`` private *inner* variables;
    * every inner variable acquires ``r − 1`` child constraints (so its
      degree — the rank — is exactly ``r``);
    * every child constraint gets ``d − 1`` fresh leaf variables (so its
      degree is exactly ``d``; leaves have degree 1).

    Being a forest, the instance trivially has girth >= 10, which makes it
    the scalable workhorse for the Section 5 experiments: the Lemma 5.1
    independence argument (neighbors of a variable have disjoint 3-hop
    neighborhoods) holds exactly.  Sizes: ``roots·(1 + d·r)`` constraints
    roughly, ``roots·d·(1 + (r−1)(d−1))`` variables.
    """
    require(roots >= 1 and d >= 2 and r >= 1, "need roots >= 1, d >= 2, r >= 1")
    edges: List[Tuple[int, int]] = []
    n_left = roots
    n_right = 0
    for root in range(roots):
        for _ in range(d):
            v = n_right
            n_right += 1
            edges.append((root, v))
            for _ in range(r - 1):
                c = n_left
                n_left += 1
                edges.append((c, v))
                for _ in range(d - 1):
                    leaf = n_right
                    n_right += 1
                    edges.append((c, leaf))
    return BipartiteInstance(n_left, n_right, edges)


def high_girth_instance(
    n: int,
    d: int,
    seed: SeedLike = None,
    min_girth: int = 10,
    min_delta: Optional[int] = None,
    max_attempts: int = 20,
) -> BipartiteInstance:
    """Rank-2 splitting instance of girth >= ``min_girth`` and δ close to ``d``.

    Samples a random ``d``-regular graph, peels cycles shorter than
    ``min_girth / 2``, and returns its incidence instance.  Verifies girth and
    the requested minimum left degree (default ``d - 2``); retries with fresh
    randomness up to ``max_attempts`` times and raises ``RuntimeError`` if no
    attempt succeeds (which for ``n >> d`` is vanishingly unlikely).
    """
    from repro.bipartite.generators import configuration_model_regular

    require(min_girth % 2 == 0, "bipartite girth is even; min_girth must be even")
    if min_delta is None:
        min_delta = max(1, d - 2)
    rng = ensure_rng(seed)
    for _ in range(max_attempts):
        adj = configuration_model_regular(n, d, seed=rng.randrange(2**31))
        peeled = peel_short_cycles(adj, min_girth // 2, seed=rng.randrange(2**31))
        if min(len(nbrs) for nbrs in peeled) < min_delta:
            continue
        inst = incidence_instance(peeled)
        g = bipartite_girth(inst)
        if g is None or g >= min_girth:
            return inst
    raise RuntimeError(
        f"could not build a girth-{min_girth} instance with n={n}, d={d} "
        f"after {max_attempts} attempts"
    )
