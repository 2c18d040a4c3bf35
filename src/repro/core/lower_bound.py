"""Section 2.5 — the lower bound via reduction from sinkless orientation.

Theorem 2.10 / Figure 1: given a graph ``G`` with minimum degree >= 5, build
a weak splitting instance ``B`` whose left nodes are the nodes of ``G`` and
whose right nodes are the edges of ``G``:

* if at least half of ``u``'s neighbors have larger IDs, connect ``u`` to
  (the right node of) every incident edge toward a larger-ID neighbor;
* otherwise connect ``u`` to every incident edge toward a smaller-ID
  neighbor.

``B`` has rank <= 2 and left degree >= ⌈δ_G/2⌉ >= 3.  Any weak splitting of
``B`` yields a sinkless orientation of ``G``: orient red edges from the
smaller toward the larger ID, blue edges the other way.  A "larger-side"
node then has a red edge to a larger neighbor — outgoing — and a
"smaller-side" node has a blue edge to a smaller neighbor — also outgoing.
So an ``o(log_∆ log n)``-round weak splitting algorithm would contradict the
[BFH+16] sinkless-orientation lower bound; [CKP16]'s speedup lifts it to
``Ω(log_∆ n)`` deterministic (Corollary 2.11).

This module builds the reduction, converts colorings to orientations, and
exposes the lower-bound round formulas used by experiment E9.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.orientation.sinkless import GraphOrientation
from repro.utils.validation import require

__all__ = [
    "weak_splitting_instance_from_graph",
    "orientation_from_weak_splitting",
    "randomized_lower_bound_rounds",
    "deterministic_lower_bound_rounds",
]


def weak_splitting_instance_from_graph(
    adj: Sequence[Sequence[int]],
    ids: Optional[Sequence[int]] = None,
) -> Tuple[BipartiteInstance, List[Tuple[int, int]]]:
    """Build the Figure 1 reduction instance.

    Parameters
    ----------
    adj:
        Adjacency lists of ``G``; the reduction is meaningful for minimum
        degree >= 5 (left degree then >= 3), but the construction itself
        works whenever every node has at least one eligible edge.
    ids:
        Node identifiers used for the larger/smaller comparison; defaults to
        the node indices (the LOCAL model's IDs).

    Returns ``(instance, edge_list)`` where ``edge_list[j]`` is the
    ``(a, b)``-pair (with ``a < b``) of ``G`` represented by right node
    ``j``.
    """
    n = len(adj)
    if ids is None:
        ids = list(range(n))
    require(len(set(ids)) == n, "ids must be unique")

    edge_index: Dict[Tuple[int, int], int] = {}
    edge_list: List[Tuple[int, int]] = []
    for u in range(n):
        for v in adj[u]:
            key = (min(u, v), max(u, v))
            if key not in edge_index:
                edge_index[key] = len(edge_list)
                edge_list.append(key)

    bip_edges: List[Tuple[int, int]] = []
    for u in range(n):
        larger = [v for v in adj[u] if ids[v] > ids[u]]
        chosen = larger if 2 * len(larger) >= len(adj[u]) else [
            v for v in adj[u] if ids[v] < ids[u]
        ]
        for v in chosen:
            bip_edges.append((u, edge_index[(min(u, v), max(u, v))]))
    inst = BipartiteInstance(n, len(edge_list), bip_edges)
    return inst, edge_list


def orientation_from_weak_splitting(
    edge_list: Sequence[Tuple[int, int]],
    coloring: Coloring,
    ids: Optional[Sequence[int]] = None,
) -> GraphOrientation:
    """Convert a weak splitting of the reduction instance to an orientation.

    Red edge -> from the smaller-ID endpoint to the larger; blue edge -> the
    reverse; an uncolored right node (impossible for a complete weak
    splitting) raises.  Returns one arc per entry of ``edge_list``, in its
    order.
    """
    orientation: GraphOrientation = []
    for j, (a, b) in enumerate(edge_list):
        c = coloring[j]
        require(c in (RED, BLUE), f"edge node {j} has invalid color {c!r}")
        ida = ids[a] if ids is not None else a
        idb = ids[b] if ids is not None else b
        lo, hi = (a, b) if ida < idb else (b, a)
        orientation.append((lo, hi) if c == RED else (hi, lo))
    return orientation


def randomized_lower_bound_rounds(Delta: int, n: int) -> float:
    """Theorem 2.10: ``Ω(log_∆ log n)`` rounds randomized (constant 1)."""
    require(Delta >= 2 and n >= 4, "need Delta >= 2 and n >= 4")
    return math.log(math.log(n, 2), Delta)


def deterministic_lower_bound_rounds(Delta: int, n: int) -> float:
    """Corollary 2.11: ``Ω(log_∆ n)`` rounds deterministic (constant 1)."""
    require(Delta >= 2 and n >= 2, "need Delta >= 2 and n >= 2")
    return math.log(n, Delta)
