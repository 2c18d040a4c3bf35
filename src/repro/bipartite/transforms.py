"""Instance transformations used by the paper's reductions.

Three constructions recur throughout the paper:

* **Doubling** (Section 1.1): the splitting problem on a general graph
  ``G = (V_G, E_G)`` is phrased bipartitely by making two copies of every
  node, ``vL ∈ U`` and ``vR ∈ V``, and joining ``vL — uR`` and ``vR — uL`` for
  every edge ``{u, v}``.  A 2-coloring of the right side is then exactly a
  red/blue partition of ``V_G``, and "``u`` sees both colors among its
  G-neighbors" becomes the weak splitting constraint at ``uL``.  The resulting
  instance always has ``δ <= r`` (both equal the degree sequence of G), which
  is why Theorem 2.7's ``δ >= 6r`` regime can never apply to doubled graphs —
  a point the paper makes explicitly after Theorem 1.1.

* **Virtual-node splitting** (Section 2.4): to assume almost-uniform left
  degrees (``δ > ∆/2``), every ``u`` with ``deg(u) > 2δ`` is split into
  ``⌊deg(u)/δ⌋`` virtual constraint nodes, each inheriting between ``δ`` and
  ``2δ - 1`` of ``u``'s edges.  A weak splitting of the virtual instance
  immediately induces one of the original instance, because each original
  constraint contains some virtual constraint's neighborhood.

* **Trimming** (Lemma 2.2): every left node of degree above a target keeps
  only ``target`` of its incident edges.  A weak splitting of the trimmed
  graph is one of the original graph, since the property is preserved under
  adding edges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bipartite.instance import BipartiteInstance
from repro.utils.validation import require

__all__ = [
    "double_cover",
    "split_high_degree_left",
    "trim_left_degrees",
]


def double_cover(adj: Sequence[Sequence[int]]) -> BipartiteInstance:
    """The paper's Section 1.1 graph-to-bipartite doubling construction.

    ``adj`` is the adjacency list of a general graph ``G`` on nodes
    ``0 .. n-1``.  The result has left node ``u`` standing for ``uL`` and
    right node ``v`` standing for ``vR``; edge ``{u, v} ∈ E_G`` contributes
    the two bipartite edges ``uL — vR`` and ``vL — uR``.

    Weak splittings of the result correspond to red/blue partitions of
    ``V_G`` in which every node sees both colors in its G-neighborhood:
    right node ``v`` *is* graph node ``v``, so the right-side coloring is
    the partition.
    """
    n = len(adj)
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        for v in adj[u]:
            edges.append((u, v))  # uL — vR  (and v's list contributes vL — uR)
    return BipartiteInstance(n, n, edges)


def split_high_degree_left(
    inst: BipartiteInstance, delta: Optional[int] = None
) -> Tuple[BipartiteInstance, List[int]]:
    """Section 2.4 virtual-node splitting of high-degree constraint nodes.

    Every left node ``u`` with ``deg(u) >= 2 * delta`` is replaced by
    ``⌊deg(u)/delta⌋`` virtual nodes; the first ones take ``delta`` edges each
    and the last takes the remainder (between ``delta`` and ``2*delta - 1``).
    Nodes with degree below ``2*delta`` are kept as a single virtual node.

    Parameters
    ----------
    inst:
        The instance to transform.  Every left node must have degree at least
        ``delta`` (isolated or low-degree constraint nodes have no meaningful
        weak splitting constraint and must be filtered by the caller).
    delta:
        The chunk size; defaults to ``inst.delta``.

    Returns
    -------
    (virtual, owner):
        ``virtual`` is the new instance (same right side); ``owner[j]`` is the
        original left node that virtual left node ``j`` came from.  The new
        instance satisfies ``delta <= deg(j) < 2 * delta`` for every virtual
        node ``j``, i.e. ``δ > ∆/2`` as required by Theorem 1.2's analysis.

    A weak splitting of ``virtual`` is a weak splitting of ``inst``: each
    original ``u`` contains some virtual node's edge set, and that virtual
    node already sees both colors.
    """
    if delta is None:
        delta = inst.delta
    require(delta >= 1, f"delta must be >= 1, got {delta}")
    for u in range(inst.n_left):
        require(
            inst.left_degree(u) >= delta,
            f"left node {u} has degree {inst.left_degree(u)} < delta={delta}",
        )
    new_edges: List[Tuple[int, int]] = []
    owner: List[int] = []
    for u in range(inst.n_left):
        inc = inst.left_inc[u]
        k = len(inc) // delta  # number of virtual nodes for u (>= 1)
        # First k-1 virtual nodes take exactly delta edges; the last takes the rest.
        for j in range(k):
            vid = len(owner)
            owner.append(u)
            start = j * delta
            stop = (j + 1) * delta if j < k - 1 else len(inc)
            for e in inc[start:stop]:
                new_edges.append((vid, inst.edges[e][1]))
    virtual = BipartiteInstance(len(owner), inst.n_right, new_edges, allow_multi=True)
    return virtual, owner


def trim_left_degrees(
    inst: BipartiteInstance, target: int
) -> Tuple[BipartiteInstance, List[int]]:
    """Lemma 2.2 trimming: each left node keeps (at most) ``target`` edges.

    Nodes with degree below ``target`` keep everything.  Returns the trimmed
    instance together with the kept original edge ids (the ``edge_map`` of
    :meth:`BipartiteInstance.subgraph`).
    """
    require(target >= 1, f"target must be >= 1, got {target}")
    keep: List[int] = []
    for u in range(inst.n_left):
        keep.extend(inst.left_inc[u][:target])
    return inst.subgraph(keep)
