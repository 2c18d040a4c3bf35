"""Validity contracts under faults: verify what survived.

A clean-run verifier asks "is this output correct?".  Under crashes and
dynamic edges the honest question is "how correct is the output *on the
graph that remains*?" — crashed nodes are excluded, deleted edges are
excluded, and the contract returns a **violation count** instead of a
boolean, so resilience becomes a measured axis rather than a pass/fail.

Conventions shared by all contracts here:

* the graph is an adjacency list, or an
  :class:`~repro.local.network.Adjacency`, a
  :class:`~repro.local.network.Network` or a CSREngine, whose CSR arrays
  :func:`~repro.local.network.csr_arrays` then reads as they are;
* ``alive[i]`` — node ``i`` did not crash (a normally-terminated node is
  alive);
* the *surviving graph* has the alive nodes and the edges whose
  ``edge_ok`` holds on both endpoints' ports.  ``edge_ok`` is ``None``
  (every edge survives) or a per-slot bool mask in CSR slot order;
  anything else is rejected.  :func:`edge_ok_slot_mask` builds the mask
  of a perturbation stack's final graph (the conjunction of its members'
  :meth:`~repro.scenarios.base.BoundPerturbation.edge_alive_final_mask`),
  once per trial;
* degrees, degree thresholds and neighbor counts are all computed on the
  surviving graph.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.verifiers import red_window_violators
from repro.local.network import Network, csr_arrays
from repro.orientation.sinkless import GraphOrientation, _arcs, orientation_from_views
from repro.utils.validation import require, require_nodes

__all__ = [
    "edge_ok_slot_mask",
    "orientation_from_views",
    "mis_violations",
    "surviving_sinks",
    "splitting_violations",
]

Graph = Union[Sequence[Sequence[int]], Network]
EdgeOk = Optional[np.ndarray]


def _edge_mask(edge_ok: EdgeOk, owner: np.ndarray):
    """``edge_ok`` checked as ``None`` or a per-slot bool mask."""
    if edge_ok is None:
        return None
    require(
        isinstance(edge_ok, np.ndarray) and edge_ok.shape == owner.shape,
        "edge_ok must be None or a bool mask with one entry per slot",
    )
    return edge_ok.astype(bool, copy=False)


def edge_ok_slot_mask(graph: Graph, bound) -> Optional[np.ndarray]:
    """Per-slot final-graph membership mask of a perturbation stack, or
    ``None`` when every edge is final.

    The conjunction of the members'
    :meth:`~repro.scenarios.base.BoundPerturbation.edge_alive_final_mask`
    over the CSR slots of ``graph`` — the ``edge_ok`` every contract, the
    splitting repair probe and the exact oracle take.  Only members whose
    ``deletes_edges`` flag is set are asked, so a stack without an
    edge-deleting member builds no slot coordinates.
    """
    final = [b for b in bound if b.deletes_edges]
    if not final:
        return None
    offsets, owner, _ = csr_arrays(graph)
    ports = np.arange(owner.shape[0], dtype=np.int64) - offsets[owner]
    mask = None
    for b in final:
        alive = b.edge_alive_final_mask(owner, ports)
        if alive is not None:
            mask = alive if mask is None else mask & alive
    return mask


def _live_slots(offsets, owner, dst, alive, edge_ok: EdgeOk) -> np.ndarray:
    """Slots of the surviving graph: both endpoints alive, ``edge_ok`` holds."""
    live = alive[owner] & alive[dst]
    mask = _edge_mask(edge_ok, owner)
    return live if mask is None else live & mask


def _alive_array(alive: Optional[Sequence[bool]], n: int) -> np.ndarray:
    return np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)


def mis_violations(
    adjacency: Graph,
    mis: Union[Set[int], np.ndarray],
    alive: Optional[Sequence[bool]] = None,
    edge_ok: EdgeOk = None,
) -> Tuple[int, int]:
    """MIS defects on the surviving graph.

    ``mis`` is a set of node ids or a bool node mask.  Returns
    ``(independence, domination)``: the number of surviving edges
    with both endpoints in the MIS, and the number of alive non-MIS nodes
    with no alive MIS neighbor over a surviving edge (isolated alive nodes
    outside the MIS count — they are undominated).  Independence counts a
    surviving slot of the lower endpoint, so a one-sided ``edge_ok`` is
    read from that side.
    """
    offsets, owner, dst = csr_arrays(adjacency)
    n = offsets.shape[0] - 1
    alive = _alive_array(alive, n)
    if isinstance(mis, np.ndarray) and mis.dtype == bool:
        require(mis.shape == (n,), "an MIS mask must have one entry per node")
        in_mis = mis
    else:
        ids = np.fromiter(mis, dtype=np.int64, count=len(mis))
        require_nodes(ids, n, "MIS node")
        in_mis = np.zeros(n, dtype=bool)
        in_mis[ids] = True
    to_mis = _live_slots(offsets, owner, dst, alive, edge_ok) & in_mis[dst]
    independence = np.count_nonzero(to_mis & in_mis[owner] & (owner < dst))
    dominated = in_mis | (np.bincount(owner[to_mis], minlength=n) > 0)
    return int(independence), int(np.count_nonzero(alive & ~dominated))


def surviving_sinks(
    adjacency: Graph,
    orientation: GraphOrientation,
    alive: Sequence[bool],
    min_degree: int = 1,
) -> List[int]:
    """Sinks among the alive nodes on the alive-induced subgraph.

    A node is accountable if its count of alive neighbor ports (parallel
    edges and self-loops counted, per the rule of
    :mod:`repro.orientation.sinkless`) is at least ``min_degree``; it
    violates if none of its arcs leads to an alive node.  (An outgoing
    edge into a crashed node no longer helps: in the surviving graph that
    edge is gone.)
    """
    offsets, owner, dst = csr_arrays(adjacency)
    n = offsets.shape[0] - 1
    alive = _alive_array(alive, n)
    arcs = _arcs(orientation)
    require_nodes(arcs, n, "orientation endpoint")
    tails = arcs[:, 0][alive[arcs[:, 0]] & alive[arcs[:, 1]]]
    out_alive = np.bincount(tails, minlength=n)
    alive_degree = np.bincount(owner[alive[dst]], minlength=n)
    return np.flatnonzero(
        alive & (alive_degree >= min_degree) & (out_alive == 0)
    ).tolist()


def splitting_violations(
    adjacency: Graph,
    partition: Sequence,
    spec,
    alive: Optional[Sequence[bool]] = None,
    edge_ok: EdgeOk = None,
) -> List[int]:
    """Uniform-splitting defects on the surviving graph.

    Degrees, the ``spec.constrains`` threshold and the red-neighbor bounds
    are all evaluated on the surviving graph; crashed (uncolored) nodes are
    neither constrained nor counted.
    """
    offsets, owner, dst = csr_arrays(adjacency)
    n = offsets.shape[0] - 1
    alive = _alive_array(alive, n)
    live = _live_slots(offsets, owner, dst, alive, edge_ok)
    bad = alive & red_window_violators(offsets, dst, partition, spec, live)
    return np.flatnonzero(bad).tolist()
