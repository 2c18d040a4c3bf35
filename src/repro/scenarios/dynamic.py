"""Dynamic-graph perturbations: edge churn, insertion and deletion streams.

The simulators run on a fixed CSR layout, so dynamic graphs are modeled
with the standard *supergraph* device: the network contains every edge that
ever exists, and a perturbation masks delivery on edges that are currently
down.  An edge that is down delivers nothing in either direction — to the
algorithm this is indistinguishable from the edge being absent, which is
exactly the dynamic-graph semantics of the faulty-LOCAL literature (nodes
keep their port numbering; links come and go underneath).

Edges are identified by canonical keys ``(min uid, max uid, k)`` where
``k`` is the multi-edge occurrence index under the simulator's
order-of-appearance pairing rule
(:class:`~repro.local.network.Network`'s ``dst_port``) — both endpoints of a
parallel edge derive the same key, so up/down decisions are symmetric per
edge, never per direction.  The integer triple keys the fault coin
(:func:`~repro.utils.rng.keyed_u01`), which vectorizes to one hash-kernel
call per round over the flat per-slot key arrays (:func:`edge_key_triples`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.local.network import Network, csr_arrays
from repro.scenarios.base import BoundPerturbation, Perturbation
from repro.utils.rng import keyed_u01, keyed_u01_array
from repro.utils.validation import require

__all__ = ["edge_key_triples", "EdgeChurn", "LateEdges", "DropEdges"]


def edge_key_triples(network: Network) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer canonical edge keys, flattened per CSR slot.

    Returns ``(offsets, lo, hi, k)`` int64 arrays where slot
    ``offsets[i] + p`` holds the ``(min uid, max uid, occurrence)`` triple
    of the edge behind node ``i``'s port ``p``: the k-th ``j`` in
    ``adjacency[i]`` pairs with the k-th ``i`` in ``adjacency[j]``, so both
    endpoints derive the same triple, ready to feed the vectorized
    :func:`~repro.utils.rng.keyed_u01_array` mask kernel.  ``k`` is each
    slot's rank among the slots of the same ``(owner, dst)`` pair.
    """
    offsets, owner, dst = csr_arrays(network)
    key = owner * network.n + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    k = np.empty_like(key)
    k[order] = np.arange(key.shape[0]) - np.searchsorted(key, key)
    u, v = network.uid_array[owner], network.uid_array[dst]
    return offsets, np.minimum(u, v), np.maximum(u, v), k


class _EdgeKeyed(BoundPerturbation):
    """Shared machinery: per-slot canonical edge keys as numpy columns, for
    the vectorized coin kernel and the scalar coin reads alike."""

    drops_messages = True

    def __init__(self, network: Network):
        self._offsets, self._lo, self._hi, self._k = edge_key_triples(network)

    def _slots(self, senders, ports):
        """Flat slot indices for parallel (sender, port) arrays."""
        return self._offsets[senders] + ports

    def _edge_u01(self, label: str, senders, ports, *round_key):
        """Per-slot edge-keyed uniforms for the given round key, vectorized."""
        slots = self._slots(senders, ports)
        return keyed_u01_array(
            self.fault_seed, label, self._lo[slots], self._hi[slots], self._k[slots],
            *round_key,
        )

    def _edge_u01_scalar(self, label: str, sender: int, port: int, *round_key):
        """One edge-keyed uniform — the scalar twin of :meth:`_edge_u01`."""
        s = self._offsets[sender] + port
        return keyed_u01(
            self.fault_seed, label,
            int(self._lo[s]), int(self._hi[s]), int(self._k[s]), *round_key,
        )


class EdgeChurn(Perturbation):
    """i.i.d. per-round edge downtime — a churning dynamic graph.

    Every round in ``[from_round, until_round]`` each edge is independently
    down with probability ``p_down`` (both directions together, keyed by
    the canonical edge key).  ``until_round=None`` churns forever.
    """

    def __init__(
        self,
        p_down: float = 0.1,
        from_round: int = 1,
        until_round: Optional[int] = None,
    ):
        require(0.0 <= p_down <= 1.0, f"p_down must be in [0, 1], got {p_down}")
        require(from_round >= 1, f"from_round must be >= 1, got {from_round}")
        require(
            until_round is None or until_round >= from_round,
            "until_round must be >= from_round",
        )
        self.p_down = p_down
        self.from_round = from_round
        self.until_round = until_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundChurn":
        return _BoundChurn(
            network, fault_seed, self.p_down, self.from_round, self.until_round
        )


class _BoundChurn(_EdgeKeyed):
    def __init__(self, network, fault_seed, p_down, from_round, until_round):
        super().__init__(network)
        self.fault_seed = fault_seed
        self.p_down = p_down
        self.from_round = from_round
        self.until_round = until_round
        self.quiet_after = until_round

    def _quiet(self, round_no: int) -> bool:
        if round_no < self.from_round:
            return True
        return self.until_round is not None and round_no > self.until_round

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        if self._quiet(round_no):
            return True
        return self._edge_u01_scalar("churn", sender, port, round_no) >= self.p_down

    def delivers_mask(self, round_no: int, senders, ports):
        if self._quiet(round_no):
            return None
        return self._edge_u01("churn", senders, ports, round_no) >= self.p_down


class _BoundEdgeSet(_EdgeKeyed):
    """Shared machinery: a fixed edge subset that is down inside a window."""

    def __init__(self, network, fault_seed, label, fraction):
        super().__init__(network)
        self.fault_seed = fault_seed
        # One coin per *edge* (not per direction): both ports of an edge see
        # the same key and therefore the same membership decision.
        self._member = keyed_u01_array(fault_seed, label, self._lo, self._hi, self._k) < fraction

    def _in_set(self, sender: int, port: int) -> bool:
        return bool(self._member[self._offsets[sender] + port])

    def _members_at(self, senders, ports):
        return self._member[self._slots(senders, ports)]


class LateEdges(Perturbation):
    """Insertion stream: a deterministic ``fraction`` of the edges only
    comes up at round ``at_round`` — before that they deliver nothing.

    Models a growing dynamic graph: the final topology is the full graph,
    so contracts validate against all edges, but early symmetry breaking
    happened on the sparser prefix.
    """

    def __init__(self, fraction: float = 0.3, at_round: int = 3):
        require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
        require(at_round >= 2, f"at_round must be >= 2, got {at_round}")
        self.fraction = fraction
        self.at_round = at_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundLate":
        return _BoundLate(network, fault_seed, self.fraction, self.at_round)


class _BoundLate(_BoundEdgeSet):
    def __init__(self, network, fault_seed, fraction, at_round):
        super().__init__(network, fault_seed, "late", fraction)
        self.at_round = at_round
        self.quiet_after = at_round - 1

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        return round_no >= self.at_round or not self._in_set(sender, port)

    def delivers_mask(self, round_no: int, senders, ports):
        if round_no >= self.at_round:
            return None
        return ~self._members_at(senders, ports)


class DropEdges(Perturbation):
    """Deletion stream: a deterministic ``fraction`` of the edges goes down
    at round ``at_round`` and stays down.

    The final graph excludes the dropped edges, and
    :meth:`~repro.scenarios.base.BoundPerturbation.edge_alive_final`
    reports that, so contracts validate against the post-deletion topology.
    """

    def __init__(self, fraction: float = 0.2, at_round: int = 3):
        require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
        require(at_round >= 1, f"at_round must be >= 1, got {at_round}")
        self.fraction = fraction
        self.at_round = at_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundDrop":
        return _BoundDrop(network, fault_seed, self.fraction, self.at_round)


class _BoundDrop(_BoundEdgeSet):
    deletes_edges = True

    def __init__(self, network, fault_seed, fraction, at_round):
        super().__init__(network, fault_seed, "dropedge", fraction)
        self.at_round = at_round
        self.quiet_after = at_round

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        return round_no < self.at_round or not self._in_set(sender, port)

    def delivers_mask(self, round_no: int, senders, ports):
        if round_no < self.at_round:
            return None
        return ~self._members_at(senders, ports)

    def edge_alive_final(self, sender: int, port: int) -> bool:
        return not self._in_set(sender, port)

    def edge_alive_final_mask(self, senders, ports):
        return ~self._members_at(senders, ports)
