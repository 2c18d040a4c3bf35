"""Perturbation protocol: composable faults/adversaries over the simulators.

A :class:`Perturbation` is one declarative ingredient of a scenario — node
crashes, lossy links, dynamic edges, adversarial renamings.  It acts on a
run through two channels:

* :meth:`Perturbation.rewrite` — a graph-level transform applied before the
  :class:`~repro.local.network.Network` is built (ID relabelings, port
  permutations, multi-edge lifts, supergraphs for insertion streams);
* :meth:`Perturbation.bind` — a per-run :class:`BoundPerturbation` whose
  round decisions (``crashes``, ``delivers``) are **pure functions** of the
  round number and message coordinates.

Purity is the load-bearing property: the reference simulator and the
dense kernels consult the same decisions, but in different orders (dict
sweep vs vectorized mask build).
Because every decision is a pure function of ``(fault_seed, round, where)``
— no internal stream consumption — hooked runs stay *bit-identical* across
executors, which ``tests/scenarios/test_hook_equivalence.py`` property-
tests.

Fault coins are the repo's one keyed coin law
(:func:`~repro.utils.rng.keyed_u01`): a fault decision draws
``u(fault_seed, label, *key)`` with a label per fault family (``"drop"``,
``"crash"``, ``"churn"``, ...), disjoint from the nodes' ``"node"`` coins.
The scalar chain the hooked executors consult and the vectorized one the
dense masks build (:func:`~repro.utils.rng.keyed_u01_array`,
:func:`~repro.utils.rng.keyed_u01_slots`) agree bit for bit, so a faulty
dense round costs about as much as a fault-free one and every executor
sees the same schedule.
"""

from __future__ import annotations

from abc import ABC
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.local.network import Network, NodeView, RoundHooks

__all__ = [
    "Perturbation",
    "BoundPerturbation",
    "PerturbationHooks",
    "bind_all",
    "rewrite_all",
    "quiet_after",
]

Adjacency = List[List[int]]


class BoundPerturbation:
    """A perturbation bound to one ``(network, fault_seed)`` pair.

    Subclasses may precompute anything at bind time (victim sets, edge
    keys), but the per-round methods must remain pure functions of their
    arguments.  The base class is the identity perturbation.
    """

    #: Last round whose fault schedule differs from the steady state, or
    #: ``None`` if the perturbation never settles (e.g. i.i.d. drops with no
    #: end round).  The scenario runner derives the ``rounds_to_recover``
    #: resilience metric from the max over the stack.
    quiet_after: Optional[int] = 0

    #: Capability flags — let the dense adapter skip O(n)/O(m) mask builds
    #: for rounds (or whole runs) that cannot be affected.
    crashes_nodes: bool = False
    drops_messages: bool = False
    corrupts_messages: bool = False

    def crashes(self, round_no: int) -> Iterable[int]:
        """Node indices that crash at the start of ``round_no``."""
        return ()

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        """Whether the message ``sender`` emits on ``port`` arrives."""
        return True

    def corrupts(self, round_no: int, sender: int, port: int) -> bool:
        """Whether the delivered message on this slot is rewritten in
        transit.  Like :meth:`delivers`, a pure function of its arguments —
        the hooked executors and the dense corruption masks consult the
        same decision in different orders."""
        return False

    def corrupt_payload(self, message):
        """Byzantine rewrite applied where :meth:`corrupts` fires.  Must be
        a pure function of the payload (no coordinates, no state) so the
        dense kernels can mirror it as per-slot semantic masks."""
        return message

    def corrupts_mask(self, round_no: int, senders, ports):
        """Optional vectorized form of :meth:`corrupts`.

        Same contract as :meth:`delivers_mask` (``None`` = nothing
        corrupted this round, ``NotImplemented`` = scalar fallback), with
        True meaning *corrupted*.  Must agree elementwise with
        :meth:`corrupts`.
        """
        return NotImplemented

    def crashes_mask(self, round_no: int, n: int):
        """Optional vectorized form of :meth:`crashes`.

        Returns a bool numpy array of length ``n`` (True = crashes at the
        start of ``round_no``), ``None`` for "nobody crashes this round",
        or ``NotImplemented`` when the perturbation has no vectorized path
        — the caller (:class:`~repro.scenarios.masks.DenseFaults`) then
        falls back to the scalar :meth:`crashes` sweep.  Must agree with
        :meth:`crashes` exactly.
        """
        return NotImplemented

    def delivers_mask(self, round_no: int, senders, ports):
        """Optional vectorized form of :meth:`delivers`.

        ``senders``/``ports`` are parallel int arrays of message
        coordinates; returns a bool array of the same length (True =
        delivered), ``None`` for "everything delivered this round", or
        ``NotImplemented`` to request the scalar fallback.  Must agree
        elementwise with :meth:`delivers`; both sides consult the same
        keyed coin chain.
        """
        return NotImplemented

    def edge_alive_final(self, sender: int, port: int) -> bool:
        """Whether the edge behind ``(sender, port)`` belongs to the final
        graph (dynamic-graph perturbations override this so contracts can
        validate against the post-churn topology)."""
        return True

    def edge_alive_final_mask(self, senders, ports):
        """Optional vectorized form of :meth:`edge_alive_final`.

        Same contract as :meth:`delivers_mask`: a bool array over the
        parallel ``senders``/``ports`` arrays (True = in the final graph),
        ``None`` for "every edge is final", or ``NotImplemented`` to
        request the scalar fallback.  Must agree elementwise with
        :meth:`edge_alive_final`.
        """
        return NotImplemented


class Perturbation(ABC):
    """Declarative fault/adversary ingredient of a :class:`Scenario`."""

    def rewrite(self, adjacency: Adjacency, ids: List[int]) -> Tuple[Adjacency, List[int]]:
        """Graph-level transform applied before the network is built."""
        return adjacency, ids

    def bind(self, network: Network, fault_seed: int) -> BoundPerturbation:
        """Bind the per-round fault schedule to a concrete network; its
        coins are keyed by ``fault_seed``."""
        return BoundPerturbation()


def rewrite_all(
    perturbations: Sequence[Perturbation],
    adjacency: Adjacency,
    ids: Optional[List[int]] = None,
) -> Tuple[Adjacency, List[int]]:
    """Apply every perturbation's graph transform, in declaration order."""
    if ids is None:
        ids = list(range(len(adjacency)))
    for p in perturbations:
        adjacency, ids = p.rewrite(adjacency, ids)
    return adjacency, ids


def bind_all(
    perturbations: Sequence[Perturbation],
    network: Network,
    fault_seed: int,
) -> Tuple[BoundPerturbation, ...]:
    """Bind every perturbation to one ``(network, fault_seed)``."""
    return tuple(p.bind(network, fault_seed) for p in perturbations)


def quiet_after(bound: Sequence[BoundPerturbation]) -> Optional[int]:
    """Last round at which the stack can still inject, ``None`` if never."""
    q = 0
    for b in bound:
        if b.quiet_after is None:
            return None
        q = max(q, b.quiet_after)
    return q


class PerturbationHooks(RoundHooks):
    """:class:`RoundHooks` adapter over a stack of bound perturbations.

    ``before_round`` crashes scheduled nodes (setting ``view.halted`` and
    the ``state["crashed"]`` marker contracts key off); ``deliver`` is the
    conjunction of the stack's pure delivery decisions; ``transform``
    applies the Byzantine payload rewrite of the first corrupting
    perturbation whose pure ``corrupts`` decision fires — a message is
    corrupted or not, however many corrupters fire, exactly as the dense
    kernels OR the corrupters' masks.  Create a fresh
    instance per run — the ``crashed`` set is per-run bookkeeping (the
    decisions themselves are pure, so two instances over the same stack
    behave identically).
    """

    def __init__(self, bound: Sequence[BoundPerturbation]):
        self.bound = tuple(bound)
        self.crashed: set = set()
        self._corrupters = tuple(b for b in self.bound if b.corrupts_messages)

    def before_round(self, round_no: int, views: List[NodeView]) -> None:
        for b in self.bound:
            for i in b.crashes(round_no):
                view = views[i]
                if not view.halted:
                    view.halted = True
                    view.state["crashed"] = True
                    self.crashed.add(i)

    def deliver(self, round_no: int, sender: int, port: int) -> bool:
        for b in self.bound:
            if not b.delivers(round_no, sender, port):
                return False
        return True

    def transform(self, round_no: int, sender: int, port: int, message):
        for b in self._corrupters:
            if b.corrupts(round_no, sender, port):
                return b.corrupt_payload(message)
        return message
