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

Purity is the load-bearing property: the reference simulator, the batched
engine and the dense kernels all consult the same decisions, but in
different orders (dict sweep vs CSR slot sweep vs vectorized mask build).
Because every decision is a pure function of ``(fault_seed, round, where)``
— no internal stream consumption — hooked runs stay *bit-identical* across
executors, which ``tests/scenarios/test_hook_equivalence.py`` property-
tests.

Fault coins come in two **fault modes**, mirroring the philox/replay split
of :class:`~repro.utils.rng.CoinTable`:

* ``fault_mode="replay"`` — coins from :func:`fault_u01`, built on the same
  :func:`~repro.utils.rng.node_rng` machinery as the nodes' private coins
  but under a disjoint ``"fault/..."`` salt namespace.  This is the
  historical schedule the bit-identity property tests pin; evaluating one
  coin costs a sha512-seeded ``random.Random`` (~9 µs), so large-n mask
  builds pay an O(m) interpreter loop.
* ``fault_mode="mask"`` — coins from :func:`fault_u01_mix`, a SplitMix64-
  style integer mix over ``(fault_seed, salt_hash, entity, *key)``.  The
  same chain vectorizes to one numpy kernel call per round
  (:func:`fault_u01_array`), so a faulty dense round costs about as much
  as a fault-free one.  Schedules are deterministic per seed and
  distribution-identical to replay mode, but draw *different* values —
  within one mode every executor still agrees bit-for-bit, because scalar
  and array kernels share the mixing chain exactly.
"""

from __future__ import annotations

import hashlib
from abc import ABC
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.local.network import Network, NodeView, RoundHooks
from repro.utils.rng import _MASK64, _SM_GAMMA, _TO_U01, _fold64, mix64, node_rng
from repro.utils.validation import require

__all__ = [
    "FAULT_MODES",
    "fault_u01",
    "fault_u01_mix",
    "fault_u01_array",
    "Perturbation",
    "BoundPerturbation",
    "PerturbationHooks",
    "bind_all",
    "rewrite_all",
    "quiet_after",
]

Adjacency = List[List[int]]

#: Supported fault-coin modes (see module docstring).
FAULT_MODES = ("replay", "mask")


def fault_u01(fault_seed: int, label: str, entity, *key) -> float:
    """One deterministic uniform in ``[0, 1)`` per (seed, label, entity, key).

    A pure function — repeated calls with the same arguments return the same
    value, so the executors may evaluate fault decisions in any order (or
    several times) without diverging.  Built on :func:`node_rng` with a
    ``fault/``-prefixed salt, keeping fault coins independent of the node
    coin streams ``{seed}/{uid}/`` that the algorithms consume.
    """
    salt = "fault/" + label
    if key:
        salt += "/" + "/".join(str(k) for k in key)
    return node_rng(fault_seed, entity, salt=salt).random()


# ---------------------------------------------------------------------------
# Counter-based fault coins (fault_mode="mask").
#
# The SplitMix64 chain of repro.utils.rng (:func:`~repro.utils.rng._fold64`)
# folded over the key components.
# The scalar (:func:`fault_u01_mix`) and vectorized (:func:`fault_u01_array`,
# :func:`_fault_u01_slots`) forms share this chain bit-for-bit, so a hooked
# engine run consulting scalar decisions and a dense run consuming
# whole-round mask arrays see the same fault schedule.  Not cryptographic —
# just a well-avalanched keyed hash.
# ---------------------------------------------------------------------------

_SALT_HASHES: dict = {}


def _seeded(fault_seed: int, label: str) -> int:
    """The chain's first link: the fault seed mixed with a stable 64-bit
    hash of the salt label (cached — labels are few)."""
    h = _SALT_HASHES.get(label)
    if h is None:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        h = _SALT_HASHES[label] = int.from_bytes(digest, "little")
    return mix64((fault_seed & _MASK64) ^ h)


def fault_u01_mix(fault_seed: int, label: str, entity: int, *key: int) -> float:
    """Counter-based uniform in ``[0, 1)`` — the ``"mask"``-mode coin.

    Same contract as :func:`fault_u01` (pure function of its arguments,
    order-insensitive) but built on integer mixing instead of sha512-seeded
    generators, so it costs nanoseconds and vectorizes
    (:func:`fault_u01_array` evaluates the identical chain on arrays).
    ``entity`` and every ``key`` component must be integers.
    """
    h = _seeded(fault_seed, label)
    for k in (entity, *key):
        h = mix64((h + _SM_GAMMA) ^ (k & _MASK64))
    return (h >> 11) * _TO_U01


def fault_u01_array(fault_seed: int, label: str, entity, *key, mode: str = "mask"):
    """One uniform per element of ``entity`` (float64 numpy array).

    ``mode="mask"`` runs the :func:`fault_u01_mix` chain as a vectorized
    numpy kernel over ``(fault_seed, label, entity, *key)`` —
    every component may be an int array (elementwise) or a scalar
    (broadcast); elementwise results equal :func:`fault_u01_mix` bit-for-
    bit.  ``mode="replay"`` instead reproduces today's scalar
    :func:`fault_u01` values exactly, element by element — an O(len)
    interpreter loop that exists for the bit-identity property tests and
    the replay fallback, not for speed (entities/keys may be any objects
    the scalar form accepts, e.g. string edge keys).
    """
    import numpy as np  # lazy: the pure-python scenario paths never need it

    require(mode in FAULT_MODES, f"unknown fault coin mode {mode!r}")
    if mode == "replay":
        cols = [_as_column(c, len(entity)) for c in key]
        return np.array(
            [
                fault_u01(fault_seed, label, e, *(c[i] for c in cols))
                for i, e in enumerate(entity)
            ],
            dtype=np.float64,
        )
    h = _fold64(np, _seeded(fault_seed, label), (entity, *key))
    if isinstance(h, int):  # every component was scalar: one-element degenerate call
        return np.float64((h >> 11) * _TO_U01)
    h >>= np.uint64(11)
    return h * _TO_U01


def _slot_prefix(fault_seed: int, label: str, uids, round_no: int):
    """The per-node ``(fault_seed, label, uid, round)`` prefix of the mask-
    mode chain, one uint64 per node (see :func:`_fault_u01_slots`)."""
    import numpy as np

    return _fold64(np, _seeded(fault_seed, label), (uids, round_no))


def _fault_u01_slots(fault_seed: int, label: str, uids, round_no: int, senders, ports,
                     mode: str = "mask", prefix=None):
    """Per-slot fault coins keyed ``(sender uid, round, port)``.

    Equals ``fault_u01_array(fault_seed, label, uids[senders], round_no,
    ports, mode=mode)`` elementwise, but in ``"mask"`` mode the chain's
    ``(fault_seed, label, uid, round)`` prefix is hashed once per *node*
    and gathered by ``senders``, so only the port link runs per slot —
    one O(m) mix instead of three for a whole-round mask.  A caller that
    asks for one round in several slot ranges passes the
    :func:`_slot_prefix` it already holds as ``prefix``.  ``"replay"``
    mode takes the exact scalar-chain path of :func:`fault_u01_array`.
    """
    if mode == "replay":
        return fault_u01_array(fault_seed, label, uids[senders], round_no, ports, mode=mode)
    import numpy as np

    if prefix is None:
        prefix = _slot_prefix(fault_seed, label, uids, round_no)
    h = _fold64(np, prefix[senders], (ports,), owned=True)
    h >>= np.uint64(11)
    return h * _TO_U01


def _as_column(c, n: int):
    """Broadcast a replay-mode key component to ``n`` elements."""
    if isinstance(c, (str, bytes, int, float)):
        return [c] * n
    return list(c)


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
        elementwise with :meth:`delivers` — in ``"replay"`` fault mode that
        pins it to the historical :func:`fault_u01` schedule, in ``"mask"``
        mode both sides consult the same :func:`fault_u01_mix` chain.
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

    def bind(
        self, network: Network, fault_seed: int, fault_mode: str = "replay"
    ) -> BoundPerturbation:
        """Bind the per-round fault schedule to a concrete network.

        ``fault_mode`` selects the coin kernel: ``"replay"`` (the
        historical :func:`fault_u01` schedule, bit-identity tested) or
        ``"mask"`` (the vectorizable :func:`fault_u01_mix` schedule —
        distribution-identical, cheap at scale).  Perturbations without
        runtime coins (graph rewrites, degree-ranked victim sets) bind
        identically in both modes.
        """
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
    fault_mode: str = "replay",
) -> Tuple[BoundPerturbation, ...]:
    """Bind every perturbation to one ``(network, fault_seed, mode)``."""
    require(fault_mode in FAULT_MODES, f"unknown fault_mode {fault_mode!r}")
    return tuple(p.bind(network, fault_seed, fault_mode) for p in perturbations)


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
    applies the Byzantine payload rewrites of every corrupting
    perturbation whose pure ``corrupts`` decision fires.  Create a fresh
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
                message = b.corrupt_payload(message)
        return message
