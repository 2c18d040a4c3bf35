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
from repro.utils.rng import node_rng
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
# A SplitMix64-style finalizer folded over the key components.  The scalar
# (:func:`fault_u01_mix`) and vectorized (:func:`fault_u01_array`) forms
# share this chain bit-for-bit, so a hooked engine run consulting scalar
# decisions and a dense run consuming whole-round mask arrays see the same
# fault schedule.  Not cryptographic — just a well-avalanched keyed hash.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_TO_U01 = 2.0 ** -53

_SALT_HASHES: dict = {}


def _salt_hash(label: str) -> int:
    """Stable 64-bit hash of a salt label (cached — labels are few)."""
    h = _SALT_HASHES.get(label)
    if h is None:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        h = _SALT_HASHES[label] = int.from_bytes(digest, "little")
    return h


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on python ints (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return z ^ (z >> 31)


def fault_u01_mix(fault_seed: int, label: str, entity: int, *key: int) -> float:
    """Counter-based uniform in ``[0, 1)`` — the ``"mask"``-mode coin.

    Same contract as :func:`fault_u01` (pure function of its arguments,
    order-insensitive) but built on integer mixing instead of sha512-seeded
    generators, so it costs nanoseconds and vectorizes
    (:func:`fault_u01_array` evaluates the identical chain on arrays).
    ``entity`` and every ``key`` component must be integers.
    """
    h = _mix64((fault_seed & _MASK64) ^ _salt_hash(label))
    h = _mix64((h + _SM_GAMMA) ^ (entity & _MASK64))
    for k in key:
        h = _mix64((h + _SM_GAMMA) ^ (k & _MASK64))
    return (h >> 11) * _TO_U01


def fault_u01_array(fault_seed: int, label: str, entity, *key, mode: str = "mask"):
    """One uniform per element of ``entity`` (float64 numpy array).

    ``mode="mask"`` runs the :func:`fault_u01_mix` chain as a vectorized
    numpy kernel over ``(fault_seed, salt_hash(label), entity, *key)`` —
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
    # Fold scalar components in python ints (numpy warns on uint64 scalar
    # overflow) and switch to wrapping uint64 array arithmetic at the first
    # array component; scalar folds before/after the switch stay bit-equal
    # to :func:`fault_u01_mix` because both run the same chain mod 2^64.
    h_int = _mix64((fault_seed & _MASK64) ^ _salt_hash(label))
    h = None
    for c in (entity, *key):
        if not isinstance(c, int) and np.ndim(c) == 0:
            c = int(c)
        if isinstance(c, int):
            if h is None:
                h_int = _mix64((h_int + _SM_GAMMA) ^ (c & _MASK64))
            else:
                h = _mix64_np(np, (h + np.uint64(_SM_GAMMA)) ^ np.uint64(c & _MASK64))
            continue
        cu = _as_u64(np, c)
        if h is None:
            h = _mix64_np(np, np.uint64((h_int + _SM_GAMMA) & _MASK64) ^ cu)
        else:
            h = _mix64_np(np, (h + np.uint64(_SM_GAMMA)) ^ cu)
    if h is None:  # every component was scalar: one-element degenerate call
        return np.float64((h_int >> 11) * _TO_U01)
    return (h >> np.uint64(11)) * _TO_U01


def _as_column(c, n: int):
    """Broadcast a replay-mode key component to ``n`` elements."""
    if isinstance(c, (str, bytes, int, float)):
        return [c] * n
    return list(c)


def _as_u64(np, x):
    """Coerce an int scalar or array to uint64 (two's-complement wrap)."""
    if isinstance(x, int):
        return np.uint64(x & _MASK64)
    a = np.asarray(x)
    if a.dtype != np.uint64:
        a = a.astype(np.int64, copy=False).astype(np.uint64)
    return a


def _mix64_np(np, z):
    """SplitMix64 finalizer on uint64 arrays (wrapping multiply)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
    return z ^ (z >> np.uint64(31))


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
