"""Node-crash and message-loss perturbations.

Three classic fault models from the distributed-computing literature:

* :class:`CrashNodes` — crash (fail-stop) faults: a deterministic victim
  set halts at the start of one round and never speaks again;
* :class:`IIDMessageDrop` — independent per-message loss with probability
  ``p`` (an oblivious lossy-link adversary);
* :class:`MuteHubs` — an adversarial schedule that silences the
  highest-degree nodes for a prefix of the execution, the worst case for
  algorithms whose progress is carried by hubs.

All schedules are deterministic functions of the bind-time ``fault_seed``
(keyed coins, see :func:`~repro.utils.rng.keyed_u01`), so a faulty run is
exactly reproducible and bit-identical across executors.  Every bound class
implements the vectorized ``delivers_mask`` / ``crashes_mask`` surface:
i.i.d. drops collapse to a per-node hash prefix plus one per-slot mix per
round, victim-set models to an ``np.isin`` / index scatter.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.local.network import Network
from repro.scenarios.base import BoundPerturbation, Perturbation
from repro.utils.rng import keyed_u01, keyed_u01_array, keyed_u01_slots, slot_prefix
from repro.utils.validation import require

__all__ = ["CrashNodes", "IIDMessageDrop", "MuteHubs"]


class CrashNodes(Perturbation):
    """Crash a deterministic set of nodes at the start of round ``at_round``.

    ``fraction`` of the nodes (at least one, if the graph is non-empty and
    ``fraction > 0``) is selected either uniformly (``select="random"``,
    keyed by fault coins on the node uids) or adversarially
    (``select="hubs"``: the highest-degree nodes go first).  Victim
    selection happens once at bind time: the nodes with the lowest
    ``u(fault_seed, "crash", uid)`` coins, drawn in one
    :func:`~repro.utils.rng.keyed_u01_array` call.  ``select="hubs"`` is
    coin-free.
    """

    def __init__(self, fraction: float = 0.1, at_round: int = 3, select: str = "random"):
        require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
        require(at_round >= 1, f"at_round must be >= 1, got {at_round}")
        require(select in ("random", "hubs"), f"unknown selection rule {select!r}")
        self.fraction = fraction
        self.at_round = at_round
        self.select = select

    def bind(self, network: Network, fault_seed: int) -> "_BoundCrash":
        n = network.n
        count = int(round(self.fraction * n))
        if self.fraction > 0 and n > 0:
            count = max(1, count)
        if count == 0:
            return _BoundCrash((), self.at_round)
        if self.select == "hubs":
            order = sorted(
                range(n), key=lambda i: (-len(network.adjacency[i]), -network.ids[i])
            )
            victims = sorted(order[:count])
        else:
            u = keyed_u01_array(fault_seed, "crash", network.uid_array)
            victims = lowest_coins(u, count).tolist()
        return _BoundCrash(tuple(victims), self.at_round)


def lowest_coins(u, count: int):
    """Indices of the ``count`` (1 <= ``count`` <= ``len(u)``) smallest
    entries of ``u``, ties broken by index, in ascending index order: the
    set the first ``count`` entries of a stable argsort hold, found by one
    ``np.partition`` threshold in O(n) instead of an O(n log n) sort."""
    threshold = np.partition(u, count - 1)[count - 1]
    below = u < threshold
    ties = np.flatnonzero(u == threshold)[: count - int(np.count_nonzero(below))]
    below[ties] = True
    return np.flatnonzero(below)


class _BoundCrash(BoundPerturbation):
    crashes_nodes = True

    def __init__(self, victims: Tuple[int, ...], at_round: int):
        self.victims = victims
        self.at_round = at_round
        self.quiet_after = at_round
        self._victim_mask = None  # built on first crashes_mask call

    def crashes(self, round_no: int):
        return self.victims if round_no == self.at_round else ()

    def crashes_mask(self, round_no: int, n: int):
        if round_no != self.at_round or not self.victims:
            return None
        if self._victim_mask is None:
            mask = np.zeros(n, dtype=bool)
            mask[list(self.victims)] = True
            self._victim_mask = mask
        return self._victim_mask


class IIDMessageDrop(Perturbation):
    """Each message is lost independently with probability ``p``.

    Active for rounds in ``[from_round, until_round]`` (``until_round=None``
    = forever, in which case the scenario has no recovery point and the
    runner omits ``rounds_to_recover``).  Loss is per *directed* message —
    the two directions of an edge fail independently, like a lossy duplex
    link.
    """

    def __init__(self, p: float = 0.05, from_round: int = 1, until_round: Optional[int] = None):
        require(0.0 <= p <= 1.0, f"p must be in [0, 1], got {p}")
        require(from_round >= 1, f"from_round must be >= 1, got {from_round}")
        require(
            until_round is None or until_round >= from_round,
            "until_round must be >= from_round",
        )
        self.p = p
        self.from_round = from_round
        self.until_round = until_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundIIDDrop":
        return _BoundIIDDrop(network, fault_seed, self.p, self.from_round, self.until_round)


class _BoundSlotCoins(BoundPerturbation):
    """One fault coin per message ``(sender uid, round, port)`` inside the
    window ``[from_round, until_round]``: the shared body of i.i.d. drops
    and Byzantine corruption, whose schedules differ only in ``label``.

    The per-node half of the coin chain is kept for the last round asked,
    so a round queried slot range by slot range hashes each node once.
    """

    label = ""

    def __init__(self, network, fault_seed, p, from_round, until_round):
        self.network = network
        self.fault_seed = fault_seed
        self.p = p
        self.from_round = from_round
        self.until_round = until_round
        self.quiet_after = until_round
        self._prefix = None  # (round_no, per-node prefix)

    def _quiet(self, round_no: int) -> bool:
        if round_no < self.from_round:
            return True
        return self.until_round is not None and round_no > self.until_round

    def _u01(self, round_no: int, sender: int, port: int) -> float:
        return keyed_u01(self.fault_seed, self.label, self.network.ids[sender], round_no, port)

    def _u01_slots(self, round_no: int, senders, ports):
        # Per-node prefix plus one per-slot mix, elementwise equal to _u01.
        uids = self.network.uid_array
        if self._prefix is None or self._prefix[0] != round_no:
            self._prefix = (round_no, slot_prefix(self.fault_seed, self.label, uids, round_no))
        return keyed_u01_slots(
            self.fault_seed, self.label, uids, round_no, senders, ports,
            prefix=self._prefix[1],
        )


class _BoundIIDDrop(_BoundSlotCoins):
    drops_messages = True
    label = "drop"

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        return self._quiet(round_no) or self._u01(round_no, sender, port) >= self.p

    def delivers_mask(self, round_no: int, senders, ports):
        if self._quiet(round_no):
            return None
        return self._u01_slots(round_no, senders, ports) >= self.p


class MuteHubs(Perturbation):
    """Adversarial silence: the top-``count`` degree nodes deliver nothing
    for rounds ``1..until_round`` (their outgoing messages are dropped; they
    still receive and compute).  Ties break on higher uid.
    """

    def __init__(self, count: int = 3, until_round: int = 4):
        require(count >= 1, f"count must be >= 1, got {count}")
        require(until_round >= 1, f"until_round must be >= 1, got {until_round}")
        self.count = count
        self.until_round = until_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundMute":
        order = sorted(
            range(network.n),
            key=lambda i: (-len(network.adjacency[i]), -network.ids[i]),
        )
        return _BoundMute(frozenset(order[: self.count]), self.until_round)


class _BoundMute(BoundPerturbation):
    drops_messages = True

    def __init__(self, victims: frozenset, until_round: int):
        self.victims = victims
        self.until_round = until_round
        self.quiet_after = until_round
        self._victim_arr = None

    def delivers(self, round_no: int, sender: int, port: int) -> bool:
        return round_no > self.until_round or sender not in self.victims

    def delivers_mask(self, round_no: int, senders, ports):
        if round_no > self.until_round or not self.victims:
            return None
        if self._victim_arr is None:
            self._victim_arr = np.array(sorted(self.victims), dtype=np.int64)
        return ~np.isin(senders, self._victim_arr)
