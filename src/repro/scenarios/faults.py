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
and ``fault_mode`` (see :func:`~repro.scenarios.base.fault_u01` /
:func:`~repro.scenarios.base.fault_u01_mix`), so a faulty run is exactly
reproducible and bit-identical across executors.  Every bound class
implements the vectorized ``delivers_mask`` / ``crashes_mask`` surface:
i.i.d. drops collapse to a per-node hash prefix plus one per-slot mix per
round, victim-set models to an ``np.isin`` / index scatter.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.local.network import Network
from repro.scenarios.base import (
    BoundPerturbation,
    Perturbation,
    _fault_u01_slots,
    _slot_prefix,
    fault_u01,
    fault_u01_array,
    fault_u01_mix,
)
from repro.utils.validation import require

__all__ = ["CrashNodes", "IIDMessageDrop", "MuteHubs"]


class CrashNodes(Perturbation):
    """Crash a deterministic set of nodes at the start of round ``at_round``.

    ``fraction`` of the nodes (at least one, if the graph is non-empty and
    ``fraction > 0``) is selected either uniformly (``select="random"``,
    keyed by fault coins on the node uids) or adversarially
    (``select="hubs"``: the highest-degree nodes go first).  Victim
    selection happens once at bind time and follows the fault-coin mode:
    ``fault_mode="mask"`` draws every node's selection coin in one
    counter-based :func:`~repro.scenarios.base.fault_u01_array` kernel
    call (no per-node RNG construction — the bind is O(n) numpy work, not
    O(n) sha512 ``random.Random`` builds), while ``fault_mode="replay"``
    reproduces the historical per-node :func:`fault_u01` selection
    bit-for-bit.  ``select="hubs"`` is coin-free and mode-independent.
    """

    def __init__(self, fraction: float = 0.1, at_round: int = 3, select: str = "random"):
        require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
        require(at_round >= 1, f"at_round must be >= 1, got {at_round}")
        require(select in ("random", "hubs"), f"unknown selection rule {select!r}")
        self.fraction = fraction
        self.at_round = at_round
        self.select = select

    def bind(
        self, network: Network, fault_seed: int, fault_mode: str = "replay"
    ) -> "_BoundCrash":
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
            victims = order[:count]
        else:
            import numpy as np  # lazy, like the fault-coin kernels

            u = fault_u01_array(fault_seed, "crash", network.uid_array, mode=fault_mode)
            # Stable argsort ties match the stable python sort the replay
            # selection historically ran, so replay mode stays bit-compatible.
            victims = np.argsort(u, kind="stable")[:count].tolist()
        return _BoundCrash(tuple(sorted(int(v) for v in victims)), self.at_round)


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
            import numpy as np

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

    def bind(
        self, network: Network, fault_seed: int, fault_mode: str = "replay"
    ) -> "_BoundIIDDrop":
        return _BoundIIDDrop(
            network, fault_seed, self.p, self.from_round, self.until_round,
            fault_mode,
        )


class _BoundSlotCoins(BoundPerturbation):
    """One fault coin per message ``(sender uid, round, port)`` inside the
    window ``[from_round, until_round]``: the shared body of i.i.d. drops
    and Byzantine corruption, whose schedules differ only in ``label``.

    In ``"mask"`` fault mode the per-node half of the coin chain is kept
    for the last round asked, so a round queried slot range by slot range
    hashes each node once.
    """

    label = ""

    def __init__(self, network, fault_seed, p, from_round, until_round, fault_mode="replay"):
        self.network = network
        self.fault_seed = fault_seed
        self.p = p
        self.from_round = from_round
        self.until_round = until_round
        self.quiet_after = until_round
        self.fault_mode = fault_mode
        self._prefix = None  # (round_no, per-node prefix), mask mode only

    def _quiet(self, round_no: int) -> bool:
        if round_no < self.from_round:
            return True
        return self.until_round is not None and round_no > self.until_round

    def _u01(self, round_no: int, sender: int, port: int) -> float:
        coin = fault_u01_mix if self.fault_mode == "mask" else fault_u01
        return coin(self.fault_seed, self.label, self.network.ids[sender], round_no, port)

    def _u01_slots(self, round_no: int, senders, ports):
        # Per-node prefix plus one per-slot mix (replay mode falls back to
        # the scalar chain internally, elementwise-identical to _u01).
        uids = self.network.uid_array
        prefix = None
        if self.fault_mode == "mask":
            if self._prefix is None or self._prefix[0] != round_no:
                self._prefix = (
                    round_no, _slot_prefix(self.fault_seed, self.label, uids, round_no)
                )
            prefix = self._prefix[1]
        return _fault_u01_slots(
            self.fault_seed, self.label, uids, round_no, senders, ports,
            mode=self.fault_mode, prefix=prefix,
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

    def bind(
        self, network: Network, fault_seed: int, fault_mode: str = "replay"
    ) -> "_BoundMute":
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
        import numpy as np

        if self._victim_arr is None:
            self._victim_arr = np.array(sorted(self.victims), dtype=np.int64)
        return ~np.isin(senders, self._victim_arr)
