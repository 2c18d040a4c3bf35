"""Correlated crash sets and Byzantine message corruption.

Two harder fault families than the IID models in :mod:`repro.scenarios.faults`:

* :class:`CorrelatedCrash` — spatially-clustered fail-stop faults: the
  victim set is a BFS ball around a coin-picked center (``mode="ball"``) or
  one contiguous node-range block (``mode="shard"``: nodes ``0..n-1`` cut
  into ``count``-sized blocks, one of which dies).  Binding reuses
  the :class:`~repro.scenarios.faults._BoundCrash` schedule, so the whole
  vectorized crash-mask surface applies unchanged.
* :class:`CorruptMessages` — a Byzantine channel adversary: each delivered
  message is independently rewritten with probability ``p`` during the
  active window.  The *decision* (which slots are corrupted) runs on the
  keyed coin kernels exactly like drops, so corruption schedules stay
  vectorized and bit-identical across the hooked executors and the dense
  kernels.  The *rewrite* (:func:`corrupt_payload`) is one pure
  payload function covering the three shipped pipelines' vocabularies —
  forged Luby priorities, flipped join/stay and flip/ok bits, flipped
  proposal coins and splitting colors — which the dense kernels mirror as
  per-slot semantic masks (see ``corrupted_in``/``corrupted_out`` in
  :class:`~repro.scenarios.masks.DenseFaults`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.local.network import Network
from repro.scenarios.base import Perturbation
from repro.scenarios.faults import _BoundCrash, _BoundSlotCoins
from repro.utils.rng import keyed_u01, keyed_u01_array
from repro.utils.validation import require

__all__ = ["CorrelatedCrash", "CorruptMessages", "corrupt_payload", "FORGED_PRIORITY"]

#: A priority no honest Luby draw can beat: genuine priorities are
#: ``(rng.random() < 1.0, uid)`` tuples, so ``(2.0, big)`` always wins the
#: lexicographic comparison — a forged-winner payload.
FORGED_PRIORITY = (2.0, 1 << 62)


def corrupt_payload(message):
    """The Byzantine rewrite: one pure payload function for all pipelines.

    Covers every message the shipped pipelines emit; unknown payloads pass
    through unchanged (a corrupted message an algorithm ignores is a no-op,
    matching the dense kernels, which only mask the semantic bits they
    consume).
    """
    if type(message) is int and message in (0, 1):
        return 1 - message  # splitting color broadcast: RED <-> BLUE
    if isinstance(message, tuple) and message:
        kind = message[0]
        if kind == "prio":
            return ("prio", FORGED_PRIORITY)
        if kind == "join":
            return ("stay",)
        if kind == "stay":
            return ("join",)
        if kind == "flip":
            return ("ok",) + message[1:]
        if kind == "ok":
            return ("flip",) + message[1:]
        if kind == "prop":
            return ("prop", not message[1]) + message[2:]
    return message


class CorrelatedCrash(Perturbation):
    """Crash a spatially-correlated victim set at round ``at_round``.

    ``mode="ball"`` grows a BFS ball around a center picked by one fault
    coin per node (lowest coin wins; the ball spills into the next-lowest
    unvisited center when a component is exhausted, so the count is always
    met).  ``mode="shard"`` crashes one contiguous node-range block —
    nodes ``[start, start + count)`` with ``start`` a multiple of
    ``count`` — picked by a single fault coin.  Selection happens at bind
    time (one :func:`~repro.utils.rng.keyed_u01_array` call for the ball
    centers), and the bound schedule is the same vectorized
    :class:`~repro.scenarios.faults._BoundCrash` that :class:`CrashNodes`
    uses, so ``quiet_after``/steady-mask reuse apply unchanged.
    """

    def __init__(self, fraction: float = 0.15, at_round: int = 3, mode: str = "ball"):
        require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
        require(at_round >= 1, f"at_round must be >= 1, got {at_round}")
        require(mode in ("ball", "shard"), f"unknown correlation mode {mode!r}")
        self.fraction = fraction
        self.at_round = at_round
        self.mode = mode

    def bind(self, network: Network, fault_seed: int) -> _BoundCrash:
        n = network.n
        count = int(round(self.fraction * n))
        if self.fraction > 0 and n > 0:
            count = max(1, count)
        count = min(count, n)
        if count == 0:
            return _BoundCrash((), self.at_round)
        if self.mode == "shard":
            u = keyed_u01(fault_seed, "crash-shard", 0)
            blocks = (n + count - 1) // count
            start = min(int(u * blocks), blocks - 1) * count
            victims = range(start, min(start + count, n))
            return _BoundCrash(tuple(victims), self.at_round)
        u = keyed_u01_array(fault_seed, "crash-ball", network.uid_array)
        centers = np.argsort(u, kind="stable")
        victims: list = []
        seen = set()
        for c in centers:
            if len(victims) >= count:
                break
            c = int(c)
            if c in seen:
                continue
            queue = deque([c])
            seen.add(c)
            while queue and len(victims) < count:
                v = queue.popleft()
                victims.append(v)
                for w in network.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return _BoundCrash(tuple(sorted(victims)), self.at_round)


class CorruptMessages(Perturbation):
    """Byzantine corruption: each delivered message is rewritten with
    probability ``p`` for rounds in ``[from_round, until_round]``
    (``until_round=None`` = forever; the scenario then has no recovery
    point).  Corruption is per *directed* message, independent across the
    two directions of an edge, keyed like drops on
    ``(fault_seed, "corrupt", sender uid, round, port)``.
    """

    def __init__(self, p: float = 0.1, from_round: int = 1, until_round: Optional[int] = None):
        require(0.0 <= p <= 1.0, f"p must be in [0, 1], got {p}")
        require(from_round >= 1, f"from_round must be >= 1, got {from_round}")
        require(
            until_round is None or until_round >= from_round,
            "until_round must be >= from_round",
        )
        self.p = p
        self.from_round = from_round
        self.until_round = until_round

    def bind(self, network: Network, fault_seed: int) -> "_BoundCorrupt":
        return _BoundCorrupt(network, fault_seed, self.p, self.from_round, self.until_round)


class _BoundCorrupt(_BoundSlotCoins):
    corrupts_messages = True
    label = "corrupt"

    def corrupts(self, round_no: int, sender: int, port: int) -> bool:
        return not self._quiet(round_no) and self._u01(round_no, sender, port) < self.p

    def corrupts_mask(self, round_no: int, senders, ports):
        if self._quiet(round_no):
            return None
        return self._u01_slots(round_no, senders, ports) < self.p

    def corrupt_payload(self, message):
        return corrupt_payload(message)
