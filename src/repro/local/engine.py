"""Batched high-throughput executor for the synchronous LOCAL simulator.

:func:`repro.local.network.run_local` is the reference implementation: a
straightforward transcription of the model definition whose per-round cost
is O(n + m) in Python dict operations *regardless of how many nodes are
still running*.  That loop dominates every benchmark in this repository.

:class:`CSREngine` executes the same algorithms with the same semantics —
bit-identical outputs for a fixed seed — but restructures the hot path:

* **CSR packing.**  Adjacency and port tables live in contiguous arrays
  (``offsets``, ``dst_node``, ``dst_port``): the ports of node ``i`` occupy
  slots ``offsets[i]:offsets[i+1]``, and a message sent on slot ``k`` lands
  in the inbox of ``dst_node[k]`` under port ``dst_port[k]``.  The
  :class:`~repro.local.network.Network` packs them with numpy in the same
  sort pass that validates it, so an engine only borrows them and reuses
  them across runs (multi-seed sweeps amortize them to nothing).

* **Active-set tracking.**  Only non-halted nodes are visited in the send
  and receive phases, and inboxes are materialized lazily for nodes that
  actually receive something.  Algorithms that retire nodes quickly (Luby
  MIS, trial-and-fix sinkless orientation) spend rounds on a shrinking
  frontier instead of rescanning all ``n`` views.

* **Broadcast fast path.**  Algorithms that send one identical message on
  every port declare it via :meth:`LocalAlgorithm.broadcast`; the engine
  then skips the ``{port: message}`` dict construction entirely and writes
  the message across the node's CSR slice in a tight loop.

Equivalence with the reference is structural, not accidental: both draw
the same keyed node coins (:class:`~repro.utils.rng.NodeCoins`), call ``init``/``broadcast``/
``send``/``receive`` for the same nodes in the same index order, and pair
multi-edge ports with the same order-of-appearance rule
(:func:`repro.local.network.build_reverse_ports`).  Inbox dicts are even
populated in the same insertion order (sender index, then port), so
algorithms that iterate ``inbox.values()`` observe identical sequences.
``tests/local/test_engine.py`` property-tests this bit-for-bit.

The engine additionally supports a *global stopping probe* — a callback
``probe(round_no, views) -> bool`` evaluated between rounds.  The probe is
harness-side instrumentation (the nodes never see it); it lets Las-Vegas
drivers such as :func:`repro.orientation.sinkless.run_trial_and_fix` stop
at the first globally-good configuration in one pass instead of rerunning
the simulation under growing round caps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.local.network import (
    NO_BROADCAST,
    LocalAlgorithm,
    Network,
    NodeView,
    RoundHooks,
    SimulationResult,
)
from repro.utils.rng import CoinClock, NodeCoins
from repro.utils.validation import require

__all__ = ["CSREngine", "run_local_fast"]

#: Signature of the optional global stopping probe.
Probe = Callable[[int, List[NodeView]], bool]


class CSREngine:
    """Reusable batched executor for one :class:`Network`.

    Construction borrows the network's packed CSR arrays; :meth:`run` then
    executes any :class:`LocalAlgorithm` against them.  Build once, run many
    times (different algorithms and seeds).
    """

    def __init__(self, network: Network):
        self.network = network
        self.offsets = network.offsets
        self.dst_node = network.dst_node
        self.dst_port = network.dst_port
        # Per-node delivery slices out_slots[i][p] = (dst node, dst port),
        # built on the first run: tuple lists iterate faster than indexing
        # the flat arrays per slot, and only this pure-Python path uses them.
        self._out_slots: Optional[List[List[Tuple[int, int]]]] = None

    def dense_arrays(self):
        """The CSR layout as numpy int64 arrays ``(offsets, dst_node, dst_port)``.

        These are the network's own read-only arrays, packed once when the
        :class:`Network` was validated; this is the substrate the vectorized
        round kernels in :mod:`repro.local.dense` index into.
        """
        return self.offsets, self.dst_node, self.dst_port

    @property
    def n(self) -> int:
        return self.network.n

    def run(
        self,
        algorithm: LocalAlgorithm,
        max_rounds: int = 10_000,
        seed: int = 0,
        probe: Optional[Probe] = None,
        hooks: Optional[RoundHooks] = None,
    ) -> SimulationResult:
        """Execute ``algorithm``; same contract as :func:`run_local`.

        ``probe``, if given, is called after each completed round with
        ``(round_no, views)``; returning True stops the simulation (the
        result's ``completed`` flag still reports whether all nodes halted).

        ``hooks`` (a :class:`~repro.local.network.RoundHooks`) injects
        environment faults at the same call points as the reference:
        ``before_round`` right after the frontier check (crashed nodes drop
        out of the active set before sending), ``deliver`` once per
        outgoing message, ``after_round`` after the receive phase.  With
        ``hooks=None`` the original tight loops run unchanged; hooked runs
        stay bit-identical to :func:`run_local` with the same hooks because
        ``deliver`` is required to be a pure function of
        ``(round_no, sender, port)``.
        """
        require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
        network = self.network
        n = self.n
        if self._out_slots is None:
            offsets = self.offsets.tolist()
            pairs = list(zip(self.dst_node.tolist(), self.dst_port.tolist()))
            self._out_slots = [pairs[offsets[i]:offsets[i + 1]] for i in range(n)]
        out_slots = self._out_slots

        clock = CoinClock()
        coins = NodeCoins.for_nodes(seed, network.ids, clock)
        views = [
            NodeView(index=i, uid=network.ids[i], degree=len(out_slots[i]), n=n, rng=coins[i])
            for i in range(n)
        ]
        init = algorithm.init
        for view in views:
            init(view)

        # Active frontier: (index, view) pairs for non-halted nodes, kept in
        # index order so hook-call order matches the reference exactly.
        active = [(i, v) for i, v in enumerate(views) if not v.halted]
        broadcast = algorithm.broadcast
        send = algorithm.send
        receive = algorithm.receive

        # Per-receiver inboxes, indexed by node: created lazily per round and
        # reset via the ``touched`` list (cheaper than reallocating n slots).
        boxes: List[Optional[Dict[int, Any]]] = [None] * n

        rounds = 0
        for round_no in range(1, max_rounds + 1):
            if not active:
                break
            clock.round = round_no
            if hooks is not None:
                # Crashes injected here drop out of the frontier before the
                # send phase — the reference skips them via ``view.halted``.
                hooks.before_round(round_no, views)
                active = [iv for iv in active if not iv[1].halted]
            # Send phase.  Inbox insertion order (sender index, then port)
            # matches run_local, so iteration over inbox items is identical.
            touched: List[int] = []
            touch = touched.append
            if hooks is None:
                for i, view in active:
                    slots = out_slots[i]
                    msg = broadcast(view, round_no)
                    if msg is not NO_BROADCAST:
                        for j, q in slots:
                            box = boxes[j]
                            if box is None:
                                box = boxes[j] = {}
                                touch(j)
                            box[q] = msg
                    else:
                        outgoing = send(view, round_no)
                        degree = len(slots)
                        for port, message in outgoing.items():
                            require(
                                0 <= port < degree,
                                f"node {i} sent on invalid port {port}",
                            )
                            j, q = slots[port]
                            box = boxes[j]
                            if box is None:
                                box = boxes[j] = {}
                                touch(j)
                            box[q] = message
            else:
                # Hook-aware twin of the loop above: one ``deliver`` consult
                # (plus one ``transform``) per outgoing message, after port
                # validation — exactly the reference's call points, so drops
                # and corruptions match message-for-message.
                deliver = hooks.deliver
                transform = hooks.transform
                for i, view in active:
                    slots = out_slots[i]
                    msg = broadcast(view, round_no)
                    if msg is not NO_BROADCAST:
                        for port, (j, q) in enumerate(slots):
                            if not deliver(round_no, i, port):
                                continue
                            box = boxes[j]
                            if box is None:
                                box = boxes[j] = {}
                                touch(j)
                            # Per-port: a Byzantine transform may rewrite a
                            # broadcast payload on some ports only.
                            box[q] = transform(round_no, i, port, msg)
                    else:
                        outgoing = send(view, round_no)
                        degree = len(slots)
                        for port, message in outgoing.items():
                            require(
                                0 <= port < degree,
                                f"node {i} sent on invalid port {port}",
                            )
                            if not deliver(round_no, i, port):
                                continue
                            j, q = slots[port]
                            box = boxes[j]
                            if box is None:
                                box = boxes[j] = {}
                                touch(j)
                            box[q] = transform(round_no, i, port, message)
            # Receive phase (index order, skipping nodes halted mid-send).
            for i, view in active:
                if view.halted:
                    continue
                box = boxes[i]
                receive(view, round_no, box if box is not None else {})
            for j in touched:
                boxes[j] = None
            rounds = round_no
            if hooks is not None:
                hooks.after_round(round_no, views)
            active = [iv for iv in active if not iv[1].halted]
            if not active:
                break
            if probe is not None and probe(round_no, views):
                break
        return SimulationResult(rounds=rounds, views=views, completed=not active)


def run_local_fast(
    network: Network,
    algorithm: LocalAlgorithm,
    max_rounds: int = 10_000,
    seed: int = 0,
    probe: Optional[Probe] = None,
    hooks: Optional[RoundHooks] = None,
) -> SimulationResult:
    """Drop-in replacement for :func:`run_local` using :class:`CSREngine`.

    Packs the network on every call; reuse a :class:`CSREngine` directly
    when running the same network repeatedly.
    """
    return CSREngine(network).run(
        algorithm, max_rounds=max_rounds, seed=seed, probe=probe, hooks=hooks
    )
