"""A synchronous message-passing simulator for the LOCAL model.

The LOCAL model [Lin92, Pel00] (footnote 1 of the paper): a communication
graph ``G``; computation proceeds in synchronous rounds; in each round every
node may send an arbitrarily large message to each neighbor, receive the
messages of its neighbors, and update its state.  Nodes know ``n`` (or an
upper bound) and carry unique identifiers.  Time complexity is the number of
rounds until every node has produced its output.

The simulator here is faithful to that definition:

* messages are delivered only along edges, with one-round latency;
* a node's behaviour is a function of its own state, its private coins and
  the messages received — there is no global shared state;
* the round count is exact and is reported to the caller, who typically
  forwards it to a :class:`repro.local.ledger.RoundLedger` as a *simulated*
  charge.

Randomized LOCAL algorithms receive per-node private coins keyed by the
master seed, the node's uid, the round and the draw within the round (see
:class:`repro.utils.rng.NodeCoins`), keeping runs reproducible without
correlating nodes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import time

import numpy as np

from repro.utils.rng import CoinClock, NodeCoins
from repro.utils.validation import require

__all__ = [
    "Network",
    "NodeView",
    "LocalAlgorithm",
    "RoundHooks",
    "run_local",
    "SimulationResult",
    "NO_BROADCAST",
    "build_reverse_ports",
    "csr_arrays",
]


class _NoBroadcast:
    """Sentinel: the algorithm has no broadcast message this round."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_BROADCAST"


#: Returned by :meth:`LocalAlgorithm.broadcast` to fall back to :meth:`send`.
NO_BROADCAST = _NoBroadcast()


def csr_arrays(
    adjacency: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten an adjacency list into int64 slot arrays ``(offsets, owner, dst)``.

    Node ``i`` owns slots ``offsets[i]:offsets[i+1]``, in port order, and
    slot ``k`` is the edge ``owner[k] -> dst[k]``.  Nothing is validated.
    """
    n = len(adjacency)
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    dst = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=int(offsets[-1])
    )
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    return offsets, owner, dst


class Network:
    """A communication graph for the simulator.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` lists the node indices adjacent to node ``i``.  The
        graph must be symmetric; parallel entries are allowed (multi-edges)
        and are presented to the algorithm as distinct ports.
    ids:
        Unique identifiers (the LOCAL model's O(log n)-bit names).  Defaults
        to the node indices.

    Validation also packs the graph into read-only int64 CSR arrays: the
    ports of node ``i`` occupy slots ``offsets[i]:offsets[i+1]``, and slot
    ``k`` leads to node ``dst_node[k]``, arriving there on port
    ``dst_port[k]``.  One stable sort of the slot keys ``owner*n + dst``
    and one of the reversed keys ``dst*n + owner`` check symmetry (with
    multiplicities) and pair the k-th ``(u, v)`` slot with the k-th
    ``(v, u)`` slot — the :func:`build_reverse_ports` rule.  ``simple``
    records whether the graph has neither multi-edges nor self-loops.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], ids: Optional[Sequence[int]] = None):
        self.adjacency: Tuple[Tuple[int, ...], ...] = tuple(tuple(a) for a in adjacency)
        n = len(self.adjacency)
        offsets, owner, dst = csr_arrays(self.adjacency)
        m = int(offsets[-1])

        bad = np.flatnonzero((dst < 0) | (dst >= n))
        if bad.shape[0]:
            k = bad[0]
            raise ValueError(f"node {owner[k]} lists out-of-range neighbor {dst[k]}")
        key = owner * n + dst
        rkey = dst * n + owner
        order = np.argsort(key, kind="stable")
        rorder = np.argsort(rkey, kind="stable")
        key = key[order]
        rkey = rkey[rorder]
        mismatch = np.flatnonzero(key != rkey)
        if mismatch.shape[0]:
            d = mismatch[0]
            # The smaller key at the first difference occurs more often on
            # one side than on the other: its pair is asymmetric.
            i, j = divmod(int(min(key[d], rkey[d])), n)
            raise ValueError(f"asymmetric adjacency between nodes {i} and {j}")
        self.simple: bool = not ((key[1:] == key[:-1]).any() or (owner == dst).any())
        partner = np.empty(m, dtype=np.int64)
        partner[rorder] = order
        self.offsets = offsets
        self.dst_node = dst
        self.dst_port = partner - offsets[dst]
        for arr in (self.offsets, self.dst_node, self.dst_port):
            arr.flags.writeable = False

        if ids is None:
            self.ids: Tuple[int, ...] = tuple(range(n))  # unique ints already
        else:
            require(len(ids) == n, "ids must have one entry per node")
            require(len(set(ids)) == n, "ids must be unique")
            self.ids = tuple(int(x) for x in ids)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.adjacency)

    @cached_property
    def uid_array(self) -> np.ndarray:
        """``ids`` as a read-only int64 array, built on first use.

        Fault models rebind on every Las-Vegas attempt; they share this one
        array instead of converting the id tuple per binding.
        """
        uids = np.asarray(self.ids, dtype=np.int64)
        uids.flags.writeable = False
        return uids

    def degree(self, i: int) -> int:
        """Degree (number of ports) of node ``i``."""
        return len(self.adjacency[i])

    @classmethod
    def from_bipartite(cls, inst, ids: Optional[Sequence[int]] = None) -> "Network":
        """Communication network of a bipartite instance.

        Left node ``u`` becomes simulator node ``u``; right node ``v`` becomes
        node ``inst.n_left + v``.  Each bipartite edge is one communication
        link (one port on each side).
        """
        adj: List[List[int]] = [[] for _ in range(inst.n_left + inst.n_right)]
        for u, v in inst.edges:
            adj[u].append(inst.n_left + v)
            adj[inst.n_left + v].append(u)
        return cls(adj, ids=ids)


@dataclass
class NodeView:
    """Everything a node may legitimately see during the simulation.

    ``state`` is the node's private memory; ``rng`` its private coin source;
    ``ports`` maps port number to nothing the node shouldn't know — the node
    addresses neighbors only by port, never by global index.
    """

    index: int  #: simulator-internal index (used by the harness, not the node)
    uid: int  #: the node's unique identifier (visible to the algorithm)
    degree: int  #: number of incident ports
    n: int  #: number of nodes in the network (known in the LOCAL model)
    rng: NodeCoins  #: private coins (``random()``, ``randrange(b)``)
    state: Dict[str, Any] = field(default_factory=dict)  #: private memory
    output: Any = None  #: final output once set
    halted: bool = False  #: whether the node has terminated


class LocalAlgorithm(ABC):
    """A node-uniform algorithm for the synchronous simulator.

    Subclasses implement three hooks.  ``init`` runs before round 1;
    ``send`` produces this round's outgoing messages as ``{port: message}``
    (missing ports send nothing); ``receive`` consumes the inbox
    ``{port: message}`` and may set ``view.output`` / ``view.halted``.
    The simulation stops when every node has halted or after ``max_rounds``.
    """

    @abstractmethod
    def init(self, view: NodeView) -> None:
        """Initialize private state before the first round."""

    @abstractmethod
    def send(self, view: NodeView, round_no: int) -> Dict[int, Any]:
        """Messages to emit in round ``round_no`` (1-based), keyed by port."""

    @abstractmethod
    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, Any]) -> None:
        """Process the messages received in round ``round_no``."""

    def broadcast(self, view: NodeView, round_no: int) -> Any:
        """Message to emit on *every* port this round, or :data:`NO_BROADCAST`.

        Many LOCAL algorithms are *broadcast algorithms*: each round a node
        sends one message, identical on all its ports.  Declaring the round
        here (instead of materializing ``{port: msg}`` dicts in ``send``)
        lets the batched engine deliver the message in a tight loop over the
        node's CSR slice.  The default falls back to :meth:`send`.

        Both :func:`run_local` and the engine consult this hook exactly once
        per active node per round, *before* ``send``; when it returns a
        message, ``send`` is not called.  Overrides must therefore perform
        any per-round state updates (coin flips, counters) in whichever hook
        actually runs.
        """
        return NO_BROADCAST


class RoundHooks:
    """Harness-side round instrumentation shared by both executors.

    Hooks model the *environment* rather than the algorithm: node crashes,
    lossy links, dynamic edges, adversarial schedules.  The nodes never see
    the hook object — they only observe its effects (missing messages,
    silent neighbors), exactly as in the faulty-LOCAL literature.

    Call points (identical in :func:`run_local` and
    :class:`~repro.local.engine.CSREngine`, so hooked runs stay
    bit-identical across executors):

    * :meth:`before_round` — after the all-halted check, before the send
      phase.  May crash nodes by setting ``view.halted`` (by convention a
      crash also sets ``view.state["crashed"] = True`` so contracts can
      tell a crash from a normal termination).
    * :meth:`deliver` — once per outgoing message, after port validation.
      Returning False silently drops the message.  **Must be a pure
      function of ``(round_no, sender, port)``** — both executors consult
      it while sweeping senders, but the engine's broadcast fast path and
      the reference's dict loop enumerate messages in different orders, so
      any internal state consumption would break the bit-identity
      guarantee.
    * :meth:`transform` — once per *delivered* message, immediately after
      :meth:`deliver` approves it.  Returns the (possibly rewritten)
      payload — the Byzantine corruption channel.  Like ``deliver`` it
      **must be pure** in ``(round_no, sender, port, message)`` and must
      not mutate the payload in place (broadcast messages are shared
      across ports).
    * :meth:`after_round` — after the receive phase of every executed
      round (observation only, e.g. per-round violation tracking).

    The default implementation is a no-op; ``hooks=None`` skips all calls
    on the original fast paths.
    """

    def before_round(self, round_no: int, views: List["NodeView"]) -> None:
        """Inject faults for ``round_no`` (crash nodes via ``view.halted``)."""

    def deliver(self, round_no: int, sender: int, port: int) -> bool:
        """Whether the message ``sender`` emits on ``port`` arrives."""
        return True

    def transform(self, round_no: int, sender: int, port: int, message):
        """The payload actually delivered for an approved message."""
        return message

    def after_round(self, round_no: int, views: List["NodeView"]) -> None:
        """Observe the state after ``round_no``'s receive phase."""


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    rounds: int  #: number of executed rounds
    views: List[NodeView]  #: final node views (outputs in ``view.output``)
    completed: bool  #: True iff all nodes halted before the round cap
    #: wall time of per-node coin construction (one hash per node; see
    #: also ``TrialResult.rng_seconds``)
    rng_seconds: float = 0.0

    def outputs(self) -> List[Any]:
        """Convenience: the per-node outputs in index order."""
        return [v.output for v in self.views]


def build_reverse_ports(adjacency: Sequence[Sequence[int]]) -> List[List[int]]:
    """Port tables: ``reverse_port[i][p]`` is the counterpart's port.

    If node ``i`` lists ``j`` at port ``p`` then ``j`` lists ``i`` at port
    ``reverse_port[i][p]``.  Multi-edges are matched in order of appearance:
    the k-th occurrence of ``j`` in ``adjacency[i]`` pairs with the k-th
    occurrence of ``i`` in ``adjacency[j]``.  Shared by :func:`run_local`
    and the batched engine so both deliver along identical port pairings.
    """
    n = len(adjacency)
    reverse_port: List[List[int]] = [[-1] * len(adjacency[i]) for i in range(n)]
    cursor: Dict[Tuple[int, int], List[int]] = {}
    for i in range(n):
        for p, j in enumerate(adjacency[i]):
            cursor.setdefault((j, i), []).append(p)
    taken: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for p, j in enumerate(adjacency[i]):
            k = taken.get((i, j), 0)
            taken[(i, j)] = k + 1
            reverse_port[i][p] = cursor[(i, j)][k]
    return reverse_port


def run_local(
    network: Network,
    algorithm: LocalAlgorithm,
    max_rounds: int = 10_000,
    seed: int = 0,
    hooks: Optional[RoundHooks] = None,
) -> SimulationResult:
    """Execute ``algorithm`` on ``network`` synchronously.

    Message delivery is port-to-port: if node ``a`` lists ``b`` at port ``p``
    and ``b`` lists ``a`` at port ``q``, a message sent by ``a`` on port ``p``
    in round ``t`` arrives in ``b``'s inbox under port ``q`` in the same
    round's receive phase (standard synchronous semantics).

    ``hooks`` (a :class:`RoundHooks`) injects environment faults — crashes
    in ``before_round``, message loss via ``deliver`` — at the same call
    points the batched engine uses, so hooked runs remain bit-identical
    between the two executors (the scenario subsystem in
    :mod:`repro.scenarios` is built on this).

    This is the *reference* implementation: simple, dict-based, audited
    against the model definition.  :func:`repro.local.engine.run_local_fast`
    is the batched drop-in replacement, bit-identical for a fixed seed.
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    n = network.n
    reverse_port = build_reverse_ports(network.adjacency)

    clock = CoinClock()
    rng_start = time.perf_counter()
    coins = NodeCoins.for_nodes(seed, network.ids, clock)
    rng_seconds = time.perf_counter() - rng_start
    views = [
        NodeView(index=i, uid=network.ids[i], degree=network.degree(i), n=n, rng=coins[i])
        for i in range(n)
    ]
    for view in views:
        algorithm.init(view)

    rounds = 0
    for round_no in range(1, max_rounds + 1):
        if all(v.halted for v in views):
            break
        clock.round = round_no
        if hooks is not None:
            hooks.before_round(round_no, views)
        inboxes: List[Dict[int, Any]] = [{} for _ in range(n)]
        for i in range(n):
            if views[i].halted:
                continue
            bmsg = algorithm.broadcast(views[i], round_no)
            if bmsg is not NO_BROADCAST:
                outgoing = {p: bmsg for p in range(network.degree(i))}
            else:
                outgoing = algorithm.send(views[i], round_no)
            for port, message in outgoing.items():
                require(
                    0 <= port < network.degree(i),
                    f"node {i} sent on invalid port {port}",
                )
                if hooks is not None:
                    if not hooks.deliver(round_no, i, port):
                        continue
                    message = hooks.transform(round_no, i, port, message)
                j = network.adjacency[i][port]
                inboxes[j][reverse_port[i][port]] = message
        for i in range(n):
            if views[i].halted:
                continue
            algorithm.receive(views[i], round_no, inboxes[i])
        rounds = round_no
        if hooks is not None:
            hooks.after_round(round_no, views)
        if all(v.halted for v in views):
            break
    return SimulationResult(
        rounds=rounds,
        views=views,
        completed=all(v.halted for v in views),
        rng_seconds=rng_seconds,
    )
