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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import CoinClock, NodeCoins
from repro.utils.validation import require

__all__ = [
    "Adjacency",
    "Network",
    "NodeView",
    "LocalAlgorithm",
    "RoundHooks",
    "run_local",
    "SimulationResult",
    "build_reverse_ports",
    "csr_arrays",
    "csr_rows",
]


class Adjacency(tuple):
    """An immutable adjacency list that carries its int64 CSR arrays.

    A tuple of tuple rows plus read-only ``offsets`` and ``dst_node``
    arrays (the :func:`csr_rows` layout).  Packing any sequence of rows
    flattens it once; :meth:`from_csr` builds the rows from the arrays.
    Rows are tuples, so the arrays cannot go stale.  It compares as the
    tuple of its rows, and a pickle round trip keeps the read-only arrays.
    """

    offsets = property(lambda self: self._offsets, doc="Read-only int64 row offsets.")
    dst_node = property(lambda self: self._dst, doc="Read-only int64 slot targets.")

    def __new__(cls, rows: Sequence[Sequence[int]] = ()):
        self = super().__new__(cls, map(tuple, rows))
        self._offsets, self._dst = _flatten(self)
        self._offsets.flags.writeable = self._dst.flags.writeable = False
        return self

    @classmethod
    def from_csr(cls, offsets: np.ndarray, dst: np.ndarray) -> "Adjacency":
        """The adjacency whose row ``i`` is ``dst[offsets[i]:offsets[i+1]]``
        as python ints; the int64 arrays are made read-only and kept, not
        copied or validated."""
        offsets, dst = np.asarray(offsets, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        nbrs, bounds = dst.tolist(), offsets.tolist()
        self = super().__new__(cls, [tuple(nbrs[s:e]) for s, e in zip(bounds, bounds[1:])])
        offsets.flags.writeable = dst.flags.writeable = False
        self._offsets, self._dst = offsets, dst
        return self

    def __reduce__(self):
        return type(self).from_csr, (self._offsets, self._dst)


def _flatten(rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    n = len(rows)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=offsets[1:])
    dst = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1]))
    return offsets, dst


def csr_rows(graph) -> Tuple[np.ndarray, np.ndarray]:
    """Int64 ``(offsets, dst)`` of a graph: node ``i`` owns slots
    ``offsets[i]:offsets[i+1]``, in port order, and slot ``k`` leads to
    ``dst[k]``.  An :class:`Adjacency`, a :class:`Network` or a
    :class:`~repro.local.engine.CSREngine` hands over the
    ``offsets``/``dst_node`` it carries; a plain adjacency list is
    flattened.  Nothing is validated."""
    offsets = getattr(graph, "offsets", None)
    if offsets is None:
        return _flatten(graph)
    return offsets, graph.dst_node


def csr_arrays(graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`csr_rows` plus ``owner``: ``(offsets, owner, dst)``, where
    slot ``k`` is the edge ``owner[k] -> dst[k]``."""
    offsets, dst = csr_rows(graph)
    owner = np.repeat(np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets))
    return offsets, owner, dst


class Network:
    """A communication graph for the simulator.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` lists the node indices adjacent to node ``i``.  The
        graph must be symmetric; parallel entries are allowed (multi-edges)
        and are presented to the algorithm as distinct ports.  An
        :class:`Adjacency` (what the generators return) is adopted as it
        is; other rows are packed into one.  ``self.adjacency`` is always
        an :class:`Adjacency`.
    ids:
        Unique identifiers (the LOCAL model's O(log n)-bit names).  Defaults
        to the node indices.

    Validation also packs the graph into read-only int64 CSR arrays: the
    ports of node ``i`` occupy slots ``offsets[i]:offsets[i+1]``, and slot
    ``k`` leads to node ``dst_node[k]`` (both the adjacency's own), arriving
    there on port ``dst_port[k]``.  One stable sort of the slot keys
    ``owner*n + dst`` and one of the reversed keys ``dst*n + owner`` check
    symmetry (with multiplicities) and pair the k-th ``(u, v)`` slot with
    the k-th ``(v, u)`` slot — the :func:`build_reverse_ports` rule.  A
    self-loop slot is its own pair.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], ids: Optional[Sequence[int]] = None):
        self.adjacency = adjacency if isinstance(adjacency, Adjacency) else Adjacency(adjacency)
        n = len(self.adjacency)
        offsets, owner, dst = csr_arrays(self.adjacency)
        m = int(offsets[-1])

        bad = np.flatnonzero((dst < 0) | (dst >= n))
        if bad.shape[0]:
            k = bad[0]
            raise ValueError(f"node {owner[k]} lists out-of-range neighbor {dst[k]}")
        key = owner * n + dst
        rkey = dst * n + owner
        del owner  # each m-sized temporary goes once read: they set the memory peak
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
        del key, rkey, mismatch
        partner = np.empty(m, dtype=np.int64)
        partner[rorder] = order
        del order, rorder
        partner -= offsets[dst]
        self.offsets = offsets
        self.dst_node = dst
        self.dst_port = partner
        self.dst_port.flags.writeable = False

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
        return cls(inst.adjacency(), ids=ids)


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


class RoundHooks:
    """Harness-side round instrumentation for :func:`run_local`.

    Hooks model the *environment* rather than the algorithm: node crashes,
    lossy links, dynamic edges, adversarial schedules.  The nodes never see
    the hook object — they only observe its effects (missing messages,
    silent neighbors), exactly as in the faulty-LOCAL literature.

    Call points:

    * :meth:`before_round` — after the all-halted check, before the send
      phase.  May crash nodes by setting ``view.halted`` (by convention a
      crash also sets ``view.state["crashed"] = True`` so contracts can
      tell a crash from a normal termination).
    * :meth:`deliver` — once per outgoing message, after port validation.
      Returning False silently drops the message.  **Must be a pure
      function of ``(round_no, sender, port)``** — the dense kernels
      (:mod:`repro.local.dense`) evaluate the same decisions as whole-round
      masks, in a different order, so any internal state consumption would
      break the bit-identity between the two executors.
    * :meth:`transform` — once per *delivered* message, immediately after
      :meth:`deliver` approves it.  Returns the (possibly rewritten)
      payload — the Byzantine corruption channel.  Like ``deliver`` it
      **must be pure** in ``(round_no, sender, port, message)`` and must
      not mutate the payload in place (a node may send one object on
      several ports).
    * :meth:`after_round` — after the receive phase of every executed
      round (observation only, e.g. per-round violation tracking).

    The default implementation is a no-op; ``hooks=None`` skips all calls.
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

    def outputs(self) -> List[Any]:
        """Convenience: the per-node outputs in index order."""
        return [v.output for v in self.views]


def build_reverse_ports(adjacency: Sequence[Sequence[int]]) -> List[List[int]]:
    """Port tables: ``reverse_port[i][p]`` is the counterpart's port.

    If node ``i`` lists ``j`` at port ``p`` then ``j`` lists ``i`` at port
    ``reverse_port[i][p]``.  Multi-edges are matched in order of appearance:
    the k-th occurrence of ``j`` in ``adjacency[i]`` pairs with the k-th
    occurrence of ``i`` in ``adjacency[j]``; :class:`Network` packs its
    ``dst_port`` array by the same rule.
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
    probe: Optional[Callable[[int, List[NodeView]], bool]] = None,
) -> SimulationResult:
    """Execute ``algorithm`` on ``network`` synchronously.

    Message delivery is port-to-port: if node ``a`` lists ``b`` at port ``p``
    and ``b`` lists ``a`` at port ``q``, a message sent by ``a`` on port ``p``
    in round ``t`` arrives in ``b``'s inbox under port ``q`` in the same
    round's receive phase (standard synchronous semantics).

    ``hooks`` (a :class:`RoundHooks`) injects environment faults — crashes
    in ``before_round``, message loss via ``deliver`` — at the call points
    whose masked-array twins the dense kernels apply, so hooked runs stay
    bit-identical between the two executors (the scenario subsystem in
    :mod:`repro.scenarios` is built on this).

    ``probe`` is a global stopping rule, ``probe(round_no, views) -> bool``:
    harness-side instrumentation the nodes never see.  It is called after
    each round that leaves a node running (after ``after_round``), and
    returning True stops the run; ``completed`` still reports whether every
    node halted.  It lets Las-Vegas drivers such as
    :func:`repro.orientation.sinkless.run_trial_and_fix` stop at the first
    globally good configuration in one pass.

    This is the *reference* implementation: simple, dict-based, audited
    against the model definition.  The dense kernels of
    :mod:`repro.local.dense` run the shipped randomized pipelines as array
    rounds, bit-identical to this loop for a fixed seed and fault stack.
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    n = network.n
    reverse_port = build_reverse_ports(network.adjacency)

    clock = CoinClock()
    coins = NodeCoins.for_nodes(seed, network.ids, clock)
    views = [
        NodeView(index=i, uid=network.ids[i], degree=network.degree(i), n=n, rng=coins[i])
        for i in range(n)
    ]
    for view in views:
        algorithm.init(view)

    adjacency = network.adjacency
    rounds = 0
    for round_no in range(1, max_rounds + 1):
        if all(v.halted for v in views):
            break
        clock.round = round_no
        if hooks is not None:
            hooks.before_round(round_no, views)
        inboxes: List[Dict[int, Any]] = [{} for _ in range(n)]
        for i, view in enumerate(views):
            if view.halted:
                continue
            row, back = adjacency[i], reverse_port[i]
            for port, message in algorithm.send(view, round_no).items():
                if not 0 <= port < len(row):
                    raise ValueError(f"node {i} sent on invalid port {port}")
                if hooks is not None:
                    if not hooks.deliver(round_no, i, port):
                        continue
                    message = hooks.transform(round_no, i, port, message)
                inboxes[row[port]][back[port]] = message
        for view, inbox in zip(views, inboxes):
            if not view.halted:
                algorithm.receive(view, round_no, inbox)
        rounds = round_no
        if hooks is not None:
            hooks.after_round(round_no, views)
        if all(v.halted for v in views):
            break
        if probe is not None and probe(round_no, views):
            break
    return SimulationResult(
        rounds=rounds,
        views=views,
        completed=all(v.halted for v in views),
    )
