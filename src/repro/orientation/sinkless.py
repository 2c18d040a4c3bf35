"""Sinkless orientation: problem definition, verifier, and baselines.

A *sinkless orientation* of a graph orients every edge such that no node (of
degree at least the problem's minimum-degree bound) is a sink, i.e. every
such node has at least one outgoing edge.  The problem is the source of the
paper's lower bound (Section 2.5): [BFH+16] showed an Ω(log_∆ log n)
randomized lower bound, lifted to Ω(log_∆ n) deterministic by [CKP16], and
Theorem 2.10 transfers both to weak splitting via the Figure 1 reduction
(implemented in :mod:`repro.core.lower_bound`).

**One rule on every graph.**  Each parallel edge is its own edge; a
self-loop counts toward its node's degree but is never outgoing; a port a
round-1 crash left unset reads inward.  An orientation is a multiset of
``(tail, head)`` arcs, one per non-loop edge copy, in one of three forms:
a mapping arc -> copies (``{arc: True}`` counts one); a sequence of arcs;
or a ``(k, 2)`` integer array with one row per copy, as a sinkless
scenario's state holds it (:func:`~repro.local.dense.dense_arcs`).
:func:`run_trial_and_fix` returns the first and the last at once: an
:class:`~repro.local.arcs.ArcCounts`, a read-only arc array that is also a
mapping, so the verifiers read its rows and build no Python arcs.  A node
of degree ``>= min_degree`` is a sink iff it is the tail of no arc.  The
verifiers, contracts, repair probe, exact oracle and both executors apply
this rule, with one exception in a node's own view: it tells its
self-loops by its round-1 proposal coming back, so a loop whose
self-delivery a fault dropped counts as outgoing when its coin says so.
A lost flip announcement has the same effect: both endpoints of the edge
count it as outgoing, and the extraction gives it to one of them.  A
faulty base run holding such a node stops incomplete at its fixed point
(:func:`survivors_stalled`: no fault can land and no node is a sink in
its own view, so no node flips again) and leaves the node to the
scenario runner's repair tail.

Besides the verifier this module ships two constructive baselines:

* :func:`greedy_sinkless_orientation` — a centralized Las-Vegas peeling
  procedure on simple graphs, used as ground truth in tests;
* :class:`TrialAndFixSinkless` — a simple randomized LOCAL algorithm run in
  the synchronous simulator (orient uniformly at random, then sinks re-flip
  a random incident edge each round until no sinks remain).  On graphs of
  minimum degree ``d`` a node stays a sink with probability ``2^{-d}`` per
  retry, so the simulation terminates in ``O(log_{2^d} n)`` rounds w.h.p. —
  a qualitative stand-in for the [GS17] ``O(log log n)`` routine.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.local.arcs import ArcCounts, slot_arcs
from repro.local.engine import CSREngine
from repro.local.network import (
    LocalAlgorithm,
    Network,
    NodeView,
    csr_arrays,
    csr_rows,
    run_local,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require, require_nodes

__all__ = [
    "is_sinkless",
    "sinks",
    "orientation_from_views",
    "slot_state_from_views",
    "survivors_sink_free",
    "survivors_stalled",
    "survivor_probe",
    "greedy_sinkless_orientation",
    "TrialAndFixSinkless",
    "run_trial_and_fix",
]

Arc = Tuple[int, int]
GraphOrientation = Union[Mapping[Arc, int], Sequence[Arc], np.ndarray]


def _arcs(orientation: GraphOrientation) -> np.ndarray:
    """The orientation's arcs as a ``(k, 2)`` int64 array, one row per copy."""
    if isinstance(orientation, np.ndarray):
        orientation = ArcCounts(orientation)
    if isinstance(orientation, ArcCounts):
        return orientation.arcs
    k = len(orientation)
    arcs = np.fromiter(
        chain.from_iterable(orientation), dtype=np.int64, count=2 * k
    ).reshape(k, 2)
    if isinstance(orientation, Mapping):
        copies = np.fromiter(orientation.values(), dtype=np.int64, count=k)
        arcs = np.repeat(arcs, copies, axis=0)
    return arcs


def _sink_mask(degrees: np.ndarray, tails: np.ndarray, min_degree: int) -> np.ndarray:
    out_deg = np.bincount(tails, minlength=degrees.shape[0])
    return (degrees >= min_degree) & (out_deg == 0)


def sinks(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> List[int]:
    """Nodes of degree >= ``min_degree`` with no outgoing edge."""
    offsets, _ = csr_rows(adj)
    arcs = _arcs(orientation)
    require_nodes(arcs, offsets.shape[0] - 1, "orientation endpoint")
    return np.flatnonzero(_sink_mask(np.diff(offsets), arcs[:, 0], min_degree)).tolist()


def is_sinkless(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> bool:
    """Verify a sinkless orientation.

    Checks (a) the arcs orient every edge copy exactly once — as unordered
    pairs they equal the graph's non-loop edges as multisets — and (b)
    every node of degree >= ``min_degree`` (self-loops counted) is the
    tail of some arc.  An arc naming a node outside ``range(n)``, a
    non-edge (a self-loop included) or one copy more than the edge has
    raises ``ValueError``, for the first such arc in row order (a
    mapping's keys repeated by their counts; an
    :class:`~repro.local.arcs.ArcCounts`'s array rows).
    """
    offsets, owner, dst = csr_arrays(adj)
    n = offsets.shape[0] - 1
    arcs = _arcs(orientation)
    lower = owner < dst
    edges = np.sort(owner[lower] * n + dst[lower])
    tails, heads = arcs[:, 0], arcs[:, 1]
    outside = arcs.size > 0 and (arcs.min() < 0 or arcs.max() >= n)
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    if outside or not np.array_equal(np.sort(keys), edges):
        _raise_first_bad_arc(arcs, edges, n)
        return False  # every arc is a valid copy, so some copy is not oriented
    return not _sink_mask(np.diff(offsets), tails, min_degree).any()


def _raise_first_bad_arc(arcs, edges, n) -> None:
    """Raise for the first arc that names a non-node, a non-edge or one copy
    more than its edge has; return if every arc is a valid copy."""
    lo, hi = np.minimum(arcs[:, 0], arcs[:, 1]), np.maximum(arcs[:, 0], arcs[:, 1])
    inside = (lo >= 0) & (hi < n)
    keys = np.where(inside, lo * n + hi, -1)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    rank = np.empty(keys.shape[0], dtype=np.int64)
    # Earlier arcs with the same key, in iteration order.
    rank[order] = np.arange(keys.shape[0]) - np.searchsorted(ranked, ranked)
    copies = np.searchsorted(edges, keys, "right") - np.searchsorted(edges, keys)
    bad = np.flatnonzero(~inside | (rank >= copies))
    if not bad.shape[0]:
        return
    first = int(bad[0])
    u, v = arcs[first].tolist()
    if not inside[first]:
        require_nodes(np.array([u, v], dtype=np.int64), n, "orientation endpoint")
    require(copies[first] > 0, f"orientation mentions non-edge {u, v}")
    raise ValueError(f"edge {(min(u, v), max(u, v))} oriented twice")


def greedy_sinkless_orientation(
    adj: Sequence[Sequence[int]], seed: SeedLike = None
) -> GraphOrientation:
    """Centralized Las-Vegas construction (test baseline, simple graphs).

    Start from a uniformly random orientation, then repeatedly pick a sink
    and flip one of its incident edges outward, preferring flips whose other
    endpoint keeps an outgoing edge.  On min-degree >= 2 graphs with a cycle
    in every component this terminates; we cap iterations defensively.
    """
    rng = ensure_rng(seed)
    n = len(adj)
    orientation: GraphOrientation = {}
    out_deg = [0] * n
    for u in range(n):
        for v in adj[u]:
            if u < v:
                if rng.random() < 0.5:
                    orientation[(u, v)] = True
                    out_deg[u] += 1
                else:
                    orientation[(v, u)] = True
                    out_deg[v] += 1
    for _ in range(10 * n * n + 10):
        sink_nodes = [v for v in range(n) if adj[v] and out_deg[v] == 0]
        if not sink_nodes:
            return orientation
        s = rng.choice(sink_nodes)
        # Flip an incoming edge whose tail has out-degree >= 2 if possible.
        candidates = sorted(set(adj[s]))
        good = [w for w in candidates if out_deg[w] >= 2]
        w = rng.choice(good if good else candidates)
        del orientation[(w, s)]
        orientation[(s, w)] = True
        out_deg[w] -= 1
        out_deg[s] += 1
    raise RuntimeError("greedy sinkless orientation did not converge")


def _own_view_sink(view: NodeView, min_degree: int) -> bool:
    """Whether a trial-and-fix node is a sink in its own view: degree >=
    ``min_degree`` and no outward port other than its known self-loops."""
    if view.degree < min_degree:
        return False
    out, loops = view.state["out"], view.state["loops"]
    if loops:
        out = {p: is_out for p, is_out in out.items() if p not in loops}
    return not any(out.values())


class TrialAndFixSinkless(LocalAlgorithm):
    """Randomized LOCAL algorithm: random orientation + per-round sink fixes.

    Each edge is owned by its lower-index endpoint for bookkeeping; per round
    every sink re-flips one uniformly chosen incident edge outward.  Flips
    are announced to neighbors so both endpoints agree on the direction.
    A node learns its self-loops in round 1, as the ports that deliver its
    own proposal back to it, and never counts them as outgoing.  The
    harness (:func:`run_trial_and_fix`'s probe) stops the run at the first
    sink-free round.
    """

    def __init__(self, min_degree: int = 1):
        self.min_degree = min_degree

    def init(self, view: NodeView) -> None:
        # ``out[port]`` = True if the edge at that port is oriented outward.
        view.state["out"] = {}
        view.state["phase"] = "init"

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        if round_no == 1:
            # Propose a random direction for every port; ties broken by uid.
            props = {p: view.rng.random() < 0.5 for p in range(view.degree)}
            view.state["proposal"] = props
            return {p: ("prop", props[p], view.uid) for p in range(view.degree)}
        ok = ("ok", view.uid)
        if view.degree > 0 and _own_view_sink(view, self.min_degree):
            p = view.rng.randrange(view.degree)
            view.state["out"][p] = True
            msgs: Dict[int, object] = {p: ("flip", view.uid)}
            for q in range(view.degree):
                msgs.setdefault(q, ok)
            return msgs
        # Steady state: the same reassurance on every port.
        return dict.fromkeys(range(view.degree), ok)

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, object]) -> None:
        if round_no == 1:
            # Our own proposal coming back marks a self-loop port.
            view.state["loops"] = frozenset(
                p for p, msg in inbox.items() if msg[2] == view.uid
            )
            for p in range(view.degree):
                mine = view.state["proposal"][p]
                msg = inbox.get(p)
                if msg is None:
                    # Faulty environment (scenario hooks): the neighbor's
                    # proposal was lost or the neighbor crashed.  Fall back
                    # to our own coin for our side of the edge; a resulting
                    # disagreement is resolved at extraction time (the lower
                    # endpoint's view is authoritative).
                    view.state["out"][p] = mine
                    continue
                kind, theirs, their_uid = msg
                # Deterministic symmetric tie-break: higher uid's coin wins.
                winner = mine if view.uid > their_uid else theirs
                # The winner's coin True = "winner's side points outward".
                outward = winner if view.uid > their_uid else not winner
                view.state["out"][p] = outward
            return
        for p, msg in inbox.items():
            if isinstance(msg, tuple) and msg[0] == "flip":
                view.state["out"][p] = False  # neighbor took the edge outward
        if not _own_view_sink(view, self.min_degree):
            view.output = dict(view.state["out"])
            # Halt only after a quiet round: a neighbor's future flip could
            # only *give* us an outgoing edge... but it can also *steal* one,
            # so we keep participating until the global simulator stops us.
            view.state["phase"] = "stable"


def run_trial_and_fix(
    adj: Sequence[Sequence[int]],
    min_degree: int = 1,
    seed: int = 0,
    max_rounds: int = 200,
    method: str = "dense",
    engine=None,
) -> Tuple[ArcCounts, int]:
    """Run :class:`TrialAndFixSinkless` until globally sink-free.

    ``method="dense"`` (default) runs the vectorized numpy kernel
    (:func:`repro.local.dense.sinkless_trial_dense`).  ``method="reference"``
    runs the algorithm on :func:`repro.local.network.run_local` with a
    global stopping probe (the harness may observe the configuration; the
    nodes themselves never use global information) and serves as the test
    oracle.  Both run any graph, multigraphs and self-loops included,
    under the module's one rule.  The probe checks for sinks after each
    round — one pass, where rerunning under growing round caps cost O(R²)
    — and fires from round 2 onward, matching the historical "at least one
    proposal round plus one fix round" accounting.  Both methods draw the
    same keyed node coins, so they return the same orientation and round
    count.  Pass a prebuilt ``engine`` over the same adjacency to amortize
    validation and CSR packing across calls.  Returns the orientation (an
    :class:`~repro.local.arcs.ArcCounts`: a read-only ``(k, 2)`` arc array,
    one row per edge copy in slot order, read as an arc -> copies mapping)
    and the round count.

    The run is fault-free; faulty and recovering runs, with their
    survivor-aware stopping rule and repair tail, go through
    :func:`repro.scenarios.run_scenario`.  There is no batched method: for
    many seeds, loop ``method="dense"`` over them with one shared ``engine``.
    """
    require(method in ("reference", "dense"), f"unknown method {method!r}")
    if engine is None:
        engine = CSREngine(Network(adj))
    if method == "dense":
        from repro.local.dense import dense_orientation, sinkless_trial_dense

        dense = sinkless_trial_dense(
            engine, min_degree=min_degree, seed=seed, max_rounds=max_rounds,
        )
        return dense_orientation(engine, dense.out), dense.rounds

    def probe(round_no: int, views) -> bool:
        return round_no >= 2 and not sinks(
            adj, orientation_from_views(adj, views), min_degree
        )

    algo = TrialAndFixSinkless(min_degree=min_degree)
    result = run_local(engine.network, algo, max_rounds=max_rounds, seed=seed, probe=probe)
    orientation = orientation_from_views(adj, result.views)
    if result.rounds >= 2 and not sinks(adj, orientation, min_degree):
        return orientation, result.rounds
    raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")


def orientation_from_views(adj: Sequence[Sequence[int]], views) -> ArcCounts:
    """Extract the arcs, one per non-loop edge copy in slot order, from
    trial-and-fix node states, as an :class:`~repro.local.arcs.ArcCounts`.

    The lower-index endpoint's ``state["out"]`` is authoritative for each
    edge — including frozen state of crashed nodes, which is exactly what
    the rest of the network observes; a port a round-1 crash left unset
    reads inward.
    """
    offsets, owner, dst = csr_arrays(adj)
    out, _ = slot_state_from_views(offsets, views)
    return ArcCounts(slot_arcs(owner, dst, out))


def survivors_sink_free(adj: Sequence[Sequence[int]], views, min_degree: int = 1) -> bool:
    """Whether no uncrashed node is a sink of the views' orientation.

    The stop rule of a run under crash faults: crashes are silent, so the
    algorithm can do no better, and a repair tail owns what remains.
    """
    remaining = sinks(adj, orientation_from_views(adj, views), min_degree)
    return not any(not views[v].state.get("crashed") for v in remaining)


def survivors_stalled(views, min_degree: int = 1) -> bool:
    """Whether no uncrashed node is a sink in its own view.

    Only own-view sinks flip, so once no fault can land any more such a
    configuration is a fixed point of :class:`TrialAndFixSinkless`: every
    later round is a no-op.  A run that fails :func:`survivors_sink_free`
    there never completes (a lost flip left both endpoints of an edge
    outward, and the extraction rule gave it to the other one).
    """
    return not any(
        not view.state.get("crashed") and _own_view_sink(view, min_degree)
        for view in views
    )


def survivor_probe(adj: Sequence[Sequence[int]], min_degree: int, expired,
                   max_rounds: int, tracer=None):
    """The stop rule of a faulty trial-and-fix run, as a
    :func:`~repro.local.network.run_local` probe.

    From round 2 on the run stops when :func:`survivors_sink_free` holds,
    or, before its cap, at a fixed point: ``expired(round_no + 1)`` (no
    fault can land from the next round on, e.g.
    :meth:`~repro.scenarios.masks.DenseFaults.expired`) and
    :func:`survivors_stalled`.  A stop at a fixed point emits one
    ``stalled`` event on ``tracer``.  This is exactly the stop of
    :func:`~repro.local.dense.sinkless_trial_dense`.
    """
    def probe(round_no: int, views) -> bool:
        if round_no < 2:
            return False
        if survivors_sink_free(adj, views, min_degree):
            return True
        if round_no < max_rounds and expired(round_no + 1) and survivors_stalled(
            views, min_degree
        ):
            if tracer is not None and tracer.enabled:
                tracer.event("stalled", round=round_no)
            return True
        return False

    return probe


def slot_state_from_views(offsets: np.ndarray, views) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot ``out`` bits and per-node crash flags from trial-and-fix node
    states: the end-state arrays the repair layer consumes."""
    outs = [view.state.get("out", {}) for view in views]
    slots = np.fromiter(chain.from_iterable(outs), dtype=np.int64) + np.repeat(
        offsets[:-1], np.fromiter(map(len, outs), dtype=np.int64, count=len(outs))
    )
    out = np.zeros(int(offsets[-1]), dtype=bool)
    out[slots] = np.fromiter(
        chain.from_iterable(map(dict.values, outs)), dtype=bool, count=slots.shape[0]
    )
    crashed = np.array([bool(view.state.get("crashed")) for view in views], dtype=bool)
    return out, crashed
