"""Sinkless orientation: problem definition, verifier, and baselines.

A *sinkless orientation* of a graph orients every edge such that no node (of
degree at least the problem's minimum-degree bound) is a sink, i.e. every
such node has at least one outgoing edge.  The problem is the source of the
paper's lower bound (Section 2.5): [BFH+16] showed an Ω(log_∆ log n)
randomized lower bound, lifted to Ω(log_∆ n) deterministic by [CKP16], and
Theorem 2.10 transfers both to weak splitting via the Figure 1 reduction
(implemented in :mod:`repro.core.lower_bound`).

Besides the verifier this module ships two constructive baselines:

* :func:`greedy_sinkless_orientation` — a centralized Las-Vegas peeling
  procedure used as ground truth in tests;
* :class:`TrialAndFixSinkless` — a simple randomized LOCAL algorithm run in
  the synchronous simulator (orient uniformly at random, then sinks re-flip
  a random incident edge each round until no sinks remain).  On graphs of
  minimum degree ``d`` a node stays a sink with probability ``2^{-d}`` per
  retry, so the simulation terminates in ``O(log_{2^d} n)`` rounds w.h.p. —
  a qualitative stand-in for the [GS17] ``O(log log n)`` routine.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.local.engine import CSREngine
from repro.local.network import (
    LocalAlgorithm,
    Network,
    NodeView,
    csr_arrays,
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
    "greedy_sinkless_orientation",
    "TrialAndFixSinkless",
    "run_trial_and_fix",
]

# An orientation of a general graph is a dict {(u, v): True} meaning u -> v,
# with exactly one of (u, v), (v, u) present per edge.
GraphOrientation = Dict[Tuple[int, int], bool]


def _arcs(orientation: GraphOrientation) -> np.ndarray:
    """The orientation's ``(u, v)`` keys as a ``(k, 2)`` int64 array, in dict order."""
    k = len(orientation)
    return np.fromiter(
        chain.from_iterable(orientation), dtype=np.int64, count=2 * k
    ).reshape(k, 2)


def _sink_mask(degrees: np.ndarray, tails: np.ndarray, min_degree: int) -> np.ndarray:
    out_deg = np.bincount(tails, minlength=degrees.shape[0])
    return (degrees >= min_degree) & (out_deg == 0)


def sinks(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> List[int]:
    """Nodes of degree >= ``min_degree`` with no outgoing edge."""
    n = len(adj)
    arcs = _arcs(orientation)
    require_nodes(arcs, n, "orientation endpoint")
    degrees = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    return np.flatnonzero(_sink_mask(degrees, arcs[:, 0], min_degree)).tolist()


def is_sinkless(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> bool:
    """Verify a sinkless orientation.

    Checks (a) every edge is oriented exactly once, and (b) every node of
    degree >= ``min_degree`` has an outgoing edge.  Parallel edges count
    as one edge; self-loops are not edges.  An orientation key naming a
    node outside ``range(n)``, a non-edge or an edge already oriented
    raises ``ValueError``, for the first such key in dict order.
    """
    n = len(adj)
    offsets, owner, dst = csr_arrays(adj)
    arcs = _arcs(orientation)
    lo, hi = arcs.min(axis=1), arcs.max(axis=1)
    keys = lo * n + hi
    lower = owner < dst
    edges = np.sort(owner[lower] * n + dst[lower])
    distinct = np.ones(edges.shape[0], dtype=bool)
    distinct[1:] = edges[1:] != edges[:-1]  # parallel edges are one edge
    edges = edges[distinct]
    pos = np.searchsorted(edges, keys)
    inside = (lo >= 0) & (hi < n)
    known = inside & (pos < edges.shape[0])
    known[known] = edges[pos[known]] == keys[known]
    counts = np.bincount(pos[known], minlength=edges.shape[0])
    if not known.all() or (counts > 1).any():
        _raise_first_bad_arc(orientation, keys, inside, known, n)
    if arcs.shape[0] != edges.shape[0]:
        return False  # some edge is not oriented
    return not _sink_mask(np.diff(offsets), arcs[:, 0], min_degree).any()


def _raise_first_bad_arc(orientation, keys, inside, known, n) -> None:
    """Raise for the first key that names a non-node, a non-edge or an edge
    that an earlier key already oriented."""
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.shape[0], dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    first = int(np.flatnonzero(~known | repeat)[0])
    u, v = next(islice(orientation, first, None))
    if not inside[first]:
        require_nodes(np.array([u, v], dtype=np.int64), n, "orientation endpoint")
    require(known[first], f"orientation mentions non-edge {u, v}")
    raise ValueError(f"edge {(min(u, v), max(u, v))} oriented twice")


def greedy_sinkless_orientation(
    adj: Sequence[Sequence[int]], seed: SeedLike = None
) -> GraphOrientation:
    """Centralized Las-Vegas construction (test baseline).

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


class TrialAndFixSinkless(LocalAlgorithm):
    """Randomized LOCAL algorithm: random orientation + per-round sink fixes.

    Each edge is owned by its lower-index endpoint for bookkeeping; per round
    every sink re-flips one uniformly chosen incident edge outward.  Flips
    are announced to neighbors so both endpoints agree on the direction.
    Terminates when a node and all its neighbors have been sink-free for one
    full round (checked via a final confirmation message).
    """

    def __init__(self, min_degree: int = 1):
        self.min_degree = min_degree

    def init(self, view: NodeView) -> None:
        # ``out[port]`` = True if the edge at that port is oriented outward.
        view.state["out"] = {}
        view.state["phase"] = "init"

    def _is_sink(self, view: NodeView) -> bool:
        if view.degree < self.min_degree:
            return False
        return not any(view.state["out"].values())

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        if round_no == 1:
            # Propose a random direction for every port; ties broken by uid.
            props = {p: view.rng.random() < 0.5 for p in range(view.degree)}
            view.state["proposal"] = props
            return {p: ("prop", props[p], view.uid) for p in range(view.degree)}
        ok = ("ok", view.uid)
        if view.degree > 0 and self._is_sink(view):
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
        if not self._is_sink(view):
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
) -> Tuple[GraphOrientation, int]:
    """Run :class:`TrialAndFixSinkless` until globally sink-free.

    ``method="dense"`` (default) runs the vectorized numpy kernel
    (:func:`repro.local.dense.sinkless_trial_dense`), which needs a simple
    graph.  ``method="reference"`` runs the algorithm on
    :func:`repro.local.network.run_local` with a global stopping probe (the
    harness may observe the configuration; the nodes themselves never use
    global information), and is the only method for multigraphs.  The probe
    checks for sinks after each round — one pass, where rerunning under
    growing round caps cost O(R²) — and fires from round 2 onward, matching
    the historical "at least one proposal round plus one fix round"
    accounting.  Both methods draw the same keyed node coins, so they
    return the same orientation and round count.  Pass a prebuilt
    ``engine`` over the same adjacency to amortize validation and CSR
    packing across calls.  Returns the orientation and the round count.

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


def orientation_from_views(adj: Sequence[Sequence[int]], views) -> GraphOrientation:
    """Extract ``{(u, v): True}`` from trial-and-fix node states.

    The lower-index endpoint's ``state["out"]`` is authoritative for each
    edge — including frozen state of crashed nodes, which is exactly what
    the rest of the network observes.
    """
    orientation: GraphOrientation = {}
    for i, view in enumerate(views):
        for p, is_out in view.state.get("out", {}).items():
            j = adj[i][p]
            if i < j:
                orientation[(i, j) if is_out else (j, i)] = True
    return orientation


def survivors_sink_free(adj: Sequence[Sequence[int]], views, min_degree: int = 1) -> bool:
    """Whether no uncrashed node is a sink of the views' orientation.

    The stop rule of a run under crash faults: crashes are silent, so the
    algorithm can do no better, and a repair tail owns what remains.
    """
    remaining = sinks(adj, orientation_from_views(adj, views), min_degree)
    return not any(not views[v].state.get("crashed") for v in remaining)


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
