"""The benchmark's own output checker, independent of the library's verifiers.

Every op's output is re-checked here, outside the timed region, so a fast
but wrong library verifier cannot pass the benchmark.  Each check returns
``None`` when the output is valid, else a one-line reason.  ``alive``
restricts a check to the surviving graph (edges with both endpoints alive),
the contract the recovering scenarios promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

RED = 0  # repro.bipartite.instance.RED, the colour counted against the bounds


@dataclass(frozen=True)
class Graph:
    """Edge-slot arrays of an adjacency list: slot k is ``src[k] -> dst[k]``."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "Graph":
        n = len(adjacency)
        degree = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
        src = np.repeat(np.arange(n, dtype=np.int64), degree)
        dst = np.fromiter(
            chain.from_iterable(adjacency), dtype=np.int64, count=int(degree.sum())
        )
        return cls(n, src, dst)

    def live_slots(self, alive: Optional[np.ndarray]) -> np.ndarray:
        if alive is None:
            return np.ones(self.src.size, dtype=bool)
        return alive[self.src] & alive[self.dst]

    def count(self, slot_mask: np.ndarray) -> np.ndarray:
        """Per-node number of its slots selected by ``slot_mask``."""
        return np.bincount(self.src[slot_mask], minlength=self.n)


def _alive(alive) -> Optional[np.ndarray]:
    return None if alive is None else np.asarray(alive, dtype=bool)


def mis_problem(g: Graph, mis: Set[int], alive=None) -> Optional[str]:
    """Independence and maximality of ``mis`` on the (surviving) graph."""
    alive = _alive(alive)
    in_mis = np.zeros(g.n, dtype=bool)
    in_mis[np.fromiter(mis, dtype=np.int64, count=len(mis))] = True
    if alive is not None and (in_mis & ~alive).any():
        return "a crashed node is in the MIS"
    live = g.live_slots(alive)
    if (in_mis[g.src] & in_mis[g.dst] & live).any():
        return "two adjacent nodes are in the MIS"
    dominated = in_mis | (g.count(live & in_mis[g.dst]) > 0)
    undominated = ~dominated if alive is None else alive & ~dominated
    if undominated.any():
        return f"{int(undominated.sum())} nodes are neither in nor next to the MIS"
    return None


def orientation_problem(
    g: Graph, orientation: Dict[Tuple[int, int], bool], min_degree: int, alive=None
) -> Optional[str]:
    """Every edge oriented exactly once; no (surviving) sink of degree >= min."""
    alive = _alive(alive)
    arcs = np.array(list(orientation), dtype=np.int64).reshape(-1, 2)
    tail, head = arcs[:, 0], arcs[:, 1]
    oriented = np.sort(np.minimum(tail, head) * g.n + np.maximum(tail, head))
    lower = g.src < g.dst
    edges = np.sort(g.src[lower] * g.n + g.dst[lower])
    if oriented.size != edges.size or not np.array_equal(oriented, edges):
        return "the orientation does not cover every edge exactly once"
    live_arc = np.ones(tail.size, dtype=bool) if alive is None else alive[tail] & alive[head]
    out_degree = np.bincount(tail[live_arc], minlength=g.n)
    degree = g.count(g.live_slots(alive))
    sink = (degree >= min_degree) & (out_degree == 0)
    if alive is not None:
        sink &= alive
    if sink.any():
        return f"{int(sink.sum())} sinks of degree >= {min_degree}"
    return None


def splitting_problem(
    g: Graph, colors: Sequence[int], eps: float, min_constrained_degree: int, alive=None
) -> Optional[str]:
    """Every constrained node's red-neighbour count within the spec bounds."""
    alive = _alive(alive)
    red = np.asarray(colors, dtype=np.int64) == RED
    live = g.live_slots(alive)
    degree = g.count(live)
    red_count = g.count(live & red[g.dst])
    constrained = degree >= min_constrained_degree
    if alive is not None:
        constrained &= alive
    bad = constrained & (
        (red_count < (0.5 - eps) * degree) | (red_count > (0.5 + eps) * degree)
    )
    if bad.any():
        return f"{int(bad.sum())} constrained nodes outside the red-count bounds"
    return None


def scenario_problem(g: Graph, metrics: dict, state: dict) -> Optional[str]:
    """A recovering scenario must report a clean, recovered end state."""
    if metrics["violations"] != 0:
        return f"scenario reports {metrics['violations']} violations"
    if metrics["recovered"] != 1:
        return "scenario reports recovered != 1"
    alive = state["alive"]
    if state["pipeline"] == "luby":
        return mis_problem(g, state["mis"], alive)
    if state["pipeline"] == "sinkless":
        return orientation_problem(g, state["orientation"], state["min_degree"], alive)
    spec = state["spec"]
    return splitting_problem(
        g, state["partition"], spec.eps, spec.min_constrained_degree, alive
    )
