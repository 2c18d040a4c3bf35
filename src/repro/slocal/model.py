"""The SLOCAL model of [GKM17] and a faithful simulator for it.

In an ``SLOCAL(t)`` algorithm the nodes of a graph are processed in an
*arbitrary* (adversarial) sequential order.  Each node owns a local memory,
initially holding only its unique ID and its problem input.  When node ``v``
is processed it reads the *current* states of all nodes within distance ``t``
and then writes its output (and any auxiliary information) into its own
memory.  Crucially a node is processed exactly once and never revisits its
decision.

The paper uses the SLOCAL model as the intermediate stop of every
derandomization: a randomized 0/1-round algorithm with local checking radius
``c`` derandomizes into an SLOCAL(O(c)) algorithm ([GHK16, Thm III.1]), which
in turn runs in the LOCAL model given a coloring of the appropriate power
graph ([GHK17a, Prop. 3.2]; see :mod:`repro.slocal.conversion`).

The simulator enforces the model's information constraints: the callback
receives exactly the radius-``t`` ball around the processed node (structure +
current memories) and can write only to the processed node's memory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.utils.validation import require

__all__ = ["SLocalAlgorithm", "BallView", "SLocalSimulator"]


@dataclass
class BallView:
    """The radius-``t`` view handed to a node when it is processed.

    ``nodes`` lists the node indices in the ball (center first, then by
    increasing distance); ``dist``, ``uid`` and ``memory`` are keyed by node
    index.  ``adjacency_in_ball`` restricts the graph to the ball, so the
    algorithm can inspect local structure (degrees, shared neighbors, ...).
    ``memory`` entries are *live references* for read purposes but writing is
    only honored for the center (the simulator copies everything else).
    """

    center: int
    radius: int
    nodes: List[int]
    dist: Dict[int, int]
    uid: Dict[int, int]
    memory: Dict[int, Dict[str, Any]]
    adjacency_in_ball: Dict[int, List[int]]


class SLocalAlgorithm(ABC):
    """An SLOCAL(t) algorithm: a per-node processing rule."""

    #: The locality radius ``t``.
    radius: int = 1

    @abstractmethod
    def process(self, view: BallView) -> Any:
        """Process the center node of ``view``; return its output.

        The implementation may also record auxiliary state in
        ``view.memory[view.center]`` — that dictionary is the node's
        persistent local memory.
        """


class SLocalSimulator:
    """Runs SLOCAL algorithms on a fixed graph.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency lists of the underlying graph.
    ids:
        Unique node identifiers; defaults to indices.
    """

    def __init__(
        self, adjacency: Sequence[Sequence[int]], ids: Optional[Sequence[int]] = None
    ) -> None:
        self.adjacency: Tuple[Tuple[int, ...], ...] = tuple(tuple(a) for a in adjacency)
        n = len(self.adjacency)
        if ids is None:
            ids = list(range(n))
        require(len(ids) == n, "ids must have one entry per node")
        require(len(set(ids)) == n, "ids must be unique")
        self.ids: Tuple[int, ...] = tuple(ids)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.adjacency)

    def ball(self, center: int, radius: int) -> Tuple[List[int], Dict[int, int]]:
        """BFS ball of ``radius`` around ``center``: (nodes, distances)."""
        dist = {center: 0}
        order = [center]
        q = deque([center])
        while q:
            x = q.popleft()
            if dist[x] == radius:
                continue
            for y in self.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    order.append(y)
                    q.append(y)
        return order, dist

    def run(
        self,
        algorithm: SLocalAlgorithm,
        order: Optional[Sequence[int]] = None,
        memories: Optional[List[Dict[str, Any]]] = None,
    ) -> Tuple[List[Any], List[Dict[str, Any]]]:
        """Process every node once, in ``order`` (default: index order).

        Returns ``(outputs, memories)``.  ``memories`` may be pre-seeded to
        pass per-node problem inputs (the model allows arbitrary inputs in the
        initial local memory).
        """
        n = self.n
        if order is None:
            order = list(range(n))
        require(sorted(order) == list(range(n)), "order must be a permutation of all nodes")
        if memories is None:
            memories = [dict() for _ in range(n)]
        require(len(memories) == n, "memories must have one entry per node")
        outputs: List[Any] = [None] * n
        t = algorithm.radius
        for v in order:
            nodes, dist = self.ball(v, t)
            # Copy non-center memories so illegal writes cannot leak state.
            mem_view: Dict[int, Dict[str, Any]] = {
                x: (memories[x] if x == v else dict(memories[x])) for x in nodes
            }
            ball_set = set(nodes)
            adj_in_ball = {
                x: [y for y in self.adjacency[x] if y in ball_set] for x in nodes
            }
            view = BallView(
                center=v,
                radius=t,
                nodes=nodes,
                dist=dist,
                uid={x: self.ids[x] for x in nodes},
                memory=mem_view,
                adjacency_in_ball=adj_in_ball,
            )
            outputs[v] = algorithm.process(view)
            memories[v]["output"] = outputs[v]
        return outputs, memories
