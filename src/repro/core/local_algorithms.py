"""The paper's constant-round randomized phases as genuine LOCAL algorithms.

Most of this library computes the randomized constant-round phases
(0-round coloring, shattering) centrally with per-node private coins — an
exactly output-equivalent shortcut, since those phases use no communication
beyond announcing choices.  This module implements the same phases as
*bona fide* :class:`~repro.local.network.LocalAlgorithm` subclasses that
run inside the synchronous message simulator, and the test suite asserts
output equivalence with the central implementations.  They also serve as
reference material for how the paper's algorithms map onto the model:

* :class:`ZeroRoundColoring` — Section 2.1's 0-round algorithm plus the
  1-round validity check (each constraint reports whether it sees both
  colors), 2 simulated rounds total.
* :class:`ShatteringLocal` — the Section 2.4 shattering: round 1 announces
  tentative colors, round 2 broadcasts uncolor commands, round 3 lets
  constraints evaluate satisfaction.  3 simulated rounds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.local.network import (
    NO_BROADCAST,
    LocalAlgorithm,
    Network,
    NodeView,
    run_local,
)

__all__ = [
    "ZeroRoundColoring",
    "ShatteringLocal",
    "run_zero_round_coloring",
    "run_shattering_local",
]


def _is_left(view: NodeView, n_left: int) -> bool:
    """Simulator node indices 0..n_left-1 are constraint (U) nodes."""
    return view.index < n_left


class ZeroRoundColoring(LocalAlgorithm):
    """Uniform red/blue per variable + a one-round satisfaction check.

    Round 1: every variable announces its coin to its constraints.
    Round 2: every constraint tells the simulator (via its output) whether
    it saw both colors.  Variables output their color after round 1.
    """

    def __init__(self, n_left: int) -> None:
        self.n_left = n_left

    def init(self, view: NodeView) -> None:
        if not _is_left(view, self.n_left):
            view.state["color"] = RED if view.rng.random() < 0.5 else BLUE

    def broadcast(self, view: NodeView, round_no: int) -> Any:
        if round_no == 1 and not _is_left(view, self.n_left):
            return view.state["color"]
        return NO_BROADCAST

    def send(self, view: NodeView, round_no: int) -> Dict[int, Any]:
        if round_no == 1 and not _is_left(view, self.n_left):
            return {p: view.state["color"] for p in range(view.degree)}
        return {}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, Any]) -> None:
        if round_no != 1:
            return
        if _is_left(view, self.n_left):
            seen = set(inbox.values())
            view.output = ("satisfied", RED in seen and BLUE in seen)
        else:
            view.output = ("color", view.state["color"])
        view.halted = True


class ShatteringLocal(LocalAlgorithm):
    """The two-phase shattering algorithm, message by message.

    Round 1: variables draw red (1/4) / blue (1/4) / uncolored (1/2) and
    announce the choice.  Round 2: every constraint with > 3/4 colored
    neighbors sends ``uncolor`` to all of them; variables receiving any
    ``uncolor`` drop their color and announce the retraction.  Round 3:
    constraints re-evaluate and output satisfaction.
    """

    def __init__(self, n_left: int) -> None:
        self.n_left = n_left

    def init(self, view: NodeView) -> None:
        if not _is_left(view, self.n_left):
            coin = view.rng.random()
            if coin < 0.25:
                view.state["color"] = RED
            elif coin < 0.5:
                view.state["color"] = BLUE
            else:
                view.state["color"] = None

    def broadcast(self, view: NodeView, round_no: int) -> Any:
        # Every round of the protocol is a (conditional) broadcast; nodes
        # with nothing to say fall back to ``send``'s empty dict.
        left = _is_left(view, self.n_left)
        if round_no == 1 and not left:
            return ("tentative", view.state["color"])
        if round_no == 2 and left and view.state.get("fire"):
            return ("uncolor",)
        if round_no == 3 and not left:
            return ("final", view.state["color"])
        return NO_BROADCAST

    def send(self, view: NodeView, round_no: int) -> Dict[int, Any]:
        left = _is_left(view, self.n_left)
        if round_no == 1 and not left:
            return {p: ("tentative", view.state["color"]) for p in range(view.degree)}
        if round_no == 2 and left and view.state.get("fire"):
            return {p: ("uncolor",) for p in range(view.degree)}
        if round_no == 3 and not left:
            return {p: ("final", view.state["color"]) for p in range(view.degree)}
        return {}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, Any]) -> None:
        left = _is_left(view, self.n_left)
        if round_no == 1 and left:
            colored = sum(1 for m in inbox.values() if m[1] is not None)
            view.state["fire"] = view.degree > 0 and colored > 0.75 * view.degree
            return
        if round_no == 2 and not left:
            if any(m == ("uncolor",) for m in inbox.values()):
                view.state["color"] = None
            return
        if round_no == 3:
            if left:
                seen = {m[1] for m in inbox.values()} - {None}
                view.output = ("satisfied", RED in seen and BLUE in seen)
            else:
                view.output = ("color", view.state["color"])
            view.halted = True


def run_zero_round_coloring(
    inst: BipartiteInstance, seed: int = 0
) -> Tuple[Coloring, List[bool], int]:
    """Run :class:`ZeroRoundColoring` in the simulator.

    Returns ``(coloring, satisfied flags per constraint, simulated rounds)``.
    """
    net = Network.from_bipartite(inst)
    result = run_local(net, ZeroRoundColoring(inst.n_left), max_rounds=5, seed=seed)
    coloring: Coloring = [
        result.views[inst.n_left + v].output[1] for v in range(inst.n_right)
    ]
    satisfied = [result.views[u].output[1] for u in range(inst.n_left)]
    return coloring, satisfied, result.rounds


def run_shattering_local(
    inst: BipartiteInstance, seed: int = 0
) -> Tuple[Coloring, List[bool], int]:
    """Run :class:`ShatteringLocal` in the simulator.

    Returns ``(partial coloring, satisfied flags, simulated rounds)``.  A
    constraint's flag is True iff it sees both colors after the uncoloring
    phase — the complement of Section 2.4's "unsatisfied".
    """
    net = Network.from_bipartite(inst)
    result = run_local(net, ShatteringLocal(inst.n_left), max_rounds=6, seed=seed)
    coloring: Coloring = [
        result.views[inst.n_left + v].output[1] for v in range(inst.n_right)
    ]
    satisfied = [result.views[u].output[1] for u in range(inst.n_left)]
    return coloring, satisfied, result.rounds
