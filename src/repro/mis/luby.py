"""Luby's randomized maximal independent set, run in the LOCAL simulator.

Section 4.2's MIS pipeline needs an MIS routine for its low-degree endgame
(the paper cites the [BEK14b] ``O(∆ + log* n)`` algorithm).  We provide the
classic Luby algorithm, a genuinely distributed O(log n)-round (w.h.p.)
routine executed by the synchronous simulator, plus a sequential greedy
baseline used for verification.

Luby round structure (the "random priority" variant): every active node
draws a random priority; a node joins the MIS if its priority beats all
active neighbors'; MIS nodes and their neighbors deactivate.  Each phase
takes 2 communication rounds (exchange priorities, announce joins).

Both rounds of a phase send one message identical on all ports, so the
algorithm declares them via :meth:`LocalAlgorithm.broadcast` and the batched
engine (:func:`repro.local.engine.run_local_fast`) delivers them on its CSR
fast path.  Messages to already-decided neighbors are dropped unread (a
halted node's inbox is never consumed), which is exactly the reference
semantics; an active node hears precisely its still-active neighbors.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.local.ledger import RoundLedger
from repro.local.network import LocalAlgorithm, Network, NodeView
from repro.local.engine import CSREngine, run_local_fast
from repro.utils.validation import require, require_nodes

__all__ = ["LubyMIS", "luby_mis", "is_mis"]


class LubyMIS(LocalAlgorithm):
    """The per-node Luby algorithm for the synchronous simulator."""

    def init(self, view: NodeView) -> None:
        view.state["active"] = True
        view.state["in_mis"] = False
        if view.degree == 0:
            view.state["in_mis"] = True
            view.output = True
            view.halted = True

    def broadcast(self, view: NodeView, round_no: int) -> object:
        if round_no % 2 == 1:  # priority exchange
            priority = (view.rng.random(), view.uid)
            view.state["priority"] = priority
            return ("prio", priority)
        # announcement round
        return ("join",) if view.state.get("joining") else ("stay",)

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        # Fallback for runners that ignore the broadcast declaration.
        msg = self.broadcast(view, round_no)
        return {p: msg for p in range(view.degree)}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, object]) -> None:
        if round_no % 2 == 1:
            priority = view.state["priority"]
            joining = True
            for m in inbox.values():
                if m[0] == "prio" and priority <= m[1]:
                    joining = False
                    break
            view.state["joining"] = joining
            return
        if view.state.get("joining"):
            view.state["active"] = False
            view.state["in_mis"] = True
            view.output = True
            view.halted = True
            return
        for m in inbox.values():
            if m[0] == "join":
                view.state["active"] = False
                view.output = False
                view.halted = True
                return


def luby_mis(
    adjacency: Sequence[Sequence[int]],
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    max_rounds: int = 10_000,
    label: str = "luby-mis",
    method: str = "engine",
    engine=None,
) -> Tuple[Set[int], int]:
    """Run Luby's MIS; returns (MIS node set, simulated rounds).

    ``method="engine"`` (default) executes on the batched CSR engine, which
    is bit-identical to the reference :func:`repro.local.network.run_local`
    for a fixed seed.  ``method="dense"`` executes the vectorized numpy
    kernel (:func:`repro.local.dense.luby_mis_dense`), which draws the same
    keyed node coins and so reproduces the engine's outputs bit for bit —
    the method for n >= 10^5.  Pass a prebuilt ``engine`` (:class:`~repro.local.engine.CSREngine` over the
    same adjacency) to amortize CSR packing across calls.

    The run is fault-free; faulty and recovering runs go through
    :func:`repro.scenarios.run_scenario`.  There is no batched method: for
    many seeds, loop ``method="dense"`` over them with one shared ``engine``.
    """
    require(method in ("engine", "dense"), f"unknown method {method!r}")
    if method == "dense":
        from repro.local.dense import luby_mis_dense

        if engine is None:
            engine = CSREngine(Network(adjacency))
        result = luby_mis_dense(engine, seed=seed, max_rounds=max_rounds)
        require(result.completed, "Luby MIS did not terminate within the round cap")
        if ledger is not None:
            ledger.charge_simulated(result.rounds, label)
        return set(np.flatnonzero(result.in_mis).tolist()), result.rounds
    if engine is not None:
        result = engine.run(LubyMIS(), max_rounds=max_rounds, seed=seed)
    else:
        result = run_local_fast(Network(adjacency), LubyMIS(), max_rounds=max_rounds, seed=seed)
    require(result.completed, "Luby MIS did not terminate within the round cap")
    if ledger is not None:
        ledger.charge_simulated(result.rounds, label)
    mis = {i for i, v in enumerate(result.views) if v.state.get("in_mis")}
    return mis, result.rounds


def is_mis(adjacency: Sequence[Sequence[int]], mis: Set[int]) -> bool:
    """Verify independence and maximality (domination).

    Raises ``ValueError`` if ``mis`` names a node outside ``range(n)``.
    """
    n = len(adjacency)
    require_nodes(np.fromiter(mis, dtype=np.int64, count=len(mis)), n, "MIS node")
    # Independent and dominating means: a node is in the MIS exactly when
    # its row has no MIS node.  Both sides are C-level passes over the rows.
    return list(map(mis.isdisjoint, adjacency)) == list(map(mis.__contains__, range(n)))
