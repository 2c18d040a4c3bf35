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

Both rounds of a phase send one message identical on all ports.  Messages
to already-decided neighbors are dropped unread (a halted node's inbox is
never consumed), which is exactly the reference semantics; an active node
hears precisely its still-active neighbors.  The dense kernel
(:func:`repro.local.dense.luby_mis_dense`) runs the same phases as array
rounds, bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.local.dense import _segment_or, luby_mis_dense
from repro.local.engine import CSREngine
from repro.local.ledger import RoundLedger
from repro.local.network import LocalAlgorithm, Network, NodeView, csr_rows, run_local
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

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        if round_no % 2 == 1:  # priority exchange
            priority = (view.rng.random(), view.uid)
            view.state["priority"] = priority
            msg = ("prio", priority)
        else:  # announcement round
            msg = ("join",) if view.state.get("joining") else ("stay",)
        return dict.fromkeys(range(view.degree), msg)

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, object]) -> None:
        if round_no % 2 == 1:
            priority = view.state["priority"]
            joining = True
            # uids are distinct, so only the node's own priority, back over
            # a self-loop, can tie, and it does not block the node.
            for m in inbox.values():
                if m[0] == "prio" and priority < m[1]:
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
    method: str = "dense",
    engine=None,
) -> Tuple[Set[int], int]:
    """Run Luby's MIS; returns (MIS node set, simulated rounds).

    ``method="dense"`` (default) executes the vectorized numpy kernel
    (:func:`repro.local.dense.luby_mis_dense`); ``method="reference"`` runs
    :class:`LubyMIS` on the reference simulator
    :func:`repro.local.network.run_local`.  Both draw the same keyed node
    coins, so their outputs agree bit for bit for a fixed seed.  Pass a
    prebuilt ``engine`` (:class:`~repro.local.engine.CSREngine` over the
    same adjacency) to amortize validation and CSR packing across calls.

    The run is fault-free; faulty and recovering runs go through
    :func:`repro.scenarios.run_scenario`.  There is no batched method: for
    many seeds, loop ``method="dense"`` over them with one shared ``engine``.
    """
    require(method in ("reference", "dense"), f"unknown method {method!r}")
    if engine is None:
        engine = CSREngine(Network(adjacency))
    if method == "dense":
        result = luby_mis_dense(engine, seed=seed, max_rounds=max_rounds)
        mis = set(np.flatnonzero(result.in_mis).tolist())
    else:
        result = run_local(engine.network, LubyMIS(), max_rounds=max_rounds, seed=seed)
        mis = {i for i, v in enumerate(result.views) if v.state.get("in_mis")}
    require(result.completed, "Luby MIS did not terminate within the round cap")
    if ledger is not None:
        ledger.charge_simulated(result.rounds, label)
    return mis, result.rounds


def is_mis(adjacency: Sequence[Sequence[int]], mis: Set[int]) -> bool:
    """Verify independence and maximality (domination).

    ``adjacency`` is read by :func:`~repro.local.network.csr_rows`.
    Raises ``ValueError`` if ``mis`` names a node outside ``range(n)``.
    """
    offsets, dst = csr_rows(adjacency)
    n = offsets.shape[0] - 1
    ids = np.fromiter(mis, dtype=np.int64, count=len(mis))
    require_nodes(ids, n, "MIS node")
    in_mis = np.zeros(n, dtype=bool)
    in_mis[ids] = True
    # Independent and dominating means: a node is in the MIS exactly when
    # its row has no MIS node.
    return bool(np.array_equal(_segment_or(in_mis[dst], offsets), ~in_mis))
