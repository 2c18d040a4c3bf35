"""Directed degree splitting — the Theorem 2.3 substrate.

Definition 2.1: a *directed degree splitting* of a multigraph ``G`` with
discrepancy ``κ`` is an orientation in which every node ``v`` satisfies
``|in(v) − out(v)| ≤ κ(deg(v))``.  Theorem 2.3 ([GHK+17b, Thm 1]) provides,
for every ``ε > 0``, a deterministic distributed algorithm achieving
``κ(d) = ε·d + 2`` in ``O(ε⁻¹ · log ε⁻¹ · (log log ε⁻¹)^1.71 · log n)``
rounds, and a randomized variant with ``log n`` replaced by ``log log n``.

This module exposes that *interface* with two engines:

* ``engine="eulerian"`` (default) — the Eulerian-partition orientation of
  :mod:`repro.orientation.eulerian`, which achieves discrepancy ≤ 1 ≤ ε·d+2
  for every ε, i.e. at least the black-box guarantee.  Rounds are charged
  analytically per the theorem's formula.
* ``engine="random"`` — every edge flips an independent fair coin; a genuine
  0-round LOCAL algorithm whose discrepancy concentrates around
  ``Θ(√(d log n))`` and therefore does *not* meet ε·d+2 for small ε.  Kept
  for the ablation experiment E15, which demonstrates why the reductions of
  Section 2 need the strong substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.local.complexity import degree_splitting_rounds
from repro.local.ledger import RoundLedger
from repro.orientation.eulerian import eulerian_orientation
from repro.orientation.multigraph import Multigraph, Orientation
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require, require_positive

__all__ = ["DegreeSplitting", "directed_degree_splitting"]


@dataclass(frozen=True)
class DegreeSplitting:
    """Result of a directed degree splitting run."""

    orientation: Orientation  #: the computed orientation
    eps: float  #: the accuracy parameter it was requested with
    rounds: float  #: LOCAL rounds charged for this invocation
    engine: str  #: which engine produced it

    def violations(self) -> List[int]:
        """Nodes violating the ``ε·d(v) + 2`` discrepancy guarantee."""
        g = self.orientation.graph
        return [
            v
            for v in range(g.n)
            if self.orientation.discrepancy(v) > self.eps * g.degree(v) + 2
        ]

    def satisfies_guarantee(self) -> bool:
        """True iff every node meets Definition 2.1 with κ(d) = ε·d + 2."""
        return not self.violations()


def directed_degree_splitting(
    graph: Multigraph,
    eps: float,
    n: int,
    ledger: Optional[RoundLedger] = None,
    randomized: bool = False,
    engine: str = "eulerian",
    seed: SeedLike = None,
    label: str = "degree-splitting",
) -> DegreeSplitting:
    """Compute a directed degree splitting with discrepancy ``ε·d(v) + 2``.

    Parameters
    ----------
    graph:
        The multigraph to orient.
    eps:
        Accuracy parameter of Theorem 2.3 (smaller = more balanced = more
        expensive).
    n:
        The ``n`` entering the round formula — the node count of the
        *original* LOCAL network, which may exceed ``graph.n`` when the
        multigraph is an auxiliary construction (Degree–Rank Reduction II).
    ledger:
        Optional round ledger; charged the Theorem 2.3 formula for the
        ``eulerian`` engine and 0 rounds for the 0-round ``random`` engine.
    randomized:
        Selects the randomized round formula (``log log n`` tail) — the
        variant the paper derives by plugging in the [GS17] sinkless
        orientation routine.
    engine:
        ``"eulerian"`` or ``"random"`` (ablation only; see module docstring).

    Returns a :class:`DegreeSplitting`; for the eulerian engine,
    ``result.satisfies_guarantee()`` always holds.
    """
    require_positive(eps, "eps")
    require(n >= 2, f"n must be >= 2, got {n}")
    if engine == "eulerian":
        orientation = eulerian_orientation(graph)
        rounds = degree_splitting_rounds(eps, n, randomized=randomized)
    elif engine == "random":
        rng = ensure_rng(seed)
        direction = tuple(1 if rng.random() < 0.5 else -1 for _ in graph.edges)
        orientation = Orientation(graph=graph, direction=direction)
        rounds = 0.0
    else:
        raise ValueError(f"unknown engine {engine!r}; expected 'eulerian' or 'random'")
    if ledger is not None:
        ledger.charge(rounds, label)
    return DegreeSplitting(orientation=orientation, eps=eps, rounds=rounds, engine=engine)
