"""Lemma 2.1 — the basic deterministic weak splitting algorithm.

Pipeline (exactly the lemma's proof):

1. The randomized 0-round algorithm (uniform red/blue per variable) fails at
   constraint ``u`` with probability ``2 · 2^{-deg(u)} <= 2/n²`` when
   δ >= 2 log n; the union bound over ``|U| < n`` constraints leaves success
   probability > 0, so the [GHK16, Thm III.1] derandomization applies: the
   method of conditional expectations with the exact failure estimator
   (:class:`~repro.derand.estimators.WeakSplittingEstimator`) yields an
   SLOCAL(2) algorithm that never fails.
2. [GHK17a, Prop. 3.2] converts the SLOCAL(2) algorithm to LOCAL given a
   coloring of ``B²``; since ``Δ(B²) <= ∆·r``, the [BEK14a] coloring uses
   ``O(∆·r)`` colors and ``O(∆·r + log* n)`` rounds, for a total runtime of
   ``O(∆·r)`` (as ``∆ >= δ >= 2 log n`` dominates ``log* n``).

The implementation performs both steps concretely: it colors the actual
power graph ``B²``, processes variables color class by color class, and
charges the corresponding rounds on the ledger.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bipartite.instance import BipartiteInstance, Coloring
from repro.coloring.distance import distance_coloring
from repro.core.problems import weak_splitting_min_degree
from repro.derand.conditional import DerandomizationError, greedy_minimize
from repro.derand.estimators import WeakSplittingEstimator
from repro.local.complexity import slocal_conversion_rounds
from repro.local.ledger import RoundLedger

__all__ = ["basic_weak_splitting"]


def processing_order(
    inst: BipartiteInstance, ledger: Optional[RoundLedger] = None
) -> Tuple[List[int], int]:
    """The LOCAL-legal processing order for SLOCAL(2) algorithms on ``B``.

    Colors ``B²`` (charging the [BEK14a] rounds) and returns the variable
    nodes sorted by (power-graph color, id) together with the number of
    colors used.  Variables in the same class are pairwise at distance > 2,
    so they share no constraint node and may decide simultaneously — this is
    the [GHK17a, Prop. 3.2] schedule.
    """
    colors, num_colors = distance_coloring(inst.adjacency(), 2, ledger=ledger, label="B^2-coloring")
    right_offset = inst.n_left
    order = sorted(
        range(inst.n_right), key=lambda v: (colors[right_offset + v], v)
    )
    return order, num_colors


def basic_weak_splitting(
    inst: BipartiteInstance,
    ledger: Optional[RoundLedger] = None,
    strict: bool = True,
    order: Optional[Sequence[int]] = None,
    n_override: Optional[int] = None,
) -> Coloring:
    """Compute a weak splitting via Lemma 2.1.

    Parameters
    ----------
    inst:
        The instance; with ``strict=True`` (default) requires δ >= 2 log n —
        the Lemma 2.1 precondition — and raises
        :class:`~repro.derand.conditional.DerandomizationError` otherwise.
    ledger:
        Optional round ledger; receives the ``B²``-coloring charge and the
        SLOCAL-conversion charge (``O(∆·r)`` in total).
    order:
        Override the processing order (used by reductions that already own a
        power-graph coloring, e.g. the Theorem 3.2 hardness direction).
    n_override:
        The ambient network size when ``inst`` is a trimmed/reduced subgraph
        of a larger network — the Lemma 2.1 threshold ``2 log n`` then uses
        this ``n``.  Note the estimator's own certificate (its initial value
        being < 1) is checked against the *actual* instance either way, so
        correctness never rests on the override.

    Returns a complete red/blue coloring that satisfies *every* constraint
    of positive degree... more precisely every constraint the estimator
    certifies, which under the precondition is all of them.
    """
    if strict:
        needed = weak_splitting_min_degree(max(2, n_override if n_override is not None else inst.n))
        if inst.n_left and inst.delta < needed:
            raise DerandomizationError(
                f"Lemma 2.1 precondition violated: delta={inst.delta} < "
                f"2 log n = {needed:.2f}"
            )
    if order is None:
        order, num_colors = processing_order(inst, ledger=ledger)
        if ledger is not None:
            ledger.charge(
                slocal_conversion_rounds(num_colors, radius=2), "slocal-conversion"
            )
    estimator = WeakSplittingEstimator(inst)
    return greedy_minimize(estimator, order, strict=strict)
