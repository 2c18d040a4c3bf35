"""The shattering algorithm of Sections 2.4 and 5 (Lemma 2.9).

Coloring phase: every variable independently turns red with probability 1/4,
blue with probability 1/4, and stays uncolored otherwise.  Uncoloring phase:
every constraint with strictly more than 3/4 of its neighbors colored
uncolors *all* of its neighbors.  After these O(1) rounds a constraint is
*satisfied* if it already sees both a red and a blue neighbor; Lemma 2.9
shows the probability of being unsatisfied is at most ``e^{-η∆}`` (and at
most ``(e∆r)^{-8}``) once ∆ >= c log r, and the general shattering machinery
([GHK16, Thm V.1], restated as Theorem 2.8) then bounds the residual
components by ``O(∆⁴ r⁴ log n)`` constraint nodes w.h.p.

Two key structural facts the downstream algorithms rely on, both produced by
this module and asserted in tests:

* every constraint keeps at least 1/4 of its neighbors uncolored
  (δ_H >= δ/4) — an uncoloring-phase constraint fires only when > 3/4 of its
  neighbors are colored, in which case it uncolors everything, and a
  non-firing constraint has >= 1/4 uncolored neighbors by definition;
* the residual instance consists of the unsatisfied constraints and the
  uncolored variables, with the induced edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.local.ledger import RoundLedger
from repro.utils.rng import SeedLike, ensure_rng, keyed_u01

__all__ = ["ShatteringOutcome", "shatter", "unsatisfied_probability_estimate"]


@dataclass
class ShatteringOutcome:
    """Everything the shattering phase produces.

    ``partial`` holds RED/BLUE for variables that kept their color and None
    for uncolored ones.  ``unsatisfied`` lists constraint nodes that do not
    see both colors.  ``residual`` is the induced instance on unsatisfied
    constraints × uncolored variables, with maps back to original ids.
    """

    partial: Coloring
    unsatisfied: List[int]
    uncolored: List[int]
    residual: BipartiteInstance
    residual_left_ids: List[int]  #: residual left index -> original left id
    residual_right_ids: List[int]  #: residual right index -> original right id

    def residual_component_sizes(self) -> List[int]:
        """Total node count (left + right) of each residual component."""
        return [
            len(lefts) + len(rights)
            for lefts, rights, _ in self.residual.connected_components()
        ]


def shatter(
    inst: BipartiteInstance,
    seed: SeedLike = None,
    ledger: Optional[RoundLedger] = None,
) -> ShatteringOutcome:
    """Run the two-phase shattering algorithm once.

    Charges O(1) simulated rounds: one for the coloring announcement and one
    for the uncoloring broadcast (the paper counts this as "O(1) rounds
    including the uncoloring").
    """
    rng = ensure_rng(seed)
    master = rng.getrandbits(63)

    # Coloring phase — private coins per variable.
    tentative: List[Optional[int]] = []
    for v in range(inst.n_right):
        coin = keyed_u01(master, "shatter", v)
        if coin < 0.25:
            tentative.append(RED)
        elif coin < 0.5:
            tentative.append(BLUE)
        else:
            tentative.append(None)

    # Uncoloring phase — constraints with > 3/4 colored neighbors fire.
    uncolor: Set[int] = set()
    for u in range(inst.n_left):
        neighbors = inst.left_neighbors(u)
        if not neighbors:
            continue
        colored = sum(1 for v in neighbors if tentative[v] is not None)
        if colored > 0.75 * len(neighbors):
            uncolor.update(neighbors)
    partial: Coloring = [
        None if v in uncolor else tentative[v] for v in range(inst.n_right)
    ]

    if ledger is not None:
        ledger.charge_simulated(2, "shattering")

    unsatisfied: List[int] = []
    for u in range(inst.n_left):
        seen = {partial[v] for v in inst.left_neighbors(u)} - {None}
        if not (RED in seen and BLUE in seen):
            unsatisfied.append(u)
    uncolored = [v for v in range(inst.n_right) if partial[v] is None]

    un_set = set(unsatisfied)
    unc_set = set(uncolored)
    keep_edges = [
        e
        for e, (u, v) in enumerate(inst.edges)
        if u in un_set and v in unc_set
    ]
    left_map = {u: i for i, u in enumerate(unsatisfied)}
    right_map = {v: i for i, v in enumerate(uncolored)}
    residual = BipartiteInstance(
        len(unsatisfied),
        len(uncolored),
        [(left_map[inst.edges[e][0]], right_map[inst.edges[e][1]]) for e in keep_edges],
        allow_multi=True,
    )
    return ShatteringOutcome(
        partial=partial,
        unsatisfied=unsatisfied,
        uncolored=uncolored,
        residual=residual,
        residual_left_ids=unsatisfied,
        residual_right_ids=uncolored,
    )


def unsatisfied_probability_estimate(
    inst: BipartiteInstance,
    trials: int,
    seed: SeedLike = None,
) -> Tuple[float, List[int]]:
    """Monte-Carlo estimate of Pr[a constraint is unsatisfied] (Lemma 2.9).

    Returns ``(pooled estimate, per-trial unsatisfied counts)``; the pooled
    estimate averages the unsatisfied fraction over all trials, which is the
    quantity Lemma 2.9 bounds by ``e^{-η∆}``.
    """
    rng = ensure_rng(seed)
    counts: List[int] = []
    for _ in range(trials):
        outcome = shatter(inst, seed=rng.getrandbits(62))
        counts.append(len(outcome.unsatisfied))
    denom = trials * max(1, inst.n_left)
    return sum(counts) / denom, counts
