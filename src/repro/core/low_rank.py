"""Theorem 2.7 — weak splitting when δ >= 6r.

In the low-rank regime the problem is solvable in poly log n rounds
deterministically (and poly log log n randomized) *without* any requirement
that δ = Ω(log n):

* If δ >= 2 log n, Theorem 2.5 (deterministic) or the 0-round random
  coloring (randomized) already applies.
* Otherwise run ``⌈log r⌉`` iterations of Degree–Rank Reduction II with
  accuracy ``ε = 1/(10·∆)``: the auxiliary discrepancy then satisfies
  ``ε·deg_G(u) < 1``, so every constraint loses at most
  ``deg/2 + 1`` edges per iteration while the rank halves exactly
  (``r_{k+1} = ⌈r_k / 2⌉``).  After ``⌈log r⌉`` iterations the rank is 1 and
  — thanks to δ >= 6r — every constraint still has degree >= 2.  Rank 1
  means no two constraints share a variable, so each constraint simply
  colors one of its private variables red and another blue.

The randomized variant differs only in which degree-splitting round formula
is charged (Theorem 2.3's randomized ``log log n`` tail) and in using the
0-round algorithm / Theorem 1.2 for the high-degree regimes, mirroring the
proof's case analysis.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.core.deterministic import deterministic_weak_splitting
from repro.core.problems import weak_splitting_min_degree
from repro.core.reduction import degree_rank_reduction_two
from repro.local.ledger import RoundLedger
from repro.utils.mathx import ceil_log2
from repro.utils.validation import require

__all__ = ["low_rank_weak_splitting", "rank_one_weak_splitting"]


def rank_one_weak_splitting(inst: BipartiteInstance) -> Coloring:
    """Solve a rank <= 1 instance whose constraints all have degree >= 2.

    With rank 1 every variable has at most one constraint neighbor, so the
    constraints' neighborhoods are disjoint: each constraint colors its
    first remaining variable red, its second blue, the rest alternately.
    Unconstrained variables default to red.
    """
    require(inst.rank <= 1, f"rank_one solver needs rank <= 1, got {inst.rank}")
    coloring: List[Optional[int]] = [None] * inst.n_right
    for u in range(inst.n_left):
        neighbors = inst.left_neighbors(u)
        require(
            len(neighbors) >= 2 or not neighbors,
            f"constraint {u} has degree 1 at rank 1 — instance unsolvable",
        )
        for i, v in enumerate(neighbors):
            coloring[v] = RED if i % 2 == 0 else BLUE
    return [c if c is not None else RED for c in coloring]


def low_rank_weak_splitting(
    inst: BipartiteInstance,
    ledger: Optional[RoundLedger] = None,
    randomized: bool = False,
    seed: int = 0,
    n_override: Optional[int] = None,
    engine: str = "eulerian",
) -> Coloring:
    """Compute a weak splitting via Theorem 2.7 (requires δ >= 6r).

    ``randomized`` selects the poly log log n branch of the theorem: the
    degree-splitting substrate is charged its randomized runtime and the
    δ >= 2 log n case is handled by the 0-round random coloring (Las Vegas:
    verified, retried — failure probability <= 2/n per attempt).
    """
    n = max(2, n_override if n_override is not None else inst.n)
    delta, r = inst.delta, inst.rank
    if not inst.n_left or not inst.n_right:
        return [RED] * inst.n_right
    if r <= 1:
        # Rank <= 1 is the reduction's own end state: constraints have
        # pairwise-disjoint neighborhoods and δ >= 2 suffices outright
        # (Theorem 2.7's δ >= 6r is only needed to survive ⌈log r⌉ halvings).
        return rank_one_weak_splitting(inst)
    require(delta >= 6 * r, f"Theorem 2.7 needs delta >= 6r, got delta={delta}, r={r}")

    if delta >= weak_splitting_min_degree(n):
        if not randomized:
            return deterministic_weak_splitting(
                inst, ledger=ledger, n_override=n, engine=engine
            )
        return _zero_round_random(inst, ledger=ledger, seed=seed)

    # delta < 2 log n: pure degree–rank reduction II down to rank 1.
    eps = 1.0 / (10.0 * max(1, inst.Delta))
    k = ceil_log2(max(2, r)) if r > 1 else 1
    reduced, _edge_map, trace = degree_rank_reduction_two(
        inst,
        eps=eps,
        iterations=k,
        ledger=ledger,
        randomized=randomized,
        engine=engine,
        seed=seed,
    )
    require(
        reduced.rank <= 1,
        f"reduction II left rank {reduced.rank} > 1 after {k} iterations",
    )
    require(
        reduced.delta >= 2,
        f"reduction II left delta {reduced.delta} < 2 — theorem invariant broken",
    )
    return rank_one_weak_splitting(reduced)


def _zero_round_random(
    inst: BipartiteInstance,
    ledger: Optional[RoundLedger],
    seed: int,
    max_attempts: int = 64,
) -> Coloring:
    """The 0-round uniform red/blue coloring, Las-Vegas wrapped.

    Each attempt fails with probability <= 2/n when δ >= 2 log n (the union
    bound at the start of Section 2.1); verification is one round.  The
    expected number of attempts is 1 + o(1).
    """
    from repro.core.verifiers import is_weak_splitting
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    for attempt in range(max_attempts):
        coloring: Coloring = [RED if rng.random() < 0.5 else BLUE for _ in range(inst.n_right)]
        if ledger is not None:
            ledger.charge_simulated(1, "zero-round-coloring+check")
        if is_weak_splitting(inst, coloring):
            return coloring
    raise RuntimeError(
        f"0-round random coloring failed {max_attempts} times; "
        "instance degree is far below the w.h.p. regime"
    )
