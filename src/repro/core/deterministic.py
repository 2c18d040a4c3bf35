"""Theorem 2.5 (= Theorem 1.1) — the main deterministic weak splitting result.

Given an instance with δ >= 2 log n, compute a weak splitting in

    O( r/δ · log² n  +  log³ n · (log log n)^1.1 )   rounds.

Algorithm (following the proof verbatim):

* If δ <= 48 log n, run Lemma 2.2 directly — O(r · log n) = O(r/δ · log² n).
* Otherwise set ``k = ⌊log(δ / (12 log n))⌋`` and ``ε = min(1/k, 1/3)``, run
  ``k`` iterations of Degree–Rank Reduction I to obtain ``B̄`` with
  ``r_B̄ <= 24e · (r/δ) log n + 3`` and ``δ_B̄ >= 12 log n − 2 >= 2 log n``,
  then finish with Lemma 2.2 on ``B̄`` (whose coloring is a weak splitting of
  ``B``, since reduction only deletes edges of ``U``-nodes and the property
  survives adding them back).
"""

from __future__ import annotations

from typing import Optional

from repro.bipartite.instance import BipartiteInstance, Coloring
from repro.core.problems import (
    theorem_25_iterations,
    theorem_25_trim_threshold,
    weak_splitting_min_degree,
)
from repro.core.reduction import degree_rank_reduction_one
from repro.core.trim import trimmed_weak_splitting
from repro.derand.conditional import DerandomizationError
from repro.local.ledger import RoundLedger

__all__ = ["deterministic_weak_splitting"]


def deterministic_weak_splitting(
    inst: BipartiteInstance,
    ledger: Optional[RoundLedger] = None,
    strict: bool = True,
    n_override: Optional[int] = None,
    engine: str = "eulerian",
    randomized_substrate: bool = False,
) -> Coloring:
    """Compute a weak splitting via Theorem 2.5.

    Parameters
    ----------
    inst:
        The instance; requires δ >= 2 log n under ``strict`` (the theorem's
        precondition).
    ledger:
        Round ledger receiving the reduction iterations' Theorem 2.3 charges
        and the final Lemma 2.2 cost.
    n_override:
        The ambient network size when ``inst`` is a component of a larger
        graph (Theorem 1.2 applies this theorem to residual components whose
        ``n_H`` is much smaller than ``n``; thresholds then use ``n_H``, the
        component size, which is exactly this parameter's default).
    engine / randomized_substrate:
        Forwarded to the degree-splitting substrate (ablation hooks); the
        randomized substrate variant is what Theorem 2.7's randomized branch
        uses.

    Returns a complete coloring of ``V`` that weakly splits ``inst``.
    """
    n = max(2, n_override if n_override is not None else inst.n)
    delta = inst.delta
    if strict and inst.n_left and delta < weak_splitting_min_degree(n):
        raise DerandomizationError(
            f"Theorem 2.5 precondition violated: delta={delta} < "
            f"2 log n = {weak_splitting_min_degree(n):.2f}"
        )
    if not inst.n_left or not inst.n_right:
        return [0] * inst.n_right

    if delta <= theorem_25_trim_threshold(n):
        return trimmed_weak_splitting(inst, ledger=ledger, strict=strict, n_override=n)

    k = theorem_25_iterations(delta, n)
    eps = min(1.0 / k, 1.0 / 3.0) if k >= 1 else 1.0 / 3.0
    reduced, _edge_map, _trace = degree_rank_reduction_one(
        inst,
        eps=eps,
        iterations=k,
        ledger=ledger,
        randomized=randomized_substrate,
        engine=engine,
    )
    # Lemma 2.4 with these parameters guarantees delta_k >= 12 log n - 2 >=
    # 2 log n (for n >= 4); the strict call below re-checks it concretely.
    return trimmed_weak_splitting(reduced, ledger=ledger, strict=strict, n_override=n)
