"""Section 5 — weak splitting in girth >= 10 bipartite graphs.

Lemma 5.1: on a girth >= 10 instance with δ >= c√(ln n) and ∆ >= c' ln r,
one execution of the shattering algorithm leaves a residual instance ``H``
with ``δ_H >= 6 · r_H`` w.h.p.  The girth enters through independence: two
neighbors ``u, ū`` of a variable ``v`` have disjoint 3-hop neighborhoods
apart from ``v`` itself (a shared node would close a cycle of length <= 8),
so the events "u is satisfied" are independent conditioned on ``v`` staying
uncolored, and a Chernoff-style tail bounds the number of unsatisfied
neighbors of ``v`` — i.e. ``r_H`` — by δ/24, while δ_H >= δ/4 as always.

Theorem 5.2 (deterministic, O(∆²r² + poly log n) rounds): derandomize the
1-round shattering into an SLOCAL(4) algorithm ([GHK16, Thm III.1]) executed
via a coloring of ``B⁴`` ([GHK17a, Prop. 3.2], O(∆²r²) colors/rounds), then
run Theorem 2.7 on ``H``.  Our implementation realizes the schedule with
actual randomness plus verification-and-retry (Las Vegas) — the [GHK16]
derandomization of the 4-radius checkable event family has no closed-form
estimator, and the substitution preserves both the output guarantee (a
residual with δ_H >= 6 r_H) and the round accounting, which we charge
explicitly as the ``B⁴``-coloring + conversion cost.

Theorem 5.3 (randomized, O(∆²r² + poly log(∆ r log n)) rounds): shattering,
then Theorem 2.7 on each residual *component* (size poly(∆, r, log n)
w.h.p.) in parallel.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.core.low_rank import low_rank_weak_splitting
from repro.core.shattering import ShatteringOutcome, shatter
from repro.core.verifiers import is_weak_splitting
from repro.local.complexity import power_graph_coloring_rounds, slocal_conversion_rounds
from repro.local.ledger import RoundLedger
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = [
    "high_girth_weak_splitting",
    "shatter_until_low_rank",
]


def shatter_until_low_rank(
    inst: BipartiteInstance,
    seed: SeedLike = None,
    ledger: Optional[RoundLedger] = None,
    max_attempts: int = 32,
    rank_factor: int = 6,
) -> ShatteringOutcome:
    """Shatter until the residual satisfies δ_H >= ``rank_factor`` · r_H.

    Lemma 5.1 guarantees one attempt suffices w.h.p. in the theorem's
    parameter regime; the retry loop makes the guarantee Las-Vegas exact.
    Constraints isolated in the residual (degree 0 — they are unsatisfied
    but kept no uncolored neighbor, impossible per the uncoloring rule
    unless their degree was 0 to begin with) fail the attempt.
    """
    rng = ensure_rng(seed)
    last: Optional[ShatteringOutcome] = None
    for _ in range(max_attempts):
        outcome = shatter(inst, seed=rng.getrandbits(62), ledger=ledger)
        res = outcome.residual
        if res.n_left == 0:
            return outcome
        delta_h = min(res.left_degree(u) for u in range(res.n_left))
        # Accept when Theorem 2.7 applies to the residual: either the full
        # δ_H >= 6 r_H regime, or the already-reduced r_H <= 1 end state
        # (where δ_H >= 2 suffices; see low_rank_weak_splitting).
        if res.rank <= 1 and delta_h >= 2:
            return outcome
        if res.rank and delta_h >= rank_factor * res.rank:
            return outcome
        last = outcome
    raise RuntimeError(
        f"shattering never reached delta_H >= {rank_factor} r_H in "
        f"{max_attempts} attempts (last residual: {last.residual if last else None}); "
        "the instance is outside the Lemma 5.1 regime"
    )


def high_girth_weak_splitting(
    inst: BipartiteInstance,
    seed: SeedLike = None,
    ledger: Optional[RoundLedger] = None,
    deterministic: bool = True,
    verify_girth: bool = False,
) -> Coloring:
    """Weak splitting for girth >= 10 instances (Theorems 5.2 / 5.3).

    Parameters
    ----------
    deterministic:
        True runs the Theorem 5.2 pipeline: global residual, Theorem 2.7
        with deterministic substrate charges, plus the derandomization's
        ``B⁴``-coloring round charge ``O(∆²r²)``.  False runs Theorem 5.3:
        per-component Theorem 2.7 with randomized substrate charges,
        parallel (max) component accounting.
    verify_girth:
        Optionally assert the girth >= 10 precondition (O(n·m), off by
        default for large instances).

    The result is a verified weak splitting of ``inst``.
    """
    if verify_girth:
        from repro.bipartite.girth import bipartite_girth

        g = bipartite_girth(inst)
        require(g is None or g >= 10, f"girth {g} < 10")

    rng = ensure_rng(seed)
    if ledger is not None and deterministic:
        # Theorem 5.2's derandomization schedule: color B^4 (degree <= ∆²r²)
        # and run the SLOCAL(4) shattering color class by color class.
        power_degree = (inst.Delta * inst.rank) ** 2
        ledger.charge(
            power_graph_coloring_rounds(power_degree, inst.n), "B^4-coloring"
        )
        ledger.charge(
            slocal_conversion_rounds(max(1, power_degree), radius=4),
            "slocal(4)-shattering",
        )

    outcome = shatter_until_low_rank(inst, seed=rng.getrandbits(62), ledger=ledger)
    coloring: Coloring = list(outcome.partial)
    res = outcome.residual

    if deterministic:
        if res.n_right:
            sub_coloring = low_rank_weak_splitting(
                res, ledger=ledger, randomized=False, n_override=max(2, inst.n)
            )
            for i, c in enumerate(sub_coloring):
                coloring[outcome.residual_right_ids[i]] = c
    else:
        component_ledgers: List[RoundLedger] = []
        for lefts, rights, eids in res.connected_components():
            comp, _lmap, rmap = res.induced_component(lefts, rights, eids)
            comp_ledger = RoundLedger()
            if comp.n_right:
                sub_coloring = low_rank_weak_splitting(
                    comp,
                    ledger=comp_ledger,
                    randomized=True,
                    seed=rng.getrandbits(62),
                    n_override=max(2, comp.n),
                )
                inv_rmap = {i: v for v, i in rmap.items()}
                for i, c in enumerate(sub_coloring):
                    coloring[outcome.residual_right_ids[inv_rmap[i]]] = c
            component_ledgers.append(comp_ledger)
        if ledger is not None:
            ledger.charge_parallel(component_ledgers, "residual-components")

    coloring = [c if c is not None else RED for c in coloring]
    require(is_weak_splitting(inst, coloring), "high-girth pipeline produced an invalid splitting")
    return coloring
