"""Theorem 1.2 — the randomized weak splitting algorithm.

For δ >= c·log(r log n), compute a weak splitting w.h.p. in
``O(r/δ · poly log(r log n))`` rounds:

1. **Degree normalization** (Section 2.4's opening remark): split every
   constraint of degree > 2δ into virtual constraints of degree in
   [δ, 2δ), so that δ > ∆/2 — a weak splitting of the virtual instance
   induces one of the original.
2. **High-degree shortcut**: if δ > 2 log n, the 0-round uniform coloring
   succeeds w.h.p. (failure probability < 2/n); we Las-Vegas wrap it.
3. **Shattering** (Lemma 2.9): O(1) rounds; residual components have
   ``n_H = O(r⁴ log⁶ n)`` nodes w.h.p. and δ_H >= δ/4 >= 2 log n_H for a
   suitable constant ``c``.
4. **Deterministic finish**: Theorem 2.5 on every residual component in
   parallel, costing the max component cost
   ``O(r/δ·log²(r log n) + log³(r log n)·(log log(r log n))^1.1)``.

Components whose parameters fall below the deterministic precondition
(possible for adversarially small inputs outside the theorem's asymptotic
regime) are finished by a verified fallback: non-strict estimator greedy,
then exhaustive search for tiny components — the result is still always a
*correct* weak splitting or an explicit error, never a silent failure.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.bipartite.transforms import split_high_degree_left
from repro.core.basic import basic_weak_splitting
from repro.core.deterministic import deterministic_weak_splitting
from repro.core.problems import weak_splitting_min_degree
from repro.core.shattering import ShatteringOutcome, shatter
from repro.core.verifiers import is_weak_splitting, weak_splitting_violations
from repro.derand.conditional import DerandomizationError
from repro.local.ledger import RoundLedger
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = ["randomized_weak_splitting", "solve_component"]


def randomized_weak_splitting(
    inst: BipartiteInstance,
    seed: SeedLike = None,
    ledger: Optional[RoundLedger] = None,
    max_attempts: int = 32,
) -> Coloring:
    """Compute a weak splitting via Theorem 1.2 (Las-Vegas overall).

    The returned coloring is always verified; an attempt whose shattering
    produced an unsolvable residual triggers a fresh attempt with new
    randomness (w.h.p. the first attempt succeeds in the theorem's regime).
    """
    require(
        all(inst.left_degree(u) >= 2 for u in range(inst.n_left)),
        "every constraint needs degree >= 2 for weak splitting to be solvable",
    )
    rng = ensure_rng(seed)
    n = max(2, inst.n)

    # Normalize degrees: after splitting, delta > Delta / 2.
    delta = inst.delta
    virtual, owner = split_high_degree_left(inst, delta=max(2, delta))

    if virtual.delta > weak_splitting_min_degree(n):
        return _zero_round(virtual_to_original=inst, virtual=virtual, rng=rng, ledger=ledger)

    last_error: Optional[Exception] = None
    for _attempt in range(max_attempts):
        outcome = shatter(virtual, seed=rng.getrandbits(62), ledger=ledger)
        try:
            coloring = _finish_residual(virtual, outcome, ledger=ledger, rng=rng)
        except (DerandomizationError, RuntimeError) as exc:  # retry with new coins
            last_error = exc
            continue
        if is_weak_splitting(inst, coloring):
            return coloring
        last_error = RuntimeError("composed coloring failed verification")
    raise RuntimeError(
        f"randomized weak splitting failed after {max_attempts} attempts; "
        f"last error: {last_error}"
    )


def _zero_round(
    virtual_to_original: BipartiteInstance,
    virtual: BipartiteInstance,
    rng,
    ledger: Optional[RoundLedger],
    max_attempts: int = 64,
) -> Coloring:
    """The δ > 2 log n shortcut: uniform coins, verified (Las Vegas)."""
    for _ in range(max_attempts):
        coloring: Coloring = [
            RED if rng.random() < 0.5 else BLUE for _ in range(virtual.n_right)
        ]
        if ledger is not None:
            ledger.charge_simulated(1, "zero-round-coloring+check")
        if is_weak_splitting(virtual_to_original, coloring):
            return coloring
    raise RuntimeError("0-round coloring kept failing far beyond its 2/n bound")


def _finish_residual(
    virtual: BipartiteInstance,
    outcome: ShatteringOutcome,
    ledger: Optional[RoundLedger],
    rng,
) -> Coloring:
    """Solve every residual component deterministically and compose."""
    coloring: Coloring = list(outcome.partial)
    component_ledgers: List[RoundLedger] = []
    for lefts, rights, eids in outcome.residual.connected_components():
        comp, _lmap, rmap = outcome.residual.induced_component(lefts, rights, eids)
        comp_ledger = RoundLedger()
        comp_coloring = solve_component(comp, ledger=comp_ledger, rng=rng)
        component_ledgers.append(comp_ledger)
        inv_rmap = {i: v for v, i in rmap.items()}
        for i, c in enumerate(comp_coloring):
            original_right = outcome.residual_right_ids[inv_rmap[i]]
            coloring[original_right] = c
    if ledger is not None:
        ledger.charge_parallel(component_ledgers, "residual-components")
    # Any variable still uncolored is adjacent to satisfied constraints only.
    return [c if c is not None else RED for c in coloring]


def solve_component(
    comp: BipartiteInstance,
    ledger: Optional[RoundLedger] = None,
    rng=None,
) -> Coloring:
    """Solve one residual component.

    Preference order: Theorem 2.5 with the component's own ``n_H`` (the
    theorem's intended use — δ_H >= 2 log n_H holds in the asymptotic
    regime); then the non-strict estimator greedy with verification; then
    exhaustive search for tiny components.  Raises if all fail — the caller
    re-shatters.
    """
    if comp.n_right == 0:
        return []
    if comp.n_left == 0:
        return [RED] * comp.n_right
    n_h = max(2, comp.n)
    if comp.delta >= weak_splitting_min_degree(n_h):
        return deterministic_weak_splitting(comp, ledger=ledger, n_override=n_h)
    # Fallback 1: estimator greedy without the certificate.
    try:
        coloring = basic_weak_splitting(comp, ledger=ledger, strict=False)
        if not weak_splitting_violations(comp, coloring):
            return coloring
    except DerandomizationError:  # pragma: no cover - strict=False avoids this
        pass
    # Fallback 2: exhaustive search for tiny components.
    if comp.n_right <= 16:
        for bits in itertools.product((RED, BLUE), repeat=comp.n_right):
            candidate = list(bits)
            if not weak_splitting_violations(comp, candidate):
                if ledger is not None:
                    ledger.charge(comp.n, "component-bruteforce")
                return candidate
        raise RuntimeError("residual component is unsolvable (a constraint has degree < 2)")
    raise DerandomizationError(
        f"residual component (|U|={comp.n_left}, |V|={comp.n_right}, "
        f"delta={comp.delta}) is below every solvable regime"
    )
