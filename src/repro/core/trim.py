"""Lemma 2.2 — weak splitting in O(r · log n) via degree trimming.

If δ > 2 log n, every constraint node deletes arbitrary incident edges until
exactly ``δ' = ⌈2 log n⌉`` remain.  Lemma 2.1 on the trimmed graph ``H``
costs ``O(δ' · r) = O(r log n)`` rounds, and the computed coloring is a weak
splitting of the original graph because the weak splitting property is
preserved under adding edges back.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.bipartite.instance import BipartiteInstance, Coloring
from repro.bipartite.transforms import trim_left_degrees
from repro.core.basic import basic_weak_splitting
from repro.core.problems import weak_splitting_min_degree
from repro.derand.conditional import DerandomizationError
from repro.local.ledger import RoundLedger

__all__ = ["trimmed_weak_splitting"]


def trimmed_weak_splitting(
    inst: BipartiteInstance,
    ledger: Optional[RoundLedger] = None,
    strict: bool = True,
    n_override: Optional[int] = None,
) -> Coloring:
    """Compute a weak splitting via Lemma 2.2.

    ``n_override`` lets callers that run this on a *subgraph* of a larger
    network (e.g. Theorem 2.5 after the degree–rank reduction, or Theorem 1.2
    on residual components) keep the trim target tied to the relevant ``n``.
    The returned coloring is valid for ``inst`` itself (trimming only removes
    constraints' edges, and the coloring covers all of ``V``).
    """
    n = n_override if n_override is not None else inst.n
    n = max(2, n)
    target = math.ceil(weak_splitting_min_degree(n))
    if strict and inst.n_left and inst.delta < target:
        raise DerandomizationError(
            f"Lemma 2.2 precondition violated: delta={inst.delta} < "
            f"ceil(2 log n) = {target}"
        )
    trimmed, _edge_map = trim_left_degrees(inst, target)
    # Trimming is a purely local zero-round operation; only Lemma 2.1 on the
    # trimmed graph costs rounds (its Δ·r is now δ'·r = O(r log n)).
    return basic_weak_splitting(trimmed, ledger=ledger, strict=strict, n_override=n)
