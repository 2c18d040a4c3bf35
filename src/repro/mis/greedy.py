"""Sequential greedy MIS baseline (ground truth for verification).

Also provides the size bound of Lemma 4.3: every MIS of a graph with maximum
degree ∆ has at least ``n / (∆ + 1)`` nodes — used by the Section 4.2
analysis and checked by the property tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.utils.validation import require

__all__ = ["greedy_mis", "mis_lower_bound"]


def greedy_mis(
    adjacency: Sequence[Sequence[int]], order: Optional[Sequence[int]] = None
) -> Set[int]:
    """Greedy MIS: scan nodes in ``order``; add if no earlier neighbor added."""
    n = len(adjacency)
    if order is None:
        order = range(n)
    mis: Set[int] = set()
    blocked = [False] * n
    for v in order:
        if not blocked[v]:
            mis.add(v)
            blocked[v] = True
            for w in adjacency[v]:
                blocked[w] = True
    return mis


def mis_lower_bound(n: int, max_degree: int) -> float:
    """Lemma 4.3: any MIS has size at least ``n / (∆ + 1)``."""
    require(n >= 0 and max_degree >= 0, "n and max_degree must be >= 0")
    return n / (max_degree + 1)
