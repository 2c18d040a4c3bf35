"""Lemma 4.1 — (1 + o(1))∆ vertex coloring via repeated uniform splitting.

The divide-and-conquer from Sections 1.1 and 4.1: recursively split the
graph into two color classes (each induced subgraph keeping at most
``(1/2 + ε)`` of every constrained node's degree), for ``r`` levels; the
``2^r`` leaf subgraphs have maximum degree about ``∆ (1+ε)^r / 2^r``; color
each leaf with a ``(d+1)``-coloring ([FHK16]) using pairwise disjoint
palettes.  With ``ε = 1/log² n`` and ``r = log ∆ − log log n`` the total
palette is ``(1+ε)^r ∆ + 2^r = (1 + o(1))∆``.

Implementation notes:

* Splitting constrains only nodes whose *current induced* degree is at
  least :func:`~repro.apps.splitting.min_constrained_degree` — the Remark's
  modified problem, equivalent via clique gadgets.
* The recursion stops early (before ``r`` levels) once every leaf's maximum
  degree falls below the splittable threshold; leaves are then ``(d+1)``-
  colored.  This matches the paper's stopping rule ``∆* = poly log n``.
* ``ε`` defaults to the paper's ``1/log² n`` but is clamped so the
  derandomization certificate exists at the first level; experiment E12
  sweeps ∆ and reports measured palette / ∆ → 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bipartite.instance import BLUE, RED
from repro.apps.splitting import min_constrained_degree, uniform_splitting
from repro.coloring.greedy import d_plus_one_coloring, is_proper_coloring
from repro.core.problems import UniformSplittingSpec
from repro.local.ledger import RoundLedger
from repro.utils.mathx import log2
from repro.utils.rng import SeedLike
from repro.utils.validation import require

__all__ = ["SplitColoringResult", "coloring_via_splitting"]


@dataclass
class SplitColoringResult:
    """Outcome of the Lemma 4.1 pipeline."""

    colors: List[int]  #: a proper coloring of the input graph
    num_colors: int  #: palette size actually used
    Delta: int  #: input maximum degree
    levels: int  #: splitting levels performed
    leaf_degrees: List[int] = field(default_factory=list)  #: max degree per leaf

    @property
    def palette_ratio(self) -> float:
        """``num_colors / (∆ + 1)`` — the paper predicts → 1 as ∆ grows."""
        return self.num_colors / (self.Delta + 1)


def _induced_adjacency(
    adjacency: Sequence[Sequence[int]], members: Sequence[int]
) -> Tuple[List[List[int]], List[int]]:
    """Induced subgraph on ``members``; returns (adj, member list)."""
    index = {v: i for i, v in enumerate(members)}
    sub = [
        [index[w] for w in adjacency[v] if w in index]
        for v in members
    ]
    return sub, list(members)


def coloring_via_splitting(
    adjacency: Sequence[Sequence[int]],
    eps: Optional[float] = None,
    ledger: Optional[RoundLedger] = None,
    method: str = "derandomized",
    seed: SeedLike = 0,
    max_levels: Optional[int] = None,
) -> SplitColoringResult:
    """Color a graph with (1 + o(1))∆ colors via Lemma 4.1.

    Parameters
    ----------
    eps:
        Per-level splitting accuracy; default ``1/log² n`` clamped so the
        top level is certifiably splittable (``∆ >= c·ln n / ε²``).
    method:
        ``"derandomized"``, ``"reference"`` or ``"dense"``, forwarded to
        :func:`~repro.apps.splitting.uniform_splitting`.
    max_levels:
        Cap on the recursion depth; default ``log ∆ − log log n`` per the
        lemma.

    The returned coloring is verified proper before being handed back.
    """
    n = len(adjacency)
    require(n >= 1, "graph must be non-empty")
    Delta = max((len(set(nbrs)) for nbrs in adjacency), default=0)

    if eps is None:
        eps = 1.0 / max(4.0, log2(max(4, n)) ** 2)
        # Clamp so the first level's constrained-degree threshold is below ∆
        # (otherwise no node is constrained and splitting is vacuous).
        while Delta >= 8 and min_constrained_degree(n, eps) > Delta and eps < 0.24:
            eps *= 1.5
        eps = min(eps, 0.24)

    threshold = min_constrained_degree(n, eps)
    if max_levels is None:
        if Delta > max(2, math.ceil(log2(max(4, n)))):
            max_levels = max(0, math.floor(log2(Delta) - log2(log2(max(4, n)))))
        else:
            max_levels = 0

    spec = UniformSplittingSpec(eps=eps, min_constrained_degree=threshold)
    groups: List[List[int]] = [list(range(n))]
    levels = 0
    for _level in range(max_levels):
        # Stop once no leaf still has a splittable (constrained) node.
        if all(
            max((len(sub_nbrs) for sub_nbrs in _induced_adjacency(adjacency, g)[0]), default=0)
            < threshold
            for g in groups
        ):
            break
        next_groups: List[List[int]] = []
        for g in groups:
            sub_adj, members = _induced_adjacency(adjacency, g)
            if max((len(x) for x in sub_adj), default=0) < threshold:
                next_groups.append(g)  # already low degree; keep whole
                continue
            partition = uniform_splitting(
                sub_adj, spec, ledger=ledger, method=method, seed=seed
            )
            reds = [members[i] for i in range(len(members)) if partition[i] == RED]
            blues = [members[i] for i in range(len(members)) if partition[i] == BLUE]
            if reds:
                next_groups.append(reds)
            if blues:
                next_groups.append(blues)
        groups = next_groups
        levels += 1

    # Color each leaf with a (d+1)-coloring on a disjoint palette.
    colors = [-1] * n
    palette_base = 0
    leaf_degrees: List[int] = []
    for g in groups:
        sub_adj, members = _induced_adjacency(adjacency, g)
        leaf_colors, leaf_palette = d_plus_one_coloring(sub_adj, ledger=ledger)
        leaf_degrees.append(max((len(x) for x in sub_adj), default=0))
        for i, v in enumerate(members):
            colors[v] = palette_base + leaf_colors[i]
        palette_base += leaf_palette

    require(is_proper_coloring(adjacency, colors), "pipeline produced an improper coloring")
    return SplitColoringResult(
        colors=colors,
        num_colors=palette_base,
        Delta=Delta,
        levels=levels,
        leaf_degrees=leaf_degrees,
    )
