"""Verifiers for every splitting problem in the paper.

All of the paper's problems are locally checkable (that is what makes them
amenable to the [GHK16] derandomization and the P-RLOCAL completeness
framework), so each verifier below is a direct transcription of the
corresponding definition.  Verifiers return the *list of violating
constraints* (empty = valid) so tests and experiments can report exactly
where a solution fails; boolean wrappers are provided for convenience.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.core.problems import (
    UniformSplittingSpec,
    multicolor_threshold,
    weak_multicolor_bound_degree,
    weak_multicolor_required_colors,
)
from repro.local.network import csr_rows
from repro.utils.validation import require

__all__ = [
    "weak_splitting_violations",
    "is_weak_splitting",
    "weak_multicolor_violations",
    "is_weak_multicolor_splitting",
    "multicolor_violations",
    "is_multicolor_splitting",
    "uniform_splitting_violations",
    "is_uniform_splitting",
    "red_window_violators",
]


def _colors_seen(inst: BipartiteInstance, coloring: Coloring, u: int) -> Set[int]:
    seen: Set[int] = set()
    for v in inst.left_neighbors(u):
        c = coloring[v]
        if c is not None:
            seen.add(c)
    return seen


def weak_splitting_violations(
    inst: BipartiteInstance,
    coloring: Coloring,
    min_degree: int = 1,
) -> List[int]:
    """Constraints violating Definition 1.1.

    A constraint ``u`` with ``deg(u) >= min_degree`` must have at least one
    red and one blue neighbor.  ``min_degree`` defaults to 1 (every non-
    isolated constraint is checked); pass the paper's degree bound to verify
    only the constraints an algorithm is accountable for (e.g. the
    "sufficiently large degree" form used in the completeness results).
    Uncolored neighbors never satisfy a constraint.
    """
    require(len(coloring) == inst.n_right, "coloring must cover all variable nodes")
    bad: List[int] = []
    for u in range(inst.n_left):
        if inst.left_degree(u) < min_degree:
            continue
        seen = _colors_seen(inst, coloring, u)
        if RED not in seen or BLUE not in seen:
            bad.append(u)
    return bad


def is_weak_splitting(
    inst: BipartiteInstance, coloring: Coloring, min_degree: int = 1
) -> bool:
    """Boolean form of :func:`weak_splitting_violations`."""
    return not weak_splitting_violations(inst, coloring, min_degree=min_degree)


def weak_multicolor_violations(
    inst: BipartiteInstance,
    coloring: Coloring,
    n: Optional[int] = None,
    required_colors: Optional[int] = None,
    bound_degree: Optional[float] = None,
) -> List[int]:
    """Constraints violating Definition 1.3 (C-weak multicolor splitting).

    A constraint with ``deg(u) >= 2 (log n + 1) ln n`` must see at least
    ``2 log n`` distinct colors.  ``n`` defaults to the instance size; the
    thresholds may be overridden for experiments probing the boundary.
    """
    require(len(coloring) == inst.n_right, "coloring must cover all variable nodes")
    if n is None:
        n = inst.n
    if bound_degree is None:
        bound_degree = weak_multicolor_bound_degree(n)
    if required_colors is None:
        required_colors = weak_multicolor_required_colors(n)
    bad: List[int] = []
    for u in range(inst.n_left):
        if inst.left_degree(u) < bound_degree:
            continue
        if len(_colors_seen(inst, coloring, u)) < required_colors:
            bad.append(u)
    return bad


def is_weak_multicolor_splitting(
    inst: BipartiteInstance,
    coloring: Coloring,
    n: Optional[int] = None,
    required_colors: Optional[int] = None,
    bound_degree: Optional[float] = None,
) -> bool:
    """Boolean form of :func:`weak_multicolor_violations`."""
    return not weak_multicolor_violations(
        inst, coloring, n=n, required_colors=required_colors, bound_degree=bound_degree
    )


def multicolor_violations(
    inst: BipartiteInstance,
    coloring: Coloring,
    num_colors: int,
    lam: float,
    min_degree: int = 1,
) -> List[int]:
    """Constraints violating Definition 1.2 ((C, λ)-multicolor splitting).

    Every constraint ``u`` with ``deg(u) >= min_degree`` may have at most
    ``⌈λ · deg(u)⌉`` neighbors of each color; all variables must be colored
    with a color in ``range(num_colors)``.
    """
    require(len(coloring) == inst.n_right, "coloring must cover all variable nodes")
    for v, c in enumerate(coloring):
        require(c is not None, f"variable {v} is uncolored")
        require(0 <= c < num_colors, f"variable {v} has out-of-palette color {c}")
    bad: List[int] = []
    for u in range(inst.n_left):
        d = inst.left_degree(u)
        if d < min_degree:
            continue
        cap = multicolor_threshold(d, lam)
        counts: dict = {}
        for v in inst.left_neighbors(u):
            counts[coloring[v]] = counts.get(coloring[v], 0) + 1
        if counts and max(counts.values()) > cap:
            bad.append(u)
    return bad


def is_multicolor_splitting(
    inst: BipartiteInstance,
    coloring: Coloring,
    num_colors: int,
    lam: float,
    min_degree: int = 1,
) -> bool:
    """Boolean form of :func:`multicolor_violations`."""
    return not multicolor_violations(
        inst, coloring, num_colors, lam, min_degree=min_degree
    )


def uniform_splitting_violations(
    adjacency: Sequence[Sequence[int]],
    partition: Sequence[Optional[int]],
    spec: UniformSplittingSpec,
) -> List[int]:
    """Nodes violating the Section 4.1 uniform splitting requirement.

    ``partition[v]`` is RED/BLUE.  A node ``v`` violates when
    ``spec.violates(deg(v), red(v))``: it is constrained and its red
    neighbor count (and hence its blue count too) leaves the spec window.
    """
    offsets, dst = csr_rows(adjacency)
    require(len(partition) == offsets.shape[0] - 1, "partition must cover all nodes")
    return np.flatnonzero(red_window_violators(offsets, dst, partition, spec)).tolist()


def red_window_violators(offsets, dst, partition, spec: UniformSplittingSpec, live=None):
    """Bool mask over the nodes of the CSR rows ``offsets``/``dst``: counted
    over each node's slots (those where the per-slot mask ``live`` holds,
    or all of them), the node ``spec.violates`` its window."""
    from repro.local.dense import _segment_sum

    red = (np.asarray(partition) == RED)[dst]
    if live is None:
        degree = np.diff(offsets)
    else:
        red &= live
        degree = _segment_sum(live.astype(np.int64), offsets)
    return spec.violates(degree, _segment_sum(red.astype(np.int64), offsets))


def is_uniform_splitting(
    adjacency: Sequence[Sequence[int]],
    partition: Sequence[Optional[int]],
    spec: UniformSplittingSpec,
) -> bool:
    """Boolean form of :func:`uniform_splitting_violations`."""
    return not uniform_splitting_violations(adjacency, partition, spec)
