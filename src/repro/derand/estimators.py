"""Pessimistic estimators for the paper's randomized 0-round processes.

[GHK16, Theorem III.1] derandomizes a randomized zero/constant-round
algorithm with locally checkable failure events into an SLOCAL algorithm by
the method of conditional expectations.  The estimator tracks, for a partial
assignment of the random choices, an upper bound on the expected number of
violated local events under uniform random completion; choosing each
variable's value to not increase the estimator keeps it below its initial
value, and if the initial value is below 1 the final (integral) count of
violated events must be 0.

Three estimators cover every derandomization the paper invokes:

* :class:`WeakSplittingEstimator` — events "u sees no red" / "u sees no blue"
  (Lemma 2.1, Lemma 3.1).  The estimator is the *exact* conditional
  expectation ``Σ_u [no red yet]·2^{-free(u)} + [no blue yet]·2^{-free(u)}``,
  a martingale under uniform red/blue completion; initial value
  ``Σ_u 2·2^{-deg(u)} <= 2n/n² < 1`` whenever δ >= 2 log n — the paper's
  union bound verbatim.

* :class:`MissingColorEstimator` — events "color x unseen by u" for each of
  ``K = ⌈2 log n⌉`` palette colors (Theorem 3.2).  Exact conditional
  expectation ``Σ_u Σ_{x unseen} (1 - 1/K)^{free(u)}``.

* :class:`OverloadEstimator` — events "u has more than ⌈λ·deg(u)⌉ neighbors
  of color x" (Theorem 3.3).  The exact tail has no cheap closed form under
  partial assignment, so we use the standard Chernoff/MGF pessimistic
  estimator ``Σ_{u,x} t^{count(u,x)} · (1 − p + p·t)^{free(u)} / t^{T_u + 1}``
  with ``p = 1/C'``; it dominates the failure probability by Markov's
  inequality and is an exact martingale under uniform completion, so the
  greedy argmin keeps it from growing.  The default ``t = λ·C'`` reproduces
  the paper's Equation (2) bound ``(e / (λ C'))^{λ d}`` at the root.

All estimators support O(deg(v) · colors) incremental evaluation of a
candidate assignment, which is what makes the SLOCAL conversion affordable.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional

from repro.bipartite.instance import BLUE, RED, BipartiteInstance
from repro.utils.validation import require, require_positive

__all__ = [
    "ColoringEstimator",
    "WeakSplittingEstimator",
    "MissingColorEstimator",
    "OverloadEstimator",
]


class ColoringEstimator(ABC):
    """Interface for pessimistic estimators over right-side colorings."""

    #: number of colors the variables range over
    num_colors: int

    @abstractmethod
    def value(self) -> float:
        """Current estimator value (upper bound on E[#violations])."""

    @abstractmethod
    def gain(self, v: int, color: int) -> float:
        """Estimator change if uncolored node ``v`` is assigned ``color``."""

    @abstractmethod
    def commit(self, v: int, color: int) -> None:
        """Permanently assign ``color`` to ``v`` and update internal state."""

    def best_color(self, v: int) -> int:
        """The argmin color for ``v`` (ties broken toward lower color)."""
        best, best_gain = 0, math.inf
        for c in range(self.num_colors):
            g = self.gain(v, c)
            if g < best_gain - 1e-15:
                best, best_gain = c, g
        return best


class WeakSplittingEstimator(ColoringEstimator):
    """Exact conditional expectation for weak splitting failures.

    A constraint ``u`` with ``free(u)`` uncolored neighbors and no red
    neighbor yet fails to see red with probability ``2^{-free(u)}`` under
    uniform completion (and symmetrically for blue).  The estimator is the
    sum over all these events.
    """

    num_colors = 2

    def __init__(self, inst: BipartiteInstance) -> None:
        self.inst = inst
        self.free: List[int] = [inst.left_degree(u) for u in range(inst.n_left)]
        self.seen: List[List[bool]] = [[False, False] for _ in range(inst.n_left)]
        self._value = sum(2.0 * (0.5 ** self.free[u]) for u in range(inst.n_left))

    def _contribution(self, u: int, free: int, seen_red: bool, seen_blue: bool) -> float:
        term = 0.5**free
        return (0.0 if seen_red else term) + (0.0 if seen_blue else term)

    def value(self) -> float:
        return self._value

    def gain(self, v: int, color: int) -> float:
        require(color in (RED, BLUE), f"invalid color {color}")
        delta = 0.0
        for u in self.inst.right_neighbors(v):
            sr, sb = self.seen[u]
            old = self._contribution(u, self.free[u], sr, sb)
            nr = sr or color == RED
            nb = sb or color == BLUE
            new = self._contribution(u, self.free[u] - 1, nr, nb)
            delta += new - old
        return delta

    def commit(self, v: int, color: int) -> None:
        self._value += self.gain(v, color)
        for u in self.inst.right_neighbors(v):
            self.free[u] -= 1
            self.seen[u][color] = True

    def violations(self) -> int:
        """Number of constraints currently unsatisfiable (monochromatic)."""
        count = 0
        for u in range(self.inst.n_left):
            if self.free[u] == 0 and (not self.seen[u][RED] or not self.seen[u][BLUE]):
                count += 1
        return count


class MissingColorEstimator(ColoringEstimator):
    """Exact conditional expectation of missing (u, palette-color) pairs.

    Used for C-weak multicolor splitting (Definition 1.3 / Theorem 3.2):
    variables choose among ``K`` palette colors uniformly; constraint ``u``
    must see all ``K`` of them (then it certainly sees ``>= 2 log n``
    colors).  The event for pair ``(u, x)``: no neighbor of ``u`` is colored
    ``x``; conditional probability ``(1 - 1/K)^{free(u)}`` while unseen.
    """

    def __init__(self, inst: BipartiteInstance, palette_size: int) -> None:
        require(palette_size >= 2, f"palette must have >= 2 colors, got {palette_size}")
        self.inst = inst
        self.num_colors = palette_size
        self.q = 1.0 - 1.0 / palette_size
        self.free: List[int] = [inst.left_degree(u) for u in range(inst.n_left)]
        self.missing: List[int] = [palette_size] * inst.n_left
        self.seen: List[List[bool]] = [
            [False] * palette_size for _ in range(inst.n_left)
        ]
        self._value = sum(
            self.missing[u] * (self.q ** self.free[u]) for u in range(inst.n_left)
        )

    def value(self) -> float:
        return self._value

    def gain(self, v: int, color: int) -> float:
        require(0 <= color < self.num_colors, f"invalid color {color}")
        delta = 0.0
        for u in self.inst.right_neighbors(v):
            old = self.missing[u] * (self.q ** self.free[u])
            new_missing = self.missing[u] - (0 if self.seen[u][color] else 1)
            new = new_missing * (self.q ** (self.free[u] - 1))
            delta += new - old
        return delta

    def commit(self, v: int, color: int) -> None:
        self._value += self.gain(v, color)
        for u in self.inst.right_neighbors(v):
            self.free[u] -= 1
            if not self.seen[u][color]:
                self.seen[u][color] = True
                self.missing[u] -= 1

    def violations(self) -> int:
        """Fully-decided constraints still missing some palette color."""
        return sum(
            1
            for u in range(self.inst.n_left)
            if self.free[u] == 0 and self.missing[u] > 0
        )


class OverloadEstimator(ColoringEstimator):
    """Chernoff-style pessimistic estimator for per-color overload events.

    Used for (C, λ)-multicolor splitting (Definition 1.2 / Theorem 3.3):
    variables choose among ``C'`` colors uniformly; constraint ``u`` fails on
    color ``x`` if more than ``T_u = ⌈λ·deg(u)⌉`` of its neighbors take
    color ``x``.  For a partial assignment with ``count(u, x)`` committed
    ``x``-neighbors and ``free(u)`` undecided neighbors,

        est(u, x) = t^{count(u,x)} · (1 − p + p t)^{free(u)} / t^{T_u + 1}

    with ``p = 1/C'`` upper-bounds ``Pr[overload]`` (Markov on ``t^X``) and
    averages to itself over a uniform color choice, so greedy minimization
    never increases the total.
    """

    def __init__(
        self,
        inst: BipartiteInstance,
        num_colors: int,
        lam: float,
        t: Optional[float] = None,
    ) -> None:
        require(num_colors >= 2, f"need >= 2 colors, got {num_colors}")
        require_positive(lam, "lam")
        self.inst = inst
        self.num_colors = num_colors
        self.lam = lam
        self.p = 1.0 / num_colors
        if t is None:
            t = lam * num_colors
        require(t > 1.0, f"MGF parameter t must exceed 1 (got {t}); need lam * C > 1")
        self.t = t
        self.phi = 1.0 - self.p + self.p * t  # E[t^{indicator}] for one free var
        self.free: List[int] = [inst.left_degree(u) for u in range(inst.n_left)]
        self.threshold: List[int] = [
            math.ceil(lam * inst.left_degree(u)) for u in range(inst.n_left)
        ]
        # power_count[u][x] = t ** count(u, x); we track the per-u sum too.
        self.power_count: List[List[float]] = [
            [1.0] * num_colors for _ in range(inst.n_left)
        ]
        self.power_sum: List[float] = [float(num_colors)] * inst.n_left
        self.counts: List[List[int]] = [[0] * num_colors for _ in range(inst.n_left)]
        self._value = sum(self._contribution(u) for u in range(inst.n_left))

    def _contribution(self, u: int) -> float:
        scale = (self.phi ** self.free[u]) / (self.t ** (self.threshold[u] + 1))
        return scale * self.power_sum[u]

    def value(self) -> float:
        return self._value

    def gain(self, v: int, color: int) -> float:
        require(0 <= color < self.num_colors, f"invalid color {color}")
        delta = 0.0
        for u in self.inst.right_neighbors(v):
            old = self._contribution(u)
            new_sum = self.power_sum[u] + self.power_count[u][color] * (self.t - 1.0)
            new = (
                (self.phi ** (self.free[u] - 1))
                / (self.t ** (self.threshold[u] + 1))
                * new_sum
            )
            delta += new - old
        return delta

    def commit(self, v: int, color: int) -> None:
        self._value += self.gain(v, color)
        for u in self.inst.right_neighbors(v):
            self.free[u] -= 1
            self.counts[u][color] += 1
            bump = self.power_count[u][color] * (self.t - 1.0)
            self.power_count[u][color] *= self.t
            self.power_sum[u] += bump

    def violations(self) -> int:
        """Fully-decided constraints with an overloaded color class."""
        count = 0
        for u in range(self.inst.n_left):
            if self.free[u] == 0 and max(self.counts[u]) > self.threshold[u]:
                count += 1
        return count
