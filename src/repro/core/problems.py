"""Problem definitions and the paper's parameter thresholds.

Centralizes, in executable form, every numeric precondition the paper
attaches to its problems and theorems, so that algorithms, verifiers, tests
and instance generators all agree on the constants:

* Definition 1.1 (weak splitting) — solvability needs every constraint degree
  >= 2; the derandomized algorithms need δ >= 2 log n (Lemma 2.1).
* Definition 1.3 (C-weak multicolor splitting) — a constraint is *bound* by
  the problem only if ``deg(u) >= 2 (log n + 1) ln n``; bound constraints
  must see at least ``2 log n`` distinct colors, and the coloring may use
  ``C >= 2 log n`` colors.
* Definition 1.2 ((C, λ)-multicolor splitting) — every constraint must have
  at most ``⌈λ · deg(u)⌉`` neighbors of each color; requires ``λ >= 2/C``
  for solvability in general.
* Theorem 2.5's regime split at ``48 log n`` and its iteration count
  ``k = ⌊log(δ / (12 log n))⌋``.
* Section 4.1's uniform splitting — a red/blue partition where each node of
  degree ``d >= ∆/2`` has between ``(1/2 − ε) d`` and ``(1/2 + ε) d``
  neighbors on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.mathx import log2, ln
from repro.utils.validation import require, require_positive

__all__ = [
    "weak_splitting_min_degree",
    "theorem_25_trim_threshold",
    "theorem_25_iterations",
    "weak_multicolor_bound_degree",
    "weak_multicolor_required_colors",
    "multicolor_threshold",
    "randomized_min_degree",
    "UniformSplittingSpec",
]


def weak_splitting_min_degree(n: int) -> float:
    """Lemma 2.1 / Lemma 3.1 precondition: δ >= 2 log n."""
    require(n >= 2, f"n must be >= 2, got {n}")
    return 2.0 * log2(n)


def theorem_25_trim_threshold(n: int) -> float:
    """Theorem 2.5's case split: δ <= 48 log n uses Lemma 2.2 directly."""
    require(n >= 2, f"n must be >= 2, got {n}")
    return 48.0 * log2(n)


def theorem_25_iterations(delta: int, n: int) -> int:
    """Theorem 2.5's reduction count ``k = ⌊log(δ / (12 log n))⌋``."""
    require(n >= 2, f"n must be >= 2, got {n}")
    require_positive(delta, "delta")
    ratio = delta / (12.0 * log2(n))
    require(ratio > 1, f"Theorem 2.5 needs δ > 12 log n for k >= 1, got ratio {ratio:.3f}")
    return int(math.floor(log2(ratio)))


def weak_multicolor_bound_degree(n: int) -> float:
    """Definition 1.3: constraints with deg >= 2 (log n + 1) ln n are bound."""
    require(n >= 2, f"n must be >= 2, got {n}")
    return 2.0 * (log2(n) + 1.0) * ln(n)


def weak_multicolor_required_colors(n: int) -> int:
    """Definition 1.3: bound constraints must see >= 2 log n distinct colors."""
    require(n >= 2, f"n must be >= 2, got {n}")
    return math.ceil(2.0 * log2(n))


def multicolor_threshold(degree: int, lam: float) -> int:
    """Definition 1.2: per-color cap ``⌈λ · deg(u)⌉``."""
    require(degree >= 0, "degree must be >= 0")
    require_positive(lam, "lam")
    return math.ceil(lam * degree)


def randomized_min_degree(r: int, n: int, c: float = 1.0) -> float:
    """Theorem 1.2 precondition: δ >= c · log(r log n)."""
    require(n >= 2 and r >= 1, "need n >= 2 and r >= 1")
    return c * log2(max(2.0, r * log2(n)))


@dataclass(frozen=True)
class UniformSplittingSpec:
    """Parameters of the Section 4.1 uniform splitting problem.

    A node of degree ``d >= min_constrained_degree`` must end with between
    ``(1/2 − eps) d`` and ``(1/2 + eps) d`` neighbors in each color class;
    lower-degree nodes are unconstrained (the Remark in Section 4.1 shows
    the two formulations reduce to one another via clique gadgets).
    """

    eps: float
    min_constrained_degree: int

    def __post_init__(self) -> None:
        require(0 < self.eps < 0.5, f"eps must lie in (0, 1/2), got {self.eps}")
        require(self.min_constrained_degree >= 1, "min_constrained_degree must be >= 1")

    def lo(self, degree: int) -> float:
        """Minimum allowed same-class neighbor count for ``degree``."""
        return (0.5 - self.eps) * degree

    def hi(self, degree: int) -> float:
        """Maximum allowed same-class neighbor count for ``degree``."""
        return (0.5 + self.eps) * degree

    def constrains(self, degree: int) -> bool:
        """Whether a node of this degree is constrained at all."""
        return degree >= self.min_constrained_degree

    def violates(self, degree, red):
        """The window rule: a node of ``degree`` with ``red`` red neighbors
        is constrained and ``red`` lies outside ``[lo(degree), hi(degree)]``.
        Elementwise on numpy arrays."""
        return self.constrains(degree) & ((red < self.lo(degree)) | (red > self.hi(degree)))
