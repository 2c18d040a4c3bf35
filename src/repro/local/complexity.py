"""Analytic round-complexity formulas from the paper and its cited substrates.

All constants hidden in the paper's O(·) notation are set to 1 here; the
experiments check *shape* (scaling in the stated parameters), never absolute
round counts.

The formulas implemented:

* Theorem 2.3 ([GHK+17b, Thm 1]) — directed degree splitting with discrepancy
  ``ε d(v) + 2`` in ``O(ε⁻¹ · log ε⁻¹ · (log log ε⁻¹)^1.71 · log n)`` rounds
  deterministically, and with ``log n`` replaced by ``log log n`` randomized.
  (The paper itself later upper-bounds the middle factor by ``(log ε⁻¹)^1.1``
  "to ease presentation"; we keep the exact 1.71 exponent of the citation and
  expose the paper's simplified bound separately.)
* [GHK17a, Prop. 3.2] — an SLOCAL(t) algorithm runs in ``O(C)`` LOCAL rounds
  given a ``C``-coloring of the t-th power graph.
* [BEK14a] — a ``O(Δ_P)``-coloring of a power graph with maximum degree
  ``Δ_P`` is computable in ``O(Δ_P + log* n)`` rounds.
"""

from __future__ import annotations

import math

from repro.utils.validation import require, require_positive

__all__ = [
    "log_star",
    "degree_splitting_rounds",
    "degree_splitting_rounds_simplified",
    "slocal_conversion_rounds",
    "power_graph_coloring_rounds",
]


def log_star(n: float) -> int:
    """Iterated binary logarithm ``log* n`` (number of logs to reach <= 1)."""
    require(n >= 0, f"log_star requires n >= 0, got {n}")
    count = 0
    x = float(n)
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def _loglog_factor(inv_eps: float, exponent: float) -> float:
    """``(log log ε⁻¹)^exponent`` guarded against tiny arguments."""
    inner = max(2.0, math.log2(max(2.0, inv_eps)))
    return max(1.0, math.log2(inner)) ** exponent


def degree_splitting_rounds(eps: float, n: int, randomized: bool = False) -> float:
    """Round cost of one directed degree splitting per Theorem 2.3.

    ``O(ε⁻¹ · log ε⁻¹ · (log log ε⁻¹)^1.71 · log n)`` deterministic;
    randomized replaces the trailing ``log n`` by ``log log n`` (obtained in
    the paper by swapping in the randomized sinkless-orientation routine of
    [GS17]).
    """
    require_positive(eps, "eps")
    require(n >= 2, f"n must be >= 2, got {n}")
    inv_eps = max(2.0, 1.0 / eps)
    tail = math.log2(math.log2(max(4.0, n))) if randomized else math.log2(n)
    return inv_eps * math.log2(inv_eps) * _loglog_factor(inv_eps, 1.71) * max(1.0, tail)


def degree_splitting_rounds_simplified(eps: float, n: int, randomized: bool = False) -> float:
    """The paper's presentation bound ``O(ε⁻¹ (log ε⁻¹)^1.1 log n)``.

    Stated just after Theorem 2.3; used when reproducing the paper's own
    runtime arithmetic (e.g. Theorem 2.5's ``log³n (log log n)^1.1`` term).
    """
    require_positive(eps, "eps")
    require(n >= 2, f"n must be >= 2, got {n}")
    inv_eps = max(2.0, 1.0 / eps)
    tail = math.log2(math.log2(max(4.0, n))) if randomized else math.log2(n)
    return inv_eps * (math.log2(inv_eps) ** 1.1) * max(1.0, tail)


def slocal_conversion_rounds(num_colors: int, radius: int = 2) -> float:
    """LOCAL rounds to execute an SLOCAL algorithm color-class by color-class.

    [GHK17a, Prop. 3.2]: given a ``C``-coloring of the t-th power graph, an
    SLOCAL(t) algorithm runs in ``O(C)`` LOCAL rounds (each color class acts
    simultaneously; a class member reads its radius-``t`` view, so one class
    costs ``t`` rounds — we charge ``C * t``).
    """
    require(num_colors >= 1, f"need >= 1 color, got {num_colors}")
    require(radius >= 1, f"radius must be >= 1, got {radius}")
    return float(num_colors * radius)


def power_graph_coloring_rounds(power_degree: int, n: int) -> float:
    """Rounds to color a power graph of max degree ``Δ_P``: ``O(Δ_P + log* n)``.

    Matches the [BEK14a] bound invoked in Lemma 2.1 and Theorem 5.2.
    """
    require(power_degree >= 0, f"power_degree must be >= 0, got {power_degree}")
    return float(power_degree + log_star(max(2, n)))
