"""Small mathematical helpers shared across the library.

The paper (Section 1.2) fixes the convention that ``log x`` denotes the binary
logarithm and ``ln x`` the natural logarithm.  All algorithm implementations in
this package follow that convention through the helpers below, so that the
thresholds appearing in the paper (``2 log n``, ``48 log n``, ``(2 log n + 1) ln n``
and so on) can be written verbatim.
"""

from __future__ import annotations

import math

__all__ = [
    "log2",
    "ln",
    "ceil_log2",
    "floor_log2",
    "clamp",
    "is_power_of_two",
    "binomial_tail_upper",
    "chernoff_below",
    "chernoff_above",
]


def log2(x: float) -> float:
    """Binary logarithm, the paper's ``log``.

    Raises ``ValueError`` for non-positive input, mirroring :func:`math.log2`.
    """
    return math.log2(x)


def ln(x: float) -> float:
    """Natural logarithm, the paper's ``ln``."""
    return math.log(x)


def ceil_log2(x: float) -> int:
    """``ceil(log2(x))`` as an exact integer for positive ``x``.

    For integer powers of two the exact value is returned even when floating
    point rounding of ``math.log2`` would be ambiguous.
    """
    if x <= 0:
        raise ValueError(f"ceil_log2 requires x > 0, got {x!r}")
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        n = int(x)
        return max(0, (n - 1).bit_length())
    return int(math.ceil(math.log2(x)))


def floor_log2(x: float) -> int:
    """``floor(log2(x))`` as an exact integer for positive ``x``."""
    if x <= 0:
        raise ValueError(f"floor_log2 requires x > 0, got {x!r}")
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return int(x).bit_length() - 1
    return int(math.floor(math.log2(x)))


def clamp(x: float, lo: float, hi: float) -> float:
    """Clamp ``x`` into the closed interval ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return max(lo, min(hi, x))


def is_power_of_two(n: int) -> bool:
    """Return True iff ``n`` is a positive integral power of two."""
    return n > 0 and (n & (n - 1)) == 0


def binomial_tail_upper(d: int, k: int, p: float) -> float:
    """Upper bound ``(e*d*p/k)^k`` on ``Pr[Bin(d, p) >= k]``.

    This is the bound used in the proof of Theorem 3.3 (Equation (2) of the
    paper): ``C(d, k) p^k <= (e d / k)^k p^k``.  Returns 1.0 whenever the bound
    is vacuous (``k <= 0`` or the expression exceeds 1).
    """
    if k <= 0:
        return 1.0
    bound = (math.e * d * p / k) ** k
    return min(1.0, bound)


def chernoff_below(mu: float, delta: float) -> float:
    """Chernoff bound ``Pr[X <= (1 - delta) mu] <= exp(-delta^2 mu / 2)``."""
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return math.exp(-(delta**2) * mu / 2.0)


def chernoff_above(mu: float, delta: float) -> float:
    """Chernoff bound ``Pr[X >= (1 + delta) mu] <= exp(-delta^2 mu / 3)`` for delta <= 1."""
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if delta <= 1:
        return math.exp(-(delta**2) * mu / 3.0)
    return math.exp(-delta * mu / 3.0)
