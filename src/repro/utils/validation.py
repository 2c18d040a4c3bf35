"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

__all__ = [
    "require",
    "require_positive",
    "require_nonnegative",
    "require_in_range",
    "require_probability",
    "require_nodes",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value > 0``."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_nonnegative(value: float, name: str) -> None:
    """Raise unless ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def require_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Raise unless ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Raise unless ``value`` is a probability in [0, 1]."""
    require_in_range(value, 0.0, 1.0, name)


def require_nodes(ids, n: int, what: str) -> None:
    """Raise ``ValueError`` naming the first of ``ids`` outside ``range(n)``.

    ``ids`` is an integer numpy array.  Indexing with an unchecked id would
    wrap a negative one around to the last nodes and fail on a large one
    with a bare ``IndexError``.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ValueError(f"{what} {int(bad)} is not a node of the {n}-node graph")
