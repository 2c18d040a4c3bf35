"""Greedy conditional-expectation coloring (the [GHK16] derandomization).

Given a :class:`~repro.derand.estimators.ColoringEstimator` whose initial
value is below 1, processing the variable nodes in *any* order and giving
each the color of smallest estimator gain yields a final estimator value
below 1; since the final value upper-bounds the (integral) number of violated
events, no event is violated.  This is exactly the SLOCAL algorithm that
[GHK16, Theorem III.1] produces, and the processing order used by the LOCAL
conversion is the (power-graph color class, id) order of
:mod:`repro.slocal.conversion`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bipartite.instance import Coloring
from repro.derand.estimators import ColoringEstimator
from repro.utils.validation import require

__all__ = ["greedy_minimize", "DerandomizationError"]


class DerandomizationError(RuntimeError):
    """Raised when the estimator's initial value is not below 1.

    This signals that the *precondition* of the derandomization (the paper's
    degree requirement, e.g. δ >= 2 log n for weak splitting) is violated for
    the given instance — the method of conditional expectations then cannot
    certify success.
    """


def greedy_minimize(
    estimator: ColoringEstimator,
    order: Sequence[int],
    strict: bool = True,
) -> Coloring:
    """Color the nodes listed in ``order`` by greedy estimator minimization.

    Parameters
    ----------
    estimator:
        Fresh estimator over the instance; mutated in place.
    order:
        The processing order over right-side nodes; must enumerate each node
        to be colored exactly once (typically all of ``V``).
    strict:
        When True (default) a :class:`DerandomizationError` is raised if the
        initial estimator value is >= 1 (no success certificate).  Set False
        to run heuristically anyway (used by some experiments to demonstrate
        where the guarantee boundary lies).

    Returns the complete coloring (list indexed by right node).
    """
    initial = estimator.value()
    if strict and initial >= 1.0:
        raise DerandomizationError(
            f"initial pessimistic estimator value {initial:.4g} >= 1; "
            "the instance violates the derandomization precondition"
        )
    seen = set()
    coloring: List[Optional[int]] = [None] * len(getattr(estimator.inst, "right_inc"))
    for v in order:
        require(v not in seen, f"node {v} appears twice in the processing order")
        seen.add(v)
        c = estimator.best_color(v)
        estimator.commit(v, c)
        coloring[v] = c
    final = estimator.value()
    # Greedy argmin never increases a martingale estimator; assert the
    # invariant held (up to floating point slack) so silent estimator bugs
    # cannot masquerade as successful runs.
    if final > initial + 1e-6:
        raise AssertionError(
            f"estimator increased from {initial:.6g} to {final:.6g}; "
            "the estimator is not a supermartingale (implementation bug)"
        )
    return coloring
