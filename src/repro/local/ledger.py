"""Round accounting for LOCAL-model algorithms.

The paper's results are *round complexity* statements.  Parts of our
implementation run genuinely inside the synchronous simulator
(:mod:`repro.local.network`) where rounds are simply counted; other parts —
the black-box substrates the paper itself imports, such as the [GHK+17b]
degree-splitting routine of Theorem 2.3 or the [GHK17a] SLOCAL→LOCAL
conversion — are executed by an equivalent centralized computation and their
round cost is *charged analytically* using the cited theorem's formula.  The
:class:`RoundLedger` records both kinds of charges with labels, so
experiments can report totals as well as per-phase breakdowns that
mirror the paper's proofs (e.g. Theorem 2.5's ``O(r/δ·log²n)`` reduction cost
versus its ``O(log³n (log log n)^1.1)`` splitting cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

__all__ = ["Charge", "RoundLedger"]


@dataclass(frozen=True)
class Charge:
    """A single round charge.

    ``kind`` is ``"simulated"`` for rounds actually executed by the message
    simulator and ``"analytic"`` for black-box substrate charges.
    """

    label: str
    rounds: float
    kind: str = "analytic"

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"negative round charge: {self.rounds}")
        if self.kind not in ("analytic", "simulated"):
            raise ValueError(f"unknown charge kind: {self.kind}")


class RoundLedger:
    """Accumulates round charges; supports parallel (max) composition.

    In the LOCAL model, independent connected components run in parallel, so
    the cost of "solve every residual component" is the *maximum* component
    cost, not the sum.  :meth:`charge_parallel` implements exactly that, which
    the shattering algorithms (Theorem 1.2, Theorem 5.3) rely on.
    """

    def __init__(self) -> None:
        self._charges: List[Charge] = []

    # ------------------------------------------------------------- recording
    def charge(self, rounds: float, label: str, kind: str = "analytic") -> None:
        """Record ``rounds`` rounds under ``label``."""
        self._charges.append(Charge(label=label, rounds=float(rounds), kind=kind))

    def charge_simulated(self, rounds: float, label: str) -> None:
        """Record rounds that were actually executed by the simulator."""
        self.charge(rounds, label, kind="simulated")

    def charge_parallel(self, ledgers: List["RoundLedger"], label: str) -> None:
        """Charge the max total over ``ledgers`` (parallel composition)."""
        worst = max((l.total for l in ledgers), default=0.0)
        self.charge(worst, label)

    def merge(self, other: "RoundLedger") -> None:
        """Append all of ``other``'s charges (sequential composition)."""
        self._charges.extend(other._charges)

    # -------------------------------------------------------------- querying
    @property
    def total(self) -> float:
        """Total rounds charged so far."""
        return sum(c.rounds for c in self._charges)

    @property
    def charges(self) -> Tuple[Charge, ...]:
        """All recorded charges, in order."""
        return tuple(self._charges)

    def breakdown(self) -> Dict[str, float]:
        """Total rounds per label."""
        out: Dict[str, float] = {}
        for c in self._charges:
            out[c.label] = out.get(c.label, 0.0) + c.rounds
        return out

    def simulated_total(self) -> float:
        """Total of simulated (actually executed) rounds."""
        return sum(c.rounds for c in self._charges if c.kind == "simulated")

    def analytic_total(self) -> float:
        """Total of analytically charged substrate rounds."""
        return sum(c.rounds for c in self._charges if c.kind == "analytic")

    def __iter__(self) -> Iterator[Charge]:
        return iter(self._charges)

    def __len__(self) -> int:
        return len(self._charges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundLedger(total={self.total:.1f}, charges={len(self._charges)})"
