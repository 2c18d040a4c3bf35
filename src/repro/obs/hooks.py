"""Tracing as a :class:`~repro.local.network.RoundHooks` adapter.

:class:`TracingHooks` turns a hooked run of the reference simulator
:func:`~repro.local.network.run_local` into a traced run without touching
the simulator: it wraps an optional *inner* hooks object (the scenario
layer's :class:`~repro.scenarios.base.PerturbationHooks`, say), delegates
every decision to it, and records one :meth:`Tracer.round` record per
executed round carrying the active-set size, the messages delivered and
dropped this round, and the round's wall time.

The bit-identity contract survives wrapping because the ``deliver``
*decision* is exactly the inner hooks' (or True with no inner hooks) —
still a pure function of ``(round_no, sender, port)``; the tracer only
counts outcomes, and the simulator consults ``deliver`` once per outgoing
message.  The per-round ``delivered``/``dropped`` counts are the
reference's; the dense kernels' mask-based records omit them, so
cross-backend trace equivalence is
asserted on rounds, active-set sizes and violations (see
``tests/obs/test_trace_equivalence.py``).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.local.network import NodeView, RoundHooks

__all__ = ["TracingHooks"]


class TracingHooks(RoundHooks):
    """Wrap ``inner`` hooks (may be None) and emit one round record each round."""

    def __init__(self, tracer, inner: Optional[RoundHooks] = None) -> None:
        self.tracer = tracer
        self.inner = inner
        self._delivered = 0
        self._dropped = 0
        self._round_start = 0.0

    def before_round(self, round_no: int, views: List[NodeView]) -> None:
        self._round_start = time.perf_counter()
        self._delivered = 0
        self._dropped = 0
        if self.inner is not None:
            self.inner.before_round(round_no, views)

    def deliver(self, round_no: int, sender: int, port: int) -> bool:
        # The decision is the inner hooks' own (pure in (round_no, sender,
        # port)); counting it does not perturb any executor state.
        ok = True if self.inner is None else self.inner.deliver(round_no, sender, port)
        if ok:
            self._delivered += 1
        else:
            self._dropped += 1
        return ok

    def transform(self, round_no: int, sender: int, port: int, message):
        if self.inner is None:
            return message
        return self.inner.transform(round_no, sender, port, message)

    def after_round(self, round_no: int, views: List[NodeView]) -> None:
        if self.inner is not None:
            self.inner.after_round(round_no, views)
        self.tracer.round(
            round_no,
            active=sum(1 for v in views if not v.halted),
            delivered=self._delivered,
            dropped=self._dropped,
            seconds=time.perf_counter() - self._round_start,
        )
