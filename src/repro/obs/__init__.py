"""Observability: round-level tracing.

A zero-dependency layer over the execution stack (the ROADMAP's
"trajectory analytics" direction, the in-process half):

* :class:`Tracer` / :class:`NullTracer` — per-round span/event records for
  any backend, persisted as torn-write-safe JSONL
  (:mod:`repro.obs.trace`);
* :class:`TracingHooks` — tracing as a
  :class:`~repro.local.network.RoundHooks` adapter for the reference
  simulator (:mod:`repro.obs.hooks`); the dense kernels take a
  ``tracer=`` argument instead.

The queryable *cross-run* half lives in ``benchmarks/history.py`` (a
sqlite index over ``bench_history.jsonl`` with trend/compare/regressions
queries).
"""

from repro.obs.hooks import TracingHooks
from repro.obs.trace import NullTracer, Tracer, append_trace, load_trace

__all__ = [
    "Tracer",
    "NullTracer",
    "append_trace",
    "load_trace",
    "TracingHooks",
]
