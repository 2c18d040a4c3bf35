"""Round-level tracing: span/event records over the execution stack.

The paper's headline claims are *round*-complexity claims, so the natural
observability primitive is a per-round record: which round ran, how many
nodes were still active, how many messages arrived or were dropped, how
long the phase took on the wall clock.  A :class:`Tracer` collects those
records in memory while a run executes — attached to the hook-based
executors via :class:`~repro.obs.hooks.TracingHooks` and consulted at
explicit trace points inside the dense kernels — and the records are
persisted as torn-write-safe JSONL with the same seal-the-tail discipline
as ``benchmarks/store.py``'s history store.

Tracing is strictly opt-in: every traced code path takes ``tracer=None``
as its default and guards its trace points with
``tracer is not None and tracer.enabled``, so the untraced hot loops are
untouched and a :class:`NullTracer` (``enabled=False``) costs one
attribute read per round at most — the E21 gate in
``benchmarks/bench_engine.py`` measures that overhead at < 2% on a dense
Luby run at n = 100,000.

Record shape (one flat JSON object per line)::

    {"kind": "round", "round": 3, "active": 412, "delivered": 1650,
     "dropped": 84, "seconds": 0.0021, "trial": 7, "backend": "reference",
     "scenario": "luby/crash"}

``kind`` is ``"round"`` for per-round records, ``"span"`` for named
wall-time spans, anything else for free-form events (e.g. the scenario
runner's final ``"result"`` event).  The common fields (``trial``,
``backend``, ``scenario``) are stamped onto every record by the tracer
that produced it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["Tracer", "NullTracer", "append_trace", "load_trace"]


class Tracer:
    """In-memory collector of trace records for one run or trial.

    ``trial`` / ``backend`` / ``scenario`` are stamped onto every record
    (omitted when None), so records from many trials can share one JSONL
    file and remain separable at query time.
    """

    enabled = True

    def __init__(
        self,
        trial: Optional[int] = None,
        backend: Optional[str] = None,
        scenario: Optional[str] = None,
    ) -> None:
        self.common: Dict[str, Any] = {}
        if trial is not None:
            self.common["trial"] = trial
        if backend is not None:
            self.common["backend"] = backend
        if scenario is not None:
            self.common["scenario"] = scenario
        self.records: List[Dict[str, Any]] = []

    def event(self, kind: str, **fields: Any) -> None:
        """Append one free-form record of the given ``kind``."""
        record = {"kind": kind}
        record.update(self.common)
        record.update(fields)
        self.records.append(record)

    def round(self, round_no: int, **fields: Any) -> None:
        """Append one per-round record (``kind="round"``)."""
        self.event("round", round=int(round_no), **fields)

    @contextmanager
    def span(self, name: str, **fields: Any):
        """Record the wall time of a named phase as a ``"span"`` record."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.event("span", name=name, seconds=time.perf_counter() - start, **fields)

    def round_records(self) -> List[Dict[str, Any]]:
        """Just the per-round records, in emission order."""
        return [r for r in self.records if r.get("kind") == "round"]

    def flush(self, path) -> int:
        """Append all collected records to the JSONL file at ``path``.

        Returns the number of records written and clears the in-memory
        buffer, so repeated flushes never duplicate rows.
        """
        written = append_trace(path, self.records)
        self.records = []
        return written


class NullTracer:
    """The do-nothing tracer: same surface as :class:`Tracer`, zero records.

    Traced code paths guard on ``tracer.enabled``, so a NullTracer-bearing
    run executes the identical instructions as an untraced one apart from
    that guard — the property the E21 overhead gate pins down.
    """

    enabled = False
    common: Dict[str, Any] = {}
    records: List[Dict[str, Any]] = []

    def event(self, kind: str, **fields: Any) -> None:
        pass

    def round(self, round_no: int, **fields: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, **fields: Any):
        yield

    def round_records(self) -> List[Dict[str, Any]]:
        return []

    def flush(self, path) -> int:
        return 0


def append_trace(path, records: List[Dict[str, Any]]) -> int:
    """Append trace records to a JSONL file, torn-write safe.

    Same seal-the-tail discipline as ``benchmarks/store.py``: if a
    crash-interrupted writer left a truncated trailing line, a newline
    seals it off before the new rows are written, so concurrent sweep
    workers appending trial traces can never fuse rows.  Returns the
    number of records written.
    """
    if not records:
        return 0
    path = Path(path)
    needs_newline = False
    if path.exists() and path.stat().st_size:
        with path.open("rb") as fh:
            fh.seek(-1, 2)
            needs_newline = fh.read(1) != b"\n"
    with path.open("a") as fh:
        if needs_newline:
            fh.write("\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_trace(path) -> List[Dict[str, Any]]:
    """All records of a trace JSONL file (empty list for a missing file).

    Undecodable lines — the torn tail of a killed writer — are skipped
    with a warning instead of sinking the load, mirroring
    ``store.load_history``.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                print(
                    f"trace: skipping corrupt line {lineno} of {path}",
                    file=sys.stderr,
                )
    return records
