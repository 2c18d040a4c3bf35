"""Fault-tolerant sweep execution: timeouts, retries, self-healing, checkpoints.

The plain process-pool loop in :mod:`repro.exp.runner` treats a workload
*exception* as data, but the infrastructure itself had the same failure
modes the scenario registry injects into the simulated network:

* a **hung** trial (deadlock, pathological input) stalled ``run_sweep``
  forever — there was no per-task deadline;
* a worker **segfault / OOM-kill / os._exit** raised ``BrokenProcessPool``
  out of ``future.result()`` and lost every completed trial;
* **SIGINT** discarded the whole sweep because JSON was only written at
  the end.

This module is the trial-and-fix layer for the executor (the same
shape as the paper's sinkless-orientation pipeline: run, detect the
violated tasks, re-run only those):

* :class:`RetryPolicy` — bounded retry with exponential backoff plus
  jitter, attached per :class:`~repro.exp.runner.ExperimentSpec`; a task
  that exhausts its budget is *quarantined* (its final error is recorded
  as trial data) so one poison cell cannot loop forever.
* :class:`ResilientExecutor` — a throttled dispatcher over
  ``ProcessPoolExecutor`` (at most ``workers`` tasks in flight, so every
  pending future is actually running) with

  - **per-task deadlines**: an overdue task's pool is killed and rebuilt,
    the task is charged with ``error="Timeout: ..."``, and the collateral
    in-flight tasks are re-enqueued uncharged;
  - **pool self-healing**: on ``BrokenProcessPool`` the in-flight tasks
    become *suspects* and are re-run one at a time on a fresh pool
    (``solo`` mode), so the crash is attributed to exactly the task that
    kills the pool again — innocent co-scheduled tasks are exonerated
    without burning retry budget;
  - **graceful drain**: :meth:`ResilientExecutor.request_drain` (wired to
    SIGINT/SIGTERM by :func:`drain_on_signals`) stops dispatching, waits
    a bounded grace for in-flight tasks, and reports the unfinished
    remainder so the caller can write a failure manifest.

* torn-write-safe **checkpoint** helpers (:func:`append_checkpoint` /
  :func:`load_checkpoint`): every finished trial is one JSON line,
  a torn tail from a kill is sealed on the next append and skipped on
  load — the same sealing discipline as ``benchmarks/store.py``'s
  ``bench_history.jsonl``.

``run_sweep(checkpoint=..., resume=...)`` in :mod:`repro.exp.runner` is
the front door; :mod:`repro.exp.workloads`' ``chaos_*`` functions are the
proof harness (crash / hang / exit / flaky workloads the tests and the CI
chaos-smoke step throw at real pool workers).
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.validation import require

__all__ = [
    "RetryPolicy",
    "Task",
    "ResilientExecutor",
    "drain_on_signals",
    "append_checkpoint",
    "load_checkpoint",
    "CRASH_ERROR",
    "TIMEOUT_ERROR_PREFIX",
]

#: Error string recorded for a task whose worker died mid-execution.
CRASH_ERROR = "BrokenProcessPool: worker died mid-task"

#: Every timeout error starts with this (``retryable`` predicates match on it).
TIMEOUT_ERROR_PREFIX = "Timeout"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter for transient failures.

    ``max_attempts`` counts *executions* (1 = no retry).  The delay before
    attempt ``k+1`` is ``min(base_delay * 2**(k-1), max_delay)`` plus a
    uniform jitter of up to ``jitter`` times that delay, so retry storms
    across concurrent tasks decorrelate.  ``retryable`` is a predicate on
    the error string (``None`` retries everything — including ``Timeout``
    and ``BrokenProcessPool`` failures, which arrive as ordinary error
    strings).  A task that fails ``max_attempts`` times is quarantined:
    its last error is recorded as trial data and it is never re-enqueued.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    max_delay: float = 30.0
    jitter: float = 0.25
    retryable: Optional[Callable[[str], bool]] = None

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.base_delay >= 0, "base_delay must be >= 0")
        require(self.max_delay >= 0, "max_delay must be >= 0")
        require(self.jitter >= 0, "jitter must be >= 0")

    def is_retryable(self, error: str) -> bool:
        return True if self.retryable is None else bool(self.retryable(error))

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before the next execution, given ``attempt`` failures so far."""
        base = min(self.base_delay * (2 ** max(attempt - 1, 0)), self.max_delay)
        if base <= 0:
            return 0.0
        return base + rng.uniform(0.0, base * self.jitter)


@dataclass
class Task:
    """One schedulable unit: a (spec, seed) trial."""

    name: str
    fn: Callable[..., Any]
    params: Dict[str, Any]
    seed: int
    timeout: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    #: executions charged to this task (failures + the final outcome)
    attempts: int = 0
    #: monotonic time before which the task must not be dispatched (backoff)
    not_before: float = 0.0
    #: crash suspect: must run alone on a fresh pool for exact attribution
    solo: bool = False
    #: monotonic dispatch time of the current execution
    dispatched_at: float = field(default=0.0, repr=False)
    #: monotonic deadline of the current execution (inf when no timeout)
    deadline: float = field(default=math.inf, repr=False)


def _synth_failure(task: Task, error: str, elapsed: float) -> Any:
    """Error :class:`TrialResult` row for a task that never returned.

    Timeout and crash victims produce no worker-side result, so the parent
    synthesizes the failed row, carrying a *copy* of the params dict.
    """
    from repro.exp.runner import TrialResult

    return TrialResult(
        experiment=task.name,
        seed=task.seed,
        params=dict(task.params),
        metrics={},
        elapsed=elapsed,
        error=error,
        attempts=task.attempts,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: SIGKILL the workers, then shut the plumbing down.

    ``shutdown()`` alone cannot reclaim a hung or wedged worker — the
    worker never returns to the call queue — so the processes are killed
    first and the executor's management thread then observes the death and
    winds itself down.  Safe to call on an already-broken pool.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - a broken pool may refuse politely
        pass
    for proc in procs:
        try:
            proc.join(timeout=2.0)
        except Exception:  # noqa: BLE001
            pass


class ResilientExecutor:
    """Throttled, self-healing process-pool scheduler for sweep tasks.

    ``on_result`` is invoked in the parent, in completion order, once per
    finalized :class:`~repro.exp.runner.TrialResult` — the caller uses it
    for progress reporting and incremental checkpointing.  :meth:`run`
    returns ``(unfinished_tasks, drain_reason)``; ``unfinished_tasks`` is
    empty unless a drain was requested.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`, optional)
    receives the executor's lifecycle counters under the ``executor.``
    prefix — dispatches, timeouts, pool rebuilds, crashes, retries,
    quarantines, drain requests — so a sweep's infrastructure behaviour is
    part of its recorded result, not just its logs.
    """

    #: upper bound on one ``wait()`` so drain requests are noticed promptly
    _POLL_SECONDS = 0.5

    def __init__(
        self,
        tasks: List[Task],
        workers: int,
        on_result: Callable[[Any], None],
        drain_grace: float = 5.0,
        metrics=None,
    ) -> None:
        require(workers >= 1, "pooled execution needs workers >= 1")
        self.queue: deque = deque(tasks)
        self.workers = int(workers)
        self.on_result = on_result
        self.drain_grace = float(drain_grace)
        self.in_flight: Dict[Any, Task] = {}
        self.drain_reason: Optional[str] = None
        self.metrics = metrics
        self._draining = False
        self._pool_rebuilds = 0
        self._rng = random.Random(0x5EED_F00D)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- public control ----------------------------------------------------

    def request_drain(self, reason: str) -> None:
        """Stop dispatching; collect what finishes within the grace period."""
        if self.drain_reason is None:
            self.drain_reason = reason
            self._count("executor.drains")

    @property
    def pool_rebuilds(self) -> int:
        """How many times the pool was killed and respawned (observability)."""
        return self._pool_rebuilds

    # -- scheduling --------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _rebuild(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        _kill_pool(pool)
        self._pool_rebuilds += 1
        self._count("executor.pool_rebuilds")
        return self._new_pool()

    def _submit(self, pool: ProcessPoolExecutor, task: Task) -> None:
        from repro.exp.runner import _run_trial

        task.dispatched_at = time.monotonic()
        task.deadline = (
            task.dispatched_at + task.timeout if task.timeout else math.inf
        )
        future = pool.submit(_run_trial, task.name, task.fn, task.params, task.seed)
        self.in_flight[future] = task
        self._count("executor.dispatches")

    def _dispatch(self, pool: ProcessPoolExecutor) -> None:
        if self.drain_reason is not None:
            return
        now = time.monotonic()
        if any(t.solo for t in self.in_flight.values()):
            return  # a suspect owns the pool until its verdict is in
        if any(t.solo and t.not_before <= now for t in self.queue):
            if self.in_flight:
                return  # let the pool empty, then run the suspect alone
            task = next(t for t in self.queue if t.solo and t.not_before <= now)
            self.queue.remove(task)
            self._submit(pool, task)
            return
        while len(self.in_flight) < self.workers:
            task = next(
                (t for t in self.queue if not t.solo and t.not_before <= now), None
            )
            if task is None:
                break
            self.queue.remove(task)
            self._submit(pool, task)

    def _wait_timeout(self) -> float:
        """Sleep bound: next deadline, next backoff expiry, or the poll cap."""
        now = time.monotonic()
        bound = self._POLL_SECONDS
        for task in self.in_flight.values():
            if task.deadline < math.inf:
                bound = min(bound, task.deadline - now)
        for task in self.queue:
            if task.not_before > now:
                bound = min(bound, task.not_before - now)
        return max(bound, 0.01)

    # -- outcome handling --------------------------------------------------

    def _finalize(self, task: Task, result: Any) -> None:
        result.attempts = task.attempts
        self.on_result(result)

    def _requeue(self, task: Task, delay: float = 0.0) -> None:
        task.not_before = time.monotonic() + delay
        self.queue.append(task)

    def _failed(self, task: Task, error: str, result: Any = None) -> None:
        """Charge one failed execution; retry within budget or quarantine."""
        task.attempts += 1
        policy = task.retry
        if (
            policy is not None
            and not self._draining
            and task.attempts < policy.max_attempts
            and policy.is_retryable(error)
        ):
            self._count("executor.retries")
            self._requeue(task, policy.delay(task.attempts, self._rng))
            return
        if policy is not None and task.attempts >= policy.max_attempts:
            self._count("executor.quarantines")
        elapsed = time.monotonic() - task.dispatched_at if task.dispatched_at else 0.0
        if result is None:
            result = _synth_failure(task, error, elapsed)
        self._finalize(task, result)

    def _completed(self, task: Task, result: Any) -> None:
        """A future returned normally; the workload may still have failed."""
        if result.error is not None:
            self._failed(task, result.error, result)
            return
        task.attempts += 1
        task.solo = False
        self._finalize(task, result)

    def _heal(self, pool: ProcessPoolExecutor, suspects: List[Task]) -> ProcessPoolExecutor:
        """The pool broke: attribute the crash, or isolate the suspects.

        A lone suspect (single in-flight task, or a task already running
        solo) is definitively guilty and is charged.  With several
        co-scheduled suspects nobody is charged yet: each is re-enqueued in
        ``solo`` mode, to be re-run alone on a fresh pool — whichever kills
        the pool again is the poison task; the others complete and are
        exonerated.
        """
        suspects.extend(self.in_flight.values())
        self.in_flight.clear()
        if len(suspects) == 1 or any(t.solo for t in suspects):
            for task in suspects:
                self._count("executor.crashes")
                self._failed(task, CRASH_ERROR)
        else:
            for task in suspects:
                task.solo = True
                self._requeue(task)
        return self._rebuild(pool)

    def _check_deadlines(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        now = time.monotonic()
        overdue = [f for f, t in self.in_flight.items() if now >= t.deadline]
        if not overdue:
            return pool
        for future in overdue:
            task = self.in_flight.pop(future)
            self._count("executor.timeouts")
            self._failed(
                task,
                f"{TIMEOUT_ERROR_PREFIX}: exceeded {task.timeout:.6g}s deadline",
            )
        # Collateral in-flight tasks die with the pool but are innocent:
        # re-enqueue them uncharged (solo flags survive).
        for task in self.in_flight.values():
            self._requeue(task)
        self.in_flight.clear()
        return self._rebuild(pool)

    # -- main loop ---------------------------------------------------------

    def run(self) -> Tuple[List[Task], Optional[str]]:
        pool = self._new_pool()
        broken_at_exit = False
        try:
            while (self.queue or self.in_flight) and self.drain_reason is None:
                self._dispatch(pool)
                if not self.in_flight:
                    # Everything runnable is backing off; sleep to the
                    # nearest expiry (interruptible by signals).
                    time.sleep(min(self._wait_timeout(), 0.25))
                    continue
                done, _ = wait(
                    set(self.in_flight),
                    timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                suspects: List[Task] = []
                for future in done:
                    task = self.in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        suspects.append(task)
                        continue
                    except Exception as exc:  # noqa: BLE001 - e.g. unpicklable return
                        self._failed(task, f"{type(exc).__name__}: {exc}")
                        continue
                    self._completed(task, outcome)
                if suspects:
                    pool = self._heal(pool, suspects)
                    continue
                pool = self._check_deadlines(pool)

            if self.drain_reason is not None and self.in_flight:
                self._draining = True
                broken_at_exit = not self._drain_grace_wait()
        finally:
            unfinished = list(self.in_flight.values()) + list(self.queue)
            self.in_flight.clear()
            self.queue.clear()
            if unfinished or broken_at_exit:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        return unfinished, self.drain_reason

    def _drain_grace_wait(self) -> bool:
        """Collect in-flight finishers for up to ``drain_grace`` seconds.

        Returns False if the pool broke during the drain (caller must kill
        it); tasks still in flight afterwards stay in ``self.in_flight``
        and are reported as unfinished.
        """
        deadline = time.monotonic() + self.drain_grace
        while self.in_flight:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return True
            done, _ = wait(
                set(self.in_flight),
                timeout=min(remaining, self._POLL_SECONDS),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                task = self.in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    return False
                except Exception as exc:  # noqa: BLE001
                    self._failed(task, f"{type(exc).__name__}: {exc}")
                    continue
                self._completed(task, outcome)
        return True


@contextmanager
def drain_on_signals(executor: ResilientExecutor, enabled: bool = True):
    """Route SIGINT/SIGTERM to a graceful drain while the executor runs.

    First signal: request a drain (stop dispatching, collect what's done).
    Second signal: raise ``KeyboardInterrupt`` immediately.  Handlers are
    only installed from the main thread (Python forbids otherwise) and are
    always restored on exit.
    """
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield
        return
    seen = {"count": 0}

    def handler(signum, frame):  # noqa: ARG001 - signal handler signature
        seen["count"] += 1
        if seen["count"] > 1:
            raise KeyboardInterrupt
        executor.request_drain(signal.Signals(signum).name)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


# -- checkpoint I/O --------------------------------------------------------


def append_checkpoint(path, results: List[Any]) -> None:
    """Append finished trials to a ``trials.jsonl`` checkpoint, torn-write safe.

    Same discipline as ``benchmarks/store.py``: if a previous kill left a
    truncated trailing line, seal it with a newline first (the fragment is
    skipped, with a warning, at load time), then write one JSON line per
    trial and fsync — a SIGKILL mid-append loses at most the row being
    written, never an earlier one.
    """
    path = Path(path)
    needs_newline = False
    if path.exists() and path.stat().st_size:
        with path.open("rb") as fh:
            fh.seek(-1, 2)
            needs_newline = fh.read(1) != b"\n"
    with path.open("a") as fh:
        if needs_newline:
            fh.write("\n")
        for result in results:
            fh.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_checkpoint(path) -> List[Any]:
    """All :class:`TrialResult` rows of a checkpoint (empty for no file).

    Corrupt lines (the torn tail of a killed run) are skipped with a
    warning; when the same ``(experiment, seed)`` appears more than once —
    a checkpoint that accumulated across resumes — the *last* row wins.
    """
    from repro.exp.runner import TrialResult

    path = Path(path)
    if not path.exists():
        return []
    by_key: Dict[Tuple[str, Any], Any] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                result = TrialResult.from_dict(row)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                print(
                    f"resilient: skipping corrupt checkpoint line {lineno} of {path}",
                    file=sys.stderr,
                )
                continue
            by_key[(result.experiment, result.seed)] = result
    return list(by_key.values())
