"""Seed fan-out, process-pool execution, aggregation, JSON results.

An :class:`ExperimentSpec` is one named cell of a sweep: a workload
function plus fixed parameters, to be run once per seed.  Workload
functions must be *picklable* (module-level, importable — see
:mod:`repro.exp.workloads`) and have the signature::

    fn(seed: int, **params) -> Dict[str, number]

returning a flat dict of metrics.  :func:`run_sweep` fans all (spec, seed)
trials out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``workers=0`` runs inline, which is what the tests and small sweeps use),
times each trial, and returns a :class:`SweepResult` that aggregates
per-seed metrics into mean/std/min/max and serializes to JSON.

Failures are data, not crashes: a trial that raises is recorded with its
error string and excluded from aggregation, so one bad cell cannot sink a
long sweep.  A dead worker (``BrokenProcessPool``) or a Ctrl-C fails the
whole sweep instead; sweeps take seconds, so the remedy is to re-run it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.validation import require, require_nonnegative

__all__ = [
    "ExperimentSpec",
    "TrialResult",
    "SweepResult",
    "run_sweep",
    "aggregate",
]

#: Workload signature: fn(seed, **params) -> metrics dict.
Workload = Callable[..., Dict[str, Any]]

#: JSON schema version of the sweep result format.  v4 drops what v2/v3
#: added for the retrying executor: per-trial ``attempts`` and setup-time
#: split, top-level ``drained`` and ``metrics``; every other key is as in v3.
RESULTS_SCHEMA = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep cell: a workload, its parameters, and the seeds to run.

    Every seed is one task calling ``fn(seed=seed, **params)``.
    """

    name: str
    fn: Workload
    params: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0, 1, 2)

    def trials(self) -> List[Tuple[str, Workload, Dict[str, Any], int]]:
        """The (name, fn, params, seed) tuples to fan out, one per seed."""
        return [(self.name, self.fn, dict(self.params), int(s)) for s in self.seeds]


@dataclass
class TrialResult:
    """Outcome of one (experiment, seed) execution."""

    experiment: str
    seed: int
    params: Dict[str, Any]
    metrics: Dict[str, Any]
    elapsed: float  #: wall-clock seconds for the workload call
    error: Optional[str] = None  #: exception repr if the trial failed
    setup_seconds: float = 0.0  #: one-off scenario setup (engine packing) paid by this trial

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": self.params,
            "metrics": self.metrics,
            "elapsed": self.elapsed,
            "setup_seconds": self.setup_seconds,
            "error": self.error,
        }


def _run_trial(
    name: str, fn: Workload, params: Dict[str, Any], seed: int
) -> TrialResult:
    """Execute one trial; module-level so it pickles into pool workers.

    Every :class:`TrialResult` gets its own *copy* of ``params``: siblings
    sharing one mutable dict would let a params-mutating workload corrupt
    already-recorded rows.
    """
    start = time.perf_counter()
    try:
        metrics = fn(seed=seed, **params)
    except Exception as exc:  # noqa: BLE001 - failures are sweep data
        return TrialResult(
            experiment=name,
            seed=seed,
            params=dict(params),
            metrics={},
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    if not isinstance(metrics, dict):
        metrics = {"result": metrics}
    if "elapsed" in metrics:
        # "elapsed" is reserved for the runner's wall-clock measurement;
        # keep the workload's own value under an explicit name instead of
        # letting aggregation silently clobber one with the other.
        metrics["workload_elapsed"] = metrics.pop("elapsed")
    # "setup_seconds" is the reserved channel for one-off scenario setup
    # (CSR engine packing) amortized across a scenario's trials: the trial
    # that built the engine reports the build time, cache hits report 0, so
    # the JSON record separates build cost from per-trial solve cost.
    setup = metrics.pop("setup_seconds", 0.0)
    return TrialResult(
        experiment=name,
        seed=seed,
        params=dict(params),
        metrics=metrics,
        elapsed=time.perf_counter() - start,
        setup_seconds=float(setup),
    )


def aggregate(trials: Sequence[TrialResult]) -> Dict[str, Dict[str, Any]]:
    """Reduce trials to per-experiment summaries.

    For every numeric metric (plus ``elapsed`` and ``setup_seconds``)
    reports mean/std/min/max over the successful seeds; also reports seed
    counts and any errors.  The ``elapsed`` key always holds the runner's
    wall-clock trial timing — a workload metric of that name is stored as
    ``workload_elapsed`` — and ``setup_seconds`` the amortized one-off
    scenario setup cost (see :func:`_run_trial`).
    """
    by_experiment: Dict[str, List[TrialResult]] = {}
    for t in trials:
        by_experiment.setdefault(t.experiment, []).append(t)
    summary: Dict[str, Dict[str, Any]] = {}
    for name, group in by_experiment.items():
        good = [t for t in group if t.ok]
        metrics: Dict[str, Dict[str, float]] = {}
        keys: List[str] = []
        for t in good:
            for k in t.metrics:
                if k not in keys:
                    keys.append(k)
        for k in keys:
            values = [
                t.metrics[k]
                for t in good
                if isinstance(t.metrics.get(k), (int, float))
                and not isinstance(t.metrics.get(k), bool)
            ]
            if values:
                metrics[k] = _stats(values)
        metrics["elapsed"] = _stats([t.elapsed for t in good]) if good else {}
        metrics["setup_seconds"] = _stats([t.setup_seconds for t in good]) if good else {}
        summary[name] = {
            "params": group[0].params,
            "seeds": [t.seed for t in group],
            "ok": len(good),
            "failed": len(group) - len(good),
            "errors": [t.error for t in group if not t.ok],
            "metrics": metrics,
        }
    return summary


def _stats(values: Sequence[float]) -> Dict[str, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {
        "mean": mean,
        "std": math.sqrt(var),
        "min": min(values),
        "max": max(values),
        "n": n,
    }


@dataclass
class SweepResult:
    """All trials of a sweep plus derived aggregates and JSON export."""

    trials: List[TrialResult]
    workers: int
    elapsed: float  #: wall-clock seconds for the whole sweep

    def summary(self) -> Dict[str, Dict[str, Any]]:
        return aggregate(self.trials)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESULTS_SCHEMA,
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "workers": self.workers,
            "elapsed": self.elapsed,
            "experiments": self.summary(),
            "trials": [t.to_dict() for t in self.trials],
        }

    def write_json(self, path: str) -> None:
        """Atomic dump: a kill mid-write can never leave a torn JSON file.

        The document is written to ``path + ".tmp"``, flushed and fsynced,
        then moved into place with ``os.replace`` — readers see either the
        old complete file or the new complete file, never a prefix.
        """
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def run_sweep(
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = None,
    json_path: Optional[str] = None,
    progress: Optional[Callable[[TrialResult], None]] = None,
) -> SweepResult:
    """Fan every (spec, seed) trial out and collect results.

    ``workers=None`` uses ``os.cpu_count()`` pool processes; ``workers=0``
    (or a single trial) runs inline in this process — deterministic
    ordering, no pickling requirements, the right mode for tests.
    ``progress`` is invoked once per finished trial (completion order).
    Trial results are always returned sorted by (experiment, seed) so the
    output is reproducible regardless of scheduling.

    A workload exception is a failed-trial row (see :func:`_run_trial`).
    Anything that escapes collection — ``BrokenProcessPool`` from a dead
    worker, ``KeyboardInterrupt``, a raising ``progress`` — cancels the
    queued trials and propagates.
    """
    require(all(isinstance(s, ExperimentSpec) for s in specs), "specs must be ExperimentSpec")
    if workers is None:
        workers = os.cpu_count() or 1
    require_nonnegative(workers, "workers")
    tasks = [t for spec in specs for t in spec.trials()]
    start = time.perf_counter()
    results: List[TrialResult] = []

    def collect(result: TrialResult) -> None:
        results.append(result)
        if progress is not None:
            progress(result)

    if workers == 0 or len(tasks) <= 1:
        workers = 0
        for task in tasks:
            collect(_run_trial(*task))
    else:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
        futures = []
        try:
            for task in tasks:
                futures.append(pool.submit(_run_trial, *task))
            for future in as_completed(futures):
                collect(future.result())
        except BaseException:
            # Cancel here, not through shutdown(cancel_futures=True) alone:
            # the pool's manager thread cancels later, and not at all once
            # the executor is collected, which a caller dropping this
            # exception can make happen first.  Then every trial would run.
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
    results.sort(key=lambda t: (t.experiment, t.seed))
    sweep = SweepResult(
        trials=results, workers=workers, elapsed=time.perf_counter() - start
    )
    if json_path is not None:
        sweep.write_json(json_path)
    return sweep
