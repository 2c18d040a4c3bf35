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
long sweep.  The *infrastructure* failure modes — a hung worker, a
segfaulted pool, a SIGINT mid-sweep — are handled by the fault-tolerant
execution layer in :mod:`repro.exp.resilient`: per-task ``timeout`` and
``retry`` policies live on :class:`ExperimentSpec`, every finished trial
can be checkpointed to a torn-write-safe ``trials.jsonl``
(``run_sweep(checkpoint=...)``), and a killed sweep restarts where it
died with ``run_sweep(resume=...)``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp.resilient import (
    ResilientExecutor,
    RetryPolicy,
    Task,
    append_checkpoint,
    drain_on_signals,
    load_checkpoint,
)
from repro.utils.validation import require

__all__ = [
    "ExperimentSpec",
    "TrialResult",
    "SweepResult",
    "RetryPolicy",
    "run_sweep",
    "aggregate",
]

#: Workload signature: fn(seed, **params) -> metrics dict.
Workload = Callable[..., Dict[str, Any]]

#: JSON schema version of the sweep result format.  v2 added per-trial
#: ``attempts`` (retry accounting) and the top-level ``drained`` marker;
#: v3 splits the per-trial setup tax into ``pack_seconds`` (graph build +
#: CSR packing) and ``rng_seconds`` (per-run RNG construction) and adds the
#: top-level ``metrics`` snapshot (sweep counters/gauges/histograms).
#: Readers that ignore unknown keys load newer files unchanged.
RESULTS_SCHEMA = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep cell: a workload, its parameters, and the seeds to run.

    Every seed is one task calling ``fn(seed=seed, **params)``.
    ``timeout`` is a per-task wall-clock deadline in seconds (pooled
    execution only — an inline run cannot preempt itself): an overdue
    task's worker is killed, the pool rebuilt, and the trial recorded as
    ``error="Timeout: ..."`` data.  ``retry`` attaches a
    :class:`~repro.exp.resilient.RetryPolicy` for transient failures.
    """

    name: str
    fn: Workload
    params: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0, 1, 2)
    timeout: Optional[float] = None
    retry: Optional[RetryPolicy] = None

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
    attempts: int = 1  #: executions charged (retries + the recorded outcome)
    #: the setup tax split (schema v3): ``pack_seconds`` is the graph build
    #: + CSR packing share of ``setup_seconds``; ``rng_seconds`` the per-run
    #: coin construction of the node views (0 for the dense kernels).
    pack_seconds: float = 0.0
    rng_seconds: float = 0.0

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
            "pack_seconds": self.pack_seconds,
            "rng_seconds": self.rng_seconds,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "TrialResult":
        """Rebuild a trial from its :meth:`to_dict` form (checkpoint rows).

        Tolerant of older rows: ``attempts`` defaults to 1, the v3 setup
        split to ``pack_seconds=setup_seconds`` / ``rng_seconds=0`` when
        absent.
        """
        setup = float(row.get("setup_seconds", 0.0))
        return cls(
            experiment=row["experiment"],
            seed=row["seed"],
            params=row.get("params") or {},
            metrics=row.get("metrics") or {},
            elapsed=float(row.get("elapsed", 0.0)),
            error=row.get("error"),
            setup_seconds=setup,
            attempts=int(row.get("attempts", 1)),
            pack_seconds=float(row.get("pack_seconds", setup)),
            rng_seconds=float(row.get("rng_seconds", 0.0)),
        )


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
    # "pack_seconds"/"rng_seconds" are the v3 split of that tax: graph
    # build + packing vs per-run RNG construction (defaults: the whole
    # setup is packing, no measured RNG cost).
    setup = metrics.pop("setup_seconds", 0.0)
    pack = metrics.pop("pack_seconds", setup)
    rng = metrics.pop("rng_seconds", 0.0)
    return TrialResult(
        experiment=name,
        seed=seed,
        params=dict(params),
        metrics=metrics,
        elapsed=time.perf_counter() - start,
        setup_seconds=float(setup),
        pack_seconds=float(pack),
        rng_seconds=float(rng),
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
        metrics["pack_seconds"] = _stats([t.pack_seconds for t in good]) if good else {}
        metrics["rng_seconds"] = _stats([t.rng_seconds for t in good]) if good else {}
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
    drained: Optional[str] = None  #: signal name if the sweep was drained early
    #: snapshot of the sweep's :class:`~repro.obs.metrics.MetricsRegistry`
    #: (executor lifecycle counters, per-cell timing histograms); None for
    #: results rebuilt from pre-v3 JSON.
    metrics: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Dict[str, Any]]:
        return aggregate(self.trials)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESULTS_SCHEMA,
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "workers": self.workers,
            "elapsed": self.elapsed,
            "drained": self.drained,
            "metrics": self.metrics,
            "experiments": self.summary(),
            "trials": [t.to_dict() for t in self.trials],
        }

    def write_json(self, path: str) -> None:
        """Atomic dump: a kill mid-write can never leave a torn JSON file.

        The document is written to ``path + ".tmp"``, flushed and fsynced,
        then moved into place with ``os.replace`` — readers (CI's
        ``check_regression.py``) see either the old complete file or the
        new complete file, never a prefix.
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


#: Jitter source for inline retries (pool retries use the executor's own).
_INLINE_RNG = random.Random(0xD1CE)


def _run_task_inline(spec: ExperimentSpec, task, collect) -> None:
    """Execute one task in-process, honoring the spec's retry policy.

    Timeouts are pooled-only (an inline run cannot preempt itself); retry
    backoff sleeps apply as configured.  Results carry the attempt count.
    """
    attempts = 0
    while True:
        attempts += 1
        result = _run_trial(*task)
        policy = spec.retry
        if (
            result.error is not None
            and policy is not None
            and attempts < policy.max_attempts
            and policy.is_retryable(result.error)
        ):
            delay = policy.delay(attempts, _INLINE_RNG)
            if delay > 0:
                time.sleep(delay)
            continue
        result.attempts = attempts
        collect(result)
        return


def _apply_resume(spec_tasks, resume):
    """Split tasks into (still-to-run, reused checkpoint results).

    Tasks whose ``(experiment, seed)`` key is already in the checkpoint
    are skipped.  Only checkpoint rows matching a key of the current sweep
    are reused — a checkpoint may hold unrelated experiments.
    """
    prior = {(t.experiment, t.seed): t for t in load_checkpoint(resume)}
    remaining = []
    reused: List[TrialResult] = []
    for spec, task in spec_tasks:
        name, _, _, seed = task
        if (name, seed) in prior:
            reused.append(prior[(name, seed)])
        else:
            remaining.append((spec, task))
    return remaining, reused


def _write_manifest(path, sweep: SweepResult, unfinished) -> None:
    """Failure manifest of a drained sweep: what was *not* completed.

    Carries the sweep's metrics snapshot so the infrastructure state at the
    drain (timeouts, rebuilds, retries) is preserved with the casualty list.
    """
    doc = {
        "drained": sweep.drained,
        "completed": len(sweep.trials),
        "unfinished": [{"experiment": t.name, "seed": t.seed} for t in unfinished],
        "metrics": sweep.metrics,
        "written_at": time.time(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sweep(
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = None,
    json_path: Optional[str] = None,
    progress: Optional[Callable[[TrialResult], None]] = None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    drain_signals: bool = True,
    drain_grace: float = 5.0,
) -> SweepResult:
    """Fan every (spec, seed) trial out and collect results.

    ``workers=None`` uses ``os.cpu_count()`` pool processes; ``workers=0``
    (or a single trial with no timeout) runs inline in this process —
    deterministic ordering, no pickling requirements, the right mode for
    tests.  ``progress`` is invoked once per finished trial (completion
    order).  Trial results are always returned sorted by (experiment,
    seed) so the output is reproducible regardless of scheduling.

    Fault tolerance (see :mod:`repro.exp.resilient`):

    * ``checkpoint`` — append every finished trial to this torn-write-safe
      ``trials.jsonl`` as it completes, so a killed sweep loses nothing
      already done;
    * ``resume`` — load this checkpoint first and skip its completed
      ``(experiment, seed)`` keys; the reused rows appear in the returned
      :class:`SweepResult` alongside the fresh ones.  Pass the same path
      as ``checkpoint`` to restart a killed sweep where it died.
    * Pooled runs honor each spec's ``timeout``/``retry`` and survive
      worker crashes (``BrokenProcessPool`` heals the pool and attributes
      the crash); on SIGINT/SIGTERM (``drain_signals``, main thread only)
      the sweep stops dispatching, collects in-flight trials for up to
      ``drain_grace`` seconds, writes the partial results plus a
      ``<checkpoint or json_path>.manifest.json`` failure manifest, and
      returns with ``SweepResult.drained`` set.
    """
    require(all(isinstance(s, ExperimentSpec) for s in specs), "specs must be ExperimentSpec")
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    spec_tasks = [(spec, t) for spec in specs for t in spec.trials()]
    reused: List[TrialResult] = []
    if resume:
        spec_tasks, reused = _apply_resume(spec_tasks, resume)
        registry.counter("sweep.resume_skips").inc(len(reused))
    if workers is None:
        workers = os.cpu_count() or 1
    start = time.perf_counter()
    results: List[TrialResult] = list(reused)
    if (
        checkpoint
        and reused
        and (not resume or Path(checkpoint).resolve() != Path(resume).resolve())
    ):
        # Resuming into a *different* checkpoint: carry the reused rows
        # over so the new checkpoint is self-contained.
        append_checkpoint(checkpoint, reused)

    def collect(result: TrialResult) -> None:
        results.append(result)
        registry.counter(
            "sweep.trials_completed" if result.ok else "sweep.trials_failed"
        ).inc()
        # Per-cell timing histograms: setup (pack + rng) vs solve seconds,
        # so a sweep's recorded result answers "where did the time go" per
        # experiment without re-reading every trial row.
        registry.histogram(f"cell.{result.experiment}.solve_seconds").observe(
            result.elapsed
        )
        registry.histogram(f"cell.{result.experiment}.setup_seconds").observe(
            result.setup_seconds + result.rng_seconds
        )
        if checkpoint:
            append_checkpoint(checkpoint, [result])
        if progress is not None:
            progress(result)

    drained: Optional[str] = None
    unfinished: List[Task] = []
    has_timeout = any(spec.timeout for spec, _ in spec_tasks)
    if workers <= 0 or (len(spec_tasks) <= 1 and not has_timeout):
        workers = 0
        for spec, task in spec_tasks:
            _run_task_inline(spec, task, collect)
    else:
        tasks = [
            Task(name, fn, params, seed, timeout=spec.timeout, retry=spec.retry)
            for spec, (name, fn, params, seed) in spec_tasks
        ]
        executor = ResilientExecutor(
            tasks, workers, collect, drain_grace=drain_grace, metrics=registry
        )
        with drain_on_signals(executor, enabled=drain_signals):
            unfinished, drained = executor.run()
    results.sort(key=lambda t: (t.experiment, t.seed))
    sweep = SweepResult(
        trials=results,
        workers=workers,
        elapsed=time.perf_counter() - start,
        drained=drained,
        metrics=registry.snapshot(),
    )
    if json_path is not None:
        sweep.write_json(json_path)
    if drained is not None:
        manifest_base = checkpoint or json_path
        if manifest_base:
            _write_manifest(f"{manifest_base}.manifest.json", sweep, unfinished)
    return sweep
