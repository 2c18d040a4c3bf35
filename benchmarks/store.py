"""Append-only results store for experiment sweeps.

``BENCH_*.json`` files are one-artifact-per-run; this module keeps the
*trajectory*: every trial of every ``run_experiments.py`` invocation is
appended as one JSON line to ``bench_history.jsonl``, keyed by
``(git commit, experiment, backend, seed)``, so perf and resilience
numbers are queryable across PRs instead of buried in per-run artifacts::

    import store
    rows = store.load_history("bench_history.jsonl")
    luby = [r for r in rows if r["experiment"].startswith("mis/") and r["ok"]]

The format is deliberately minimal (the ROADMAP's "results store" item,
jsonl cut): flat rows, schema-versioned, safe to append from concurrent CI
steps (one ``write`` per line).  CI uploads the file alongside the BENCH
artifacts.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "current_commit",
    "bootstrap_history",
    "history_rows",
    "append_history",
    "load_history",
    "latest_baseline",
]

#: Schema version of one history row.  v2 added ``setup_seconds`` (the
#: amortized one-off scenario setup each trial paid); v3 added
#: ``attempts`` (executions the fault-tolerant runner charged, > 1 when a
#: trial was retried); v4 splits the setup tax into ``pack_seconds``
#: (graph build + CSR packing) and ``rng_seconds`` (per-run RNG
#: construction).  Older rows load fine — readers
#: treat the keys as 0.0 / 1 when absent (``pack_seconds`` defaults to the
#: row's ``setup_seconds``).
HISTORY_SCHEMA = 4


def current_commit(cwd: Optional[str] = None) -> str:
    """Short git commit hash of the working tree, ``"unknown"`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else "unknown"


def bootstrap_history(path) -> bool:
    """Ensure the jsonl store at ``path`` exists; True when newly created.

    Fresh clones ship no ``bench_history.jsonl`` — the first
    ``run_experiments.py --history`` run bootstraps it here (parent
    directories included) so later appends, index builds and CI
    regression checks all find a real file instead of special-casing
    absence.  An existing store is left untouched.
    """
    path = Path(path)
    if path.exists():
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    path.touch()
    return True


def _backend_of(trial) -> str:
    """The execution-backend axis of one trial.

    Sweep cells encode it as an ``@backend`` name suffix
    (``mis/sparse@dense``, ``scenario/luby/crash@reference``); cells without
    the suffix fall back to their params (``backend=`` or the splitting
    workload's ``method=``).
    """
    if "@" in trial.experiment:
        return trial.experiment.rsplit("@", 1)[1]
    params = trial.params or {}
    return str(params.get("backend") or params.get("method") or "")


def history_rows(sweep, commit: Optional[str] = None) -> List[Dict[str, Any]]:
    """One flat dict per trial of a :class:`~repro.exp.SweepResult`."""
    commit = commit or current_commit()
    written_at = time.time()
    return [
        {
            "schema": HISTORY_SCHEMA,
            "commit": commit,
            "experiment": t.experiment,
            "backend": _backend_of(t),
            "seed": t.seed,
            "ok": t.ok,
            "error": t.error,
            "elapsed": t.elapsed,
            "setup_seconds": t.setup_seconds,
            "pack_seconds": getattr(t, "pack_seconds", t.setup_seconds),
            "rng_seconds": getattr(t, "rng_seconds", 0.0),
            "attempts": getattr(t, "attempts", 1),
            "written_at": written_at,
            "params": t.params,
            "metrics": t.metrics,
        }
        for t in sweep.trials
    ]


def append_history(sweep, path, commit: Optional[str] = None) -> int:
    """Append every trial of ``sweep`` to the jsonl store at ``path``.

    Returns the number of rows written.  The file is created on first use;
    rows are never rewritten, so the store is an audit log — dedup on
    ``(commit, experiment, backend, seed)`` at query time if a sweep is
    re-run on one commit.
    """
    rows = history_rows(sweep, commit=commit)
    path = Path(path)
    # A crash-interrupted append can leave a truncated trailing line with
    # no newline; sealing it off before writing keeps the new rows parseable
    # (the torn fragment itself is skipped, with a warning, at load time).
    needs_newline = False
    if path.exists() and path.stat().st_size:
        with path.open("rb") as fh:
            fh.seek(-1, 2)
            needs_newline = fh.read(1) != b"\n"
    with path.open("a") as fh:
        if needs_newline:
            fh.write("\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def load_history(path) -> List[Dict[str, Any]]:
    """All rows of a jsonl store (empty list for a missing file).

    Undecodable lines — a torn tail from a crash-interrupted append — are
    skipped with a warning instead of sinking the whole load: the store is
    an audit log, and one corrupt line must not make the history unusable.
    """
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                print(
                    f"store: skipping corrupt line {lineno} of {path}",
                    file=sys.stderr,
                )
    return rows


def latest_baseline(
    rows: List[Dict[str, Any]],
    experiment: str,
    backend: str,
    exclude_commit: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """The most recent commit's ok rows for one ``(experiment, backend)``.

    Groups the cell's successful rows by commit, picks the commit whose
    rows were written last (``written_at``), and returns all of that
    commit's rows — the regression checker's baseline population.
    ``exclude_commit`` drops one commit from consideration (the current
    run's own rows, when the history already contains them).  Returns
    ``[]`` when the cell has no usable history.
    """
    by_commit: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        if not row.get("ok"):
            continue
        if row.get("experiment") != experiment or row.get("backend") != backend:
            continue
        commit = str(row.get("commit", "unknown"))
        if exclude_commit is not None and commit == exclude_commit:
            continue
        by_commit.setdefault(commit, []).append(row)
    if not by_commit:
        return []
    newest = max(
        by_commit, key=lambda c: max(r.get("written_at", 0.0) for r in by_commit[c])
    )
    return by_commit[newest]
