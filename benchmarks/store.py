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
    "backend_of",
    "history_rows",
    "append_history",
    "load_history",
]

#: Schema version of one history row.  v2 added ``setup_seconds`` (the
#: amortized one-off scenario setup each trial paid); v3 added
#: ``attempts`` and v4 ``pack_seconds`` / ``rng_seconds``; v5 drops those
#: three again, since every sweep trial is one execution with no separate
#: packing or RNG set-up, so they only ever held ``1``, ``setup_seconds``
#: and ``0.0``.  Older rows load fine — readers treat a missing
#: ``setup_seconds`` as 0.0 and ignore the dropped keys.
HISTORY_SCHEMA = 5


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


def backend_of(experiment: str, params: Optional[Dict[str, Any]]) -> str:
    """The execution-backend axis of one trial or history row.

    Sweep cells encode it as an ``@backend`` name suffix
    (``mis/sparse@dense``, ``scenario/luby/crash@reference``); cells without
    the suffix fall back to their ``backend=`` param.
    """
    if "@" in experiment:
        return experiment.rsplit("@", 1)[1]
    return str((params or {}).get("backend") or "")


def history_rows(sweep, commit: Optional[str] = None) -> List[Dict[str, Any]]:
    """One flat dict per trial of a :class:`~repro.exp.SweepResult`."""
    commit = commit or current_commit()
    written_at = time.time()
    return [
        {
            "schema": HISTORY_SCHEMA,
            "commit": commit,
            "experiment": t.experiment,
            "backend": backend_of(t.experiment, t.params),
            "seed": t.seed,
            "ok": t.ok,
            "error": t.error,
            "elapsed": t.elapsed,
            "setup_seconds": t.setup_seconds,
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
