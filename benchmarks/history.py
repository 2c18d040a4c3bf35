#!/usr/bin/env python3
"""Queryable bench-history analytics: a sqlite index over the jsonl store.

``bench_history.jsonl`` (see ``store.py``) is an append-only audit log —
perfect for durability, slow and clumsy for questions.  This module builds
a sqlite index over it, normalizing schema v1–v5 rows into one flat table
keyed by ``(commit, experiment, backend, seed)``, and answers the
trajectory questions CI and humans actually ask::

    python benchmarks/history.py index                      # build the db
    python benchmarks/history.py trend --experiment luby --backend dense
    python benchmarks/history.py compare <commitA> <commitB>
    python benchmarks/history.py regressions                # newest vs prior

Row normalization: v1 rows lack ``setup_seconds`` and are indexed with
0.0; every row gets ``solve_seconds`` lifted out of its metrics dict into a
real column so the hot queries never parse JSON.  The ``attempts``,
``pack_seconds`` and ``rng_seconds`` keys of v3/v4 rows only ever held
constants and are not indexed.

``regressions`` is the CI perf-regression gate.  The sweeps append their
rows to the store first; the gate then compares every cell of the newest
commit against the most recent *other* commit with ok rows for that cell
(a cell with no such commit prints ``(no baseline)`` and passes), and
fails when a median ``solve_seconds`` or ``setup_seconds`` grew by more
than ``--threshold`` over a baseline above the ``--min-seconds`` noise
floor.  It also prints per-(experiment, backend) *trajectory* alerts: the
least-squares slope of per-commit medians over the last k commits, which
catches a cell that creeps 5% per commit without ever tripping the
single-step threshold; they never fail the gate.  With ``--annotate`` the
findings are emitted in GitHub's annotation format (``::warning ...`` /
``::error ...``) so they surface directly on the PR.  CI runs the gate
warn-only on pull requests and hard-fails on main.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sqlite3
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "build_index",
    "open_index",
    "cells",
    "cell_samples",
    "latest_commit",
    "latest_baseline_commit",
    "commit_medians",
    "trajectory",
    "slope",
    "slope_alerts",
    "annotate",
    "find_regressions",
]

#: Timing metrics indexed as real columns (everything else stays in the
#: ``metrics`` JSON blob).
TIMING_METRICS = ("solve_seconds", "setup_seconds")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    commit_hash     TEXT NOT NULL,
    experiment      TEXT NOT NULL,
    backend         TEXT NOT NULL,
    seed            INTEGER,
    ok              INTEGER NOT NULL,
    error           TEXT,
    elapsed         REAL,
    solve_seconds   REAL,
    setup_seconds   REAL,
    row_schema      INTEGER,
    written_at      REAL,
    params          TEXT,
    metrics         TEXT
);
CREATE INDEX IF NOT EXISTS idx_trials_cell
    ON trials (experiment, backend, commit_hash);
CREATE INDEX IF NOT EXISTS idx_trials_commit ON trials (commit_hash);
"""


def _load_store():
    """The sibling ``store.py`` module (benchmarks/ is not a package)."""
    path = Path(__file__).resolve().parent / "store.py"
    spec = importlib.util.spec_from_file_location("bench_store", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


store = _load_store()


def normalize_row(row: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """One history row (any schema v1–v5) as a flat index record.

    Returns None for rows too malformed to index (no experiment).  A
    missing ``setup_seconds`` is indexed as 0.0 (v1) and a missing
    ``backend`` is derived from the experiment name / params (defensive);
    the constant ``attempts``/``pack_seconds``/``rng_seconds`` keys of
    v3/v4 rows are ignored.
    """
    experiment = row.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        return None
    params = row.get("params") or {}
    metrics = row.get("metrics") or {}
    setup = row.get("setup_seconds")
    setup = float(setup) if isinstance(setup, (int, float)) else 0.0
    solve = metrics.get("solve_seconds")
    backend = row.get("backend")
    if not isinstance(backend, str):
        backend = store.backend_of(experiment, params)
    return {
        "commit_hash": str(row.get("commit", "unknown")),
        "experiment": experiment,
        "backend": backend,
        "seed": row.get("seed"),
        "ok": 1 if row.get("ok") else 0,
        "error": row.get("error"),
        "elapsed": float(row.get("elapsed", 0.0) or 0.0),
        "solve_seconds": float(solve) if isinstance(solve, (int, float)) else None,
        "setup_seconds": setup,
        "row_schema": int(row.get("schema", 1) or 1),
        "written_at": float(row.get("written_at", 0.0) or 0.0),
        "params": json.dumps(params, sort_keys=True),
        "metrics": json.dumps(metrics, sort_keys=True),
    }


def build_index(history_path, db_path=None) -> sqlite3.Connection:
    """Build (or rebuild) the sqlite index from the jsonl store.

    ``db_path=None`` builds in memory — the mode the CI gate uses, since
    the index is cheap to rebuild and the jsonl stays the source of truth.
    An on-disk index is rebuilt from scratch on every call (the store is
    append-only, so incremental indexing buys nothing worth the
    torn-state risk).
    """
    rows = store.load_history(history_path)
    conn = sqlite3.connect(db_path if db_path is not None else ":memory:")
    conn.executescript("DROP TABLE IF EXISTS trials;")
    conn.executescript(_SCHEMA)
    records = [r for r in (normalize_row(row) for row in rows) if r is not None]
    if records:
        keys = list(records[0].keys())
        conn.executemany(
            f"INSERT INTO trials ({', '.join(keys)}) "
            f"VALUES ({', '.join(':' + k for k in keys)})",
            records,
        )
    conn.commit()
    return conn


def open_index(db_path) -> sqlite3.Connection:
    """Open an existing on-disk index built by :func:`build_index`."""
    return sqlite3.connect(db_path)


def cells(conn: sqlite3.Connection) -> List[Tuple[str, str]]:
    """All distinct ``(experiment, backend)`` cells in the index."""
    return [
        (e, b)
        for e, b in conn.execute(
            "SELECT DISTINCT experiment, backend FROM trials ORDER BY 1, 2"
        )
    ]


def cell_samples(
    conn: sqlite3.Connection, experiment: str, backend: str, commit: str
) -> Dict[str, List[float]]:
    """Ok-row timing samples of one cell at one commit, per metric."""
    out: Dict[str, List[float]] = {m: [] for m in TIMING_METRICS}
    cols = ", ".join(TIMING_METRICS)
    for values in conn.execute(
        f"SELECT {cols} FROM trials "
        "WHERE experiment = ? AND backend = ? AND commit_hash = ? AND ok = 1",
        (experiment, backend, commit),
    ):
        for metric, value in zip(TIMING_METRICS, values):
            if value is not None:
                out[metric].append(float(value))
    return out


def latest_commit(conn: sqlite3.Connection) -> Optional[str]:
    """The most recently written commit in the index (None when empty)."""
    row = conn.execute(
        "SELECT commit_hash FROM trials GROUP BY commit_hash "
        "ORDER BY MAX(written_at) DESC LIMIT 1"
    ).fetchone()
    return row[0] if row else None


def latest_baseline_commit(
    conn: sqlite3.Connection,
    experiment: str,
    backend: str,
    exclude_commit: Optional[str] = None,
) -> Optional[str]:
    """The newest other commit with ok rows for one cell (baseline rule).

    Groups the cell's ok rows by commit, drops ``exclude_commit``, and
    picks the commit written last.
    """
    row = conn.execute(
        "SELECT commit_hash FROM trials "
        "WHERE experiment = ? AND backend = ? AND ok = 1 "
        "AND (? IS NULL OR commit_hash != ?) "
        "GROUP BY commit_hash ORDER BY MAX(written_at) DESC LIMIT 1",
        (experiment, backend, exclude_commit, exclude_commit),
    ).fetchone()
    return row[0] if row else None


def commit_medians(
    conn: sqlite3.Connection, experiment: str, backend: str, metric: str
) -> List[Tuple[str, float, float]]:
    """Per-commit ``(commit, written_at, median)`` for one cell metric,
    oldest first — the cell's recorded trajectory."""
    if metric not in TIMING_METRICS:
        raise ValueError(f"metric must be one of {TIMING_METRICS}, got {metric!r}")
    by_commit: Dict[str, Tuple[float, List[float]]] = {}
    for commit, written_at, value in conn.execute(
        f"SELECT commit_hash, written_at, {metric} FROM trials "
        "WHERE experiment = ? AND backend = ? AND ok = 1",
        (experiment, backend),
    ):
        when, values = by_commit.setdefault(commit, (0.0, []))
        by_commit[commit] = (max(when, written_at or 0.0), values)
        if value is not None:
            values.append(float(value))
    points = [
        (commit, when, statistics.median(values))
        for commit, (when, values) in by_commit.items()
        if values
    ]
    points.sort(key=lambda p: p[1])
    return points


def trajectory(
    conn: sqlite3.Connection,
    experiment: str,
    backend: str,
    metric: str = "solve_seconds",
    last: Optional[int] = None,
) -> List[Tuple[str, float, float]]:
    """The last ``last`` points of :func:`commit_medians` (all when None)."""
    points = commit_medians(conn, experiment, backend, metric)
    return points[-last:] if last else points


def slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against their index.

    The trajectory detector's core: with per-commit medians as input, the
    slope is "seconds gained per commit" — divide by the mean to get the
    relative creep rate.
    """
    n = len(values)
    if n < 2:
        return 0.0
    xs = range(n)
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, values)) / denom


def slope_alerts(
    conn: sqlite3.Connection,
    cell_keys: Sequence[Tuple[str, str]],
    metric: str = "solve_seconds",
    k: int = 5,
    threshold: float = 0.05,
    min_seconds: float = 0.01,
) -> List[Dict[str, Any]]:
    """Trajectory alerts: cells creeping upward over the last ``k`` commits.

    For each cell, fits :func:`slope` to the per-commit medians of
    ``metric`` over its last ``k`` commits; an alert fires when the
    relative slope (slope / mean median) exceeds ``threshold`` per commit
    and the mean median is above the ``min_seconds`` noise floor.  Needs at
    least 3 commits of history — two points cannot distinguish creep from a
    single step, which the threshold gate already covers.
    """
    alerts = []
    for experiment, backend in cell_keys:
        points = trajectory(conn, experiment, backend, metric, last=k)
        if len(points) < 3:
            continue
        medians = [p[2] for p in points]
        mean = sum(medians) / len(medians)
        if mean < min_seconds:
            continue
        rel = slope(medians) / mean if mean > 0 else 0.0
        if rel > threshold:
            alerts.append({
                "experiment": experiment,
                "backend": backend,
                "metric": metric,
                "commits": [p[0] for p in points],
                "medians": medians,
                "relative_slope": rel,
            })
    return alerts


def annotate(level: str, title: str, message: str) -> None:
    """Emit one GitHub-annotation-format line (``::warning``/``::error``).

    Newlines are escaped per the workflow-command spec so multi-line
    messages stay one annotation.
    """
    message = message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    title = title.replace("%", "%25").replace(":", "").replace(",", "")
    print(f"::{level} title={title}::{message}")


def find_regressions(
    conn: sqlite3.Connection,
    current_commit: str,
    current_cells: Dict[Tuple[str, str], Dict[str, List[float]]],
    threshold: float = 0.30,
    min_seconds: float = 0.01,
    metrics: Sequence[str] = TIMING_METRICS,
) -> Tuple[List[Tuple], List[str]]:
    """Step regressions of the current samples vs each cell's baseline.

    ``current_cells`` maps ``(experiment, backend)`` to per-metric sample
    lists (from the current run's artifacts, or :func:`cell_samples` of the
    newest indexed commit).  Returns ``(regressions, table_lines)`` where
    each regression is ``(experiment, backend, metric, baseline_median,
    current_median, delta)`` and ``table_lines`` is the printable
    cell-by-cell report.
    """
    regressions: List[Tuple] = []
    lines: List[str] = []
    width = max((len(f"{e} [{b}]") for e, b in current_cells), default=10) + 2
    lines.append(
        f"{'cell':<{width}} {'metric':<14} {'baseline':>10} {'current':>10} {'delta':>8}"
    )
    for (experiment, backend) in sorted(current_cells):
        base_commit = latest_baseline_commit(
            conn, experiment, backend, exclude_commit=current_commit
        )
        if base_commit is None:
            lines.append(
                f"{f'{experiment} [{backend}]':<{width}} {'-':<14} {'(no baseline)':>10}"
            )
            continue
        base = cell_samples(conn, experiment, backend, base_commit)
        for metric in metrics:
            cur_vals = current_cells[(experiment, backend)].get(metric, [])
            base_vals = base.get(metric, [])
            if not cur_vals or not base_vals:
                continue
            cur = statistics.median(cur_vals)
            ref = statistics.median(base_vals)
            delta = (cur - ref) / ref if ref > 0 else 0.0
            flag = ""
            if delta > threshold and ref >= min_seconds:
                regressions.append((experiment, backend, metric, ref, cur, delta))
                flag = "  << REGRESSION"
            elif delta > threshold:
                flag = "  (below noise floor, ignored)"
            lines.append(
                f"{f'{experiment} [{backend}]':<{width}} {metric:<14} "
                f"{ref:>10.4f} {cur:>10.4f} {delta:>+7.0%}{flag}"
            )
    return regressions, lines


# -- CLI --------------------------------------------------------------------


def _missing_store_note(history) -> None:
    """Friendly hint when the jsonl store has never been bootstrapped."""
    print(
        f"note: no results store at {history} yet — run "
        "'python benchmarks/run_experiments.py' (its --history default "
        "bootstraps the store) and re-index",
        file=sys.stderr,
    )


def _cmd_index(args) -> int:
    if not Path(args.history).exists():
        _missing_store_note(args.history)
    conn = build_index(args.history, args.db)
    count = conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
    commits = conn.execute(
        "SELECT COUNT(DISTINCT commit_hash) FROM trials"
    ).fetchone()[0]
    print(f"indexed {count} trials across {commits} commits into {args.db}")
    return 0


def _connect(args) -> sqlite3.Connection:
    """The index for a query command: reuse ``--db`` if built, else build
    in memory from the jsonl store."""
    if args.db and Path(args.db).exists():
        return open_index(args.db)
    if not Path(args.history).exists():
        _missing_store_note(args.history)
    return build_index(args.history)


def _cmd_trend(args) -> int:
    conn = _connect(args)
    matched = [
        (e, b)
        for e, b in cells(conn)
        if args.experiment in e and (not args.backend or b == args.backend)
    ]
    if not matched:
        print(f"no cells match experiment~{args.experiment!r} backend={args.backend!r}")
        return 1
    for experiment, backend in matched:
        points = trajectory(conn, experiment, backend, args.metric, last=args.last)
        if not points:
            continue
        print(f"{experiment} [{backend}] — {args.metric} median per commit:")
        peak = max(p[2] for p in points)
        for commit, _, median in points:
            bar = "#" * max(1, int(40 * median / peak)) if peak > 0 else ""
            print(f"  {commit:>12}  {median:>10.4f}s  {bar}")
        medians = [p[2] for p in points]
        mean = sum(medians) / len(medians)
        rel = slope(medians) / mean if mean > 0 else 0.0
        print(f"  trend: {rel:+.1%} per commit over {len(points)} commits\n")
    return 0


def _cmd_compare(args) -> int:
    conn = _connect(args)
    keys = [
        (e, b)
        for e, b in cells(conn)
        if cell_samples(conn, e, b, args.commit_a)["solve_seconds"]
        or cell_samples(conn, e, b, args.commit_a)["setup_seconds"]
    ]
    if not keys:
        print(f"no trials recorded for commit {args.commit_a}")
        return 1
    width = max(len(f"{e} [{b}]") for e, b in keys) + 2
    print(
        f"{'cell':<{width}} {'metric':<14} {args.commit_a:>12} {args.commit_b:>12} {'delta':>8}"
    )
    shown = 0
    for experiment, backend in keys:
        a = cell_samples(conn, experiment, backend, args.commit_a)
        b = cell_samples(conn, experiment, backend, args.commit_b)
        for metric in TIMING_METRICS:
            if not a[metric] or not b[metric]:
                continue
            ma = statistics.median(a[metric])
            mb = statistics.median(b[metric])
            delta = (mb - ma) / ma if ma > 0 else 0.0
            print(
                f"{f'{experiment} [{backend}]':<{width}} {metric:<14} "
                f"{ma:>12.4f} {mb:>12.4f} {delta:>+7.0%}"
            )
            shown += 1
    if not shown:
        print(f"commits {args.commit_a} and {args.commit_b} share no measured cells")
        return 1
    return 0


def _cmd_regressions(args) -> int:
    conn = _connect(args)
    current = latest_commit(conn)
    if current is None:
        print(f"no history at {args.history}; nothing to check")
        return 0
    keys = [
        (e, b)
        for e, b in cells(conn)
        if any(cell_samples(conn, e, b, current)[m] for m in TIMING_METRICS)
    ]
    current_cells = {
        key: cell_samples(conn, key[0], key[1], current) for key in keys
    }
    regressions, lines = find_regressions(
        conn, current, current_cells,
        threshold=args.threshold, min_seconds=args.min_seconds,
    )
    print(f"current commit: {current}")
    for line in lines:
        print(line)
    alerts = slope_alerts(
        conn, keys, k=args.slope_k,
        threshold=args.slope_threshold, min_seconds=args.min_seconds,
    )
    for alert in alerts:
        msg = (
            f"{alert['experiment']} [{alert['backend']}] {alert['metric']} "
            f"median creeping {alert['relative_slope']:+.1%}/commit over the "
            f"last {len(alert['commits'])} commits: "
            + " -> ".join(f"{m:.4f}s" for m in alert["medians"])
        )
        if args.annotate:
            annotate("warning", "perf trajectory", msg)
        else:
            print(f"TRAJECTORY WARNING: {msg}")
    if regressions:
        print(
            f"\n{len(regressions)} cell metric(s) regressed more than "
            f"{args.threshold:.0%} vs the latest baseline commit:",
            file=sys.stderr,
        )
        for experiment, backend, metric, ref, cur, delta in regressions:
            detail = (
                f"{experiment} [{backend}] {metric}: "
                f"{ref:.4f}s -> {cur:.4f}s ({delta:+.0%})"
            )
            print(f"  {detail}", file=sys.stderr)
            if args.annotate:
                annotate("error", "perf regression", detail)
        return 1
    print("\nno perf regressions vs the latest baseline commit")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", default="bench_history.jsonl",
                        help="jsonl results store to index")
    parser.add_argument("--db", default=None,
                        help="sqlite index path (in-memory when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the sqlite index from the jsonl store")
    p_index.set_defaults(fn=_cmd_index)

    p_trend = sub.add_parser("trend", help="per-commit medians for matching cells")
    p_trend.add_argument("--experiment", required=True,
                         help="substring match on experiment names")
    p_trend.add_argument("--backend", default=None, help="exact backend filter")
    p_trend.add_argument("--metric", default="solve_seconds", choices=TIMING_METRICS)
    p_trend.add_argument("--last", type=int, default=None,
                         help="only the most recent K commits")
    p_trend.set_defaults(fn=_cmd_trend)

    p_cmp = sub.add_parser("compare", help="per-cell median deltas between two commits")
    p_cmp.add_argument("commit_a")
    p_cmp.add_argument("commit_b")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_reg = sub.add_parser(
        "regressions", help="newest commit vs its baseline + trajectory alerts"
    )
    p_reg.add_argument("--threshold", type=float, default=0.30,
                       help="max allowed median slowdown (0.30 = +30%%)")
    p_reg.add_argument("--min-seconds", type=float, default=0.01,
                       help="noise floor for baseline medians")
    p_reg.add_argument("--slope-k", type=int, default=5,
                       help="trajectory window in commits")
    p_reg.add_argument("--slope-threshold", type=float, default=0.05,
                       help="relative creep per commit that triggers a warning")
    p_reg.add_argument("--annotate", action="store_true",
                       help="emit GitHub ::warning/::error annotations")
    p_reg.set_defaults(fn=_cmd_regressions)

    args = parser.parse_args(argv)
    if args.db is None and args.command == "index":
        args.db = "bench_history.sqlite"
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
