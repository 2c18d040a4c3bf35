"""The sqlite bench-history analytics layer (`benchmarks/history.py`)."""

import importlib.util
import json
from pathlib import Path


def load_history_mod():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "history.py"
    spec = importlib.util.spec_from_file_location("bench_history_index", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def row(commit, solve, *, seed=0, schema=4, experiment="mis/sparse@dense",
        written_at=1.0, ok=True, **extra):
    base = {
        "schema": schema,
        "commit": commit,
        "experiment": experiment,
        "backend": experiment.rsplit("@", 1)[1] if "@" in experiment else "",
        "seed": seed,
        "ok": ok,
        "error": None,
        "elapsed": solve,
        "written_at": written_at,
        "params": {},
        "metrics": {"solve_seconds": solve},
    }
    if schema >= 2:
        base["setup_seconds"] = 0.02
    if schema >= 3:
        base["attempts"] = 1
    if schema >= 4:
        base["pack_seconds"] = 0.015
        base["rng_seconds"] = 0.005
    base.update(extra)
    return base


def write_jsonl(path, rows):
    with path.open("w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def creeping_history(tmp_path, commits=6, rate=1.08, seeds=3):
    """A cell whose solve median grows ``rate``x per commit."""
    rows = []
    for i in range(commits):
        for seed in range(seeds):
            rows.append(row(f"c{i}", 0.1 * rate ** i, seed=seed,
                            written_at=float(i * 100 + seed)))
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, rows)
    return path


def test_index_normalizes_all_schema_versions(tmp_path):
    hist = load_history_mod()
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, [
        row("c1", 0.1, schema=1),
        row("c1", 0.1, seed=1, schema=2),
        row("c1", 0.1, seed=2, schema=3),
        row("c1", 0.1, seed=3, schema=4),
    ])
    conn = hist.build_index(path)
    got = {
        seed: (setup, pack, rng, attempts)
        for seed, setup, pack, rng, attempts in conn.execute(
            "SELECT seed, setup_seconds, pack_seconds, rng_seconds, attempts "
            "FROM trials ORDER BY seed"
        )
    }
    assert got[0] == (0.0, 0.0, 0.0, 1)        # v1: no setup at all
    assert got[1] == (0.02, 0.02, 0.0, 1)      # v2: pack defaults to setup
    assert got[2] == (0.02, 0.02, 0.0, 1)      # v3: ditto, attempts real
    assert got[3] == (0.02, 0.015, 0.005, 1)   # v4: explicit split
    assert hist.cells(conn) == [("mis/sparse@dense", "dense")]


def test_index_skips_rows_without_experiment(tmp_path):
    hist = load_history_mod()
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, [row("c1", 0.1), {"garbage": True}])
    conn = hist.build_index(path)
    assert conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0] == 1


def test_on_disk_index_round_trips(tmp_path):
    hist = load_history_mod()
    path = creeping_history(tmp_path)
    db = tmp_path / "hist.sqlite"
    hist.build_index(path, db).close()
    conn = hist.open_index(db)
    assert conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0] == 18


def test_latest_commit_and_baseline_selection(tmp_path):
    hist = load_history_mod()
    conn = hist.build_index(creeping_history(tmp_path))
    assert hist.latest_commit(conn) == "c5"
    assert hist.latest_baseline_commit(
        conn, "mis/sparse@dense", "dense", exclude_commit="c5"
    ) == "c4"
    assert hist.latest_baseline_commit(conn, "absent", "dense") is None


def test_cell_samples_only_include_ok_rows(tmp_path):
    hist = load_history_mod()
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, [
        row("c1", 0.1),
        row("c1", 9.9, seed=1, ok=False, error="Timeout"),
    ])
    conn = hist.build_index(path)
    samples = hist.cell_samples(conn, "mis/sparse@dense", "dense", "c1")
    assert samples["solve_seconds"] == [0.1]


def test_trajectory_orders_commits_by_written_at(tmp_path):
    hist = load_history_mod()
    conn = hist.build_index(creeping_history(tmp_path))
    points = hist.trajectory(conn, "mis/sparse@dense", "dense", last=3)
    assert [p[0] for p in points] == ["c3", "c4", "c5"]
    medians = [p[2] for p in points]
    assert medians == sorted(medians)  # creeping upward


def test_slope_fits_a_line():
    hist = load_history_mod()
    assert hist.slope([1.0, 2.0, 3.0]) == 3.0 - 2.0
    assert hist.slope([5.0, 5.0, 5.0]) == 0.0
    assert hist.slope([1.0]) == 0.0


def test_slope_alerts_flag_creep_but_not_flat_cells(tmp_path):
    hist = load_history_mod()
    rows = []
    for i in range(6):
        rows.append(row(f"c{i}", 0.1 * 1.08 ** i, written_at=float(i)))
        rows.append(row(f"c{i}", 0.2, experiment="mis/sparse@reference",
                        written_at=float(i)))
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, rows)
    conn = hist.build_index(path)
    alerts = hist.slope_alerts(conn, hist.cells(conn), k=5, threshold=0.05)
    assert [(a["experiment"], a["backend"]) for a in alerts] == [
        ("mis/sparse@dense", "dense")
    ]
    assert alerts[0]["relative_slope"] > 0.05
    # sub-noise-floor cells never alert, however steep
    assert hist.slope_alerts(conn, hist.cells(conn), k=5, threshold=0.05,
                             min_seconds=10.0) == []


def test_slope_alerts_need_three_commits(tmp_path):
    hist = load_history_mod()
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, [row("c1", 0.1, written_at=1.0),
                       row("c2", 0.5, written_at=2.0)])
    conn = hist.build_index(path)
    assert hist.slope_alerts(conn, hist.cells(conn)) == []


def test_find_regressions_matches_threshold_and_noise_floor(tmp_path):
    hist = load_history_mod()
    conn = hist.build_index(creeping_history(tmp_path))
    cell = ("mis/sparse@dense", "dense")
    current = {cell: {"solve_seconds": [0.5], "setup_seconds": [0.02]}}
    regressions, lines = hist.find_regressions(conn, "HEAD", current)
    assert len(regressions) == 1
    experiment, backend, metric, ref, cur, delta = regressions[0]
    assert (experiment, backend, metric) == (*cell, "solve_seconds")
    assert cur == 0.5 and delta > 0.30
    assert any("<< REGRESSION" in line for line in lines)
    # same current numbers pass a looser threshold
    ok, _ = hist.find_regressions(conn, "HEAD", current, threshold=5.0)
    assert ok == []


def test_annotate_escapes_newlines(capsys):
    hist = load_history_mod()
    hist.annotate("warning", "perf trajectory", "line1\nline2")
    out = capsys.readouterr().out
    assert out == "::warning title=perf trajectory::line1%0Aline2\n"


def test_regressions_cli_exit_codes(tmp_path, capsys):
    hist = load_history_mod()
    path = creeping_history(tmp_path)
    # the creep is ~8%/commit — below the 30% step gate, so exit 0 with a
    # trajectory warning; with a tight threshold the last step fails.
    assert hist.main(["--history", str(path), "regressions"]) == 0
    out = capsys.readouterr().out
    assert "no perf regressions vs the latest baseline commit" in out
    assert "TRAJECTORY WARNING" in out
    assert hist.main(
        ["--history", str(path), "regressions", "--threshold", "0.05"]
    ) == 1


def test_trend_and_compare_cli(tmp_path, capsys):
    hist = load_history_mod()
    path = creeping_history(tmp_path)
    assert hist.main(
        ["--history", str(path), "trend", "--experiment", "mis", "--backend", "dense"]
    ) == 0
    assert "per commit" in capsys.readouterr().out
    assert hist.main(["--history", str(path), "compare", "c0", "c5"]) == 0
    assert "+47%" in capsys.readouterr().out
    assert hist.main(
        ["--history", str(path), "trend", "--experiment", "nope"]
    ) == 1


def test_index_cli_notes_missing_store(tmp_path, capsys):
    hist = load_history_mod()
    missing = tmp_path / "never_bootstrapped.jsonl"
    db = tmp_path / "hist.sqlite"
    assert hist.main(
        ["--history", str(missing), "--db", str(db), "index"]
    ) == 0
    captured = capsys.readouterr()
    assert "no results store" in captured.err
    assert "run_experiments.py" in captured.err
    assert "indexed 0 trials" in captured.out


def test_query_cli_notes_missing_store(tmp_path, capsys):
    hist = load_history_mod()
    missing = tmp_path / "never_bootstrapped.jsonl"
    assert hist.main(["--history", str(missing), "regressions"]) == 0
    captured = capsys.readouterr()
    assert "no results store" in captured.err
    assert "nothing to check" in captured.out


def test_no_note_once_store_exists(tmp_path, capsys):
    hist = load_history_mod()
    path = tmp_path / "hist.jsonl"
    write_jsonl(path, [row("c0", 0.1)])
    db = tmp_path / "hist.sqlite"
    assert hist.main(["--history", str(path), "--db", str(db), "index"]) == 0
    captured = capsys.readouterr()
    assert "no results store" not in captured.err
    assert "indexed 1 trials" in captured.out
