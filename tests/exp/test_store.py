"""The append-only results store (`benchmarks/store.py`)."""

import importlib.util
import json
from pathlib import Path

from repro.exp import ExperimentSpec, run_sweep
from repro.exp.workloads import luby_mis_workload


def load_store():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "store.py"
    spec = importlib.util.spec_from_file_location("bench_store", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def tiny_sweep():
    spec = ExperimentSpec(
        "mis/sparse@reference",
        luby_mis_workload,
        {"topology": "sparse", "n": 80, "degree": 4, "backend": "reference"},
        seeds=(0, 1),
    )
    return run_sweep([spec], workers=0)


class TestHistoryStore:
    def test_rows_are_keyed_by_commit_experiment_backend_seed(self):
        store = load_store()
        sweep = tiny_sweep()
        rows = store.history_rows(sweep, commit="abc123")
        assert len(rows) == 2
        for row, trial in zip(rows, sweep.trials):
            assert row["commit"] == "abc123"
            assert row["experiment"] == "mis/sparse@reference"
            assert row["backend"] == "reference"  # parsed off the @suffix
            assert row["seed"] == trial.seed
            assert row["ok"] and row["error"] is None
            assert row["metrics"]["n"] == 80
            assert row["schema"] == store.HISTORY_SCHEMA
            # the history row schema outlives the trial fields it came from
            assert row["attempts"] == 1
            assert row["pack_seconds"] == trial.setup_seconds
            assert row["rng_seconds"] == 0.0

    def test_append_is_cumulative_and_loadable(self, tmp_path):
        store = load_store()
        sweep = tiny_sweep()
        path = tmp_path / "bench_history.jsonl"
        assert store.append_history(sweep, path, commit="one") == 2
        assert store.append_history(sweep, path, commit="two") == 2
        rows = store.load_history(path)
        assert [r["commit"] for r in rows] == ["one", "one", "two", "two"]
        # every line is standalone json (concurrent appenders stay safe)
        with path.open() as fh:
            for line in fh:
                json.loads(line)

    def test_missing_file_loads_empty(self, tmp_path):
        store = load_store()
        assert store.load_history(tmp_path / "nope.jsonl") == []

    def test_commit_discovery_never_raises(self, tmp_path):
        store = load_store()
        assert store.current_commit(str(tmp_path)) == "unknown"  # not a repo
        assert isinstance(store.current_commit(), str)

    def test_backend_falls_back_to_params(self):
        store = load_store()
        sweep = tiny_sweep()
        trial = sweep.trials[0]
        trial.experiment = "splitting/local"
        trial.params = {"method": "local"}
        assert store.history_rows(sweep, commit="c")[0]["backend"] == "local"

    def test_rows_carry_setup_seconds(self):
        store = load_store()
        rows = store.history_rows(tiny_sweep(), commit="c")
        assert all("setup_seconds" in r for r in rows)
        assert all(isinstance(r["setup_seconds"], float) for r in rows)


class TestCorruptTrailingLine:
    """A crash-interrupted append must not sink the store."""

    def test_load_skips_undecodable_lines(self, tmp_path, capsys):
        store = load_store()
        path = tmp_path / "bench_history.jsonl"
        store.append_history(tiny_sweep(), path, commit="one")
        with path.open("a") as fh:
            fh.write('{"torn": tru')  # truncated mid-write, no newline
        rows = store.load_history(path)
        assert [r["commit"] for r in rows] == ["one", "one"]
        assert "skipping corrupt line" in capsys.readouterr().err

    def test_append_seals_torn_tail(self, tmp_path):
        store = load_store()
        path = tmp_path / "bench_history.jsonl"
        store.append_history(tiny_sweep(), path, commit="one")
        with path.open("a") as fh:
            fh.write('{"torn": tru')
        # The next append must not fuse its first row onto the torn tail.
        store.append_history(tiny_sweep(), path, commit="two")
        rows = store.load_history(path)
        assert [r["commit"] for r in rows] == ["one", "one", "two", "two"]


class TestLatestBaseline:
    def _row(self, commit, experiment="mis/sparse@reference", backend="reference",
             ok=True, written_at=0.0, solve=1.0):
        return {
            "commit": commit, "experiment": experiment, "backend": backend,
            "ok": ok, "written_at": written_at,
            "metrics": {"solve_seconds": solve},
        }

    def test_picks_newest_commit_group(self):
        store = load_store()
        rows = [
            self._row("old", written_at=1.0, solve=0.5),
            self._row("old", written_at=1.0, solve=0.6),
            self._row("new", written_at=2.0, solve=0.1),
        ]
        base = store.latest_baseline(rows, "mis/sparse@reference", "reference")
        assert [r["commit"] for r in base] == ["new"]

    def test_excludes_current_commit_and_failures(self):
        store = load_store()
        rows = [
            self._row("old", written_at=1.0),
            self._row("cur", written_at=2.0),
            self._row("bad", written_at=3.0, ok=False),
        ]
        base = store.latest_baseline(
            rows, "mis/sparse@reference", "reference", exclude_commit="cur"
        )
        assert [r["commit"] for r in base] == ["old"]

    def test_empty_when_cell_unseen(self):
        store = load_store()
        rows = [self._row("old")]
        assert store.latest_baseline(rows, "mis/sparse@reference", "dense") == []
        assert store.latest_baseline([], "mis/sparse@reference", "reference") == []


class TestBootstrap:
    def test_creates_missing_store_with_parents(self, tmp_path):
        store = load_store()
        path = tmp_path / "nested" / "bench_history.jsonl"
        assert store.bootstrap_history(path) is True
        assert path.exists() and path.stat().st_size == 0
        assert store.load_history(path) == []

    def test_leaves_existing_store_untouched(self, tmp_path):
        store = load_store()
        path = tmp_path / "bench_history.jsonl"
        path.write_text('{"experiment": "x"}\n')
        assert store.bootstrap_history(path) is False
        assert path.read_text() == '{"experiment": "x"}\n'

    def test_bootstrapped_store_accepts_appends(self, tmp_path):
        store = load_store()
        path = tmp_path / "bench_history.jsonl"
        store.bootstrap_history(path)
        sweep = tiny_sweep()
        assert store.append_history(sweep, path, commit="abc") == 2
        assert len(store.load_history(path)) == 2
