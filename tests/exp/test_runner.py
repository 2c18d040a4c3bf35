"""Tests for the multi-seed sweep runner and aggregation."""

import json
import math
import multiprocessing
import os
import statistics
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.exp import ExperimentSpec, aggregate, run_sweep
from repro.exp.runner import TrialResult, _run_trial
from repro.exp.workloads import (
    build_topology,
    engine_throughput_workload,
    luby_mis_workload,
    scenario_engine,
    sinkless_workload,
    splitting_workload,
)


def metrics_workload(seed, base=10):
    return {"value": base + seed, "constant": 5, "label": "x"}


def failing_workload(seed):
    if seed == 1:
        raise RuntimeError("boom")
    return {"value": seed}


def exiting_workload(seed):
    os._exit(13)  # a dead worker, like a segfault or the OOM killer


def interrupting_workload(seed):
    if seed == 1:
        raise KeyboardInterrupt("ctrl-c in a trial")
    return {"value": seed}


def scalar_workload(seed):
    return seed * 2


def timed_workload(seed):
    return {"value": seed, "setup_seconds": 0.05, "elapsed": 9.0}


def pid_workload(seed):
    time.sleep(0.05)  # long enough that one worker cannot drain the queue alone
    return {"pid": os.getpid()}


def counted_failing_workload(seed, state_dir):
    with open(Path(state_dir) / "runs", "a") as fh:
        fh.write(f"{seed}\n")
    if seed == 1:
        raise RuntimeError("boom")
    return {"value": seed}


def join_workers():
    """Wait for pool workers a failed sweep left behind.

    Polls ``is_alive()`` rather than trusting one ``join``: after
    ``shutdown(wait=False)`` the executor's manager thread may reap a worker
    first, and the join's own ``waitpid`` then fails with ECHILD, which
    ``Popen.poll`` reports as "still running" until that thread records the
    exit code.
    """
    deadline = time.monotonic() + 30
    for worker in multiprocessing.active_children():
        worker.join(timeout=max(0.0, deadline - time.monotonic()))
        while worker.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not worker.is_alive()


def counted_workload(seed, state_dir):
    """Append one line per execution, so the test can count them.

    Seed 0 returns at once and every other seed takes 0.3 s, so
    the first result reaches the parent while the rest are still queued.
    """
    with open(Path(state_dir) / "runs", "a") as fh:
        fh.write(f"{seed}\n")
    if seed:
        time.sleep(0.3)
    return {"value": seed}


class TestSpec:
    def test_trials_fan_out(self):
        spec = ExperimentSpec("e", metrics_workload, {"base": 2}, seeds=(3, 4))
        trials = spec.trials()
        assert [t[3] for t in trials] == [3, 4]
        assert all(t[0] == "e" and t[2] == {"base": 2} for t in trials)

    def test_non_spec_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(["not-a-spec"], workers=0)


class TestInlineSweep:
    def test_metrics_and_ordering(self):
        specs = [
            ExperimentSpec("b", metrics_workload, {"base": 100}, seeds=(1, 0)),
            ExperimentSpec("a", metrics_workload, {}, seeds=(0,)),
        ]
        sweep = run_sweep(specs, workers=0)
        assert [(t.experiment, t.seed) for t in sweep.trials] == [
            ("a", 0),
            ("b", 0),
            ("b", 1),
        ]
        assert sweep.workers == 0
        assert all(t.ok and t.elapsed >= 0 for t in sweep.trials)
        assert sweep.trials[1].metrics["value"] == 100

    def test_failure_is_recorded_not_raised(self):
        sweep = run_sweep(
            [ExperimentSpec("f", failing_workload, {}, seeds=(0, 1, 2))], workers=0
        )
        errors = [t for t in sweep.trials if not t.ok]
        assert len(errors) == 1 and errors[0].seed == 1
        assert "RuntimeError: boom" in errors[0].error
        summary = sweep.summary()["f"]
        assert summary["ok"] == 2 and summary["failed"] == 1
        assert summary["metrics"]["value"]["n"] == 2

    def test_non_dict_result_wrapped(self):
        result = _run_trial("x", lambda seed: seed * 2, {}, 3)
        assert result.metrics == {"result": 6}

    def test_setup_seconds_reserved_metric(self):
        # The reserved key moves to the record field and out of metrics, so
        # one-off engine packing is not averaged into per-trial solve cost.
        result = _run_trial("x", lambda seed: {"v": 1, "setup_seconds": 2.5}, {}, 0)
        assert result.setup_seconds == 2.5
        assert "setup_seconds" not in result.metrics
        assert result.to_dict()["setup_seconds"] == 2.5
        summary = aggregate([result])["x"]
        assert summary["metrics"]["setup_seconds"]["max"] == 2.5


class TestAggregate:
    def test_stats_values(self):
        trials = [
            TrialResult("e", s, {}, {"v": float(v)}, elapsed=0.0)
            for s, v in enumerate((1, 2, 3, 4))
        ]
        stats = aggregate(trials)["e"]["metrics"]["v"]
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1 and stats["max"] == 4
        assert stats["std"] == pytest.approx(math.sqrt(1.25))
        assert stats["n"] == 4

    @pytest.mark.parametrize(
        "values",
        [[7.0], [3, 3, 3], [1, 2, 3, 4, 10], [-2.5, 0.0, 4.0]],
        ids=["single", "constant", "ints", "mixed-sign"],
    )
    def test_stats_are_population_statistics(self, values):
        trials = [
            TrialResult("e", s, {}, {"v": v}, elapsed=0.0) for s, v in enumerate(values)
        ]
        stats = aggregate(trials)["e"]["metrics"]["v"]
        assert stats["mean"] == pytest.approx(statistics.fmean(values))
        assert stats["std"] == pytest.approx(statistics.pstdev(values))
        assert (stats["min"], stats["max"], stats["n"]) == (
            min(values), max(values), len(values),
        )

    def test_non_numeric_and_bool_skipped(self):
        trials = [TrialResult("e", 0, {}, {"s": "str", "b": True, "v": 1}, 0.0)]
        metrics = aggregate(trials)["e"]["metrics"]
        assert "s" not in metrics and "b" not in metrics and "v" in metrics

    def test_all_failed_cell(self):
        trials = [
            TrialResult("dead", s, {"p": 1}, {}, elapsed=0.1, error="RuntimeError: x")
            for s in range(3)
        ]
        entry = aggregate(trials)["dead"]
        assert entry["ok"] == 0 and entry["failed"] == 3
        assert entry["errors"] == ["RuntimeError: x"] * 3
        assert entry["seeds"] == [0, 1, 2]
        # no successful trials: the reserved timing stats are empty dicts,
        # and no workload metric appears at all
        assert entry["metrics"]["elapsed"] == {}
        assert entry["metrics"]["setup_seconds"] == {}
        assert set(entry["metrics"]) == {"elapsed", "setup_seconds"}

    def test_cells_sharing_a_name_aggregate_over_the_union_of_seeds(self):
        # Two sweeps over disjoint seeds of one cell: the rows of both runs
        # group into one summary over every seed.
        first = run_sweep(
            [ExperimentSpec("cell", metrics_workload, {"base": 10}, seeds=(0, 1))],
            workers=0,
        ).trials
        rest = run_sweep(
            [ExperimentSpec("cell", metrics_workload, {"base": 10}, seeds=(2, 3))],
            workers=0,
        ).trials
        entry = aggregate(first + rest)["cell"]
        assert entry["ok"] == 4 and entry["failed"] == 0
        assert sorted(entry["seeds"]) == [0, 1, 2, 3]
        assert entry["metrics"]["value"]["n"] == 4
        assert entry["metrics"]["value"]["mean"] == pytest.approx(
            (10 + 11 + 12 + 13) / 4
        )

    def test_metric_present_in_some_trials_only(self):
        trials = [
            TrialResult("e", 0, {}, {"v": 1, "extra": 7.0}, 0.0),
            TrialResult("e", 1, {}, {"v": 2}, 0.0),
            TrialResult("e", 2, {}, {"v": "oops"}, 0.0),  # non-numeric this seed
        ]
        metrics = aggregate(trials)["e"]["metrics"]
        assert metrics["extra"]["n"] == 1
        assert metrics["v"]["n"] == 2  # the string-valued seed is filtered out

    def test_failed_trials_excluded_from_stats(self):
        trials = [
            TrialResult("e", 0, {}, {"v": 1}, 0.0),
            TrialResult("e", 1, {}, {"v": 1000}, 0.0, error="boom"),
        ]
        entry = aggregate(trials)["e"]
        assert entry["metrics"]["v"]["max"] == 1
        assert entry["ok"] == 1 and entry["failed"] == 1


class TestParamsIsolation:
    """Every TrialResult owns a private copy of its params dict."""

    def test_per_seed_trials_do_not_share_params(self):
        sweep = run_sweep(
            [ExperimentSpec("e", metrics_workload, {"base": 10}, seeds=(0, 1))],
            workers=0,
        )
        a, b = sweep.trials
        assert a.params == b.params
        assert a.params is not b.params
        a.params["base"] = 999  # a mutating consumer cannot corrupt siblings
        assert b.params["base"] == 10

    def test_failed_trials_do_not_share_params(self):
        # failing_workload takes no ``x``: every seed fails with a TypeError.
        sweep = run_sweep(
            [ExperimentSpec("f", failing_workload, {"x": 1}, seeds=(0, 1, 2))],
            workers=0,
        )
        assert not any(t.ok for t in sweep.trials)
        ids = {id(t.params) for t in sweep.trials}
        assert len(ids) == len(sweep.trials)


class TestJsonEmission:
    def test_schema_and_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        sweep = run_sweep(
            [ExperimentSpec("e", metrics_workload, {}, seeds=(0, 1))],
            workers=0,
            json_path=str(path),
        )
        data = json.loads(path.read_text())
        assert data["schema"] == 4
        assert set(data) == {
            "schema", "python", "platform", "workers", "elapsed",
            "experiments", "trials",
        }
        assert data["workers"] == 0
        assert set(data["experiments"]) == {"e"}
        assert len(data["trials"]) == 2
        assert all(
            set(t) == {"experiment", "seed", "params", "metrics", "elapsed",
                       "setup_seconds", "error"}
            for t in data["trials"]
        )
        assert data["experiments"]["e"]["metrics"]["value"]["mean"] == pytest.approx(
            10.5
        )
        assert sweep.elapsed >= 0

    def test_write_json_is_atomic(self, tmp_path):
        path = tmp_path / "bench.json"
        sweep = run_sweep(
            [ExperimentSpec("e", metrics_workload, {}, seeds=(0,))],
            workers=0, json_path=str(path),
        )
        assert not (tmp_path / "bench.json.tmp").exists()
        # A failing dump must leave the existing complete file untouched:
        # readers must never see a torn BENCH file.
        before = path.read_text()
        sweep.trials[0].metrics["bad"] = {1, 2}  # sets are not JSON-serializable
        with pytest.raises(TypeError):
            sweep.write_json(str(path))
        assert path.read_text() == before
        assert not (tmp_path / "bench.json.tmp").exists()


class TestProcessPool:
    def test_pool_matches_inline(self):
        specs = [
            ExperimentSpec(
                "mis-small",
                luby_mis_workload,
                {"topology": "sparse", "n": 120, "degree": 4},
                seeds=(0, 1, 2),
            )
        ]
        inline = run_sweep(specs, workers=0)
        pooled = run_sweep(specs, workers=2)
        assert all(t.ok for t in pooled.trials), [t.error for t in pooled.trials]
        assert [t.metrics["rounds"] for t in inline.trials] == [
            t.metrics["rounds"] for t in pooled.trials
        ]
        assert [t.metrics["mis_size"] for t in inline.trials] == [
            t.metrics["mis_size"] for t in pooled.trials
        ]

    def test_dense_backend_cells_cross_the_pool(self):
        # Each worker packs its own cached scenario engine; the dense
        # kernels' results do not depend on which process ran the seed.
        graph = {"topology": "regular", "n": 60, "degree": 4}
        specs = [
            ExperimentSpec("mis", luby_mis_workload, {**graph, "backend": "dense"},
                           seeds=(0, 1, 2)),
            ExperimentSpec("sinkless", sinkless_workload,
                           {**graph, "backend": "dense"}, seeds=(0, 1)),
            ExperimentSpec("splitting", splitting_workload,
                           {"topology": "sparse", "n": 200, "degree": 40,
                            "backend": "dense"}, seeds=(0, 1)),
        ]

        def outputs(sweep):
            keep = ("rounds", "mis_size", "violations")
            return [(t.experiment, t.seed, {k: t.metrics.get(k) for k in keep})
                    for t in sweep.trials]

        inline = run_sweep(specs, workers=0)
        pooled = run_sweep(specs, workers=2)
        assert all(t.ok for t in pooled.trials), [t.error for t in pooled.trials]
        assert outputs(pooled) == outputs(inline)

    def test_progress_callback_sees_every_trial(self):
        seen = []
        run_sweep(
            [
                ExperimentSpec(
                    "mis-small",
                    luby_mis_workload,
                    {"topology": "torus", "n": 100, "degree": 4},
                    seeds=(0, 1),
                )
            ],
            workers=2,
            progress=seen.append,
        )
        assert sorted(t.seed for t in seen) == [0, 1]

    def test_dead_worker_fails_the_sweep(self):
        spec = ExperimentSpec("exit", exiting_workload, {}, seeds=(0, 1, 2))
        with pytest.raises(BrokenProcessPool):
            run_sweep([spec], workers=2)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_raising_progress_propagates_and_cancels_queued_trials(
        self, error, tmp_path
    ):
        spec = ExperimentSpec(
            "counted", counted_workload, {"state_dir": str(tmp_path)}, seeds=range(20)
        )

        def stop(trial):
            raise error("stop after the first result")

        with pytest.raises(error, match="first result"):
            run_sweep([spec], workers=2, progress=stop)
        join_workers()  # let already-dispatched trials finish
        runs = (tmp_path / "runs").read_text().split()
        assert 1 <= len(runs) < 20


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pooled"])
class TestSweepContract:
    """What ``run_sweep`` promises holds inline and on the process pool."""

    def test_results_sorted_by_experiment_then_seed(self, workers):
        specs = [
            ExperimentSpec("b", metrics_workload, {}, seeds=(2, 0, 1)),
            ExperimentSpec("a", metrics_workload, {"base": 0}, seeds=(1, 0)),
        ]
        sweep = run_sweep(specs, workers=workers)
        assert [(t.experiment, t.seed) for t in sweep.trials] == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1), ("b", 2),
        ]
        assert [t.metrics["value"] for t in sweep.trials] == [0, 1, 10, 11, 12]
        assert sweep.workers == workers

    def test_workload_exceptions_are_rows_of_their_own_trial(self, workers):
        specs = [
            ExperimentSpec("good", metrics_workload, {}, seeds=(0, 1)),
            ExperimentSpec("flaky", failing_workload, {}, seeds=(0, 1, 2)),
            ExperimentSpec("typo", metrics_workload, {"bogus": 1}, seeds=(0,)),
        ]
        sweep = run_sweep(specs, workers=workers)
        errors = {(t.experiment, t.seed): t.error for t in sweep.trials if not t.ok}
        assert set(errors) == {("flaky", 1), ("typo", 0)}
        assert errors["flaky", 1] == "RuntimeError: boom"
        assert errors["typo", 0].startswith("TypeError")
        assert all(t.metrics == {} for t in sweep.trials if not t.ok)
        summary = sweep.summary()
        assert [(summary[c]["ok"], summary[c]["failed"]) for c in ("good", "flaky", "typo")] == [
            (2, 0), (2, 1), (0, 1),
        ]

    def test_a_failing_trial_runs_once(self, workers, tmp_path):
        spec = ExperimentSpec(
            "f", counted_failing_workload, {"state_dir": str(tmp_path)}, seeds=(0, 1, 2)
        )
        sweep = run_sweep([spec], workers=workers)
        assert [t.ok for t in sweep.trials] == [True, False, True]
        assert sorted((tmp_path / "runs").read_text().split()) == ["0", "1", "2"]

    def test_progress_sees_each_trial_once(self, workers):
        seen = []
        sweep = run_sweep(
            [
                ExperimentSpec("m", metrics_workload, {}, seeds=(0, 1, 2)),
                ExperimentSpec("f", failing_workload, {}, seeds=(0, 1)),
            ],
            workers=workers,
            progress=seen.append,
        )
        assert sorted((t.experiment, t.seed) for t in seen) == [
            (t.experiment, t.seed) for t in sweep.trials
        ]
        assert sum(not t.ok for t in seen) == 1

    def test_json_path_holds_every_trial(self, workers, tmp_path):
        path = tmp_path / "bench.json"
        sweep = run_sweep(
            [ExperimentSpec("e", failing_workload, {}, seeds=(0, 1, 2))],
            workers=workers,
            json_path=str(path),
        )
        data = json.loads(path.read_text())
        assert data == json.loads(json.dumps(sweep.to_dict(), sort_keys=True))
        assert data["workers"] == workers
        assert [(t["seed"], t["error"]) for t in data["trials"]] == [
            (0, None), (1, "RuntimeError: boom"), (2, None),
        ]
        assert data["experiments"]["e"]["failed"] == 1

    def test_trials_do_not_share_params(self, workers):
        sweep = run_sweep(
            [
                ExperimentSpec("ok", metrics_workload, {"base": 10}, seeds=(0, 1)),
                ExperimentSpec("bad", failing_workload, {"x": 1}, seeds=(0, 1)),
            ],
            workers=workers,
        )
        assert len({id(t.params) for t in sweep.trials}) == len(sweep.trials)
        sweep.trials[0].params["x"] = 999
        assert [t.params for t in sweep.trials[1:]] == [
            {"x": 1}, {"base": 10}, {"base": 10},
        ]

    def test_reserved_channels_land_on_the_trial(self, workers):
        sweep = run_sweep(
            [ExperimentSpec("e", timed_workload, {}, seeds=(0, 1))], workers=workers
        )
        for trial in sweep.trials:
            assert trial.setup_seconds == 0.05
            assert trial.metrics == {"value": trial.seed, "workload_elapsed": 9.0}
            assert 0 <= trial.elapsed < 9.0

    def test_non_dict_result_wrapped(self, workers):
        sweep = run_sweep(
            [ExperimentSpec("s", scalar_workload, {}, seeds=(1, 2))], workers=workers
        )
        assert [t.metrics for t in sweep.trials] == [{"result": 2}, {"result": 4}]

    def test_interrupt_in_a_trial_fails_the_sweep(self, workers, tmp_path):
        path = tmp_path / "bench.json"
        spec = ExperimentSpec("i", interrupting_workload, {}, seeds=(0, 1, 2))
        with pytest.raises(KeyboardInterrupt, match="ctrl-c"):
            run_sweep([spec], workers=workers, json_path=str(path))
        join_workers()
        assert not path.exists()


def raise_on_first(trial):
    raise RuntimeError("stop")


@pytest.mark.parametrize(
    "spec, workers, progress, error",
    [
        (ExperimentSpec("i", interrupting_workload, {}, seeds=(0, 1)), 0, None,
         KeyboardInterrupt),
        (ExperimentSpec("i", interrupting_workload, {}, seeds=(0, 1)), 2, None,
         KeyboardInterrupt),
        (ExperimentSpec("x", exiting_workload, {}, seeds=(0, 1)), 2, None,
         BrokenProcessPool),
        (ExperimentSpec("m", metrics_workload, {}, seeds=(0, 1)), 0, raise_on_first,
         RuntimeError),
    ],
    ids=["interrupt-inline", "interrupt-pooled", "dead-worker", "raising-progress"],
)
def test_failed_sweep_leaves_the_previous_json_untouched(
    spec, workers, progress, error, tmp_path
):
    path = tmp_path / "bench.json"
    path.write_text("previous sweep\n")
    with pytest.raises(error):
        run_sweep([spec], workers=workers, json_path=str(path), progress=progress)
    join_workers()
    assert path.read_text() == "previous sweep\n"
    assert not (tmp_path / "bench.json.tmp").exists()


@pytest.mark.parametrize("workers", [None, 1, 4])
def test_a_single_trial_runs_inline(workers):
    # A lambda cannot be pickled: the trial ran in this process.
    sweep = run_sweep(
        [ExperimentSpec("one", lambda seed: {"v": seed}, {}, seeds=(5,))],
        workers=workers,
    )
    assert sweep.workers == 0
    assert [(t.seed, t.metrics, t.error) for t in sweep.trials] == [(5, {"v": 5}, None)]


def test_empty_sweep_writes_an_empty_result(tmp_path):
    path = tmp_path / "bench.json"
    sweep = run_sweep([], workers=2, json_path=str(path))
    assert sweep.trials == [] and sweep.workers == 0 and sweep.summary() == {}
    data = json.loads(path.read_text())
    assert (data["experiments"], data["trials"]) == ({}, [])


@pytest.mark.parametrize("cpu_count, expected", [(1, 1), (None, 1), (3, 3)])
def test_default_workers_is_the_cpu_count(cpu_count, expected, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    sweep = run_sweep(
        [ExperimentSpec("p", pid_workload, {}, seeds=(0, 1, 2, 3))], workers=None
    )
    assert sweep.workers == expected
    pids = {t.metrics["pid"] for t in sweep.trials}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= expected


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_pool_has_at_most_one_process_per_trial(workers):
    sweep = run_sweep(
        [ExperimentSpec("p", pid_workload, {}, seeds=(0, 1, 2))], workers=workers
    )
    assert all(t.ok for t in sweep.trials), [t.error for t in sweep.trials]
    pids = {t.metrics["pid"] for t in sweep.trials}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= min(workers, 3)


class TestWorkloads:
    def test_build_topology_variants(self):
        for topology in ("sparse", "regular", "torus", "grid", "powerlaw"):
            adj = build_topology(topology, 80, 4, seed=1)
            assert len(adj) >= 60
            # symmetry
            for u, nbrs in enumerate(adj):
                for v in nbrs:
                    assert u in adj[v]

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_topology("hypercube", 10, 2, seed=0)

    def test_luby_workload_metrics(self):
        metrics = luby_mis_workload(seed=0, topology="torus", n=100, degree=4)
        assert metrics["rounds"] >= 2 and metrics["mis_size"] > 0
        assert metrics["n"] == 100

    def test_sinkless_workload_metrics(self):
        metrics = sinkless_workload(seed=0, topology="regular", n=60, degree=4)
        assert metrics["rounds"] >= 2

    def test_engine_throughput_workload(self):
        metrics = engine_throughput_workload(seed=0, n=400, degree=6)
        assert metrics["reference_seconds"] > 0
        assert metrics["dense_seconds"] > 0
        assert metrics["speedup"] == metrics["reference_seconds"] / metrics["dense_seconds"]
        assert "engine_seconds" not in metrics and "dense_speedup" not in metrics
        assert metrics["rounds"] >= 2

    def test_backend_axis_same_scenario(self):
        # Both backends see the same fixed scenario graph and draw the same
        # keyed coins, so both compute the same MIS.
        kwargs = dict(topology="sparse", n=150, degree=5, graph_seed=77)
        ref = luby_mis_workload(seed=3, backend="reference", **kwargs)
        dense = luby_mis_workload(seed=3, backend="dense", **kwargs)
        assert (ref["n"], ref["m"]) == (dense["n"], dense["m"])
        assert (ref["rounds"], ref["mis_size"]) == (dense["rounds"], dense["mis_size"])
        ref = sinkless_workload(seed=3, topology="regular", n=60, degree=4, backend="reference")
        dense = sinkless_workload(seed=3, topology="regular", n=60, degree=4, backend="dense")
        assert (ref["m"], ref["rounds"]) == (dense["m"], dense["rounds"])

    def test_splitting_backends_give_the_same_metrics(self):
        # Both backends accept the same keyed-coin attempt; only the
        # timings differ.
        kwargs = dict(seed=3, topology="sparse", n=200, degree=40)

        def untimed(metrics):
            return {k: v for k, v in metrics.items() if not k.endswith("_seconds")}

        ref = splitting_workload(backend="reference", **kwargs)
        dense = splitting_workload(backend="dense", **kwargs)
        assert untimed(ref) == untimed(dense)
        assert ref["violations"] == 0 and ref["constrained"] > 0

    @pytest.mark.parametrize(
        "workload", [luby_mis_workload, sinkless_workload, splitting_workload]
    )
    @pytest.mark.parametrize("backend", ["gpu", "engine", "local", "random"])
    def test_unknown_backend_rejected(self, workload, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            workload(seed=0, topology="torus", n=64, degree=4, backend=backend)

    def test_sinkless_workload_dense_backend(self):
        metrics = sinkless_workload(seed=0, topology="regular", n=60, degree=4, backend="dense")
        assert metrics["rounds"] >= 2

    def test_scenario_engine_amortized(self):
        engine1, setup1 = scenario_engine("torus", 90, 4, graph_seed=123456)
        engine2, setup2 = scenario_engine("torus", 90, 4, graph_seed=123456)
        assert engine2 is engine1
        assert setup1 > 0.0 and setup2 == 0.0
