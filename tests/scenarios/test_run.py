"""End-to-end scenario execution: registry, runner, metrics, exp wiring."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.exp import ExperimentSpec, run_sweep
from repro.exp.workloads import scenario_workload
from repro.local import BACKENDS
from repro.scenarios import (
    CrashNodes,
    Scenario,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
    surviving_sinks,
)

#: Metric channels every scenario trial must report.
REQUIRED_METRICS = {
    "rounds", "completed", "violations", "survivors", "crashed_nodes",
    "n", "m", "solve_seconds", "setup_seconds",
}


def load_cli():
    """``benchmarks/run_experiments.py`` as a module."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        names = scenario_names()
        assert len(names) >= 6
        # The ISSUE's minimum vocabulary is all represented.
        assert "luby/crash" in names
        assert "luby/drop-iid" in names  # i.i.d. drops
        assert "luby/mute-hubs" in names  # adversarial drops
        assert any(n.startswith("luby/churn") or "edge" in n for n in names)  # dynamic
        assert "luby/adversarial-naming" in names  # relabel + ports
        assert "splitting/multi-edge" in names  # weighted/multi-edge

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="registered:"):
            get_scenario("luby/typo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("luby/crash"))

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="pipeline"):
            Scenario(name="x", pipeline="nope", perturbations=())


class TestRunScenario:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_end_to_end_on_reference(self, name):
        metrics = run_scenario(name, n=200, seed=3, backend="reference")
        assert REQUIRED_METRICS <= set(metrics)
        assert metrics["survivors"] + metrics["crashed_nodes"] == metrics["n"]
        assert metrics["violations"] >= 0
        if get_scenario(name).strict:
            assert metrics["violations"] == 0 and metrics["completed"] == 1

    @pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_reference_matches_dense(self, name, recover):
        # Same coins, same fault schedule: every metric but the timings.
        ref = run_scenario(name, n=150, seed=5, backend="reference", recover=recover)
        den = run_scenario(name, n=150, seed=5, backend="dense", recover=recover)
        assert set(ref) == set(den)
        for key in den:
            if not key.endswith("_seconds"):
                assert ref[key] == den[key], (name, key)

    @pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", [n for n in scenario_names() if n.startswith("sinkless/")])
    def test_sinkless_violations_are_the_surviving_sinks_of_the_arcs(
        self, name, backend, recover
    ):
        # The slot-state count the runner reports equals the public contract
        # on the arcs it returns.
        metrics, state = run_scenario(name, n=150, seed=5, backend=backend, recover=recover,
                                      return_state=True)
        arcs = state["orientation"]
        copies = sum(u < v for u, nbrs in enumerate(state["adjacency"]) for v in nbrs)
        assert arcs.dtype == np.int64 and arcs.shape == (copies, 2)
        assert metrics["violations"] == len(surviving_sinks(
            state["adjacency"], arcs, state["alive"], state["min_degree"]
        ))

    def test_removed_fault_modes_fail_loudly(self):
        # "mask" names the keyed fault coins every run draws; the replay
        # mode is gone, and so is any other value.
        assert run_scenario("luby/crash", n=60, seed=1, fault_mode="mask")["n"] == 60
        for mode in ("replay", "philox"):
            with pytest.raises(ValueError, match="replay fault mode was removed"):
                run_scenario("luby/crash", n=60, seed=1, fault_mode=mode)

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_end_to_end_on_dense(self, name):
        metrics = run_scenario(name, n=200, seed=3, backend="dense")
        assert REQUIRED_METRICS <= set(metrics)
        assert metrics["survivors"] + metrics["crashed_nodes"] == metrics["n"]
        assert metrics["violations"] >= 0
        if get_scenario(name).strict:
            assert metrics["violations"] == 0 and metrics["completed"] == 1

    @pytest.mark.parametrize("backend", ["engine", "dense-batched"])
    @pytest.mark.parametrize("name", ["luby/crash", "sinkless/crash", "splitting/byzantine"])
    def test_unsupported_backend_rejected(self, name, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            run_scenario(name, n=100, backend=backend)

    @pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
    def test_sinkless_round_one_faults_run_on_both_backends(self, recover):
        # Crashes, drops and corruption in the proposal round run on both
        # backends and compute the same run.
        from repro.scenarios import CorruptMessages, IIDMessageDrop

        stacks = {
            "crash": (CrashNodes(fraction=0.2, at_round=1),),
            "drop": (IIDMessageDrop(p=0.3, until_round=4),),
            "corrupt": (CorruptMessages(p=0.2, until_round=3),),
        }
        for label, perturbations in stacks.items():
            sc = Scenario(name=f"adhoc/sinkless-round-one-{label}", pipeline="sinkless",
                          perturbations=perturbations, topology="regular")
            ref, den = (
                {k: v for k, v in run_scenario(sc, n=80, seed=1, backend=backend,
                                               max_rounds=60, recover=recover).items()
                 if not k.endswith("_seconds")}
                for backend in BACKENDS
            )
            assert ref == den, label
            assert (den["crashed_nodes"] > 0) == (label == "crash")

    def test_dense_sinkless_run_trusts_drop_flag(self, monkeypatch):
        # A stack that cannot drop messages builds no delivery mask, so the
        # dense run makes no per-message ``delivers`` call.
        from repro.scenarios.base import BoundPerturbation

        calls = []

        def counting_delivers(self, round_no, sender, port):
            calls.append(round_no)
            return True

        monkeypatch.setattr(BoundPerturbation, "delivers", counting_delivers)
        metrics = run_scenario("sinkless/crash", n=200, seed=1, backend="dense")
        assert metrics["crashed_nodes"] > 0
        assert calls == []

    def test_crash_scenarios_report_recovery(self):
        metrics = run_scenario("luby/crash", n=200, seed=0)
        assert metrics["crashed_nodes"] > 0
        assert metrics["rounds_to_recover"] >= 0
        # i.i.d. drops never settle: no recovery point to measure from.
        assert "rounds_to_recover" not in run_scenario("luby/drop-iid", n=100, seed=0)

    def test_fault_schedule_is_seed_deterministic(self):
        a = run_scenario("luby/drop-iid", n=150, seed=11)
        b = run_scenario("luby/drop-iid", n=150, seed=11)
        assert a == {**b, "solve_seconds": a["solve_seconds"],
                     "setup_seconds": a["setup_seconds"]}

    def test_custom_adjacency_and_scenario_object(self):
        sc = Scenario(
            name="adhoc/crash",  # unregistered: passed directly
            pipeline="luby",
            perturbations=(CrashNodes(fraction=0.2, at_round=1),),
        )
        adj = [[1], [0], []]
        metrics = run_scenario(sc, adjacency=adj, seed=0)
        assert metrics["n"] == 3
        assert metrics["crashed_nodes"] == 1


class TestSplittingUnderCrashes:
    def test_crashed_nodes_keep_their_init_colour(self):
        # Crashed nodes never output; their init-time colour stands in, so
        # the partition covers every node, identically on every backend.
        # Degrees sit in the w.h.p. regime, so clean attempts would pass.
        from repro.bipartite.generators import random_sparse_graph
        from repro.bipartite.instance import BLUE, RED

        adj = random_sparse_graph(200, 40.0, seed=4)
        sc = Scenario(name="adhoc/splitting-crash", pipeline="splitting",
                      perturbations=(CrashNodes(fraction=0.1, at_round=1),))
        partitions = []
        for backend in BACKENDS:
            metrics, state = run_scenario(sc, adjacency=adj, seed=3, degree=40,
                                          backend=backend, return_state=True)
            assert metrics["crashed_nodes"] > 0
            assert len(state["partition"]) == len(adj)
            assert set(state["partition"]) <= {RED, BLUE}
            partitions.append(state["partition"])
        assert partitions[1:] == partitions[:-1]


class TestExpIntegration:
    def test_scenario_workload_in_sweep(self):
        spec = ExperimentSpec(
            "scenario/luby/crash@reference",
            scenario_workload,
            {"scenario": "luby/crash", "n": 150, "backend": "reference"},
            seeds=(0, 1),
        )
        sweep = run_sweep([spec], workers=0)
        assert all(t.ok for t in sweep.trials)
        summary = sweep.summary()["scenario/luby/crash@reference"]
        assert summary["ok"] == 2
        # Resilience metrics aggregate like any other channel.
        assert "violations" in summary["metrics"]
        assert "survivors" in summary["metrics"]
        assert summary["metrics"]["rounds_to_recover"]["n"] == 2

    def test_cli_scenario_spec_builder(self):
        mod = load_cli()
        cells = mod.build_scenario_specs(True, 2, "all", ("reference", "dense"))
        names = {c.name for c in cells}
        # Every registered scenario appears on both backends.
        for sc_name in scenario_names():
            for backend in ("reference", "dense"):
                assert f"scenario/{sc_name}@{backend}" in names
        explicit = mod.build_scenario_specs(False, 3, "luby/crash", ("reference",))
        assert [c.name for c in explicit] == ["scenario/luby/crash@reference"]
        assert explicit[0].seeds == (0, 1, 2)
        assert "fault_mode" not in explicit[0].params
        with pytest.raises(ValueError):
            mod.build_scenario_specs(True, 1, "luby/typo", ("reference",))

    def test_cli_dense_backend_schedules_every_pipeline_one_seed_per_task(self):
        mod = load_cli()
        cells = mod.build_specs(True, 2, backends=("dense",))
        names = {c.name for c in cells}
        assert {"mis/sparse@dense", "sinkless/regular@dense", "splitting/sparse@dense"} <= names
        for cell in cells:
            assert [task[3] for task in cell.trials()] == list(cell.seeds)
            assert all(type(task[3]) is int for task in cell.trials())

    def test_cli_backends_drive_the_splitting_cells(self):
        # Splitting cells follow --backends like Luby and sinkless: a
        # dense-only sweep schedules no reference splitting cell.
        mod = load_cli()
        dense_only = [c for c in mod.build_specs(True, 1, backends=("dense",))
                      if c.name.startswith("splitting/")]
        assert [c.name for c in dense_only] == ["splitting/sparse@dense"]
        assert dense_only[0].params["backend"] == "dense"
        both = {c.name for c in mod.build_specs(True, 1)
                if c.name.startswith("splitting/")}
        assert both == {"splitting/sparse@reference", "splitting/sparse@dense"}

    @pytest.mark.parametrize("workers", [-1, -3])
    def test_cli_and_run_sweep_reject_negative_workers(self, workers, monkeypatch, capsys):
        spec = ExperimentSpec("e", scenario_workload, {"n": 50}, seeds=(0, 1))
        with pytest.raises(ValueError, match="workers"):
            run_sweep([spec], workers=workers)
        monkeypatch.setattr(
            "sys.argv", ["run_experiments.py", "--workers", str(workers), "--history", ""]
        )
        with pytest.raises(SystemExit) as exit_info:
            load_cli().main()
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--chaos"], ["--resume"], ["--checkpoint", "trials.jsonl"],
                 ["--timeout", "5"], ["--retries", "2"]],
        ids=lambda flag: flag[0],
    )
    def test_cli_rejects_the_removed_executor_flags(self, flag, monkeypatch, capsys):
        # The retrying executor's knobs are gone: naming one is a usage
        # error, not an option that is silently accepted and ignored.
        monkeypatch.setattr("sys.argv", ["run_experiments.py", *flag, "--history", ""])
        with pytest.raises(SystemExit) as exit_info:
            load_cli().main()
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_cli_rejects_the_removed_batched_backend(self, capsys):
        mod = load_cli()
        assert mod.run_sweeps(argparse.Namespace(backends="dense,dense-batched")) == 2
        assert "dense-batched" in capsys.readouterr().err

    def test_cli_backends_engine_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.argv", ["run_experiments.py", "--backends", "engine", "--history", ""]
        )
        assert load_cli().main() == 2
        assert "unknown backend(s) engine" in capsys.readouterr().err
