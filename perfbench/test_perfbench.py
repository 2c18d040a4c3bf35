"""Self-tests of the benchmark at tiny sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import workloads
from outcheck import Graph, mis_problem, orientation_problem, scenario_problem, splitting_problem
from spans import LAYERS, NullTracer
from workloads import ColdBuild, FaultyRecover, HotSweep, Op, Shape

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

TINY_SHAPES = {"luby": Shape(300, 10), "sinkless": Shape(300, 4), "split": Shape(300, 40)}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUP_SECONDS", 0.0)


def tiny_workloads():
    return {
        "cold_build": ColdBuild(TINY_SHAPES),
        "hot_sweep": HotSweep(TINY_SHAPES),
        "faulty_recover": FaultyRecover({"luby": 300, "sinkless": 300, "split": 300}),
    }


def run_cli(monkeypatch, workload: str, trace: int) -> tuple:
    monkeypatch.setattr(run, "make_workloads", tiny_workloads)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code, lines, line = run_cli(monkeypatch, workload, trace)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in expected:
        value = line["metrics"][m["name"]]["value"]
        assert math.isfinite(value)
        assert any(text.split()[1:3] == [m["name"], f"{value:.6g}"] for text in lines)
    # counts such as repair rounds may be 0; times and ratios never are
    assert all(m["value"] > 0 for m in line["metrics"].values() if m["unit"] != "count")
    assert (tmp_path / ".perfbench").exists() == bool(trace)


@pytest.mark.parametrize("workload", ["cold_build", "hot_sweep", "faulty_recover"])
def test_layer_busy_times_and_self_time_account_for_op_time(workload):
    line, _, tracer = run.run(tiny_workloads()[workload], seed=5, seconds=0.3, trace=True)
    spans = [s for s in tracer.spans if s["phase"] == "ops"]
    ops = [s for s in spans if s["name"] == "op"]
    op_time = sum(s["end"] - s["start"] for s in ops)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    accounted = metrics["op.self_s"] * len(ops)
    for s in spans:
        if s["name"] in LAYERS:
            accounted += s["end"] - s["start"]
    assert accounted == pytest.approx(op_time, rel=1e-9)
    # busy_s is the mean per call of the layers the ops run
    per_call = {}
    for s in spans:
        if s["name"] in LAYERS:
            per_call.setdefault((s["name"], s["pipeline"]), []).append(s["end"] - s["start"])
    for (layer, pipeline), durations in per_call.items():
        assert metrics[f"{layer}.{pipeline}.busy_s"] == pytest.approx(
            sum(durations) / len(durations)
        )
    assert metrics["op.self_s"] >= 0


def test_counts_repeat_exactly_for_one_seed():
    first, _, _ = run.run(tiny_workloads()["faulty_recover"], seed=9, seconds=0.2, trace=True)
    second, _, _ = run.run(tiny_workloads()["faulty_recover"], seed=9, seconds=0.4, trace=True)
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_ops_derive_from_the_workload_seed():
    w = ColdBuild(TINY_SHAPES, ops_per_pipeline=2)
    ops = w.ops(1)
    assert ops == w.ops(1) and ops != w.ops(2)
    assert len(set(ops)) == len(ops) == 6


def test_op_times_are_scaled_by_the_calibration_around_them(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_REFERENCE_S", 1.0)
    ops = [Op("luby", None, 1), Op("luby", None, 2), Op("sinkless", None, 3),
           Op("split", None, 4)]
    times = [[0.2, 0.1], [0.3, 0.4], [0.5, 0.6], [0.7]]
    result = run.Pass(times=[[9.0] * len(t) for t in times], scaled=times)
    metrics = run.end_to_end([1.0, 3.0, 2.0], ops, result)
    assert metrics["setup_s"] == 2.0
    assert metrics["luby_op_s"] == pytest.approx(0.25)  # median of 0.15 and 0.35
    assert metrics["sinkless_op_s"] == pytest.approx(0.55)
    assert metrics["split_op_s"] == pytest.approx(0.7)
    assert metrics["ops_per_s"] == pytest.approx(4 / 1.75)
    assert result.op_times(ops, scaled=False)[0] == ("luby", 9.0)
    # a run of an op while the host ran at half speed counts at full speed
    assert run.scaled(1.4, 1.9, 2.1) == pytest.approx(0.7)


def test_figures_not_taken_from_ops_name_their_phase():
    _, notes, _ = run.run(tiny_workloads()["hot_sweep"], seed=2, seconds=0.1, trace=True)
    assert notes["generate.luby.busy_s"] == "from setup"
    assert notes["scenario.split.attempts"] == "from warmup"
    assert "solve.luby.busy_s" not in notes
    _, notes, _ = run.run(tiny_workloads()["faulty_recover"], seed=2, seconds=0.1, trace=True)
    assert notes["solve.sinkless.rounds"] == "from warmup"
    assert "scenario.luby.busy_s" not in notes


# --- the benchmark's own checker catches corrupted outputs -------------------


def test_mis_with_a_node_removed_fails():
    adjacency = TINY_SHAPES["luby"].generate("luby", 1)
    mis, _ = workloads.luby_mis(adjacency, seed=2, method="dense")
    g = Graph.from_adjacency(adjacency)
    assert mis_problem(g, mis) is None
    assert mis_problem(g, mis - {min(mis)}) is not None
    v = next(v for v in sorted(mis) if adjacency[v])
    assert mis_problem(g, mis | {adjacency[v][0]}) is not None


def test_orientation_with_a_flipped_edge_creating_a_sink_fails():
    adjacency = TINY_SHAPES["sinkless"].generate("sinkless", 1)
    orientation, _ = workloads.run_trial_and_fix(adjacency, min_degree=2, seed=2, method="dense")
    g = Graph.from_adjacency(adjacency)
    assert orientation_problem(g, orientation, 2) is None
    tails = [u for (u, _) in orientation]
    u = next(v for v in range(len(adjacency)) if tails.count(v) == 1)
    arc = next(a for a in orientation if a[0] == u)
    flipped = dict(orientation)
    del flipped[arc]
    flipped[(arc[1], arc[0])] = True
    assert "sinks" in orientation_problem(g, flipped, 2)
    doubled = dict(orientation)
    doubled[(arc[1], arc[0])] = True
    assert "exactly once" in orientation_problem(g, doubled, 2)


def test_splitting_with_a_recolored_node_fails():
    star = [list(range(1, 11))] + [[0] for _ in range(10)]
    g = Graph.from_adjacency(star)
    colors = [0] + [0] * 5 + [1] * 5
    assert splitting_problem(g, colors, 0.05, 10) is None
    colors[1] = 1
    assert splitting_problem(g, colors, 0.05, 10) is not None


def test_scenario_check_requires_zero_violations_and_recovery():
    adjacency = [[1], [0]]
    g = Graph.from_adjacency(adjacency)
    state = {"pipeline": "luby", "alive": [True, True], "mis": {0}}
    assert scenario_problem(g, {"violations": 0, "recovered": 1}, state) is None
    assert scenario_problem(g, {"violations": 1, "recovered": 1}, state) is not None
    assert scenario_problem(g, {"violations": 0, "recovered": 0}, state) is not None
    assert scenario_problem(g, {"violations": 0, "recovered": 1}, {**state, "mis": set()})


def test_a_corrupted_output_counts_as_failed_and_the_run_goes_on(monkeypatch):
    w = tiny_workloads()["hot_sweep"]
    w.setup(1, 0, NullTracer())
    w.prepare_checks()
    honest = w.run

    def corrupting(op: Op, tracer):
        out = honest(op, tracer)
        return out - {min(out)} if op.pipeline == "luby" else out

    monkeypatch.setattr(w, "run", corrupting)
    ops, result = w.ops(1), run.Pass()
    for _ in range(3):
        run.run_round(w, ops, NullTracer(), result)
    assert (result.attempted, result.failed) == (9, 3)
    assert [len(t) for t in result.times] == [0, 3, 3]
    assert [p for p, _ in result.op_times(ops)] == ["sinkless", "split"]


def test_an_op_that_raises_counts_as_failed_and_the_run_goes_on(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(workloads, "uniform_splitting", broken)
    w = tiny_workloads()["cold_build"]
    ops, result = w.ops(1), run.Pass()
    for _ in range(2):
        run.run_round(w, ops, NullTracer(), result)
    assert (result.attempted, result.failed) == (6, 2)
    assert [len(t) for t in result.times] == [2, 2, 0]
