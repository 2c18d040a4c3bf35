"""Cross-backend trace equivalence.

The backends are bit-identical (every one draws the same keyed coins),
so their *traces* must agree too: same number of round records as
executed rounds, same per-round active-set trajectory, same violation
count.  This pins the dense kernels' explicit trace points to
the hook-based executors' ``TracingHooks`` accounting — a dense trace
point placed on the wrong side of a phase boundary shows up here as a
diverging active count even though the run outputs still match.
"""

import pytest

from repro.local import BACKENDS
from repro.obs import Tracer
from repro.scenarios import CrashNodes, Scenario
from repro.scenarios.run import run_scenario

# One scenario per pipeline, plus a sinkless crash in the proposal round
# and a sinkless base run that stops at its fixed point; together they
# cover both backends and both trace-point styles (hooked loop, dense
# kernel).
SINKLESS_ROUND_ONE_CRASH = Scenario(
    name="adhoc/sinkless-round-one-crash", pipeline="sinkless",
    perturbations=(CrashNodes(fraction=0.1, at_round=1),), topology="regular",
)
#: ``name -> (scenario, n, seed)``.  The stalled cell is a byzantine run
#: whose corrupted flips leave sinks only the extracted orientation sees;
#: it used to spin to its 400-round cap.
CASES = {
    "luby/crash": ("luby/crash", 200, 3),
    "sinkless/crash": ("sinkless/crash", 200, 3),
    "splitting/drop-iid": ("splitting/drop-iid", 200, 3),
    SINKLESS_ROUND_ONE_CRASH.name: (SINKLESS_ROUND_ONE_CRASH, 200, 3),
    "stalled/sinkless/byzantine": ("sinkless/byzantine", 600, 1),
}


def _traced_run(name, backend):
    scenario, n, seed = CASES[name]
    tracer = Tracer(backend=backend, scenario=name)
    metrics = run_scenario(scenario, n=n, seed=seed, backend=backend, tracer=tracer)
    return tracer, metrics


@pytest.mark.parametrize("name", CASES)
def test_round_record_count_matches_rounds_on_every_backend(name):
    for backend in BACKENDS:
        tracer, metrics = _traced_run(name, backend)
        records = tracer.round_records()
        assert len(records) == metrics["rounds"], (
            f"{name}@{backend}: {len(records)} round records for "
            f"{metrics['rounds']} rounds"
        )


@pytest.mark.parametrize("name", CASES)
def test_traced_trajectories_agree_across_backends(name):
    summaries = {}
    for backend in BACKENDS:
        tracer, metrics = _traced_run(name, backend)
        summaries[backend] = {
            "rounds": metrics["rounds"],
            "active": [r["active"] for r in tracer.round_records()],
            "violations": metrics.get("violations"),
        }
    backends = list(summaries)
    assert len(backends) >= 2, f"{name} has a single backend; nothing to compare"
    first = summaries[backends[0]]
    for other in backends[1:]:
        assert summaries[other] == first, (
            f"{name}: trace mismatch between {backends[0]} and {other}"
        )


def _stalled_rounds(tracer):
    return [r["round"] for r in tracer.records if r["kind"] == "stalled"]


def test_a_fixed_point_stop_emits_one_stalled_event_on_every_backend():
    scenario, n, seed = CASES["stalled/sinkless/byzantine"]
    for backend in BACKENDS:
        tracer, metrics = _traced_run("stalled/sinkless/byzantine", backend)
        last = metrics["rounds"]
        assert _stalled_rounds(tracer) == [last], backend
        assert metrics["completed"] == 0 and last < 400
        # A run whose cap lands on its fixed point ends at the cap: no
        # event.  One round more and it stops at the fixed point again.
        for cap, stalled in ((last, []), (last + 1, [last])):
            tracer = Tracer(backend=backend)
            capped = run_scenario(scenario, n=n, seed=seed, backend=backend,
                                  max_rounds=cap, tracer=tracer)
            assert capped["rounds"] == last
            assert _stalled_rounds(tracer) == stalled, (backend, cap)
    for name in ("sinkless/crash", SINKLESS_ROUND_ONE_CRASH.name):
        tracer, _ = _traced_run(name, "dense")
        assert _stalled_rounds(tracer) == [], name


def test_scenario_runner_emits_a_result_event():
    tracer, metrics = _traced_run("luby/crash", "dense")
    results = [r for r in tracer.records if r["kind"] == "result"]
    assert len(results) == 1
    assert results[0]["rounds"] == metrics["rounds"]
    assert results[0]["scenario"] == "luby/crash"


def test_untraced_and_traced_runs_return_identical_metrics():
    plain = run_scenario("luby/crash", n=200, seed=3, backend="dense")
    tracer, traced = _traced_run("luby/crash", "dense")
    # tracing must be a pure observer: pop wall-time metrics, compare the rest
    for metrics in (plain, traced):
        for key in list(metrics):
            if key.endswith("_seconds") or key == "elapsed":
                metrics.pop(key)
    assert plain == traced
