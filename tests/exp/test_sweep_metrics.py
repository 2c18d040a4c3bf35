"""Sweep-level timing: the reserved ``setup_seconds``/``elapsed`` channels."""

import json

from repro.exp import ExperimentSpec, run_sweep


def timed_workload(seed):
    return {"value": seed, "setup_seconds": 0.05, "elapsed": 9.0}


def failing_workload(seed):
    raise RuntimeError("boom")


class TestReservedChannels:
    def test_reserved_channels_land_on_the_trial(self):
        sweep = run_sweep(
            [ExperimentSpec("e", timed_workload, {}, seeds=(0,))], workers=0
        )
        (trial,) = sweep.trials
        assert trial.setup_seconds == 0.05
        assert "setup_seconds" not in trial.metrics  # popped, not duplicated
        # the workload's own "elapsed" is kept under its explicit name; the
        # trial's elapsed is the runner's wall-clock measurement
        assert trial.metrics["workload_elapsed"] == 9.0
        assert 0 <= trial.elapsed < 9.0

    def test_summary_counts_outcomes_and_times_cells(self):
        sweep = run_sweep(
            [
                ExperimentSpec("good", timed_workload, {}, seeds=(0, 1)),
                ExperimentSpec("bad", failing_workload, {}, seeds=(0,)),
            ],
            workers=0,
        )
        summary = sweep.summary()
        assert (summary["good"]["ok"], summary["good"]["failed"]) == (2, 0)
        assert (summary["bad"]["ok"], summary["bad"]["failed"]) == (0, 1)
        stats = summary["good"]["metrics"]
        assert stats["elapsed"]["n"] == 2
        assert stats["setup_seconds"]["mean"] == 0.05
        assert stats["workload_elapsed"]["mean"] == 9.0

    def test_rows_serialize_with_the_sweep(self):
        sweep = run_sweep(
            [ExperimentSpec("e", timed_workload, {}, seeds=(0,))], workers=0
        )
        data = json.loads(json.dumps(sweep.to_dict(), sort_keys=True))
        (row,) = data["trials"]
        assert row["setup_seconds"] == 0.05
        assert data["experiments"]["e"]["metrics"]["setup_seconds"]["max"] == 0.05
