"""The fault-tolerant execution layer (`repro.exp.resilient`).

Covers the five tentpole behaviors against *real* process-pool workers:
per-task timeouts (hung workers killed, pool rebuilt), bounded retry with
backoff + poison quarantine, pool self-healing on worker death with exact
crash attribution, incremental `trials.jsonl` checkpointing with resume,
and graceful SIGINT drain with a failure manifest.
"""

import json
import random
import signal

import pytest

from repro.exp import ExperimentSpec, RetryPolicy, run_sweep
from repro.exp.resilient import (
    CRASH_ERROR,
    Task,
    _synth_failure,
    append_checkpoint,
    load_checkpoint,
)
from repro.exp.runner import TrialResult
from repro.exp.workloads import (
    chaos_attempts,
    chaos_crash,
    chaos_exit,
    chaos_flaky,
    chaos_hang,
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=3.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(1, rng) == 1.0
        assert policy.delay(2, rng) == 2.0
        assert policy.delay(3, rng) == 3.0  # capped
        assert policy.delay(4, rng) == 3.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 5):
            base = min(1.0 * 2 ** (attempt - 1), 8.0)
            for _ in range(20):
                d = policy.delay(attempt, rng)
                assert base <= d <= base * 1.5

    def test_zero_base_delay_is_immediate(self):
        assert RetryPolicy(base_delay=0.0).delay(3, random.Random(0)) == 0.0

    def test_retryable_predicate(self):
        policy = RetryPolicy(retryable=lambda e: e.startswith("Timeout"))
        assert policy.is_retryable("Timeout: exceeded 1s deadline")
        assert not policy.is_retryable("RuntimeError: boom")
        assert RetryPolicy().is_retryable("anything")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestCheckpoint:
    def trial(self, name="e", seed=0, error=None, attempts=1):
        return TrialResult(name, seed, {"p": 1}, {"v": seed}, elapsed=0.1,
                           error=error, attempts=attempts)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        rows = [self.trial(seed=s) for s in range(3)]
        append_checkpoint(path, rows)
        loaded = load_checkpoint(path)
        assert [(t.experiment, t.seed, t.metrics) for t in loaded] == [
            (t.experiment, t.seed, t.metrics) for t in rows
        ]
        assert all(t.attempts == 1 for t in loaded)

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.jsonl") == []

    def test_torn_tail_sealed_and_skipped(self, tmp_path, capsys):
        path = tmp_path / "trials.jsonl"
        append_checkpoint(path, [self.trial(seed=0)])
        with path.open("a") as fh:  # simulate a kill mid-append
            fh.write('{"experiment": "e", "seed": 1, "elaps')
        append_checkpoint(path, [self.trial(seed=2)])
        loaded = load_checkpoint(path)
        assert sorted(t.seed for t in loaded) == [0, 2]
        assert "corrupt checkpoint line" in capsys.readouterr().err

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        append_checkpoint(path, [self.trial(seed=0, error="Timeout: old")])
        append_checkpoint(path, [self.trial(seed=0, attempts=2)])
        loaded = load_checkpoint(path)
        assert len(loaded) == 1
        assert loaded[0].ok and loaded[0].attempts == 2

    def test_error_rows_roundtrip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        append_checkpoint(path, [self.trial(error=CRASH_ERROR, attempts=3)])
        loaded = load_checkpoint(path)
        assert loaded[0].error == CRASH_ERROR and loaded[0].attempts == 3


class TestInlineRetry:
    def test_flaky_healed_and_attempts_recorded(self, tmp_path):
        spec = ExperimentSpec(
            "flaky", chaos_flaky,
            {"succeed_after": 2, "state_dir": str(tmp_path), "label": "a"},
            seeds=(0,), retry=FAST_RETRY,
        )
        sweep = run_sweep([spec], workers=0)
        trial = sweep.trials[0]
        assert trial.ok and trial.attempts == 2
        assert trial.metrics["attempts_used"] == 2
        assert chaos_attempts(str(tmp_path), "a", 0) == 2

    def test_poison_quarantined_after_budget(self, tmp_path):
        spec = ExperimentSpec(
            "poison", chaos_flaky,
            {"succeed_after": 99, "state_dir": str(tmp_path), "label": "b"},
            seeds=(0,), retry=FAST_RETRY,
        )
        sweep = run_sweep([spec], workers=0)
        trial = sweep.trials[0]
        assert not trial.ok and trial.attempts == 3
        assert "flaky failure 3/99" in trial.error
        assert chaos_attempts(str(tmp_path), "b", 0) == 3  # not an endless loop

    def test_non_retryable_error_fails_once(self, tmp_path):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0,
                             retryable=lambda e: e.startswith("Timeout"))
        spec = ExperimentSpec(
            "crash", chaos_crash,
            {"state_dir": str(tmp_path), "label": "c"},
            seeds=(0,), retry=policy,
        )
        sweep = run_sweep([spec], workers=0)
        trial = sweep.trials[0]
        assert not trial.ok and trial.attempts == 1
        assert chaos_attempts(str(tmp_path), "c", 0) == 1

    def test_no_policy_means_single_attempt(self):
        def boom(seed):
            raise RuntimeError("boom")

        sweep = run_sweep([ExperimentSpec("e", boom, seeds=(0, 1))], workers=0)
        assert all(not t.ok and t.attempts == 1 for t in sweep.trials)


class TestCheckpointResume:
    def spec(self, tmp_path, label="r", seeds=range(6)):
        return ExperimentSpec(
            "cell", chaos_flaky,
            {"succeed_after": 1, "state_dir": str(tmp_path), "label": label},
            seeds=seeds,
        )

    def test_checkpoint_written_incrementally(self, tmp_path):
        ck = tmp_path / "trials.jsonl"
        run_sweep([self.spec(tmp_path, seeds=range(3))], workers=0, checkpoint=str(ck))
        loaded = load_checkpoint(ck)
        assert sorted(t.seed for t in loaded) == [0, 1, 2]

    def test_resume_skips_completed_trials(self, tmp_path):
        ck = str(tmp_path / "trials.jsonl")
        run_sweep([self.spec(tmp_path, seeds=range(3))], workers=0, checkpoint=ck)
        sweep = run_sweep([self.spec(tmp_path)], workers=0, checkpoint=ck, resume=ck)
        assert sorted(t.seed for t in sweep.trials) == [0, 1, 2, 3, 4, 5]
        assert all(t.ok for t in sweep.trials)
        # attempt counters: completed seeds were NOT re-executed
        assert [chaos_attempts(str(tmp_path), "r", s) for s in range(6)] == [1] * 6

    def test_resume_everything_done_runs_nothing(self, tmp_path):
        ck = str(tmp_path / "trials.jsonl")
        run_sweep([self.spec(tmp_path)], workers=0, checkpoint=ck)
        sweep = run_sweep([self.spec(tmp_path)], workers=0, resume=ck)
        assert len(sweep.trials) == 6
        assert [chaos_attempts(str(tmp_path), "r", s) for s in range(6)] == [1] * 6

    def test_resume_ignores_foreign_experiments(self, tmp_path):
        ck = str(tmp_path / "trials.jsonl")
        append_checkpoint(ck, [TrialResult("other", 0, {}, {"v": 1}, 0.0)])
        sweep = run_sweep([self.spec(tmp_path, seeds=(0,))], workers=0, resume=ck)
        assert [(t.experiment, t.seed) for t in sweep.trials] == [("cell", 0)]

    def test_resume_into_fresh_checkpoint_carries_rows_over(self, tmp_path):
        old = str(tmp_path / "old.jsonl")
        new = str(tmp_path / "new.jsonl")
        run_sweep([self.spec(tmp_path, seeds=range(3))], workers=0, checkpoint=old)
        run_sweep([self.spec(tmp_path)], workers=0, checkpoint=new, resume=old)
        assert sorted(t.seed for t in load_checkpoint(new)) == list(range(6))


    def test_rows_of_the_parent_format_still_resume(self, tmp_path):
        # A row as the runner wrote it when seeds could share one task: the
        # row format is unchanged, so the seed counts as done and only the
        # missing seed runs.
        ck = tmp_path / "trials.jsonl"
        row = {"experiment": "cell", "seed": 0, "params": {}, "elapsed": 0.1,
               "metrics": {"value": 0, "mis_size": 4}, "setup_seconds": 0.5,
               "pack_seconds": 0.5, "rng_seconds": 0.0, "error": None,
               "attempts": 1}
        ck.write_text(json.dumps(row) + "\n")
        sweep = run_sweep([self.spec(tmp_path, seeds=(0, 1))], workers=0,
                          resume=str(ck))
        assert sorted(t.seed for t in sweep.trials) == [0, 1]
        assert [chaos_attempts(str(tmp_path), "r", s) for s in (0, 1)] == [0, 1]
        resumed = next(t for t in sweep.trials if t.seed == 0)
        assert resumed.metrics == row["metrics"] and resumed.setup_seconds == 0.5


def test_synthesized_failure_row_is_one_seed_with_its_own_params():
    # Timeout and crash victims return nothing; the parent writes their row.
    task = Task("cell", ok_workload, {"n": 3}, seed=7, attempts=2)
    row = _synth_failure(task, "Timeout: exceeded 1s deadline", 1.5)
    assert (row.experiment, row.seed, row.attempts) == ("cell", 7, 2)
    assert (row.elapsed, row.error) == (1.5, "Timeout: exceeded 1s deadline")
    assert not row.ok and row.metrics == {}
    assert row.params == task.params and row.params is not task.params


def ok_workload(seed):
    return {"value": seed}


class TestPooledFaults:
    """Real process-pool workers, really killed."""

    def test_timeout_kills_hung_worker_and_sweep_completes(self, tmp_path):
        specs = [
            ExperimentSpec(
                "hang", chaos_hang,
                {"hang_seconds": 30.0, "state_dir": str(tmp_path), "label": "h"},
                seeds=(0,), timeout=1.0,
            ),
            ExperimentSpec("ok", ok_workload, seeds=(0, 1)),
        ]
        sweep = run_sweep(specs, workers=2)
        by_key = {(t.experiment, t.seed): t for t in sweep.trials}
        hang = by_key[("hang", 0)]
        assert not hang.ok and hang.error.startswith("Timeout")
        assert hang.elapsed >= 1.0
        assert by_key[("ok", 0)].ok and by_key[("ok", 1)].ok
        # the hung worker executed once and was not retried (no policy)
        assert chaos_attempts(str(tmp_path), "h", 0) == 1

    def test_worker_death_heals_pool_and_attributes_crash(self, tmp_path):
        specs = [
            ExperimentSpec(
                "exit", chaos_exit,
                {"state_dir": str(tmp_path), "label": "e"}, seeds=(0,),
            ),
            ExperimentSpec("ok", ok_workload, seeds=(0, 1, 2)),
        ]
        sweep = run_sweep(specs, workers=2)
        by_key = {(t.experiment, t.seed): t for t in sweep.trials}
        crash = by_key[("exit", 0)]
        assert not crash.ok and "BrokenProcessPool" in crash.error
        # innocent co-scheduled trials were exonerated and completed
        for s in range(3):
            assert by_key[("ok", s)].ok, by_key[("ok", s)].error

    def test_crash_retry_budget_quarantines_poison(self, tmp_path):
        spec = ExperimentSpec(
            "exit", chaos_exit,
            {"state_dir": str(tmp_path), "label": "q"}, seeds=(0,),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        sweep = run_sweep([spec, ExperimentSpec("ok", ok_workload, seeds=(0,))],
                          workers=2)
        crash = next(t for t in sweep.trials if t.experiment == "exit")
        assert not crash.ok and "BrokenProcessPool" in crash.error
        assert crash.attempts == 2
        assert chaos_attempts(str(tmp_path), "q", 0) == 2

    def test_flaky_healed_across_pool_retries(self, tmp_path):
        spec = ExperimentSpec(
            "flaky", chaos_flaky,
            {"succeed_after": 2, "state_dir": str(tmp_path), "label": "p"},
            seeds=(0, 1), retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        sweep = run_sweep([spec], workers=2)
        assert all(t.ok and t.attempts == 2 for t in sweep.trials)

    def test_chaos_end_to_end_attribution(self, tmp_path):
        """The acceptance sweep: exit + hang + flaky + healthy cells all at
        once on real workers; every failure lands on the right trial."""
        sd = str(tmp_path)
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1)
        specs = [
            ExperimentSpec("ok", chaos_flaky,
                           {"succeed_after": 1, "state_dir": sd, "label": "ok"},
                           seeds=(0, 1, 2), retry=retry),
            ExperimentSpec("flaky", chaos_flaky,
                           {"succeed_after": 2, "state_dir": sd, "label": "fl"},
                           seeds=(0,), retry=retry),
            ExperimentSpec("exit", chaos_exit,
                           {"state_dir": sd, "label": "ex"}, seeds=(0,),
                           retry=retry),
            ExperimentSpec("hang", chaos_hang,
                           {"hang_seconds": 30.0, "state_dir": sd, "label": "hg"},
                           seeds=(0,), timeout=1.5),
        ]
        sweep = run_sweep(specs, workers=2)
        by_key = {(t.experiment, t.seed): t for t in sweep.trials}
        assert len(by_key) == 6
        for s in range(3):
            assert by_key[("ok", s)].ok
            assert chaos_attempts(sd, "ok", s) == 1
        assert by_key[("flaky", 0)].ok
        assert chaos_attempts(sd, "fl", 0) == 2
        exit_t = by_key[("exit", 0)]
        assert not exit_t.ok and "BrokenProcessPool" in exit_t.error
        assert exit_t.attempts == 3  # retried to budget, then quarantined
        hang_t = by_key[("hang", 0)]
        assert not hang_t.ok and hang_t.error.startswith("Timeout")


class TestGracefulDrain:
    def test_sigint_drains_writes_manifest_and_resumes(self, tmp_path):
        sd = str(tmp_path)
        ck = str(tmp_path / "trials.jsonl")
        spec = ExperimentSpec(
            "cell", chaos_flaky,
            {"succeed_after": 1, "state_dir": sd, "label": "dr"},
            seeds=range(10),
        )
        completed = []

        def interrupt_after_two(trial):
            completed.append(trial)
            if len(completed) == 2:
                signal.raise_signal(signal.SIGINT)

        before = signal.getsignal(signal.SIGINT)
        sweep = run_sweep([spec], workers=2, checkpoint=ck,
                          progress=interrupt_after_two, drain_grace=2.0)
        assert signal.getsignal(signal.SIGINT) is before  # handler restored
        assert sweep.drained == "SIGINT"
        assert 2 <= len(sweep.trials) < 10
        manifest = json.loads((tmp_path / "trials.jsonl.manifest.json").read_text())
        assert manifest["drained"] == "SIGINT"
        assert manifest["completed"] == len(sweep.trials)
        done = {t.seed for t in sweep.trials}
        assert {e["seed"] for e in manifest["unfinished"]} == set(range(10)) - done

        resumed = run_sweep([spec], workers=2, checkpoint=ck, resume=ck)
        assert resumed.drained is None
        assert sorted(t.seed for t in resumed.trials) == list(range(10))
        assert all(t.ok for t in resumed.trials)
        # exactly-once: nothing the first sweep completed was re-executed
        assert [chaos_attempts(sd, "dr", s) for s in range(10)] == [1] * 10

    def test_partial_json_written_on_drain(self, tmp_path):
        out = tmp_path / "bench.json"
        spec = ExperimentSpec(
            "cell", chaos_flaky,
            {"succeed_after": 1, "state_dir": str(tmp_path), "label": "pj"},
            seeds=range(8),
        )

        fired = []

        def interrupt_first(trial):
            if not fired:
                fired.append(True)
                signal.raise_signal(signal.SIGINT)

        sweep = run_sweep([spec], workers=2, json_path=str(out),
                          progress=interrupt_first, drain_grace=2.0)
        data = json.loads(out.read_text())
        assert data["drained"] == "SIGINT"
        assert len(data["trials"]) == len(sweep.trials) >= 1
