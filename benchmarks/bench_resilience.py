"""E23: resilience under recovery — plain vs self-stabilizing runs.

For each curated fault scenario the table compares the base pipeline
(faults land, contract violations recorded) against the same run with the
recovery layer's repair tail (:mod:`repro.scenarios.recovery`): violations
before vs after repair, the fraction of trials that certifiably recovered,
and the repair tail's round cost.  The paper-shaped claim: local
detect-and-repair drives every settling fault schedule back to a
zero-violation state within a bounded number of extra rounds.
"""

from _harness import attach_rows

from repro.scenarios import run_scenario

RESILIENCE_N = 400
RESILIENCE_SEEDS = range(5)

#: (scenario, backend) cells curated into the E23 table: one per fault
#: family (crash, correlated crash, shard loss, edge deletion, Byzantine
#: corruption) spanning all three pipelines, on both backends.
RESILIENCE_CELLS = (
    ("luby/crash", "dense"),
    ("luby/crash-correlated", "dense"),
    ("luby/crash-shard", "dense"),
    ("luby/edge-deletion", "dense"),
    ("luby/byzantine", "dense"),
    ("sinkless/byzantine", "reference"),
    ("splitting/byzantine", "reference"),
)


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def test_e23_recovery_restores_contracts(benchmark):
    rows = []
    for name, backend in RESILIENCE_CELLS:
        plain = [
            run_scenario(name, n=RESILIENCE_N, seed=s, backend=backend)
            for s in RESILIENCE_SEEDS
        ]
        recovering = [
            run_scenario(name, n=RESILIENCE_N, seed=s, backend=backend,
                         recover=True)
            for s in RESILIENCE_SEEDS
        ]
        recovered_fraction = _mean(m["recovered"] for m in recovering)
        after = _mean(m["violations"] for m in recovering)
        rows.append(
            (
                name,
                backend,
                f"{_mean(m['violations'] for m in plain):.2f}",
                f"{after:.2f}",
                f"{recovered_fraction:.2f}",
                f"{_mean(m['repair_rounds'] for m in recovering):.1f}",
                f"{_mean(m.get('rounds_to_recover', 0) for m in recovering):.1f}",
            )
        )
        # The headline property: every settling schedule certifiably
        # recovers to zero violations on every trial.
        assert recovered_fraction == 1.0, (name, backend)
        assert after == 0.0, (name, backend)
        # Sanity: the recovery layer actually had damage to repair
        # somewhere in this family sweep (guards against a scenario that
        # silently stopped injecting faults).
        assert all(
            m["violations_before_recovery"] == p["violations"]
            for m, p in zip(recovering, plain)
        ), (name, backend)

    assert any(float(r[2]) > 0 for r in rows), "no scenario produced damage"

    benchmark(
        lambda: run_scenario("luby/byzantine", n=RESILIENCE_N, seed=0,
                             backend="dense", recover=True)
    )
    attach_rows(
        benchmark,
        "E23: self-stabilizing recovery vs plain runs (violations, repair cost)",
        ["scenario", "backend", "viol before", "viol after", "recovered",
         "repair rounds", "rounds to recover"],
        rows,
    )
