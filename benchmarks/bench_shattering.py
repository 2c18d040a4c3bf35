"""E7 — Lemma 2.9 (shattering failure probability).

Paper claim: after the shattering algorithm, the probability that a
constraint is unsatisfied is at most ``e^{-η∆}`` for some η > 0 — i.e. the
log of the empirical unsatisfied rate should fall roughly linearly in ∆.
"""

import math

from repro.bipartite import random_left_regular
from repro.core import shatter, unsatisfied_probability_estimate

from _harness import attach_rows

TRIALS = 30


def test_e7_unsatisfied_probability_decays_exponentially(benchmark):
    rows = []
    estimates = {}
    for d in (8, 12, 16, 24, 32):
        inst = random_left_regular(300, 600, d, seed=d)
        p, _ = unsatisfied_probability_estimate(inst, trials=TRIALS, seed=d)
        estimates[d] = p
        log_p = math.log(p) if p > 0 else float("-inf")
        rows.append((d, p, log_p, (-log_p / d) if p > 0 else float("nan")))

    # Shape: monotone decay, and at least exponential-ish: p(32) should be
    # far below p(8) (factor >= 20 rather than the 4x a polynomial would give).
    assert estimates[32] < estimates[16] < estimates[8]
    if estimates[32] > 0:
        assert estimates[8] / estimates[32] > 20

    inst = random_left_regular(300, 600, 16, seed=0)
    benchmark(lambda: shatter(inst, seed=1))
    attach_rows(
        benchmark,
        "E7 (Lemma 2.9): Pr[constraint unsatisfied] vs Delta (30 trials each)",
        ["Delta", "p_unsat", "ln p", "eta = -ln(p)/Delta"],
        rows,
    )


def test_e7_quarter_uncolored_structural_invariant(benchmark):
    """The deterministic half of the lemma's machinery: every constraint
    keeps >= 1/4 of its neighbors uncolored, on every run."""
    inst = random_left_regular(400, 800, 20, seed=3)
    worst = 1.0
    for trial in range(10):
        out = shatter(inst, seed=trial)
        for u in range(inst.n_left):
            neighbors = inst.left_neighbors(u)
            frac = sum(1 for v in neighbors if out.partial[v] is None) / len(neighbors)
            worst = min(worst, frac)
    assert worst >= 0.25

    benchmark(lambda: shatter(inst, seed=99))
    attach_rows(
        benchmark,
        "E7 (shattering): minimum uncolored fraction over 10 runs",
        ["min uncolored fraction", "bound"],
        [(worst, 0.25)],
    )
