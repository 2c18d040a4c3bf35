"""E4 + E16 — Theorem 2.5 (deterministic weak splitting).

Paper claims:
* (E4) round complexity O(r/δ · log²n + log³n (log log n)^1.1): at fixed n
  and δ the rounds grow roughly linearly in r; at fixed r/δ they grow
  polylogarithmically in n.
* (E16) the algorithm switches from the Lemma 2.2 path to the reduction
  pipeline at δ = 48 log n, and both sides of the boundary stay valid.
"""

import math

from repro.bipartite import random_left_regular
from repro.core import (
    deterministic_weak_splitting,
    is_weak_splitting,
    theorem_25_trim_threshold,
)
from repro.local import RoundLedger

from _harness import attach_rows


def test_e4_rounds_grow_with_rank(benchmark):
    rows = []
    d = 24
    for n_right in (1600, 800, 400, 200):
        inst = random_left_regular(400, n_right, d, seed=n_right)
        led = RoundLedger()
        coloring = deterministic_weak_splitting(inst, ledger=led)
        assert is_weak_splitting(inst, coloring)
        rows.append((inst.rank, inst.rank / d, led.total, led.total / max(1, inst.rank)))
    # Shape: rounds increase monotonically with the rank.
    totals = [r[2] for r in rows]
    assert totals == sorted(totals)

    inst = random_left_regular(400, 400, d, seed=0)
    benchmark(lambda: deterministic_weak_splitting(inst))
    attach_rows(
        benchmark,
        "E4 (Theorem 2.5): rounds vs rank at fixed delta=24",
        ["r", "r/delta", "rounds", "rounds/r"],
        rows,
    )


def test_e4_rounds_polylog_in_n(benchmark):
    rows = []
    d = 24
    for n_side in (100, 200, 400, 800):
        inst = random_left_regular(n_side, n_side, d, seed=n_side)
        led = RoundLedger()
        coloring = deterministic_weak_splitting(inst, ledger=led)
        assert is_weak_splitting(inst, coloring)
        polylog = inst.rank / d * math.log2(inst.n) ** 2
        rows.append((inst.n, inst.rank, led.total, led.total / polylog))
    # Shape: rounds / (r/δ · log² n) stays within a constant band while n
    # grows 8x (rank tracks n here since both sides scale together).
    ratios = [r[3] for r in rows]
    assert max(ratios) / min(ratios) < 6

    benchmark(
        lambda: deterministic_weak_splitting(
            random_left_regular(200, 200, d, seed=1)
        )
    )
    attach_rows(
        benchmark,
        "E4 (Theorem 2.5): rounds vs n at fixed delta=24",
        ["n", "r", "rounds", "rounds/(r/delta*log^2 n)"],
        rows,
    )


def test_e16_regime_boundary(benchmark):
    """Cross the δ = 48 log n boundary via n_override and watch the
    algorithm switch from pure trimming to reduction + trimming."""
    inst = random_left_regular(60, 700, 240, seed=2)
    rows = []
    for n_override in (2**20, 2**10, 2**6, 2**4):
        led = RoundLedger()
        coloring = deterministic_weak_splitting(inst, ledger=led, n_override=n_override)
        assert is_weak_splitting(inst, coloring)
        threshold = theorem_25_trim_threshold(n_override)
        used_reduction = any(l.startswith("reduction-I") for l in led.breakdown())
        rows.append((n_override, round(threshold, 1), inst.delta > threshold, used_reduction, led.total))
        assert used_reduction == (inst.delta > threshold)

    benchmark(
        lambda: deterministic_weak_splitting(inst, n_override=2**4)
    )
    attach_rows(
        benchmark,
        "E16 (Theorem 2.5): the 48 log n regime switch",
        ["n (ambient)", "48 log n", "delta above?", "reduction used?", "rounds"],
        rows,
    )
