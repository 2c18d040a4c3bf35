"""E1 + E2 — Lemmas 2.1 and 2.2.

Paper claims:
* (E1, Lemma 2.1) the derandomized basic algorithm is always valid when
  δ >= 2 log n, and costs O(∆·r) rounds — the charge should scale with ∆·r.
* (E2, Lemma 2.2) trimming reduces the charge to O(r · log n): for large ∆
  the trimmed algorithm is strictly cheaper, and stays valid on the
  untrimmed instance.
"""

from repro.bipartite import random_left_regular
from repro.core import basic_weak_splitting, is_weak_splitting, trimmed_weak_splitting
from repro.local import RoundLedger

from _harness import attach_rows


def test_e1_basic_rounds_scale_with_delta_r(benchmark):
    rows = []
    for d in (20, 40, 80):
        # Keep the rank near a constant 8 so Delta*r varies through Delta.
        inst = random_left_regular(200, 200 * d // 8, d, seed=d)
        led = RoundLedger()
        coloring = basic_weak_splitting(inst, ledger=led)
        assert is_weak_splitting(inst, coloring)
        rows.append((d, inst.rank, d * inst.rank, led.total, led.total / (d * inst.rank)))
    # Shape: rounds / (∆·r) stays within a constant band.
    ratios = [r[4] for r in rows]
    assert max(ratios) / min(ratios) < 6

    inst = random_left_regular(200, 200, 40, seed=40)
    benchmark(lambda: basic_weak_splitting(inst))
    attach_rows(
        benchmark,
        "E1 (Lemma 2.1): basic weak splitting rounds vs Delta*r",
        ["Delta", "r", "Delta*r", "rounds", "rounds/(Delta*r)"],
        rows,
    )


def test_e2_trimming_beats_basic_for_large_delta(benchmark):
    rows = []
    for d in (40, 80, 160):
        inst = random_left_regular(250, 500, d, seed=d)
        led_basic, led_trim = RoundLedger(), RoundLedger()
        col_b = basic_weak_splitting(inst, ledger=led_basic)
        col_t = trimmed_weak_splitting(inst, ledger=led_trim)
        assert is_weak_splitting(inst, col_b)
        assert is_weak_splitting(inst, col_t)  # valid on the UNTRIMMED graph
        rows.append((d, led_basic.total, led_trim.total, led_basic.total / led_trim.total))
    # Shape: the advantage grows with ∆ (trim cost is ∆-independent).
    assert rows[-1][3] > rows[0][3]
    assert all(r[2] < r[1] for r in rows)

    inst = random_left_regular(250, 500, 80, seed=80)
    benchmark(lambda: trimmed_weak_splitting(inst))
    attach_rows(
        benchmark,
        "E2 (Lemma 2.2): trimmed vs basic round charge",
        ["Delta", "basic rounds", "trimmed rounds", "speedup"],
        rows,
    )
