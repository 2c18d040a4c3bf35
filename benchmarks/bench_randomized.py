"""E8 — Theorem 1.2 (randomized weak splitting).

Paper claims: with δ >= c log(r log n), shattering leaves residual
components of size O(r⁴ log⁶ n) = poly(r, log n) (in particular a vanishing
fraction of the graph), each with δ_H >= δ/4, and the composed algorithm is
a valid weak splitting w.h.p.  Rounds: O(1) shattering + max component cost.
"""

import math

from repro.bipartite import random_left_regular, split_high_degree_left
from repro.core import is_weak_splitting, randomized_weak_splitting, shatter
from repro.local import RoundLedger

from _harness import attach_rows


def test_e8_residual_components_are_tiny(benchmark):
    rows = []
    for n_side in (1000, 2000, 4000):
        inst = random_left_regular(n_side, n_side, 24, seed=n_side + 24)
        out = shatter(inst, seed=n_side + 1)
        sizes = out.residual_component_sizes()
        biggest = max(sizes, default=0)
        rows.append(
            (
                inst.n,
                len(out.unsatisfied),
                biggest,
                biggest / inst.n,
            )
        )
    # Shape: the largest residual component is a small fraction of n —
    # poly(r, log n), not Θ(n).  (At laptop scale the fraction still drifts
    # with n; the qualitative claim is sub-giant components.)
    assert all(row[3] < 0.15 for row in rows)

    inst = random_left_regular(1000, 1000, 24, seed=7)
    benchmark(lambda: shatter(inst, seed=8))
    attach_rows(
        benchmark,
        "E8 (Theorem 1.2): residual component sizes after shattering (delta=24)",
        ["n", "#unsatisfied", "max component", "fraction of n"],
        rows,
    )


def test_e8_residual_degree_invariant(benchmark):
    inst = random_left_regular(1200, 1200, 12, seed=9)
    virtual, _ = split_high_degree_left(inst)
    out = shatter(virtual, seed=10)
    res = out.residual
    worst = min(
        (
            res.left_degree(i) / virtual.left_degree(u)
            for i, u in enumerate(out.residual_left_ids)
        ),
        default=1.0,
    )
    assert worst >= 0.25  # δ_H >= δ/4

    benchmark(lambda: shatter(virtual, seed=11))
    attach_rows(
        benchmark,
        "E8 (Theorem 1.2): delta_H / delta over residual constraints",
        ["min ratio", "bound"],
        [(worst, 0.25)],
    )


def test_e8_full_pipeline_validity_and_rounds(benchmark):
    rows = []
    for n_side in (400, 800, 1600):
        inst = random_left_regular(n_side, n_side, 12, seed=n_side + 3)
        led = RoundLedger()
        coloring = randomized_weak_splitting(inst, seed=n_side, ledger=led)
        assert is_weak_splitting(inst, coloring)
        polylog = math.log2(inst.n) ** 2
        rows.append((inst.n, led.total, led.total / polylog))
    # Shape: rounds grow at most polylogarithmically in n — the normalized
    # column must not blow up while n grows 4x.
    assert rows[-1][2] < rows[0][2] * 4

    inst = random_left_regular(800, 800, 12, seed=12)
    benchmark(lambda: randomized_weak_splitting(inst, seed=13))
    attach_rows(
        benchmark,
        "E8 (Theorem 1.2): randomized pipeline rounds vs n (delta=12)",
        ["n", "rounds", "rounds/log^2 n"],
        rows,
    )
