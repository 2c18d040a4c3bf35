"""E6 — Theorem 2.7 (δ >= 6r regime).

Paper claims: for δ >= 6r, weak splitting is solvable in poly log n rounds
deterministically and poly log log n randomized, by driving the rank down
to 1 with Reduction II while the minimum degree stays >= 2.
"""

from repro.bipartite import regular_bipartite
from repro.core import is_weak_splitting, low_rank_weak_splitting
from repro.core.reduction import degree_rank_reduction_two
from repro.local import RoundLedger
from repro.utils.mathx import ceil_log2

from _harness import attach_rows


def test_e6_low_rank_pipeline(benchmark):
    rows = []
    for ratio in (6, 8, 12):
        r = 2
        d = ratio * r
        inst = regular_bipartite(80, 80 * d // r, d)
        assert inst.rank == r and inst.delta == d
        led_det, led_rand = RoundLedger(), RoundLedger()
        col_det = low_rank_weak_splitting(inst, ledger=led_det)
        col_rand = low_rank_weak_splitting(inst, ledger=led_rand, randomized=True, seed=1)
        assert is_weak_splitting(inst, col_det)
        assert is_weak_splitting(inst, col_rand)
        rows.append((d, r, ratio, led_det.total, led_rand.total))
    # Shape: the randomized substrate variant is cheaper (log log n tail).
    assert all(row[4] < row[3] for row in rows)

    inst = regular_bipartite(80, 480, 12)
    benchmark(lambda: low_rank_weak_splitting(inst))
    attach_rows(
        benchmark,
        "E6 (Theorem 2.7): delta >= 6r, deterministic vs randomized rounds",
        ["delta", "r", "delta/r", "det rounds", "rand rounds"],
        rows,
    )


def test_e6_min_degree_survives_to_rank_one(benchmark):
    """The theorem's inner invariant: after ceil(log r) halvings the
    minimum constraint degree is still >= 2."""
    rows = []
    for r in (2, 4, 8):
        d = 6 * r
        inst = regular_bipartite(60, 60 * d // r, d)
        k = ceil_log2(r)
        reduced, _, trace = degree_rank_reduction_two(
            inst, eps=1.0 / (10 * inst.Delta), iterations=k
        )
        rows.append((d, r, k, trace.deltas, reduced.rank))
        assert reduced.rank == 1
        assert reduced.delta >= 2

    inst = regular_bipartite(60, 360, 12)
    benchmark(
        lambda: degree_rank_reduction_two(inst, eps=1.0 / 120, iterations=1)
    )
    attach_rows(
        benchmark,
        "E6 (Theorem 2.7): delta trajectory under Reduction II",
        ["delta", "r", "iters", "delta trajectory", "final rank"],
        rows,
    )
