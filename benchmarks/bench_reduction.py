"""E3 + E5 — Lemmas 2.4 and 2.6 (degree–rank reduction trajectories).

Paper claims:
* (E3, Lemma 2.4) after k iterations of Reduction I,
  ``δ_k > ((1−ε)/2)^k δ − 2`` and ``r_k < ((1+ε)/2)^k r + 3``.
* (E5, Lemma 2.6) Reduction II reaches rank exactly 1 after ``⌈log r⌉``
  iterations, and never destroys a variable's last edge.
"""

from repro.bipartite import random_left_regular, regular_bipartite
from repro.core import (
    degree_rank_reduction_one,
    degree_rank_reduction_two,
    lemma_24_delta_lower_bound,
    lemma_24_rank_upper_bound,
)
from repro.utils.mathx import ceil_log2

from _harness import attach_rows


def test_e3_reduction_one_trajectories(benchmark):
    inst = random_left_regular(120, 120, 64, seed=1)
    eps = 0.2
    k = 4
    _, _, trace = degree_rank_reduction_one(inst, eps=eps, iterations=k)
    rows = []
    for i in range(k + 1):
        lo = lemma_24_delta_lower_bound(trace.deltas[0], eps, i)
        hi = lemma_24_rank_upper_bound(trace.ranks[0], eps, i)
        rows.append((i, trace.deltas[i], lo, trace.ranks[i], hi))
        assert trace.deltas[i] > lo - 1e-9
        assert trace.ranks[i] < hi + 1e-9

    benchmark(lambda: degree_rank_reduction_one(inst, eps=eps, iterations=k))
    attach_rows(
        benchmark,
        "E3 (Lemma 2.4): Reduction I trajectories vs bounds (eps=0.2)",
        ["k", "delta_k", "bound >", "r_k", "bound <"],
        rows,
    )


def test_e5_reduction_two_rank_one(benchmark):
    rows = []
    for r in (4, 8, 16, 32):
        n_left, d = 64, 2 * r
        inst = regular_bipartite(n_left, n_left * d // r, d)  # rank exactly r
        assert inst.rank == r
        k = ceil_log2(r)
        reduced, _, trace = degree_rank_reduction_two(inst, eps=0.01, iterations=k)
        rows.append((r, k, trace.ranks, reduced.rank, reduced.stats().min_rank))
        assert reduced.rank == 1
        assert reduced.stats().min_rank >= 1  # no variable lost its last edge

    inst = regular_bipartite(64, 128, 16)
    benchmark(
        lambda: degree_rank_reduction_two(inst, eps=0.01, iterations=ceil_log2(8))
    )
    attach_rows(
        benchmark,
        "E5 (Lemma 2.6): Reduction II reaches rank 1 in ceil(log r) iterations",
        ["r", "iters", "rank trajectory", "final rank", "final min rank"],
        rows,
    )
