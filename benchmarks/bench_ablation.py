"""E15 — ablation: Eulerian vs random-orientation degree-splitting substrate.

The substrate substitution is the key design decision of the Section 2
reductions.  This experiment demonstrates *why* the strong substrate matters:
the random 0-round orienter's discrepancy grows like √(d log n), which
violates the ε·d + 2 guarantee the Section 2 reductions consume, and
degrades the degree–rank reduction trajectories.
"""

from repro.bipartite import random_left_regular
from repro.core import degree_rank_reduction_one
from repro.orientation import Multigraph, directed_degree_splitting

from _harness import attach_rows


def _dense_multigraph(n, d, seed):
    import random

    rng = random.Random(seed)
    edges = []
    for v in range(n):
        for _ in range(d // 2):
            edges.append((v, rng.randrange(n)))
    return Multigraph(n, edges)


def test_e15_substrate_discrepancy(benchmark):
    rows = []
    for d in (32, 128, 512):
        g = _dense_multigraph(300, d, seed=d)
        eu = directed_degree_splitting(g, eps=0.01, n=300)
        rnd = directed_degree_splitting(g, eps=0.01, n=300, engine="random", seed=d)
        rows.append(
            (
                d,
                eu.orientation.max_discrepancy(),
                rnd.orientation.max_discrepancy(),
                len(rnd.violations()),
            )
        )
        assert eu.orientation.max_discrepancy() <= 1
    # Shape: random discrepancy grows with degree; eulerian stays <= 1.
    rand_disc = [r[2] for r in rows]
    assert rand_disc[-1] > rand_disc[0]
    assert rows[-1][3] > 0  # random engine violates the eps*d+2 guarantee

    g = _dense_multigraph(300, 128, seed=0)
    benchmark(lambda: directed_degree_splitting(g, eps=0.01, n=300))
    attach_rows(
        benchmark,
        "E15 (ablation): substrate discrepancy, eulerian vs random",
        ["degree", "eulerian max disc", "random max disc", "random violations"],
        rows,
    )


def test_e15_downstream_reduction_quality(benchmark):
    """Feed both substrates into Reduction I and compare how well the
    minimum degree survives (Lemma 2.4's bound assumes the guarantee)."""
    inst = random_left_regular(150, 150, 48, seed=1)
    _, _, eu_trace = degree_rank_reduction_one(inst, eps=0.2, iterations=3, engine="eulerian")
    _, _, rnd_trace = degree_rank_reduction_one(inst, eps=0.2, iterations=3, engine="random", seed=2)
    rows = [
        (k, eu_trace.deltas[k], rnd_trace.deltas[k])
        for k in range(4)
    ]
    # Shape: the eulerian substrate preserves at least as much minimum
    # degree at the end of the reduction.
    assert eu_trace.deltas[-1] >= rnd_trace.deltas[-1]

    benchmark(
        lambda: degree_rank_reduction_one(inst, eps=0.2, iterations=3, engine="random", seed=3)
    )
    attach_rows(
        benchmark,
        "E15 (ablation): Reduction I delta trajectory by substrate",
        ["iteration", "delta (eulerian)", "delta (random)"],
        rows,
    )
