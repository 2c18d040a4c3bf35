"""E9 — Theorem 2.10 / Figure 1 (the lower-bound reduction).

Paper claims: the reduction produces a rank <= 2 instance with
``n_B = |V| + |E|`` and ``∆_B <= ∆_G``; any weak splitting of it converts
to a sinkless orientation of G.  The round formulas Ω(log_∆ log n)
(randomized) and Ω(log_∆ n) (deterministic) are tabulated for context.
"""

from repro.bipartite import configuration_model_regular
from repro.core import (
    deterministic_lower_bound_rounds,
    orientation_from_weak_splitting,
    randomized_lower_bound_rounds,
    solve_weak_splitting,
    weak_splitting_instance_from_graph,
)
from repro.orientation import is_sinkless

from _harness import attach_rows


def test_e9_reduction_parameters_and_soundness(benchmark):
    rows = []
    for n, d in ((60, 6), (120, 8), (240, 10)):
        adj = configuration_model_regular(n, d, seed=n)
        inst, edge_list = weak_splitting_instance_from_graph(adj)
        m = sum(len(x) for x in adj) // 2
        assert inst.rank <= 2
        assert inst.n == n + m
        assert inst.Delta <= d
        coloring = solve_weak_splitting(inst, method="heuristic", seed=1)
        orientation = orientation_from_weak_splitting(edge_list, coloring)
        ok = is_sinkless(adj, orientation)
        assert ok
        rows.append((n, d, inst.n, inst.rank, inst.delta, ok))

    adj = configuration_model_regular(120, 8, seed=120)
    inst, edge_list = weak_splitting_instance_from_graph(adj)

    def chain():
        coloring = solve_weak_splitting(inst, method="heuristic", seed=2)
        return orientation_from_weak_splitting(edge_list, coloring)

    benchmark(chain)
    attach_rows(
        benchmark,
        "E9 (Thm 2.10 / Figure 1): reduction parameters + soundness",
        ["n_G", "Delta_G", "n_B", "rank_B", "delta_B", "sinkless?"],
        rows,
    )


def test_e9_lower_bound_round_formulas(benchmark):
    rows = []
    for n in (2**10, 2**16, 2**24):
        for Delta in (4, 16):
            rows.append(
                (
                    n,
                    Delta,
                    randomized_lower_bound_rounds(Delta, n),
                    deterministic_lower_bound_rounds(Delta, n),
                )
            )
    # Shape: deterministic bound dominates randomized everywhere.
    assert all(row[3] > row[2] for row in rows)

    benchmark(lambda: deterministic_lower_bound_rounds(16, 2**24))
    attach_rows(
        benchmark,
        "E9: lower-bound round formulas (constants 1)",
        ["n", "Delta", "rand lb (log_D log n)", "det lb (log_D n)"],
        rows,
    )
