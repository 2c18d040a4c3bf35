#!/usr/bin/env python3
"""Scenario: the lower-bound reduction of Figure 1 / Theorem 2.10.

Weak splitting is at least as hard as sinkless orientation: given any graph
G of minimum degree >= 5, the paper builds a rank-2 weak splitting instance
whose solutions convert directly into sinkless orientations of G.  This
script runs that construction end to end and verifies no node is a sink.

Run:  python examples/sinkless_orientation.py
"""

from repro import solve_weak_splitting
from repro.bipartite import configuration_model_regular
from repro.core import (
    deterministic_lower_bound_rounds,
    orientation_from_weak_splitting,
    randomized_lower_bound_rounds,
    weak_splitting_instance_from_graph,
)
from repro.orientation import is_sinkless, sinks


def main() -> None:
    n, d = 120, 8
    adj = configuration_model_regular(n, d, seed=7)
    print(f"source graph G: {n} nodes, {d}-regular")

    inst, edge_list = weak_splitting_instance_from_graph(adj)
    print(
        f"reduction instance B: |U|={inst.n_left}, |V|={inst.n_right} "
        f"(= |E_G|), rank={inst.rank}, delta={inst.delta}"
    )

    # These instances live in the paper's *hard* regime (rank 2, tiny δ):
    # no efficient LOCAL algorithm is known — that is exactly the theorem.
    # We solve centrally with the verified heuristic path.
    coloring = solve_weak_splitting(inst, method="heuristic", seed=1)

    orientation = orientation_from_weak_splitting(edge_list, coloring)
    assert is_sinkless(adj, orientation)
    print(f"orientation is sinkless: {not sinks(adj, orientation)}")

    print("\nimplied LOCAL lower bounds for weak splitting (constants 1):")
    print(f"  randomized    Omega(log_D log n) = {randomized_lower_bound_rounds(d, inst.n):.2f}")
    print(f"  deterministic Omega(log_D n)     = {deterministic_lower_bound_rounds(d, inst.n):.2f}")


if __name__ == "__main__":
    main()
