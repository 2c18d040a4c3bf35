#!/usr/bin/env python3
"""Scenario: (1 + o(1))∆ vertex coloring via repeated splitting (Lemma 4.1).

This is the application that motivates splitting in the paper's
introduction: recursively split a graph into balanced halves, then color
the low-degree leaf subgraphs with disjoint palettes.  The palette ends up
close to ∆ + 1 — far below the 2∆-ish cost of naive recursive halving
without the balance guarantee.

Run:  python examples/coloring_pipeline.py
"""

from repro import RoundLedger
from repro.apps import coloring_via_splitting
from repro.bipartite import configuration_model_regular
from repro.coloring import is_proper_coloring


def main() -> None:
    for n, d in ((300, 128), (400, 160), (500, 240)):
        adj = configuration_model_regular(n, d, seed=n)
        ledger = RoundLedger()
        result = coloring_via_splitting(adj, ledger=ledger, seed=n)
        assert is_proper_coloring(adj, result.colors)
        print(
            f"n={n:4d}  Delta={d:4d}  split levels={result.levels}  "
            f"palette={result.num_colors:4d}  palette/(Delta+1)={result.palette_ratio:.3f}  "
            f"rounds={ledger.total:,.0f}"
        )
    print("\nLemma 4.1 guarantees palette <= (1 + o(1)) * Delta; the ratio column")
    print("must therefore stay bounded near 1 (greedy leaf colorings on random")
    print("graphs land well below the Delta+1 worst case, hence ratios < 1).")


if __name__ == "__main__":
    main()
