#!/usr/bin/env python3
"""Scenario: the hypergraph lens on weak splitting.

The paper reads B = (U ∪ V, E) as a hypergraph: U is the vertex set, every
variable node is a hyperedge over its neighbors, and the rank r is the
maximum hyperedge size.  Weak splitting = 2-color the *hyperedges* so every
vertex lies in a hyperedge of each color.

This script builds a random low-rank hypergraph directly, solves weak
splitting through the conversion, and reads the answer back in hypergraph
terms.

Run:  python examples/hypergraph_view.py
"""

import random

from repro import RED, solve_weak_splitting
from repro.bipartite import Hypergraph
from repro.core import is_weak_splitting


def main() -> None:
    rng = random.Random(5)
    n_vertices, rank = 80, 3
    # Enough random hyperedges of size <= 3 that delta >= 6r holds.
    edges = []
    for _ in range(n_vertices * 14):
        k = rng.randint(2, rank)
        edges.append(tuple(rng.sample(range(n_vertices), k)))
    hg = Hypergraph(n_vertices, edges)
    print(f"hypergraph: {hg}, min vertex degree = {hg.min_vertex_degree()}")

    inst = hg.to_bipartite()
    print(f"bipartite view: {inst}  (delta >= 6r: {inst.delta >= 6 * inst.rank})")

    coloring = solve_weak_splitting(inst, seed=6)
    assert is_weak_splitting(inst, coloring)

    reds = sum(1 for c in coloring if c == RED)
    print(f"\nhyperedge coloring: {reds} red / {hg.n_edges - reds} blue")
    # Read the guarantee back in hypergraph terms for a few vertices.
    for v in range(3):
        incident = [j for j, e in enumerate(hg.edges) if v in e]
        colors = {("red" if coloring[j] == RED else "blue") for j in incident}
        print(f"  vertex {v}: {len(incident)} hyperedges, colors seen = {sorted(colors)}")


if __name__ == "__main__":
    main()
