"""E13 — Lemma 4.2 (MIS via splitting-driven heavy-node elimination).

Paper claims: the pipeline produces a valid MIS; each elimination phase
covers a polylog fraction of the heavy nodes (Lemma 4.4), so the heavy-node
count decays phase over phase; Luby on the reduced G* runs on degrees
O(log n).
"""

from repro.apps import mis_via_splitting
from repro.bipartite import random_simple_graph
from repro.mis import is_mis, luby_mis, mis_lower_bound

from _harness import attach_rows


def test_e13_pipeline_validity_and_progress(benchmark):
    rows = []
    for n, p in ((300, 0.5), (400, 0.5), (500, 0.6)):
        adj = random_simple_graph(n, p, seed=n)
        res = mis_via_splitting(adj, seed=n + 1, eps=0.2)
        assert is_mis(adj, res.mis)
        Delta = max(len(x) for x in adj)
        assert len(res.mis) >= mis_lower_bound(n, Delta)
        rows.append((n, Delta, res.phases, res.splits, res.heavy_history, len(res.mis)))
    # Shape: the splitting machinery engages on dense inputs.
    assert any(r[3] >= 1 for r in rows)

    adj = random_simple_graph(400, 0.5, seed=7)
    benchmark(lambda: mis_via_splitting(adj, seed=8, eps=0.2))
    attach_rows(
        benchmark,
        "E13 (Lemma 4.2): MIS via splitting — phases, splits, heavy decay",
        ["n", "Delta", "phases", "splits", "heavy per phase", "|MIS|"],
        rows,
    )


def test_e13_comparison_against_plain_luby(benchmark):
    """Baseline comparison: both produce valid MIS; the pipeline's value is
    the round structure (splitting + low-degree Luby), not the MIS size."""
    adj = random_simple_graph(400, 0.4, seed=9)
    res = mis_via_splitting(adj, seed=10, eps=0.2)
    luby_set, luby_rounds = luby_mis(adj, seed=11)
    assert is_mis(adj, res.mis) and is_mis(adj, luby_set)
    rows = [(len(res.mis), res.luby_rounds, len(luby_set), luby_rounds)]

    benchmark(lambda: luby_mis(adj, seed=12))
    attach_rows(
        benchmark,
        "E13: splitting-pipeline MIS vs plain Luby",
        ["pipeline |MIS|", "pipeline Luby rounds", "plain |MIS|", "plain rounds"],
        rows,
    )
