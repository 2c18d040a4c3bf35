"""E12 — Lemma 4.1 ((1 + o(1))∆ coloring via uniform splitting).

Paper claim: recursive splitting + disjoint-palette (d+1)-colorings use
(1 + o(1))∆ colors — the measured palette/(∆+1) ratio should approach 1
from above as ∆ grows (whereas naive disjoint palettes without balance
would pay a constant factor).
"""

from repro.apps import coloring_via_splitting
from repro.bipartite import configuration_model_regular
from repro.coloring import is_proper_coloring
from repro.local import RoundLedger

from _harness import attach_rows


def test_e12_palette_ratio_approaches_one(benchmark):
    rows = []
    ratios = []
    for n, d in ((300, 128), (400, 160), (500, 240)):
        adj = configuration_model_regular(n, d, seed=n)
        led = RoundLedger()
        res = coloring_via_splitting(adj, ledger=led, seed=n)
        assert is_proper_coloring(adj, res.colors)
        ratios.append(res.palette_ratio)
        rows.append((n, d, res.levels, res.num_colors, res.palette_ratio, led.total))
    # Shape: palette stays within (1 + o(1))∆ — concretely under 1.6x here,
    # and the splitting machinery engages (levels >= 1) on every input.
    assert all(r[2] >= 1 for r in rows)
    assert all(x < 1.6 for x in ratios)

    adj = configuration_model_regular(400, 160, seed=1)
    benchmark(lambda: coloring_via_splitting(adj, seed=1))
    attach_rows(
        benchmark,
        "E12 (Lemma 4.1): coloring via splitting, palette/(Delta+1)",
        ["n", "Delta", "levels", "palette", "ratio", "rounds"],
        rows,
    )


def test_e12_splitting_beats_naive_partition(benchmark):
    """Ablation within E12: random unbalanced halving would multiply the
    palette by ~2^levels/(2^levels) only if halves stay balanced — the
    splitter's guarantee.  Compare against greedy on the whole graph."""
    from repro.coloring import d_plus_one_coloring

    adj = configuration_model_regular(400, 160, seed=2)
    res = coloring_via_splitting(adj, seed=3)
    _, greedy_palette = d_plus_one_coloring(adj)
    rows = [(res.num_colors, greedy_palette, res.Delta + 1)]
    # Both stay near ∆+1; the pipeline must not be catastrophically worse
    # than greedy (the paper's point is it achieves this *locally*).
    assert res.num_colors <= 2 * (res.Delta + 1)

    benchmark(lambda: coloring_via_splitting(adj, seed=3))
    attach_rows(
        benchmark,
        "E12: pipeline palette vs greedy vs Delta+1",
        ["pipeline palette", "greedy palette", "Delta+1"],
        rows,
    )
