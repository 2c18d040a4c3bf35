"""Tests for the Lemma 4.1 coloring pipeline."""

import pytest

from repro.apps import coloring_via_splitting
from repro.bipartite.generators import configuration_model_regular, random_simple_graph
from repro.coloring import is_proper_coloring
from repro.local import RoundLedger


class TestColoringPipeline:
    def test_proper_on_dense_graph(self):
        adj = configuration_model_regular(400, 160, seed=1)
        res = coloring_via_splitting(adj, seed=2)
        assert is_proper_coloring(adj, res.colors)

    def test_splitting_engages_on_dense_graph(self):
        adj = configuration_model_regular(400, 160, seed=3)
        res = coloring_via_splitting(adj, seed=4)
        assert res.levels >= 1

    def test_palette_below_greedy_bound(self):
        """The whole point: far fewer than 2^levels * (Delta+1) colors."""
        adj = configuration_model_regular(400, 160, seed=5)
        res = coloring_via_splitting(adj, seed=6)
        assert res.num_colors <= (1.5) * (res.Delta + 1)

    def test_sparse_graph_skips_to_direct_coloring(self):
        adj = random_simple_graph(100, 0.05, seed=7)
        res = coloring_via_splitting(adj, seed=8)
        assert res.levels == 0
        assert is_proper_coloring(adj, res.colors)

    def test_leaf_degrees_recorded(self):
        adj = configuration_model_regular(300, 120, seed=9)
        res = coloring_via_splitting(adj, seed=10)
        assert len(res.leaf_degrees) == 2 ** res.levels or res.levels == 0

    def test_ledger_collects_both_phases(self):
        adj = configuration_model_regular(300, 120, seed=11)
        led = RoundLedger()
        res = coloring_via_splitting(adj, ledger=led, seed=12)
        if res.levels:
            assert "slocal-conversion" in led.breakdown()
        assert "(d+1)-coloring" in led.breakdown()

    def test_dense_method(self):
        adj = configuration_model_regular(300, 120, seed=13)
        res = coloring_via_splitting(adj, seed=14, method="dense")
        assert is_proper_coloring(adj, res.colors)

    def test_palette_ratio_property(self):
        adj = configuration_model_regular(200, 80, seed=15)
        res = coloring_via_splitting(adj, seed=16)
        assert res.palette_ratio == res.num_colors / (res.Delta + 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            coloring_via_splitting([])

    def test_single_node(self):
        res = coloring_via_splitting([[]])
        assert res.colors == [0] and res.num_colors == 1
