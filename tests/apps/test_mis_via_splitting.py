"""Tests for the Lemma 4.2 MIS pipeline."""

from repro.apps import mis_via_splitting
from repro.bipartite.generators import configuration_model_regular, random_simple_graph
from repro.mis import is_mis, mis_lower_bound
from tests.conftest import cycle_graph, path_graph


class TestMisPipeline:
    def test_valid_on_dense_graph(self):
        adj = random_simple_graph(400, 0.5, seed=1)
        res = mis_via_splitting(adj, seed=2, eps=0.2)
        assert is_mis(adj, res.mis)

    def test_splitting_engages_on_dense_graph(self):
        adj = random_simple_graph(500, 0.6, seed=3)
        res = mis_via_splitting(adj, seed=4, eps=0.2)
        assert res.splits >= 1

    def test_valid_on_sparse_graph(self):
        adj = random_simple_graph(200, 0.03, seed=5)
        res = mis_via_splitting(adj, seed=6)
        assert is_mis(adj, res.mis)

    def test_path_and_cycle(self):
        for adj in (path_graph(20), cycle_graph(21)):
            res = mis_via_splitting(adj, seed=7)
            assert is_mis(adj, res.mis)

    def test_empty_graph(self):
        res = mis_via_splitting([], seed=8)
        assert res.mis == set()

    def test_isolated_nodes_included(self):
        adj = [[], [2], [1], []]
        res = mis_via_splitting(adj, seed=9)
        assert {0, 3} <= res.mis

    def test_lemma_43_size_bound(self):
        adj = configuration_model_regular(200, 10, seed=10)
        res = mis_via_splitting(adj, seed=11)
        assert len(res.mis) >= mis_lower_bound(200, 10)

    def test_heavy_history_recorded(self):
        adj = random_simple_graph(400, 0.5, seed=12)
        res = mis_via_splitting(adj, seed=13, eps=0.2)
        assert res.heavy_history and res.heavy_history[0] > 0

    def test_reproducible(self):
        adj = random_simple_graph(150, 0.2, seed=14)
        a = mis_via_splitting(adj, seed=15)
        b = mis_via_splitting(adj, seed=15)
        assert a.mis == b.mis

    def test_derandomized_method_on_dense(self):
        adj = random_simple_graph(500, 0.6, seed=16)
        res = mis_via_splitting(adj, seed=17, method="derandomized", eps=0.2)
        assert is_mis(adj, res.mis)
