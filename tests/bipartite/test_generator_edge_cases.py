"""Degenerate-parameter behaviour of the scenario-graph generators.

Every boundary must yield either a clean ``ValueError`` (from ``require``)
or a valid empty/trivial graph — never silent garbage: these generators
feed the sweep runner, where a malformed graph would corrupt experiment
conclusions rather than crash.
"""

import pytest

from repro.bipartite.generators import (
    configuration_model_regular,
    powerlaw_bipartite,
    random_sparse_graph,
)
from repro.local import Adjacency, Network


def assert_valid_adjacency(adj):
    """Symmetric, loop-free, in-range — Network's constructor checks most."""
    Network(adj)
    for i, nbrs in enumerate(adj):
        assert i not in nbrs


class TestRandomSparseGraph:
    def test_empty_graph(self):
        assert random_sparse_graph(0, 0.0) == Adjacency([])

    def test_single_node_zero_degree(self):
        assert random_sparse_graph(1, 0.0) == Adjacency([[]])

    def test_single_node_fractional_degree_rounds_to_empty(self):
        assert random_sparse_graph(1, 0.5) == Adjacency([[]])

    def test_single_node_degree_one_rejected(self):
        # No simple edge exists on one node; the degree request must fail
        # loudly instead of looping in rejection sampling.
        with pytest.raises(ValueError, match="avg_degree must be < n"):
            random_sparse_graph(1, 1.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            random_sparse_graph(5, -1.0)

    def test_two_nodes_one_edge(self):
        adj = random_sparse_graph(2, 1.0, seed=0)
        assert adj == Adjacency([[1], [0]])
        assert_valid_adjacency(adj)


class TestConfigurationModelRegular:
    def test_empty_graph(self):
        assert configuration_model_regular(0, 0) == Adjacency([])

    def test_single_node_degree_zero(self):
        assert configuration_model_regular(1, 0) == Adjacency([[]])

    def test_degree_zero_many_nodes(self):
        assert configuration_model_regular(4, 0) == Adjacency([[], [], [], []])

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(ValueError, match="must be even"):
            configuration_model_regular(5, 3)
        with pytest.raises(ValueError, match="must be even"):
            configuration_model_regular(1, 1)

    def test_degree_at_least_n_rejected(self):
        with pytest.raises(ValueError, match="0 <= d < n"):
            configuration_model_regular(4, 4)

    def test_small_regular_graphs_valid(self):
        for n, d in ((2, 1), (4, 3), (6, 2)):
            adj = configuration_model_regular(n, d, seed=1)
            assert all(len(nbrs) == d for nbrs in adj)
            assert_valid_adjacency(adj)


class TestPowerlawBipartite:
    def test_dmin_above_n_right_rejected(self):
        with pytest.raises(ValueError, match="dmin <= dmax <= n_right"):
            powerlaw_bipartite(1, 1, dmin=2, dmax=2)

    def test_zero_dmin_rejected(self):
        with pytest.raises(ValueError, match="0 < dmin"):
            powerlaw_bipartite(1, 2, dmin=0, dmax=1)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="dmin <= dmax <= n_right"):
            powerlaw_bipartite(0, 0, dmin=1, dmax=1)

    def test_dmax_above_n_right_rejected(self):
        with pytest.raises(ValueError, match="dmax <= n_right"):
            powerlaw_bipartite(2, 3, dmin=1, dmax=5)

    def test_minimal_instance(self):
        inst = powerlaw_bipartite(1, 1, dmin=1, dmax=1, seed=0)
        assert inst.n_left == 1 and inst.n_right == 1
        assert list(inst.edges) == [(0, 0)]

    def test_no_left_nodes_is_a_valid_empty_instance(self):
        inst = powerlaw_bipartite(0, 3, dmin=1, dmax=2, seed=0)
        assert inst.n_left == 0 and inst.n_right == 3
        assert list(inst.edges) == []

    def test_degrees_within_bounds_and_distinct_neighbors(self):
        inst = powerlaw_bipartite(40, 30, dmin=2, dmax=9, seed=7)
        for u in range(inst.n_left):
            nbrs = list(inst.left_neighbors(u))
            assert 2 <= len(nbrs) <= 9
            assert len(set(nbrs)) == len(nbrs)
