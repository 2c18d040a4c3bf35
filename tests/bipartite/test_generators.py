"""Tests for the instance generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite import (
    configuration_model_regular,
    grid_graph,
    powerlaw_bipartite,
    random_left_regular,
    random_near_regular,
    random_simple_graph,
    random_skewed,
    random_sparse_graph,
    regular_bipartite,
)
from repro.local import Adjacency


class TestRegularBipartite:
    def test_exact_left_degree(self):
        inst = regular_bipartite(10, 20, 4)
        assert all(inst.left_degree(u) == 4 for u in range(10))

    def test_right_degrees_balanced_when_divisible(self):
        inst = regular_bipartite(10, 20, 4)  # 40 edges over 20 right nodes
        assert all(inst.right_degree(v) == 2 for v in range(20))

    def test_simple(self):
        assert regular_bipartite(7, 11, 5).is_simple()

    def test_rejects_degree_above_right_size(self):
        with pytest.raises(ValueError):
            regular_bipartite(3, 2, 3)

    def test_zero_degree(self):
        inst = regular_bipartite(3, 3, 0)
        assert inst.n_edges == 0


class TestRandomLeftRegular:
    def test_left_degree_exact(self):
        inst = random_left_regular(20, 30, 6, seed=1)
        assert all(inst.left_degree(u) == 6 for u in range(20))

    def test_seeded_reproducibility(self):
        a = random_left_regular(10, 10, 3, seed=5)
        b = random_left_regular(10, 10, 3, seed=5)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_left_regular(10, 10, 3, seed=5)
        b = random_left_regular(10, 10, 3, seed=6)
        assert a.edges != b.edges

    def test_simple(self):
        assert random_left_regular(15, 15, 7, seed=2).is_simple()


class TestRandomNearRegular:
    def test_degrees_within_range(self):
        inst = random_near_regular(30, 30, 4, 8, seed=3)
        for u in range(30):
            assert 4 <= inst.left_degree(u) <= 8

    def test_delta_at_least_dmin(self):
        inst = random_near_regular(30, 30, 4, 8, seed=3)
        assert inst.delta >= 4

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            random_near_regular(5, 5, 4, 3, seed=1)


class TestRandomSkewed:
    def test_degrees_within_range(self):
        inst = random_skewed(50, 100, 3, 40, seed=4)
        for u in range(50):
            assert 3 <= inst.left_degree(u) <= 40

    def test_skew_favors_small_degrees(self):
        inst = random_skewed(300, 500, 2, 100, exponent=2.5, seed=5)
        hist = inst.degree_histogram_left()
        small = sum(c for d, c in hist.items() if d <= 10)
        assert small > 150  # most nodes stay near the minimum


class TestGraphSamplers:
    def test_gnp_symmetry(self):
        adj = random_simple_graph(30, 0.2, seed=6)
        for u in range(30):
            for v in adj[u]:
                assert u in adj[v]

    def test_gnp_extremes(self):
        assert all(not x for x in random_simple_graph(10, 0.0, seed=1))
        full = random_simple_graph(10, 1.0, seed=1)
        assert all(len(x) == 9 for x in full)

    def test_regular_graph_degrees(self):
        adj = configuration_model_regular(20, 4, seed=7)
        assert all(len(x) == 4 for x in adj)
        assert sum(map(len, adj)) == 20 * 4
        # The packed CSR arrays are the rows, slot for slot.
        assert adj.offsets.tolist() == list(range(0, 84, 4))
        assert adj.dst_node.tolist() == [v for row in adj for v in row]
        assert configuration_model_regular(6, 0, seed=7) == ((),) * 6

    def test_regular_graph_rejects_odd_product(self):
        for n, d in ((5, 3), (7, 1), (9, 5)):
            with pytest.raises(ValueError, match="must be even"):
                configuration_model_regular(n, d, seed=1)

    def test_regular_graph_sorted_and_simple(self):
        # d = n - 1 leaves one simple graph, K_n: the densest case.
        for n in (4, 7, 12):
            adj = configuration_model_regular(n, n - 1, seed=8)
            for u, nbrs in enumerate(adj):
                assert list(nbrs) == [v for v in range(n) if v != u]


class TestRandomSparseGraph:
    def test_edge_count_and_simplicity(self):
        adj = random_sparse_graph(200, 6.0, seed=1)
        m = sum(len(a) for a in adj) // 2
        assert m == 600
        for u, nbrs in enumerate(adj):
            assert list(nbrs) == sorted(nbrs)
            assert len(set(nbrs)) == len(nbrs)
            assert u not in nbrs

    def test_symmetric(self):
        adj = random_sparse_graph(100, 4.0, seed=2)
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                assert u in adj[v]

    def test_deterministic(self):
        assert random_sparse_graph(80, 3.0, seed=5) == random_sparse_graph(80, 3.0, seed=5)
        assert random_sparse_graph(80, 3.0, seed=5) != random_sparse_graph(80, 3.0, seed=6)

    def test_zero_nodes_and_degree(self):
        assert random_sparse_graph(0, 0.0, seed=1) == Adjacency([])
        assert random_sparse_graph(10, 0.0, seed=1) == Adjacency([[] for _ in range(10)])

    def test_rejects_dense_request(self):
        with pytest.raises(ValueError):
            random_sparse_graph(10, 10.0, seed=1)


class TestGridGraph:
    def test_open_grid_degrees(self):
        adj = grid_graph(3, 4)
        assert len(adj) == 12
        degrees = sorted(len(a) for a in adj)
        # 4 corners of degree 2, 6 border nodes of degree 3, 2 interior of 4
        assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4]

    def test_torus_is_4_regular(self):
        adj = grid_graph(5, 7, periodic=True)
        assert len(adj) == 35
        assert all(len(a) == 4 for a in adj)

    def test_torus_symmetric_and_simple(self):
        adj = grid_graph(4, 4, periodic=True)
        for u, nbrs in enumerate(adj):
            assert len(set(nbrs)) == len(nbrs)
            assert u not in nbrs
            for v in nbrs:
                assert u in adj[v]

    def test_torus_rejects_thin_dimensions(self):
        with pytest.raises(ValueError):
            grid_graph(2, 5, periodic=True)

    def test_single_node(self):
        assert grid_graph(1, 1) == [[]]


class TestConfigurationModel:
    def test_regular_and_simple(self):
        # (300, 140) is the dense regime (d >= 0.4 n) of the coloring inputs.
        for n, d in ((40, 2), (40, 3), (40, 4), (40, 8), (300, 140)):
            adj = configuration_model_regular(n, d, seed=d)
            assert all(len(a) == d for a in adj)
            for u, nbrs in enumerate(adj):
                assert list(nbrs) == sorted(nbrs)
                assert len(set(nbrs)) == len(nbrs)
                assert u not in nbrs

    def test_deterministic(self):
        a = configuration_model_regular(30, 4, seed=9)
        b = configuration_model_regular(30, 4, seed=9)
        c = configuration_model_regular(30, 4, seed=10)
        assert a == b
        assert a != c

    def test_rejects_odd_product(self):
        with pytest.raises(ValueError):
            configuration_model_regular(5, 3, seed=1)

    def test_rejects_degree_ge_n(self):
        with pytest.raises(ValueError):
            configuration_model_regular(4, 4, seed=1)

    def test_large_instance(self):
        adj = configuration_model_regular(2000, 6, seed=3)
        assert all(len(a) == 6 for a in adj)


class TestPowerlawBipartite:
    def test_left_degrees_within_bounds(self):
        inst = powerlaw_bipartite(100, 80, 2, 20, seed=1)
        for u in range(100):
            assert 2 <= inst.left_degree(u) <= 20

    def test_simple_instance(self):
        inst = powerlaw_bipartite(50, 40, 1, 10, seed=2)
        assert inst.is_simple()

    def test_right_side_skews(self):
        # Preferential attachment should concentrate rank on a few hubs.
        inst = powerlaw_bipartite(300, 100, 2, 8, seed=3)
        degrees = sorted(
            (inst.right_degree(v) for v in range(100)), reverse=True
        )
        avg = sum(degrees) / len(degrees)
        assert degrees[0] > 2 * avg

    def test_deterministic(self):
        a = powerlaw_bipartite(40, 30, 1, 6, seed=4)
        b = powerlaw_bipartite(40, 30, 1, 6, seed=4)
        assert a.edges == b.edges

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            powerlaw_bipartite(10, 5, 0, 3, seed=1)
        with pytest.raises(ValueError):
            powerlaw_bipartite(10, 5, 4, 6, seed=1)
