"""Tests for the Section 2.5 lower-bound reduction (Figure 1)."""

import pytest

from repro.bipartite.generators import configuration_model_regular
from repro.core import (
    deterministic_lower_bound_rounds,
    is_weak_splitting,
    orientation_from_weak_splitting,
    randomized_lower_bound_rounds,
    solve_weak_splitting,
    weak_splitting_instance_from_graph,
)
from repro.local import shuffled_ids
from repro.orientation import is_sinkless


@pytest.fixture(scope="module")
def source_graph():
    return configuration_model_regular(60, 6, seed=1)


class TestConstruction:
    def test_rank_at_most_two(self, source_graph):
        inst, _ = weak_splitting_instance_from_graph(source_graph)
        assert inst.rank <= 2

    def test_left_degree_at_least_half(self, source_graph):
        inst, _ = weak_splitting_instance_from_graph(source_graph)
        for u in range(inst.n_left):
            assert inst.left_degree(u) >= 3  # ceil(6/2)

    def test_node_count_matches_paper(self, source_graph):
        """n_B = |V| + |E|."""
        inst, edge_list = weak_splitting_instance_from_graph(source_graph)
        m = sum(len(x) for x in source_graph) // 2
        assert inst.n == 60 + m
        assert len(edge_list) == m

    def test_degree_preserved(self, source_graph):
        """∆_B <= ∆_G — the reduction is parameter preserving."""
        inst, _ = weak_splitting_instance_from_graph(source_graph)
        assert inst.Delta <= 6

    def test_custom_ids(self, source_graph):
        ids = shuffled_ids(60, seed=2)
        inst, _ = weak_splitting_instance_from_graph(source_graph, ids=ids)
        assert inst.rank <= 2

    def test_duplicate_ids_rejected(self, source_graph):
        with pytest.raises(ValueError):
            weak_splitting_instance_from_graph(source_graph, ids=[0] * 60)


class TestReductionSoundness:
    def test_weak_splitting_yields_sinkless(self, source_graph):
        """The heart of Theorem 2.10."""
        inst, edge_list = weak_splitting_instance_from_graph(source_graph)
        coloring = solve_weak_splitting(inst, method="heuristic", seed=42)
        assert is_weak_splitting(inst, coloring)
        orientation = orientation_from_weak_splitting(edge_list, coloring)
        assert is_sinkless(source_graph, orientation)

    def test_with_shuffled_ids(self, source_graph):
        ids = shuffled_ids(60, seed=3)
        inst, edge_list = weak_splitting_instance_from_graph(source_graph, ids=ids)
        coloring = solve_weak_splitting(inst, method="heuristic", seed=42)
        orientation = orientation_from_weak_splitting(edge_list, coloring, ids=ids)
        assert is_sinkless(source_graph, orientation)

    def test_many_seeds(self):
        for seed in range(3):
            adj = configuration_model_regular(40, 5, seed=seed + 10)
            inst, edge_list = weak_splitting_instance_from_graph(adj)
            coloring = solve_weak_splitting(inst, method="heuristic", seed=42)
            orientation = orientation_from_weak_splitting(edge_list, coloring)
            assert is_sinkless(adj, orientation)

    def test_incomplete_coloring_rejected(self, source_graph):
        inst, edge_list = weak_splitting_instance_from_graph(source_graph)
        with pytest.raises(ValueError):
            orientation_from_weak_splitting(edge_list, [None] * len(edge_list))


class TestLowerBoundFormulas:
    def test_randomized_loglog(self):
        assert randomized_lower_bound_rounds(2, 2**16) == pytest.approx(4.0)

    def test_deterministic_log(self):
        assert deterministic_lower_bound_rounds(2, 1024) == pytest.approx(10.0)

    def test_deterministic_exceeds_randomized(self):
        assert deterministic_lower_bound_rounds(4, 10**6) > randomized_lower_bound_rounds(
            4, 10**6
        )
