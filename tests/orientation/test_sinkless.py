"""Tests for sinkless orientation: verifier and baselines."""

import pytest

from repro.bipartite.generators import random_regular_graph
from repro.orientation import (
    greedy_sinkless_orientation,
    is_sinkless,
    run_trial_and_fix,
    sinks,
)
from tests.conftest import cycle_graph


class TestVerifier:
    def test_directed_cycle_is_sinkless(self):
        adj = cycle_graph(5)
        orientation = {(i, (i + 1) % 5): True for i in range(5)}
        assert is_sinkless(adj, orientation)

    def test_sink_detected(self):
        adj = cycle_graph(3)
        orientation = {(1, 0): True, (2, 0): True, (1, 2): True}
        assert sinks(adj, orientation) == [0]
        assert not is_sinkless(adj, orientation)

    def test_min_degree_filter(self):
        # path: endpoints have degree 1; with min_degree=2 only middle matters
        adj = [[1], [0, 2], [1]]
        orientation = {(1, 0): True, (1, 2): True}
        assert is_sinkless(adj, orientation, min_degree=2)
        assert not is_sinkless(adj, orientation, min_degree=1)

    def test_uncovered_edge_fails(self):
        adj = cycle_graph(3)
        orientation = {(0, 1): True, (1, 2): True}  # edge {0,2} missing
        assert not is_sinkless(adj, orientation)

    def test_double_oriented_edge_rejected(self):
        adj = cycle_graph(3)
        orientation = {(0, 1): True, (1, 0): True, (1, 2): True, (2, 0): True}
        with pytest.raises(ValueError):
            is_sinkless(adj, orientation)

    def test_non_edge_rejected(self):
        adj = cycle_graph(4)
        with pytest.raises(ValueError):
            is_sinkless(adj, {(0, 2): True})

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_endpoint_outside_graph_rejected(self, bad):
        orientation = {(0, 1): True, (2, 1): True, (2, bad): True}
        with pytest.raises(ValueError, match=f"orientation endpoint {bad} is not a node"):
            is_sinkless([[1], [0, 2], [1]], orientation)
        with pytest.raises(ValueError, match=f"orientation endpoint {bad} is not a node"):
            sinks([[1], [0, 2], [1]], orientation)


class TestGreedyBaseline:
    def test_cycle(self):
        adj = cycle_graph(8)
        ori = greedy_sinkless_orientation(adj, seed=1)
        assert is_sinkless(adj, ori)

    def test_regular_graph(self):
        adj = random_regular_graph(30, 4, seed=2)
        ori = greedy_sinkless_orientation(adj, seed=3)
        assert is_sinkless(adj, ori)

    def test_reproducible(self):
        adj = cycle_graph(10)
        assert greedy_sinkless_orientation(adj, seed=7) == greedy_sinkless_orientation(
            adj, seed=7
        )


class TestTrialAndFix:
    def test_cycle_terminates_sinkless(self):
        adj = cycle_graph(10)
        orientation, rounds = run_trial_and_fix(adj, seed=1)
        assert is_sinkless(adj, orientation)
        assert rounds >= 2

    def test_regular_graph(self):
        adj = random_regular_graph(24, 4, seed=5)
        orientation, rounds = run_trial_and_fix(adj, seed=2)
        assert is_sinkless(adj, orientation)

    def test_higher_degree_converges_fast(self):
        adj = random_regular_graph(30, 6, seed=6)
        _, rounds = run_trial_and_fix(adj, seed=3)
        assert rounds <= 30

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_negative_round_cap_rejected(self, method):
        adj = random_regular_graph(24, 4, seed=5)
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            run_trial_and_fix(adj, seed=2, max_rounds=-3, method=method)
