"""Tests for MIS algorithms (Luby + greedy) and Lemma 4.3."""

import pytest

from repro.bipartite.generators import random_regular_graph, random_simple_graph
from repro.local import RoundLedger
from repro.mis import greedy_mis, is_mis, luby_mis, mis_lower_bound
from tests.conftest import complete_graph, cycle_graph, path_graph


class TestIsMis:
    def test_valid(self):
        assert is_mis(path_graph(3), {0, 2})

    def test_not_independent(self):
        assert not is_mis(path_graph(3), {0, 1})

    def test_not_maximal(self):
        assert not is_mis(path_graph(5), {0})

    def test_empty_graph(self):
        assert is_mis([], set())

    def test_negative_node_rejected(self):
        # -1 must not wrap around to the last node and pass.
        with pytest.raises(ValueError, match="MIS node -1 is not a node"):
            is_mis(path_graph(3), {0, 2, -1})

    def test_node_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="MIS node 3 is not a node"):
            is_mis(path_graph(3), {0, 2, 3})


class TestGreedy:
    def test_path(self):
        assert greedy_mis(path_graph(5)) == {0, 2, 4}

    def test_respects_order(self):
        assert greedy_mis(path_graph(3), order=[1, 0, 2]) == {1}

    def test_always_valid(self):
        adj = random_simple_graph(50, 0.15, seed=1)
        assert is_mis(adj, greedy_mis(adj))


class TestLuby:
    def test_cycle(self):
        adj = cycle_graph(12)
        mis, rounds = luby_mis(adj, seed=1)
        assert is_mis(adj, mis)

    def test_complete_graph_single_node(self):
        adj = complete_graph(6)
        mis, _ = luby_mis(adj, seed=2)
        assert len(mis) == 1 and is_mis(adj, mis)

    def test_isolated_nodes_joined(self):
        adj = [[], [], [3], [2]]
        mis, _ = luby_mis(adj, seed=3)
        assert {0, 1} <= mis and is_mis(adj, mis)

    def test_random_graphs_valid(self):
        for seed in range(4):
            adj = random_simple_graph(60, 0.1, seed=seed)
            mis, _ = luby_mis(adj, seed=seed + 10)
            assert is_mis(adj, mis)

    def test_rounds_logarithmic_in_practice(self):
        adj = random_regular_graph(200, 8, seed=5)
        _, rounds = luby_mis(adj, seed=6)
        assert rounds <= 40  # ~2 rounds per phase, O(log n) phases

    def test_ledger_charged_simulated(self):
        led = RoundLedger()
        luby_mis(cycle_graph(8), seed=7, ledger=led)
        assert led.simulated_total() > 0

    def test_reproducible(self):
        adj = random_simple_graph(40, 0.2, seed=8)
        a, _ = luby_mis(adj, seed=9)
        b, _ = luby_mis(adj, seed=9)
        assert a == b


class TestLowerBound:
    def test_lemma_43_value(self):
        assert mis_lower_bound(100, 4) == 20

    def test_lemma_43_holds_for_luby(self):
        adj = random_regular_graph(60, 5, seed=10)
        mis, _ = luby_mis(adj, seed=11)
        assert len(mis) >= mis_lower_bound(60, 5)

    def test_lemma_43_holds_for_greedy(self):
        adj = random_simple_graph(80, 0.1, seed=12)
        Delta = max(len(x) for x in adj)
        assert len(greedy_mis(adj)) >= mis_lower_bound(80, Delta)
