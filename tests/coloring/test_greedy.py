"""Tests for the (d+1)-coloring baseline."""

from repro.coloring import d_plus_one_coloring, fhk_coloring_rounds, is_proper_coloring
from repro.local import RoundLedger
from repro.bipartite.generators import random_simple_graph
from tests.conftest import complete_graph, cycle_graph


class TestDPlusOne:
    def test_proper(self):
        adj = random_simple_graph(40, 0.2, seed=1)
        colors, num = d_plus_one_coloring(adj)
        assert is_proper_coloring(adj, colors)

    def test_at_most_delta_plus_one_colors(self):
        adj = random_simple_graph(40, 0.3, seed=2)
        Delta = max(len(x) for x in adj)
        _, num = d_plus_one_coloring(adj)
        assert num <= Delta + 1

    def test_complete_graph_needs_n(self):
        adj = complete_graph(5)
        _, num = d_plus_one_coloring(adj)
        assert num == 5

    def test_rounds_charged(self):
        led = RoundLedger()
        d_plus_one_coloring(cycle_graph(10), ledger=led)
        assert led.total > 0


class TestFHKRounds:
    def test_sublinear_in_degree(self):
        assert fhk_coloring_rounds(10000, 100) < 10000

    def test_monotone_in_degree(self):
        assert fhk_coloring_rounds(100, 100) < fhk_coloring_rounds(400, 100)


class TestIsProper:
    def test_detects_conflict(self):
        assert not is_proper_coloring([[1], [0]], [0, 0])

    def test_detects_uncolored(self):
        assert not is_proper_coloring([[1], [0]], [0, None])

    def test_length_mismatch(self):
        assert not is_proper_coloring([[1], [0]], [0])
