"""Tests for girth computation and high-girth instance construction."""

import pytest

from repro.bipartite import (
    BipartiteInstance,
    bipartite_girth,
    graph_girth,
    high_girth_instance,
    incidence_instance,
    peel_short_cycles,
)
from repro.bipartite.generators import configuration_model_regular
from tests.conftest import cycle_graph, complete_graph


class TestGraphGirth:
    def test_triangle(self):
        assert graph_girth([[1, 2], [0, 2], [0, 1]]) == 3

    def test_cycle(self):
        assert graph_girth(cycle_graph(7)) == 7

    def test_tree_has_no_girth(self):
        assert graph_girth([[1], [0, 2], [1]]) is None

    def test_k4(self):
        assert graph_girth(complete_graph(4)) == 3

    def test_two_cycles_takes_min(self):
        # a 3-cycle and a 5-cycle, disjoint
        adj = [[1, 2], [0, 2], [0, 1]] + [[x + 3 for x in row] for row in cycle_graph(5)]
        assert graph_girth(adj) == 3


class TestBipartiteGirth:
    def test_four_cycle(self):
        inst = BipartiteInstance(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert bipartite_girth(inst) == 4

    def test_tree_instance(self):
        inst = BipartiteInstance(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert bipartite_girth(inst) is None

    def test_six_cycle(self):
        inst = BipartiteInstance(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        assert bipartite_girth(inst) == 6

    def test_rejects_multigraph(self):
        inst = BipartiteInstance(1, 1, [(0, 0), (0, 0)], allow_multi=True)
        with pytest.raises(ValueError):
            bipartite_girth(inst)


class TestIncidence:
    def test_rank_exactly_two(self):
        adj = cycle_graph(5)
        inst = incidence_instance(adj)
        assert inst.rank == 2

    def test_girth_doubles(self):
        adj = cycle_graph(5)
        assert bipartite_girth(incidence_instance(adj)) == 10

    def test_left_degrees_match_graph(self):
        adj = configuration_model_regular(12, 3, seed=1)
        inst = incidence_instance(adj)
        for v in range(12):
            assert inst.left_degree(v) == len(adj[v])

    def test_edge_count(self):
        adj = cycle_graph(6)
        inst = incidence_instance(adj)
        assert inst.n_right == 6 and inst.n_edges == 12


class TestPeeling:
    def test_removes_triangles(self):
        adj = complete_graph(5)
        peeled = peel_short_cycles(adj, 5, seed=1)
        g = graph_girth(peeled)
        assert g is None or g >= 5

    def test_high_girth_input_untouched(self):
        adj = cycle_graph(9)
        peeled = peel_short_cycles(adj, 5, seed=1)
        assert sum(len(x) for x in peeled) == sum(len(x) for x in adj)


class TestHighGirthInstance:
    def test_meets_girth_and_delta(self):
        inst = high_girth_instance(80, 4, seed=2)
        g = bipartite_girth(inst)
        assert g is None or g >= 10
        assert inst.delta >= 2
        assert inst.rank == 2

    def test_reproducible(self):
        a = high_girth_instance(50, 3, seed=9, min_delta=1)
        b = high_girth_instance(50, 3, seed=9, min_delta=1)
        assert a.edges == b.edges

    def test_rejects_odd_min_girth(self):
        with pytest.raises(ValueError):
            high_girth_instance(20, 3, seed=1, min_girth=9)
