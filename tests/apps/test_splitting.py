"""Tests for the Section 4 uniform splitting engine."""

import pytest

from repro.apps import attach_clique_gadgets, min_constrained_degree, uniform_splitting
from repro.bipartite import BLUE, RED
from repro.bipartite.generators import random_regular_graph, random_simple_graph
from repro.core import UniformSplittingSpec, is_uniform_splitting
from repro.derand import DerandomizationError
from repro.local import RoundLedger


@pytest.fixture(scope="module")
def dense_graph():
    return random_regular_graph(400, 160, seed=1)


def spec_for(adj, eps):
    n = len(adj)
    return UniformSplittingSpec(eps=eps, min_constrained_degree=min_constrained_degree(n, eps))


class TestMinConstrainedDegree:
    def test_decreases_in_eps(self):
        assert min_constrained_degree(1000, 0.3) < min_constrained_degree(1000, 0.1)

    def test_grows_with_n(self):
        assert min_constrained_degree(10**6, 0.2) > min_constrained_degree(100, 0.2)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            min_constrained_degree(100, 0.5)


class TestDerandomizedSplitting:
    def test_valid(self, dense_graph):
        spec = spec_for(dense_graph, 0.2)
        part = uniform_splitting(dense_graph, spec, method="derandomized")
        assert is_uniform_splitting(dense_graph, part, spec)

    def test_every_node_colored(self, dense_graph):
        spec = spec_for(dense_graph, 0.2)
        part = uniform_splitting(dense_graph, spec)
        assert all(c in (RED, BLUE) for c in part)

    def test_rounds_charged(self, dense_graph):
        spec = spec_for(dense_graph, 0.2)
        led = RoundLedger()
        uniform_splitting(dense_graph, spec, ledger=led)
        assert "slocal-conversion" in led.breakdown()

    def test_uncertifiable_raises(self):
        adj = random_simple_graph(100, 0.1, seed=2)  # degrees ~10, too thin
        spec = UniformSplittingSpec(eps=0.05, min_constrained_degree=8)
        with pytest.raises(DerandomizationError):
            uniform_splitting(adj, spec, method="derandomized")

    def test_unconstrained_graph_trivial(self):
        adj = random_simple_graph(30, 0.1, seed=3)
        spec = UniformSplittingSpec(eps=0.1, min_constrained_degree=1000)
        part = uniform_splitting(adj, spec)
        assert is_uniform_splitting(adj, part, spec)


class TestRandomSplitting:
    def test_valid_las_vegas(self, dense_graph):
        spec = spec_for(dense_graph, 0.2)
        part = uniform_splitting(dense_graph, spec, method="dense", seed=4)
        assert is_uniform_splitting(dense_graph, part, spec)

    def test_reproducible(self, dense_graph):
        spec = spec_for(dense_graph, 0.2)
        a = uniform_splitting(dense_graph, spec, method="dense", seed=5)
        b = uniform_splitting(dense_graph, spec, method="dense", seed=5)
        assert a == b

    def test_unknown_method_rejected(self, dense_graph):
        # "random" (the retired Mersenne-Twister loop) and "local" (the old
        # name of "reference") are gone without an alias.
        for method in ("magic", "random", "local"):
            with pytest.raises(ValueError, match="unknown method"):
                uniform_splitting(dense_graph, spec_for(dense_graph, 0.2), method=method)

    @pytest.mark.parametrize("method", ["dense", "reference"])
    def test_zero_attempts_rejected_up_front(self, dense_graph, method):
        # No attempt is made, so "failed 0 times" would blame the graph.
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            uniform_splitting(dense_graph, spec_for(dense_graph, 0.2), method=method,
                              seed=1, max_attempts=0)


class TestCliqueGadgets:
    def test_min_degree_lifted(self):
        adj = [[1], [0], [], [0]]
        # make symmetric: 0-1, 0-3
        adj = [[1, 3], [0], [], [0]]
        new_adj, n0 = attach_clique_gadgets(adj, delta=4)
        assert n0 == 4
        assert min(len(x) for x in new_adj) >= 2  # clique members have delta-1 >= 3... of clique
        for v in range(n0):
            assert len(new_adj[v]) >= 4

    def test_high_degree_nodes_untouched(self):
        adj = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        new_adj, n0 = attach_clique_gadgets(adj, delta=3)
        assert len(new_adj) == 4  # no gadgets added

    def test_original_neighborhoods_preserved(self):
        adj = [[1], [0]]
        new_adj, _ = attach_clique_gadgets(adj, delta=3)
        assert set(new_adj[0]) >= {1}
        assert set(new_adj[1]) >= {0}

    def test_gadget_graph_symmetric(self):
        adj = [[1], [0], []]
        new_adj, _ = attach_clique_gadgets(adj, delta=3)
        for u, nbrs in enumerate(new_adj):
            for v in nbrs:
                assert u in new_adj[v]
