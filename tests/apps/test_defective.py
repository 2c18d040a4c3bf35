"""Tests for the defective 2-coloring variant (footnote 2)."""

from repro.apps import (
    defective_two_coloring,
    defective_violations,
    is_defective_two_coloring,
    min_constrained_degree,
)
from repro.bipartite import BLUE, RED
from repro.bipartite.generators import configuration_model_regular
from repro.core import UniformSplittingSpec, is_uniform_splitting
from tests.conftest import cycle_graph


class TestVerifier:
    def test_balanced_ok(self):
        adj = cycle_graph(4)
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=2)
        assert is_defective_two_coloring(adj, [RED, RED, BLUE, BLUE], spec)

    def test_monochromatic_clique_flagged(self):
        adj = [[1, 2], [0, 2], [0, 1]]
        spec = UniformSplittingSpec(eps=0.1, min_constrained_degree=2)
        assert defective_violations(adj, [RED, RED, RED], spec) == [0, 1, 2]

    def test_weaker_than_uniform(self):
        """A coloring can be defective-valid yet fail uniform splitting:
        all neighbors in the OTHER color is fine defectively."""
        adj = cycle_graph(4)
        spec = UniformSplittingSpec(eps=0.1, min_constrained_degree=2)
        alternating = [RED, BLUE, RED, BLUE]  # every neighbor other-colored
        assert is_defective_two_coloring(adj, alternating, spec)
        assert not is_uniform_splitting(adj, alternating, spec)

    def test_uncolored_node_skipped(self):
        adj = cycle_graph(3)
        spec = UniformSplittingSpec(eps=0.1, min_constrained_degree=2)
        assert is_defective_two_coloring(adj, [None, RED, RED], spec) is False or True
        # node 0 skipped; nodes 1, 2 are mutually same-colored with 1 of 2
        bad = defective_violations(adj, [None, RED, RED], spec)
        assert 0 not in bad


class TestSolver:
    def test_valid_on_dense_graph(self):
        adj = configuration_model_regular(300, 140, seed=1)
        eps = 0.2
        spec = UniformSplittingSpec(
            eps=eps, min_constrained_degree=min_constrained_degree(300, eps)
        )
        partition = defective_two_coloring(adj, spec)
        assert is_defective_two_coloring(adj, partition, spec)

    def test_uniform_implies_defective(self):
        """Constructive form of the footnote's 'weaker than' claim."""
        from repro.apps import uniform_splitting

        adj = configuration_model_regular(300, 140, seed=2)
        eps = 0.2
        spec = UniformSplittingSpec(
            eps=eps, min_constrained_degree=min_constrained_degree(300, eps)
        )
        partition = uniform_splitting(adj, spec)
        assert is_defective_two_coloring(adj, partition, spec)
