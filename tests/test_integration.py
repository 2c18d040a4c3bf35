"""End-to-end integration tests chaining multiple subsystems.

Each test exercises a pipeline the paper composes from several results —
these are the "does the whole machine turn over" checks on top of the
per-module unit tests.
"""

import pytest

from repro import (
    RoundLedger,
    bipartite_girth,
    double_cover,
    is_weak_splitting,
    orientation_from_weak_splitting,
    random_left_regular,
    random_simple_graph,
    solve_weak_splitting,
    weak_splitting_instance_from_graph,
)
from repro.apps import coloring_via_splitting, mis_via_splitting
from repro.bipartite import configuration_model_regular
from repro.coloring import is_proper_coloring
from repro.core import (
    boost_multicolor_splitting,
    weak_multicolor_splitting,
    weak_splitting_from_multicolor,
)
from repro.mis import is_mis
from repro.orientation import is_sinkless


class TestGraphSplittingPipelines:
    def test_double_cover_weak_splitting_gives_both_colors_in_g(self):
        """Section 1.1: a weak splitting of the doubled instance is a
        red/blue partition of V_G where every node sees both colors."""
        adj = configuration_model_regular(200, 24, seed=1)
        inst = double_cover(adj)
        coloring = solve_weak_splitting(inst, seed=2)
        for v in range(len(adj)):
            seen = {coloring[w] for w in adj[v]}
            assert seen == {0, 1}

    def test_lower_bound_chain(self):
        """Figure 1 end-to-end: G -> B -> weak splitting -> sinkless."""
        adj = configuration_model_regular(80, 8, seed=3)
        inst, edge_list = weak_splitting_instance_from_graph(adj)
        coloring = solve_weak_splitting(inst, method="heuristic", seed=4)
        orientation = orientation_from_weak_splitting(edge_list, coloring)
        assert is_sinkless(adj, orientation)

    def test_multicolor_completeness_chain(self):
        """Theorem 3.2 both directions: solve the relaxed problem, reduce
        its solution back into a weak splitting."""
        inst = random_left_regular(60, 160, 130, seed=5)
        multicolor = weak_multicolor_splitting(inst)
        coloring = weak_splitting_from_multicolor(inst, multicolor)
        assert is_weak_splitting(inst, coloring)

    def test_boost_then_weak_splitting(self):
        """Theorem 3.3 chain: boost a (C, λ) oracle and select rainbows."""
        inst = random_left_regular(40, 300, 250, seed=6)
        flat, palette, iters = boost_multicolor_splitting(
            inst, num_colors=6, lam=0.5, alpha=1.0
        )
        assert iters >= 1 and palette >= 2


class TestApplications:
    def test_coloring_and_mis_share_splitter(self):
        adj = configuration_model_regular(300, 120, seed=7)
        col = coloring_via_splitting(adj, seed=8)
        assert is_proper_coloring(adj, col.colors)
        mis_res = mis_via_splitting(adj, seed=9, eps=0.2)
        assert is_mis(adj, mis_res.mis)

    def test_ledger_composes_across_phases(self):
        inst = random_left_regular(400, 400, 12, seed=10)
        led = RoundLedger()
        coloring = solve_weak_splitting(inst, seed=11, ledger=led)
        assert is_weak_splitting(inst, coloring)
        assert led.total > 0
        assert led.simulated_total() > 0  # shattering ran in the simulator


class TestSolverMatrix:
    """The solver façade across a grid of instance shapes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_near_regular_grid(self, seed):
        from repro.bipartite import random_near_regular

        inst = random_near_regular(200, 200, 20, 28, seed=seed)
        coloring = solve_weak_splitting(inst, seed=seed)
        assert is_weak_splitting(inst, coloring)

    @pytest.mark.parametrize("d,r_target", [(12, 2), (18, 3), (24, 4)])
    def test_low_rank_grid(self, d, r_target):
        from repro.bipartite import regular_bipartite

        n_left = 60
        n_right = n_left * d // r_target
        inst = regular_bipartite(n_left, n_right, d)
        assert inst.rank == r_target
        coloring = solve_weak_splitting(inst)
        assert is_weak_splitting(inst, coloring)

    @pytest.mark.parametrize("seed", range(2))
    def test_shattering_grid(self, seed):
        inst = random_left_regular(700, 700, 12, seed=seed + 20)
        coloring = solve_weak_splitting(inst, seed=seed)
        assert is_weak_splitting(inst, coloring)
