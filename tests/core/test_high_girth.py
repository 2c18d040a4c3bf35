"""Tests for Section 5 (high-girth weak splitting)."""

import pytest

from repro.bipartite import bipartite_girth, high_girth_instance, tree_instance
from repro.core import high_girth_weak_splitting, is_weak_splitting, shatter_until_low_rank
from repro.local import RoundLedger


@pytest.fixture(scope="module")
def forest_instance():
    """A girth-∞ (acyclic) instance with δ = 20, rank 2 — the scalable
    Section 5 family (see bipartite.girth.tree_instance)."""
    return tree_instance(roots=30, d=20, r=2)


class TestShatterUntilLowRank:
    def test_residual_meets_theorem_27_regime(self, forest_instance):
        out = shatter_until_low_rank(forest_instance, seed=2)
        res = out.residual
        if res.n_left:
            delta_h = min(res.left_degree(u) for u in range(res.n_left))
            assert (res.rank <= 1 and delta_h >= 2) or delta_h >= 6 * res.rank

    def test_delta_h_at_least_quarter(self, forest_instance):
        out = shatter_until_low_rank(forest_instance, seed=3)
        res = out.residual
        for i, u in enumerate(out.residual_left_ids):
            assert res.left_degree(i) >= forest_instance.left_degree(u) / 4

    def test_gives_up_eventually(self):
        """A rank-heavy, thin instance without girth structure should fail."""
        from repro.bipartite import random_left_regular

        inst = random_left_regular(60, 6, 3, seed=3)  # rank ~30, delta 3
        with pytest.raises(RuntimeError):
            shatter_until_low_rank(inst, seed=4, max_attempts=3)


class TestHighGirthSplitting:
    def test_deterministic_pipeline(self, forest_instance):
        led = RoundLedger()
        coloring = high_girth_weak_splitting(forest_instance, seed=5, ledger=led)
        assert is_weak_splitting(forest_instance, coloring)
        assert "B^4-coloring" in led.breakdown()

    def test_randomized_pipeline(self, forest_instance):
        led = RoundLedger()
        coloring = high_girth_weak_splitting(
            forest_instance, seed=6, ledger=led, deterministic=False
        )
        assert is_weak_splitting(forest_instance, coloring)
        assert "residual-components" in led.breakdown()

    def test_genuine_cyclic_girth_10_instance_solvable(self):
        """The incidence family has real length-10 cycles; its δ is far below
        the Section 5 regime at laptop scale (E14 in benchmarks/bench_high_girth.py),
        so we verify the construction and solve it with the heuristic path."""
        from repro.core import shatter, solve_weak_splitting

        inst = high_girth_instance(150, 4, seed=7, min_delta=2)
        g = bipartite_girth(inst)
        assert g is None or g >= 10
        coloring = solve_weak_splitting(inst, method="heuristic", seed=8)
        assert is_weak_splitting(inst, coloring)
        # Lemma 5.1's unconditional half: shattering keeps δ_H >= δ/4.
        out = shatter(inst, seed=9)
        for i, u in enumerate(out.residual_left_ids):
            assert out.residual.left_degree(i) >= inst.left_degree(u) / 4

    def test_verify_girth_flag(self):
        inst = tree_instance(roots=4, d=8, r=2)
        coloring = high_girth_weak_splitting(inst, seed=9, verify_girth=True)
        assert is_weak_splitting(inst, coloring)

    def test_girth_precondition_enforced(self):
        from repro.bipartite import regular_bipartite

        inst = regular_bipartite(20, 20, 4)  # girth 4
        with pytest.raises(ValueError):
            high_girth_weak_splitting(inst, seed=10, verify_girth=True)

    def test_forest_girth_counts_as_high(self, forest_instance):
        assert bipartite_girth(forest_instance) is None
