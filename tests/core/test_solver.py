"""Tests for the solve_weak_splitting façade."""

import pytest

from repro.bipartite import BipartiteInstance, random_left_regular
from repro.core import NoKnownAlgorithmError, is_weak_splitting, solve_weak_splitting
from repro.local import RoundLedger


class TestAutoDispatch:
    def test_low_rank_route(self, low_rank_instance):
        led = RoundLedger()
        coloring = solve_weak_splitting(low_rank_instance, ledger=led)
        assert is_weak_splitting(low_rank_instance, coloring)
        assert any(l.startswith("reduction-II") for l in led.breakdown())

    def test_deterministic_route(self, splittable_instance):
        led = RoundLedger()
        coloring = solve_weak_splitting(splittable_instance, ledger=led)
        assert is_weak_splitting(splittable_instance, coloring)
        assert "B^2-coloring" in led.breakdown()

    def test_randomized_route(self):
        inst = random_left_regular(600, 600, 12, seed=1)
        led = RoundLedger()
        coloring = solve_weak_splitting(inst, seed=2, ledger=led)
        assert is_weak_splitting(inst, coloring)
        assert "shattering" in led.breakdown()

    def test_bruteforce_route_for_tiny(self):
        inst = BipartiteInstance(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)])
        coloring = solve_weak_splitting(inst)
        assert is_weak_splitting(inst, coloring)

    def test_uncovered_regime_raises(self):
        inst = random_left_regular(400, 30, 3, seed=3)  # rank huge, delta 3
        with pytest.raises(NoKnownAlgorithmError):
            solve_weak_splitting(inst, allow_bruteforce=False)

    def test_degree_one_rejected_upfront(self):
        inst = BipartiteInstance(1, 2, [(0, 0)])
        with pytest.raises(ValueError):
            solve_weak_splitting(inst)


class TestForcedMethods:
    def test_forced_deterministic(self, splittable_instance):
        coloring = solve_weak_splitting(splittable_instance, method="deterministic")
        assert is_weak_splitting(splittable_instance, coloring)

    def test_forced_low_rank_rejects_wrong_instance(self, splittable_instance):
        if splittable_instance.delta < 6 * splittable_instance.rank:
            with pytest.raises(ValueError):
                solve_weak_splitting(splittable_instance, method="low-rank")

    def test_forced_randomized(self, splittable_instance):
        coloring = solve_weak_splitting(splittable_instance, method="randomized", seed=4)
        assert is_weak_splitting(splittable_instance, coloring)

    def test_forced_bruteforce_cap(self):
        inst = random_left_regular(10, 30, 5, seed=5)
        with pytest.raises(ValueError):
            solve_weak_splitting(inst, method="bruteforce")

    def test_unknown_method(self, splittable_instance):
        with pytest.raises(ValueError):
            solve_weak_splitting(splittable_instance, method="magic")

    def test_unsolvable_tiny_instance(self):
        # one variable shared by two constraints: cannot be both colors
        inst = BipartiteInstance(1, 2, [(0, 0), (0, 1)])
        coloring = solve_weak_splitting(inst, method="bruteforce")
        assert is_weak_splitting(inst, coloring)
