"""Tests for the in-simulator LOCAL implementations of the random phases."""

from repro.bipartite import BLUE, RED, random_left_regular
from repro.core import (
    run_shattering_local,
    run_zero_round_coloring,
    shatter,
)


class TestZeroRoundColoring:
    def test_outputs_complete_coloring(self):
        inst = random_left_regular(20, 25, 6, seed=1)
        coloring, satisfied, rounds = run_zero_round_coloring(inst, seed=2)
        assert all(c in (RED, BLUE) for c in coloring)
        assert len(satisfied) == inst.n_left

    def test_satisfaction_flags_match_verifier(self):
        inst = random_left_regular(30, 30, 5, seed=3)
        coloring, satisfied, _ = run_zero_round_coloring(inst, seed=4)
        for u in range(inst.n_left):
            seen = {coloring[v] for v in inst.left_neighbors(u)}
            assert satisfied[u] == (RED in seen and BLUE in seen)

    def test_constant_rounds(self):
        inst = random_left_regular(40, 40, 8, seed=5)
        _, _, rounds = run_zero_round_coloring(inst, seed=6)
        assert rounds <= 2

    def test_high_degree_all_satisfied(self):
        inst = random_left_regular(50, 100, 30, seed=7)
        _, satisfied, _ = run_zero_round_coloring(inst, seed=8)
        assert all(satisfied)

    def test_reproducible(self):
        inst = random_left_regular(15, 15, 4, seed=9)
        a = run_zero_round_coloring(inst, seed=10)
        b = run_zero_round_coloring(inst, seed=10)
        assert a[0] == b[0]


class TestShatteringLocal:
    def test_constant_rounds(self):
        inst = random_left_regular(30, 30, 8, seed=11)
        _, _, rounds = run_shattering_local(inst, seed=12)
        assert rounds == 3

    def test_partial_coloring_values(self):
        inst = random_left_regular(30, 30, 8, seed=13)
        coloring, _, _ = run_shattering_local(inst, seed=14)
        assert all(c in (RED, BLUE, None) for c in coloring)

    def test_satisfaction_flags_consistent(self):
        inst = random_left_regular(40, 40, 10, seed=15)
        coloring, satisfied, _ = run_shattering_local(inst, seed=16)
        for u in range(inst.n_left):
            seen = {coloring[v] for v in inst.left_neighbors(u)} - {None}
            assert satisfied[u] == (RED in seen and BLUE in seen)

    def test_quarter_uncolored_invariant_holds_in_simulator(self):
        inst = random_left_regular(60, 60, 16, seed=17)
        coloring, _, _ = run_shattering_local(inst, seed=18)
        for u in range(inst.n_left):
            neighbors = inst.left_neighbors(u)
            uncolored = sum(1 for v in neighbors if coloring[v] is None)
            assert uncolored >= len(neighbors) / 4

    def test_statistically_matches_central_implementation(self):
        """The simulator and the central shortcut implement the same random
        process: their unsatisfied-rate estimates should agree closely.

        One trial's rate has a spread of about 0.27 on this instance, so
        the difference of two 100-trial means has a spread of about 0.04,
        well inside the 0.1 tolerance."""
        inst = random_left_regular(80, 80, 10, seed=19)
        local_unsat = 0
        central_unsat = 0
        trials = 100
        for t in range(trials):
            _, satisfied, _ = run_shattering_local(inst, seed=t)
            local_unsat += satisfied.count(False)
            central_unsat += len(shatter(inst, seed=1000 + t).unsatisfied)
        local_rate = local_unsat / (trials * inst.n_left)
        central_rate = central_unsat / (trials * inst.n_left)
        assert abs(local_rate - central_rate) < 0.1
