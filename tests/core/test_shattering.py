"""Tests for the shattering algorithm (Lemma 2.9 machinery)."""

from repro.bipartite import BLUE, RED, random_left_regular
from repro.core import shatter, unsatisfied_probability_estimate
from repro.local import RoundLedger


class TestShatter:
    def test_partial_coloring_values(self):
        inst = random_left_regular(50, 50, 10, seed=1)
        out = shatter(inst, seed=2)
        assert all(c in (RED, BLUE, None) for c in out.partial)

    def test_quarter_uncolored_invariant(self):
        """Every constraint keeps >= 1/4 of its neighbors uncolored."""
        inst = random_left_regular(80, 80, 16, seed=3)
        out = shatter(inst, seed=4)
        for u in range(inst.n_left):
            neighbors = inst.left_neighbors(u)
            uncolored = sum(1 for v in neighbors if out.partial[v] is None)
            assert uncolored >= len(neighbors) / 4

    def test_unsatisfied_really_lack_a_color(self):
        inst = random_left_regular(60, 60, 8, seed=5)
        out = shatter(inst, seed=6)
        unsat = set(out.unsatisfied)
        for u in range(inst.n_left):
            seen = {out.partial[v] for v in inst.left_neighbors(u)} - {None}
            assert (u in unsat) == (not {RED, BLUE} <= seen)

    def test_residual_structure(self):
        inst = random_left_regular(60, 60, 8, seed=7)
        out = shatter(inst, seed=8)
        res = out.residual
        assert res.n_left == len(out.unsatisfied)
        assert res.n_right == len(out.uncolored)
        # residual edges connect only unsatisfied x uncolored originals
        for u, v in res.edges:
            assert out.residual_left_ids[u] in out.unsatisfied
            assert out.residual_right_ids[v] in out.uncolored

    def test_residual_left_degree_at_least_quarter(self):
        inst = random_left_regular(100, 100, 20, seed=9)
        out = shatter(inst, seed=10)
        for i, u in enumerate(out.residual_left_ids):
            assert out.residual.left_degree(i) >= inst.left_degree(u) / 4

    def test_reproducible(self):
        inst = random_left_regular(30, 30, 6, seed=11)
        a = shatter(inst, seed=12)
        b = shatter(inst, seed=12)
        assert a.partial == b.partial

    def test_ledger_charged_constant_simulated(self):
        inst = random_left_regular(20, 20, 5, seed=13)
        led = RoundLedger()
        shatter(inst, seed=14, ledger=led)
        assert led.simulated_total() == 2

    def test_high_degree_mostly_satisfied(self):
        """With δ = 30 almost every constraint should be satisfied."""
        inst = random_left_regular(200, 400, 30, seed=15)
        out = shatter(inst, seed=16)
        assert len(out.unsatisfied) <= 4


class TestUnsatisfiedProbability:
    def test_estimate_decays_with_degree(self):
        """The Lemma 2.9 exponential decay, coarse Monte-Carlo check."""
        lo = random_left_regular(150, 300, 6, seed=17)
        hi = random_left_regular(150, 300, 30, seed=18)
        p_lo, _ = unsatisfied_probability_estimate(lo, trials=20, seed=19)
        p_hi, _ = unsatisfied_probability_estimate(hi, trials=20, seed=20)
        assert p_hi < p_lo

    def test_counts_length(self):
        inst = random_left_regular(20, 20, 5, seed=21)
        _, counts = unsatisfied_probability_estimate(inst, trials=7, seed=22)
        assert len(counts) == 7
