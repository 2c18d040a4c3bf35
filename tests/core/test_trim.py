"""Tests for Lemma 2.2 (trimming)."""

import pytest

from repro.bipartite import random_left_regular, random_skewed
from repro.core import is_weak_splitting, trimmed_weak_splitting
from repro.derand import DerandomizationError
from repro.local import RoundLedger


class TestTrimmedWeakSplitting:
    def test_valid_on_untrimmed_instance(self):
        """The coloring must satisfy the *original* (untrimmed) constraints."""
        inst = random_left_regular(200, 200, 40, seed=1)
        coloring = trimmed_weak_splitting(inst)
        assert is_weak_splitting(inst, coloring)

    def test_valid_on_skewed_degrees(self):
        inst = random_skewed(150, 300, 20, 120, seed=2)
        coloring = trimmed_weak_splitting(inst)
        assert is_weak_splitting(inst, coloring)

    def test_cheaper_than_untrimmed_basic(self):
        """Trimming turns the O(∆·r) cost into O(δ'·r) = O(r log n)."""
        from repro.core import basic_weak_splitting

        inst = random_left_regular(150, 300, 60, seed=3)
        led_trim, led_basic = RoundLedger(), RoundLedger()
        trimmed_weak_splitting(inst, ledger=led_trim)
        basic_weak_splitting(inst, ledger=led_basic)
        assert led_trim.total < led_basic.total

    def test_strict_precondition(self):
        inst = random_left_regular(100, 100, 4, seed=4)
        with pytest.raises(DerandomizationError):
            trimmed_weak_splitting(inst)

    def test_n_override_changes_target(self):
        """With a smaller ambient n the trim target (and cost) shrinks."""
        inst = random_left_regular(300, 300, 40, seed=5)
        led_small, led_big = RoundLedger(), RoundLedger()
        trimmed_weak_splitting(inst, ledger=led_small, n_override=64)
        trimmed_weak_splitting(inst, ledger=led_big, n_override=2**20)
        assert led_small.total < led_big.total

    def test_exact_threshold_degree_untouched(self):
        n = 512  # 2 log n = 18 at n = 262144? n here is |U|+|V| = 512 -> 18
        inst = random_left_regular(256, 256, 18, seed=6)
        coloring = trimmed_weak_splitting(inst)
        assert is_weak_splitting(inst, coloring)
