"""Tests for Lemma 2.1 (basic derandomized weak splitting)."""

import pytest

from repro.bipartite import random_left_regular, random_near_regular
from repro.core import basic_weak_splitting, is_weak_splitting, weak_splitting_min_degree
from repro.core.basic import processing_order
from repro.derand import DerandomizationError
from repro.local import RoundLedger


class TestBasic:
    def test_valid_on_regular_instance(self, splittable_instance):
        coloring = basic_weak_splitting(splittable_instance)
        assert is_weak_splitting(splittable_instance, coloring)

    def test_valid_on_near_regular(self):
        inst = random_near_regular(200, 200, 20, 30, seed=3)
        assert is_weak_splitting(inst, basic_weak_splitting(inst))

    def test_boundary_degree_exactly_2logn(self):
        # n = 128 + 128 = 256 -> 2 log n = 16
        inst = random_left_regular(128, 128, 16, seed=5)
        assert inst.delta >= weak_splitting_min_degree(inst.n)
        assert is_weak_splitting(inst, basic_weak_splitting(inst))

    def test_strict_rejects_low_degree(self):
        inst = random_left_regular(100, 100, 5, seed=6)
        with pytest.raises(DerandomizationError):
            basic_weak_splitting(inst)

    def test_non_strict_usually_succeeds_anyway(self):
        inst = random_left_regular(30, 60, 8, seed=7)
        coloring = basic_weak_splitting(inst, strict=False)
        assert is_weak_splitting(inst, coloring)

    def test_rounds_charged_scale_with_delta_r(self):
        """Lemma 2.1: runtime O(∆·r) — the dominant charge is the B²-coloring."""
        small = random_left_regular(60, 240, 16, seed=8)   # low rank
        big = random_left_regular(240, 60, 16, seed=8)     # high rank
        led_small, led_big = RoundLedger(), RoundLedger()
        basic_weak_splitting(small, ledger=led_small, strict=False)
        basic_weak_splitting(big, ledger=led_big, strict=False)
        assert led_big.total > led_small.total

    def test_custom_order_respected(self):
        inst = random_left_regular(50, 80, 14, seed=9)
        order = list(range(79, -1, -1))
        coloring = basic_weak_splitting(inst, order=order, strict=False)
        assert is_weak_splitting(inst, coloring)


class TestProcessingOrder:
    def test_same_class_nodes_share_no_constraint(self):
        inst = random_left_regular(40, 60, 6, seed=10)
        order, num_colors = processing_order(inst)
        assert sorted(order) == list(range(60))

    def test_charges_coloring_rounds(self):
        inst = random_left_regular(20, 30, 5, seed=11)
        led = RoundLedger()
        processing_order(inst, ledger=led)
        assert "B^2-coloring" in led.breakdown()
