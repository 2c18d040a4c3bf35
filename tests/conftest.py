"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.bipartite import random_left_regular, regular_bipartite


@pytest.fixture
def small_regular():
    """A small deterministic left-5-regular instance (40 + 40 nodes)."""
    return regular_bipartite(40, 40, 5)


@pytest.fixture
def splittable_instance():
    """An instance comfortably above the δ >= 2 log n threshold.

    n = 600, 2 log n ≈ 18.5; left degree 24.
    """
    return random_left_regular(300, 300, 24, seed=11)


@pytest.fixture
def low_rank_instance():
    """δ >= 6r instance: left degree 12, rank exactly 2."""
    return regular_bipartite(50, 300, 12)


def path_graph(n: int):
    """Adjacency list of the n-node path."""
    return [
        [x for x in (v - 1, v + 1) if 0 <= x < n]
        for v in range(n)
    ]


def cycle_graph(n: int):
    """Adjacency list of the n-node cycle."""
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def complete_graph(n: int):
    """Adjacency list of K_n."""
    return [[w for w in range(n) if w != v] for v in range(n)]
