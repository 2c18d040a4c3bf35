"""Cross-cutting property-based tests (hypothesis) on the paper's invariants.

These complement the per-module unit tests with randomized instance
generation: each property here is one of the load-bearing invariants of a
paper proof, checked over a distribution of instances rather than fixed
examples.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.bipartite import (
    BLUE,
    RED,
    BipartiteInstance,
    random_left_regular,
    split_high_degree_left,
    trim_left_degrees,
)
from repro.core import (
    degree_rank_reduction_one,
    degree_rank_reduction_two,
    shatter,
    solve_weak_splitting,
    weak_splitting_violations,
)
from repro.orientation import Multigraph, eulerian_orientation


@st.composite
def solvable_instances(draw):
    """Random instances inside the regimes the solver covers."""
    kind = draw(st.sampled_from(["dense", "low-rank"]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if kind == "dense":
        n_left = draw(st.integers(min_value=20, max_value=80))
        n_right = draw(st.integers(min_value=40, max_value=120))
        d = draw(st.integers(min_value=16, max_value=min(32, n_right)))
        return random_left_regular(n_left, n_right, d, seed=seed)
    # low-rank: delta >= 6r by construction
    from repro.bipartite import regular_bipartite

    r = draw(st.integers(min_value=2, max_value=4))
    d = 6 * r + draw(st.integers(min_value=0, max_value=6))
    n_left = draw(st.integers(min_value=20, max_value=50))
    n_right = n_left * d // r + (1 if (n_left * d) % r else 0)
    return regular_bipartite(n_left, max(n_right, d), d)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    m = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return Multigraph(n, edges)


class TestSolverProperties:
    @given(solvable_instances())
    @settings(max_examples=20, deadline=None)
    def test_solver_always_valid_in_covered_regimes(self, inst):
        coloring = solve_weak_splitting(inst, seed=0)
        assert not weak_splitting_violations(inst, coloring)

    @given(solvable_instances(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_solver_deterministic_given_seed(self, inst, seed):
        assert solve_weak_splitting(inst, seed=seed) == solve_weak_splitting(
            inst, seed=seed
        )


class TestTransformProperties:
    @given(
        st.integers(min_value=10, max_value=40),
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_trim_preserves_weak_splitting_upward(self, n_side, d, seed):
        """Any weak splitting of a trimmed graph splits the original —
        the monotonicity Lemma 2.2 rests on."""
        inst = random_left_regular(n_side, n_side * 2, d, seed=seed)
        target = max(2, d // 2)
        trimmed, _ = trim_left_degrees(inst, target)
        # Build a splitting of the trimmed graph by brute greedy per u.
        coloring = [None] * inst.n_right
        for u in range(trimmed.n_left):
            nbrs = trimmed.left_neighbors(u)
            if len(nbrs) >= 2:
                coloring[nbrs[0]] = RED
                coloring[nbrs[1]] = BLUE
        # Wherever the trimmed instance is satisfied, so is the original.
        full = [c if c is not None else RED for c in coloring]
        trimmed_bad = set(weak_splitting_violations(trimmed, full))
        original_bad = set(weak_splitting_violations(inst, full))
        assert original_bad <= trimmed_bad

    @given(
        st.integers(min_value=6, max_value=60),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_virtual_split_partitions_edges(self, degree, delta):
        if degree < delta:
            return
        inst = BipartiteInstance(1, degree, [(0, v) for v in range(degree)])
        virtual, owner = split_high_degree_left(inst, delta=delta)
        # edges partition: every original neighbor appears exactly once
        seen = [v for j in range(virtual.n_left) for v in virtual.left_neighbors(j)]
        assert sorted(seen) == list(range(degree))
        assert all(o == 0 for o in owner)


class TestReductionProperties:
    @given(
        st.integers(min_value=10, max_value=40),
        st.integers(min_value=8, max_value=24),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_reduction_one_monotone_shrinkage(self, n_side, d, iters, seed):
        d = min(d, n_side)
        inst = random_left_regular(n_side, n_side, d, seed=seed)
        reduced, emap, trace = degree_rank_reduction_one(inst, eps=0.25, iterations=iters)
        # degrees never grow, edge count strictly shrinks (unless empty)
        assert all(a >= b for a, b in zip(trace.Deltas, trace.Deltas[1:]))
        assert all(a >= b for a, b in zip(trace.edge_counts, trace.edge_counts[1:]))
        assert len(set(emap)) == len(emap)  # edge map injective

    @given(
        st.integers(min_value=10, max_value=30),
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_reduction_two_exact_ceil_half(self, n_side, d, seed):
        d = min(d, n_side)
        inst = random_left_regular(n_side, n_side, d, seed=seed)
        reduced, _, _ = degree_rank_reduction_two(inst, eps=0.01, iterations=1)
        for v in range(inst.n_right):
            assert reduced.right_degree(v) == math.ceil(inst.right_degree(v) / 2)


class TestShatteringProperties:
    @given(
        st.integers(min_value=20, max_value=60),
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_shattering_invariants(self, n_side, d, seed):
        inst = random_left_regular(n_side, n_side, d, seed=seed)
        out = shatter(inst, seed=seed + 1)
        # (1) every constraint keeps >= 1/4 neighbors uncolored
        for u in range(inst.n_left):
            nbrs = inst.left_neighbors(u)
            assert sum(1 for v in nbrs if out.partial[v] is None) >= len(nbrs) / 4
        # (2) satisfied+unsatisfied partitions U
        assert len(out.unsatisfied) <= inst.n_left
        # (3) residual structure maps are consistent bijections
        assert len(set(out.residual_left_ids)) == out.residual.n_left
        assert len(set(out.residual_right_ids)) == out.residual.n_right


class TestOrientationProperties:
    @given(multigraphs())
    @settings(max_examples=50, deadline=None)
    def test_eulerian_flow_conservation(self, g):
        """Global in = out = |E| minus self-loop bookkeeping."""
        ori = eulerian_orientation(g)
        total_in = sum(ori.in_degree(v) for v in range(g.n))
        total_out = sum(ori.out_degree(v) for v in range(g.n))
        assert total_in == total_out == g.n_edges

    @given(multigraphs())
    @settings(max_examples=50, deadline=None)
    def test_eulerian_even_nodes_perfectly_balanced(self, g):
        ori = eulerian_orientation(g)
        for v in range(g.n):
            if g.degree(v) % 2 == 0:
                assert ori.discrepancy(v) == 0
            else:
                assert ori.discrepancy(v) == 1
