"""The exact certification oracle: differential tests against the contract
checkers, sanity anchors for the existence oracles, and the tier-1 property
suite certifying every registered scenario on every backend.

The exact checkers were written against the contract *definitions* on a
different substrate (bitmask integers, Fraction bounds), so random
differential agreement with :mod:`repro.scenarios.contracts` is evidence
both are right — a shared bug would have to be implemented twice,
independently, the same way.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.problems import UniformSplittingSpec
from repro.local import BACKENDS
from repro.scenarios import CrashNodes, MultiEdgeLift, Scenario, all_scenarios, run_scenario
from repro.scenarios.contracts import (
    mis_violations,
    splitting_violations,
    surviving_sinks,
)
from repro.verify import (
    CERTIFY_MAX_NODES,
    certify_all,
    certify_scenario,
    exact_mis_violations,
    exact_splitting_violations,
    exact_surviving_sinks,
    min_splitting_violations,
    sinkless_feasible,
)


def random_instance(seed, n=20, edges=50, multi=False):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for _ in range(edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (multi or v not in adj[u]):
            adj[u].append(v)
            adj[v].append(u)
    alive = [rng.random() > 0.2 for _ in range(n)]
    return rng, adj, alive


def one_sided_edge_ok(seed, adj):
    """A per-slot mask that drops about a fifth of the slots, each from
    one side only."""
    rng = random.Random(seed)
    dropped = {(i, p) for i in range(64) for p in range(64) if rng.random() < 0.2}
    return np.array(
        [(i, p) not in dropped for i in range(len(adj)) for p in range(len(adj[i]))],
        dtype=bool,
    )


class TestDifferentialAgreement:
    """exact checkers == contract checkers on random instances."""

    @pytest.mark.parametrize("multi", [False, True], ids=["simple", "multigraph"])
    def test_mis(self, multi):
        for seed in range(25):
            rng, adj, alive = random_instance(seed, multi=multi)
            mis = {i for i in range(len(adj)) if rng.random() < 0.3}
            edge_ok = one_sided_edge_ok(seed, adj) if seed % 2 else None
            assert exact_mis_violations(adj, mis, alive, edge_ok) == \
                mis_violations(adj, mis, alive, edge_ok), seed

    @pytest.mark.parametrize("multi", [False, True], ids=["simple", "multigraph"])
    def test_sinks(self, multi):
        for seed in range(25):
            rng, adj, alive = random_instance(seed, multi=multi)
            # One arc per edge copy: parallel copies are oriented apart.
            orientation = [
                (i, j) if rng.random() < 0.6 else (j, i)
                for i in range(len(adj)) for j in adj[i] if i < j
            ]
            for min_degree in (1, 2, 3):
                assert exact_surviving_sinks(adj, orientation, alive, min_degree) \
                    == surviving_sinks(adj, orientation, alive, min_degree), seed

    @pytest.mark.parametrize("multi", [False, True], ids=["simple", "multigraph"])
    def test_splitting(self, multi):
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=3)
        for seed in range(25):
            rng, adj, alive = random_instance(seed, multi=multi)
            partition = [rng.randrange(2) for _ in adj]
            edge_ok = one_sided_edge_ok(seed, adj) if seed % 2 else None
            assert exact_splitting_violations(adj, partition, spec, alive, edge_ok) \
                == splitting_violations(adj, partition, spec, alive, edge_ok), seed

    def test_exact_checkers_reject_a_callable_edge_ok(self):
        path = [[1], [0, 2], [1]]
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=1)
        with pytest.raises(ValueError, match="edge_ok must be None or a bool mask"):
            exact_mis_violations(path, {0, 2}, edge_ok=lambda i, p: True)
        with pytest.raises(ValueError, match="edge_ok must be None or a bool mask"):
            exact_splitting_violations(path, [0, 1, 0], spec, edge_ok=lambda i, p: True)

    def test_planted_violations_are_found(self):
        path = [[1], [0, 2], [1]]
        assert exact_mis_violations(path, {0, 1}) == (1, 0)  # adjacent MIS pair
        assert exact_mis_violations(path, {0}) == (0, 1)  # node 2 undominated
        assert exact_mis_violations(path, {1}) == (0, 0)
        orientation = {(0, 1): True, (2, 1): True}
        assert exact_surviving_sinks(path, orientation, [True] * 3) == [1]

    def test_size_gate(self):
        big = [[] for _ in range(CERTIFY_MAX_NODES + 1)]
        with pytest.raises(ValueError, match="capped"):
            exact_mis_violations(big, set())


class TestExistenceOracles:
    def test_single_edge_is_infeasible(self):
        # Two accountable endpoints, one edge: someone must be a sink.
        assert not sinkless_feasible([[1], [0]], min_degree=1)

    def test_cycle_is_feasible(self):
        cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
        assert sinkless_feasible(cycle, min_degree=2)

    def test_star_feasibility_depends_on_accountability(self):
        star = [[1, 2, 3], [0], [0], [0]]
        # Leaves accountable at min_degree=1: three leaves need three
        # distinct outgoing edges and the center needs one more.
        assert not sinkless_feasible(star, min_degree=1)
        # min_degree=2 leaves only the center accountable.
        assert sinkless_feasible(star, min_degree=2)

    def test_self_loops_count_toward_accountability(self):
        # A self-loop port makes its node accountable but satisfies no one.
        assert not sinkless_feasible([[0]], min_degree=1)
        assert not sinkless_feasible([[0, 1], [0]], min_degree=1)
        assert sinkless_feasible([[0, 1], [0]], min_degree=2)
        assert exact_surviving_sinks([[0, 1], [0]], [(1, 0)], [True, True], 2) == [0]

    def test_crashes_relax_feasibility(self):
        assert not sinkless_feasible([[1], [0]])
        assert sinkless_feasible([[1], [0]], alive=[True, False])

    def test_min_splitting_zero_on_even_cycle(self):
        cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=2)
        # Window at degree 2 is [0.5, 1.5]: alternating colors give every
        # node exactly one red neighbor.
        assert min_splitting_violations(cycle, spec) == 0

    def test_min_splitting_positive_when_window_is_empty(self):
        k4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        spec = UniformSplittingSpec(eps=0.1, min_constrained_degree=3)
        # Window at degree 3 is [1.2, 1.8] — no integer red count fits, so
        # every node violates under every coloring.
        lo, hi = Fraction(2, 5) * 3, Fraction(3, 5) * 3
        assert int(lo) < lo and int(hi) < hi  # the window really is empty
        assert min_splitting_violations(k4, spec) == 4

    def test_min_splitting_respects_free_node_cap(self):
        adj = [[] for _ in range(30)]
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=2)
        with pytest.raises(ValueError, match="capped"):
            min_splitting_violations(adj, spec, max_free=10)


class TestScenarioCertification:
    def test_report_shape(self):
        report = certify_scenario("luby/byzantine", n=48, seed=1)
        assert report["ok"] == 1 and report["mismatches"] == []
        assert report["recovered"] == 1
        assert report["violations"] == report["exact_violations"] == 0

    def test_certifies_unrecovered_runs_too(self):
        # recover=False: the oracle still certifies the recorded violation
        # counts, whatever they are.
        report = certify_scenario("luby/byzantine", n=48, seed=1, recover=False)
        assert report["ok"] == 1
        assert report["recovered"] == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sinkless_multigraph_with_round_one_crash(self, backend):
        # Doubled edges and crashes in the proposal round: the recorded
        # violations equal the oracle's, and recovery reaches zero.
        sc = Scenario(
            name="adhoc/sinkless-lift-crash", pipeline="sinkless",
            perturbations=(MultiEdgeLift(times=2), CrashNodes(0.1, at_round=1)),
            topology="regular",
        )
        report = certify_scenario(sc, n=48, seed=2, backend=backend)
        assert report["ok"] == 1 and report["exact_violations"] == 0

    @pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sinkless_cell_at_the_size_cap(self, backend, recover):
        # At n=64 an arc into node 63 sets bit 63 of a bitset: the oracle
        # must shift Python ints, not the np.int64 rows of the state's arcs.
        n = CERTIFY_MAX_NODES
        _, state = run_scenario("sinkless/crash", n=n, seed=1, backend=backend,
                                recover=recover, return_state=True)
        assert (state["orientation"][:, 1] == n - 1).any()
        report = certify_scenario("sinkless/crash", n=n, seed=1, backend=backend,
                                  recover=recover)
        assert report["ok"] == 1, report["mismatches"]

    @pytest.mark.parametrize(
        "sc", all_scenarios(), ids=lambda s: s.name.replace("/", "-")
    )
    def test_property_suite(self, sc):
        for backend in BACKENDS:
            report = certify_scenario(sc, n=48, seed=3, backend=backend)
            assert report["ok"] == 1, (sc.name, backend, report["mismatches"])

    def test_certify_all_covers_every_cell(self):
        reports = certify_all(n=48, seed=0)
        cells = len(BACKENDS) * len(all_scenarios())
        assert len(reports) == cells
        assert all(r["ok"] for r in reports)
