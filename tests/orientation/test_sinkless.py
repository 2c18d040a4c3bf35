"""Tests for sinkless orientation: verifier and baselines."""

import hashlib
import json
import pickle
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bipartite.generators import configuration_model_regular
from repro.local.arcs import ArcCounts
from repro.orientation import (
    greedy_sinkless_orientation,
    is_sinkless,
    run_trial_and_fix,
    sinks,
)
from repro.orientation.sinkless import orientation_from_views
from repro.scenarios.contracts import surviving_sinks
from tests.conftest import cycle_graph


class TestVerifier:
    def test_directed_cycle_is_sinkless(self):
        adj = cycle_graph(5)
        orientation = {(i, (i + 1) % 5): True for i in range(5)}
        assert is_sinkless(adj, orientation)

    def test_sink_detected(self):
        adj = cycle_graph(3)
        orientation = {(1, 0): True, (2, 0): True, (1, 2): True}
        assert sinks(adj, orientation) == [0]
        assert not is_sinkless(adj, orientation)

    def test_min_degree_filter(self):
        # path: endpoints have degree 1; with min_degree=2 only middle matters
        adj = [[1], [0, 2], [1]]
        orientation = {(1, 0): True, (1, 2): True}
        assert is_sinkless(adj, orientation, min_degree=2)
        assert not is_sinkless(adj, orientation, min_degree=1)

    def test_uncovered_edge_fails(self):
        adj = cycle_graph(3)
        orientation = {(0, 1): True, (1, 2): True}  # edge {0,2} missing
        assert not is_sinkless(adj, orientation)

    def test_double_oriented_edge_rejected(self):
        adj = cycle_graph(3)
        orientation = {(0, 1): True, (1, 0): True, (1, 2): True, (2, 0): True}
        with pytest.raises(ValueError):
            is_sinkless(adj, orientation)

    def test_non_edge_rejected(self):
        adj = cycle_graph(4)
        with pytest.raises(ValueError):
            is_sinkless(adj, {(0, 2): True})

    def test_parallel_edges_are_separate_copies(self):
        adj = [[1, 1, 2, 2], [0, 0], [0, 2, 0]]  # node 2 has a self-loop port
        assert is_sinkless(adj, [(0, 1), (1, 0), (2, 0), (0, 2)])
        assert not is_sinkless(adj, [(0, 1), (0, 1), (2, 0), (0, 2)])  # node 1 is a sink
        assert not is_sinkless(adj, [(1, 0), (2, 0), (0, 2)])  # one copy left out
        # A self-loop counts toward degree but is never outgoing.
        assert sinks(adj, [(0, 1), (1, 0), (0, 2), (0, 2)], min_degree=3) == [2]
        # A dict holds one arc per pair, so it cannot cover both copies.
        assert not is_sinkless(adj, {(1, 0): True, (2, 0): True, (0, 2): True})
        # A Counter holds the copies as counts.
        assert is_sinkless(adj, Counter({(0, 1): 1, (1, 0): 1, (2, 0): 1, (0, 2): 1}))
        assert not is_sinkless(adj, Counter({(0, 1): 2, (2, 0): 1, (0, 2): 1}))
        with pytest.raises(ValueError, match=r"edge \(0, 2\) oriented twice"):
            is_sinkless(adj, Counter({(0, 1): 1, (1, 0): 1, (2, 0): 3}))
        with pytest.raises(ValueError, match=r"edge \(0, 1\) oriented twice"):
            is_sinkless(adj, [(0, 1), (1, 0), (0, 1), (2, 0), (0, 2)])
        with pytest.raises(ValueError, match="non-edge"):
            is_sinkless(adj, [(0, 1), (1, 0), (2, 0), (0, 2), (2, 2)])
        # A (k, 2) array holds one row per copy.
        assert is_sinkless(adj, np.array([[0, 1], [1, 0], [2, 0], [0, 2]]))
        assert sinks(adj, np.array([[0, 1], [0, 1], [2, 0], [0, 2]])) == [1]
        with pytest.raises(ValueError, match=r"edge \(0, 1\) oriented twice"):
            is_sinkless(adj, np.array([[0, 1], [1, 0], [0, 1], [2, 0], [0, 2]]))

    @pytest.mark.parametrize(
        "bad", [np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64), np.zeros((2, 2))]
    )
    def test_arc_array_must_be_k_by_2_integers(self, bad):
        with pytest.raises(ValueError, match=r"\(k, 2\) integers"):
            sinks([[1], [0]], bad)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_endpoint_outside_graph_rejected(self, bad):
        orientation = {(0, 1): True, (2, 1): True, (2, bad): True}
        with pytest.raises(ValueError, match=f"orientation endpoint {bad} is not a node"):
            is_sinkless([[1], [0, 2], [1]], orientation)
        with pytest.raises(ValueError, match=f"orientation endpoint {bad} is not a node"):
            sinks([[1], [0, 2], [1]], orientation)


class TestGreedyBaseline:
    def test_cycle(self):
        adj = cycle_graph(8)
        ori = greedy_sinkless_orientation(adj, seed=1)
        assert is_sinkless(adj, ori)

    def test_regular_graph(self):
        adj = configuration_model_regular(30, 4, seed=2)
        ori = greedy_sinkless_orientation(adj, seed=3)
        assert is_sinkless(adj, ori)

    def test_reproducible(self):
        adj = cycle_graph(10)
        assert greedy_sinkless_orientation(adj, seed=7) == greedy_sinkless_orientation(
            adj, seed=7
        )


def fault_free_cases():
    """``(adj, min_degree, seed, method)`` runs of the fault-free digest:
    regular graphs of degree 3..5, and looped multigraphs on both methods."""
    for n, d in ((60, 3), (400, 3), (2000, 4), (4000, 5)):
        for seed in range(5):
            for method in ("reference", "dense") if n <= 400 else ("dense",):
                yield configuration_model_regular(n, d, seed=seed), 1, seed, method
    for seed in range(12):
        rng = random.Random(seed)
        adj = cycle_graph(40)
        for _ in range(40):
            u, v = rng.randrange(40), rng.randrange(40)
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        for method in ("reference", "dense"):
            yield adj, 2, seed, method


#: SHA-256 of every :func:`fault_free_cases` run's rounds and arcs, recorded
#: before base runs stopped at fixed points.
FAULT_FREE_DIGEST = "6b5396d4d7b2027a6298283e919b4582476a6cc1ccbf04a781f83d5f22f92525"


class TestTrialAndFix:
    def test_fault_free_runs_match_the_pinned_digest(self):
        # Without lost flips no run reaches a fixed point short of
        # sink-free, so the fixed-point stop leaves every fault-free run,
        # its rounds included, as it was.
        digest = hashlib.sha256()
        for adj, min_degree, seed, method in fault_free_cases():
            orientation, rounds = run_trial_and_fix(
                adj, min_degree=min_degree, seed=seed, max_rounds=400, method=method
            )
            digest.update(json.dumps([rounds, orientation.arcs.tolist()]).encode())
        assert digest.hexdigest() == FAULT_FREE_DIGEST

    def test_cycle_terminates_sinkless(self):
        adj = cycle_graph(10)
        orientation, rounds = run_trial_and_fix(adj, seed=1)
        assert is_sinkless(adj, orientation)
        assert rounds >= 2

    def test_regular_graph(self):
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, rounds = run_trial_and_fix(adj, seed=2)
        assert is_sinkless(adj, orientation)

    def test_higher_degree_converges_fast(self):
        adj = configuration_model_regular(30, 6, seed=6)
        _, rounds = run_trial_and_fix(adj, seed=3)
        assert rounds <= 30

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_multigraph_outputs_verify(self, method):
        # Cycles plus random chords, many of them parallel edges and some
        # self-loops: every output orients each edge copy once and is
        # sinkless, and both methods return the same run.
        for seed in range(8):
            rng = random.Random(seed)
            n = 24
            adj = cycle_graph(n)
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                adj[u].append(v)
                if u != v:
                    adj[v].append(u)
            orientation, rounds = run_trial_and_fix(
                adj, min_degree=2, seed=seed, max_rounds=400, method=method
            )
            assert is_sinkless(adj, orientation, min_degree=2)
            assert (orientation, rounds) == run_trial_and_fix(
                adj, min_degree=2, seed=seed, max_rounds=400, method="reference"
            )

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_output_copies_as_an_arc_dict(self, method):
        # The output maps each arc to its copies, so dict() copies it arc by
        # arc, and the copy, edited one arc at a time, stays a valid input.
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method=method)
        copy = dict(orientation)
        assert len(copy) == 48 and set(copy.values()) == {1}
        assert is_sinkless(adj, copy, min_degree=2)
        u, v = next(iter(copy))
        del copy[(u, v)]
        copy[(v, u)] = True
        assert is_sinkless(adj, copy, min_degree=2) == (not sinks(adj, copy, 2))

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_output_is_a_read_only_arc_array(self, method):
        # The output wraps one (tail, head) row per edge copy, in slot order
        # on both methods; its mapping side is the Counter of those rows.
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method=method)
        arcs = orientation.arcs
        assert isinstance(orientation, ArcCounts)
        assert arcs.shape == (48, 2) and arcs.dtype == np.int64
        assert not arcs.flags.writeable
        with pytest.raises(ValueError):
            arcs[0, 0] = arcs[0, 1]
        assert orientation == Counter(map(tuple, arcs.tolist()))
        reference, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method="reference")
        assert np.array_equal(arcs, reference.arcs)

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_output_survives_pickle(self, method):
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method=method)
        copy = pickle.loads(pickle.dumps(orientation))
        assert isinstance(copy, ArcCounts) and copy == orientation
        assert np.array_equal(copy.arcs, orientation.arcs)
        assert not copy.arcs.flags.writeable

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_verifiers_read_the_array_without_building_the_counter(self, method):
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method=method)
        assert is_sinkless(adj, orientation, min_degree=2)
        assert sinks(adj, orientation, 2) == []
        assert surviving_sinks(adj, orientation, [True] * 24, 2) == []
        assert orientation._counts is None
        assert len(orientation) == 48 and orientation._counts is not None

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_bad_arcs_in_the_output_type_rejected(self, method):
        adj = configuration_model_regular(24, 4, seed=5)
        orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=2, method=method)
        arcs = orientation.arcs
        u, v = arcs[0].tolist()
        non_edge = next((u, w) for w in range(24) if w != u and w not in adj[u])
        cases = {
            "is not a node": np.vstack((arcs[1:], [[u, 24]])),
            "non-edge": np.vstack((arcs[1:], [non_edge])),
            "oriented twice": np.vstack((arcs, [[v, u]])),
        }
        for message, bad in cases.items():
            with pytest.raises(ValueError, match=message):
                is_sinkless(adj, ArcCounts(bad), min_degree=2)

    def test_arc_counts_reject_a_non_arc_array(self):
        for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2)), [(0, 1)]):
            with pytest.raises(ValueError, match=r"\(k, 2\) integers"):
                ArcCounts(bad)

    def test_unset_ports_read_inward(self):
        # A node that crashed before the proposal round never set a port:
        # its edges point into it.
        adj = [[1, 2], [0, 2], [0, 1]]
        views = [SimpleNamespace(state=state) for state in (
            {"out": {}, "crashed": True},
            {"out": {0: True, 1: True}},
            {"out": {0: False, 1: False}},
        )]
        assert orientation_from_views(adj, views) == Counter([(1, 0), (2, 0), (1, 2)])

    @pytest.mark.parametrize("method", ["reference", "dense"])
    def test_negative_round_cap_rejected(self, method):
        adj = configuration_model_regular(24, 4, seed=5)
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            run_trial_and_fix(adj, seed=2, max_rounds=-3, method=method)
