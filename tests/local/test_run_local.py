"""Reference-simulator behaviour: round caps, port checks, the stopping
probe, inbox order, and agreement with the dense kernels.

:func:`run_local` is one of the two executors; the dense kernels of
:mod:`repro.local.dense` are the other, and for the shipped pipelines they
must agree bit for bit on any graph and seed.  The remaining tests pin
behaviour only the reference has: any :class:`LocalAlgorithm`, inbox
insertion order and the harness-side ``probe``.
"""

import random

import numpy as np
import pytest

from repro.bipartite.generators import (
    configuration_model_regular,
    grid_graph,
    random_sparse_graph,
)
from repro.local import CSREngine, LocalAlgorithm, Network, run_local
from repro.local.dense import luby_mis_dense, sinkless_trial_dense
from repro.mis.luby import LubyMIS
from repro.orientation.sinkless import (
    TrialAndFixSinkless,
    orientation_from_views,
    sinks,
    slot_state_from_views,
)
from tests.conftest import cycle_graph, path_graph


class Flood(LocalAlgorithm):
    """Min-uid flooding; never halts on its own."""

    def init(self, view):
        view.state["best"] = view.uid

    def send(self, view, round_no):
        return {p: view.state["best"] for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        incoming = min(inbox.values(), default=view.state["best"])
        view.state["best"] = min(view.state["best"], incoming)
        view.output = view.state["best"]


class InboxOrderRecorder(LocalAlgorithm):
    """Records the exact (port, message) arrival order for three rounds."""

    def init(self, view):
        view.state["log"] = []

    def send(self, view, round_no):
        # Distinct message per port so multi-edge pairings are observable.
        return {p: (view.index, p, round_no) for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        view.state["log"].append(list(inbox.items()))
        if round_no >= 3:
            view.output = view.state["log"]
            view.halted = True


class HaltAfter(LocalAlgorithm):
    def __init__(self, rounds):
        self.rounds = rounds

    def init(self, view):
        pass

    def send(self, view, round_no):
        return {}

    def receive(self, view, round_no, inbox):
        if round_no >= self.rounds:
            view.halted = True
            view.output = round_no


class BadPort(LocalAlgorithm):
    def init(self, view):
        pass

    def send(self, view, round_no):
        return {view.degree: "oops"}

    def receive(self, view, round_no, inbox):
        pass


def assert_luby_matches_dense(net: Network, seed: int):
    ref = run_local(net, LubyMIS(), seed=seed)
    dense = luby_mis_dense(CSREngine(net), seed=seed)
    assert (ref.rounds, ref.completed) == (dense.rounds, dense.completed)
    assert dense.in_mis.tolist() == [bool(v.state.get("in_mis")) for v in ref.views]


def assert_sinkless_matches_dense(net: Network, seed: int, min_degree: int = 1):
    adj = net.adjacency

    def probe(round_no, views):
        return round_no >= 2 and not sinks(adj, orientation_from_views(adj, views), min_degree)

    ref = run_local(net, TrialAndFixSinkless(min_degree), max_rounds=60, seed=seed, probe=probe)
    engine = CSREngine(net)
    dense = sinkless_trial_dense(engine, min_degree=min_degree, seed=seed, max_rounds=60,
                                 strict=False)
    assert dense.rounds == ref.rounds
    out, _ = slot_state_from_views(engine.offsets, ref.views)
    assert np.array_equal(dense.out, out)


class TestAgreesWithDense:
    """Fixed-seed regressions across graph families (the hypothesis
    property lives in ``tests/scenarios/test_hook_equivalence.py``)."""

    def test_random_sparse_graphs(self):
        for trial in range(6):
            rng = random.Random(trial)
            n = rng.randint(4, 60)
            net = Network(random_sparse_graph(n, min(n - 1, rng.uniform(1, 6)), seed=trial))
            for seed in (0, 1, 7):
                assert_luby_matches_dense(net, seed)

    def test_regular_and_grid_topologies(self):
        nets = [
            Network(configuration_model_regular(30, 4, seed=2)),
            Network(grid_graph(5, 6)),
            Network(grid_graph(4, 4, periodic=False)),
            Network(cycle_graph(17)),
        ]
        for net in nets:
            for seed in (3, 11):
                assert_luby_matches_dense(net, seed)
                assert_sinkless_matches_dense(net, seed)

    def test_multi_edge_networks(self):
        for adjacency in (
            [[1, 1], [0, 0]],
            [[1, 1, 1], [0, 0, 0]],
            [[1, 1, 2], [0, 0, 2], [0, 1]],
        ):
            net = Network(adjacency)
            for seed in (0, 5):
                assert_luby_matches_dense(net, seed)

    def test_shuffled_ids(self):
        net = Network(random_sparse_graph(25, 3, seed=9), ids=[1000 - i for i in range(25)])
        for seed in (0, 2):
            assert_luby_matches_dense(net, seed)


class TestInboxOrder:
    @pytest.mark.parametrize("adjacency", [
        [[1, 1], [0, 0]],
        [[1, 1, 2], [0, 0, 2], [0, 1]],
        random_sparse_graph(30, 4, seed=3),
    ], ids=["double-edge", "multigraph", "sparse"])
    def test_inbox_filled_by_sender_index_then_port(self, adjacency):
        # Every message lands on the port that pairs with its sender's port
        # (the k-th u-v slot with the k-th v-u slot), and each inbox is
        # filled in (sender index, sender port) order.
        net = Network(adjacency)
        result = run_local(net, InboxOrderRecorder(), max_rounds=5)
        assert result.completed and result.rounds == 3
        for j, view in enumerate(result.views):
            for round_no, items in enumerate(view.state["log"], start=1):
                keys = [(sender, p) for _, (sender, p, _) in items]
                assert keys == sorted(keys)
                assert all(r == round_no for _, (_, _, r) in items)
                for q, (sender, p, _) in items:
                    slot = net.offsets[sender] + p
                    assert (net.dst_node[slot], net.dst_port[slot]) == (j, q)
                assert len(items) == view.degree


class TestRunLocalBehaviour:
    def test_zero_max_rounds(self):
        result = run_local(Network(path_graph(3)), Flood(), max_rounds=0)
        assert result.rounds == 0 and not result.completed

    def test_zero_max_rounds_all_halted_in_init(self):
        class HaltImmediately(LocalAlgorithm):
            def init(self, view):
                view.halted = True
                view.output = "done"

            def send(self, view, round_no):
                return {}

            def receive(self, view, round_no, inbox):
                pass

        result = run_local(Network(path_graph(3)), HaltImmediately(), max_rounds=0)
        assert result.completed and result.rounds == 0

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(ValueError):
            run_local(Network(path_graph(2)), Flood(), max_rounds=-1)

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError, match="invalid port"):
            run_local(Network(path_graph(2)), BadPort(), max_rounds=1)

    def test_round_cap_reported(self):
        result = run_local(Network(cycle_graph(4)), HaltAfter(50), max_rounds=5)
        assert result.rounds == 5 and not result.completed

    def test_early_halt(self):
        result = run_local(Network(cycle_graph(4)), HaltAfter(3), max_rounds=100)
        assert result.rounds == 3 and result.completed

    def test_same_seed_same_run(self):
        net = Network(random_sparse_graph(30, 4, seed=4))
        a = run_local(net, LubyMIS(), seed=5)
        b = run_local(net, LubyMIS(), seed=5)
        c = run_local(net, LubyMIS(), seed=6)
        assert a.outputs() == b.outputs() and a.rounds == b.rounds
        assert a.outputs() != c.outputs() or a.rounds != c.rounds

    def test_csr_arrays_shape(self):
        engine = CSREngine(Network([[1, 1, 2], [0, 0, 2], [0, 1]]))
        assert engine.offsets.tolist() == [0, 3, 6, 8]
        assert engine.dst_node.shape == engine.dst_port.shape == (8,)
        # every slot points back at a slot that points here
        for i in range(3):
            for p in range(engine.offsets[i], engine.offsets[i + 1]):
                back = engine.offsets[engine.dst_node[p]] + engine.dst_port[p]
                assert engine.dst_node[back] == i


class TestProbe:
    def test_probe_stops_simulation(self):
        calls = []

        def probe(round_no, views):
            calls.append(round_no)
            return round_no >= 3

        result = run_local(Network(cycle_graph(8)), Flood(), max_rounds=100, probe=probe)
        assert result.rounds == 3
        assert calls == [1, 2, 3]
        assert not result.completed  # flood never halts on its own

    def test_probe_not_called_after_completion(self):
        calls = []

        def probe(round_no, views):
            calls.append(round_no)
            return False

        result = run_local(Network(cycle_graph(4)), HaltAfter(2), max_rounds=10, probe=probe)
        assert result.completed and result.rounds == 2
        assert calls == [1]  # all nodes halt in round 2: probe skipped

    def test_probe_not_called_without_rounds(self):
        calls = []
        result = run_local(Network(cycle_graph(4)), Flood(), max_rounds=0,
                           probe=lambda r, views: calls.append(r))
        assert result.rounds == 0 and calls == []

    def test_probe_stop_leaves_the_capped_run(self):
        # Stopping by probe at round r ends in exactly the states of a run
        # capped at r: the probe only observes.
        net = Network(configuration_model_regular(40, 3, seed=8))
        adj = net.adjacency
        algo = TrialAndFixSinkless(min_degree=2)

        def probe(round_no, views):
            return round_no >= 2 and not sinks(adj, orientation_from_views(adj, views), 2)

        for seed in range(4):
            stopped = run_local(net, algo, max_rounds=60, seed=seed, probe=probe)
            capped = run_local(net, algo, max_rounds=stopped.rounds, seed=seed)
            assert stopped.rounds == capped.rounds
            assert [v.state for v in stopped.views] == [v.state for v in capped.views]
