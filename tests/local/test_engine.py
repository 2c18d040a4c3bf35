"""Engine-vs-reference equivalence and CSR engine behaviour tests.

The batched engine's contract is *bit-identical* execution: for any
algorithm, network and seed, :func:`run_local_fast` must produce the same
outputs, states, round counts and completion flags as the reference
:func:`run_local` — including inbox dict insertion order, which some
algorithms can observe by iterating ``inbox.values()``.
"""

import random
from typing import Dict

import pytest

from repro.bipartite.generators import (
    configuration_model_regular,
    grid_graph,
    random_sparse_graph,
)
from repro.local import (
    NO_BROADCAST,
    CSREngine,
    LocalAlgorithm,
    Network,
    run_local,
    run_local_fast,
)
from repro.mis.luby import LubyMIS
from repro.orientation.sinkless import TrialAndFixSinkless
from tests.conftest import cycle_graph, path_graph


class Flood(LocalAlgorithm):
    """Min-uid flooding; order-insensitive reduction."""

    def init(self, view):
        view.state["best"] = view.uid

    def send(self, view, round_no):
        return {p: view.state["best"] for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        incoming = min(inbox.values(), default=view.state["best"])
        view.state["best"] = min(view.state["best"], incoming)
        view.output = view.state["best"]


class InboxOrderRecorder(LocalAlgorithm):
    """Records the exact (port, message) arrival order — the strictest probe
    of inbox construction equivalence between the two executors."""

    def init(self, view):
        view.state["log"] = []

    def send(self, view, round_no):
        # Distinct message per port so multi-edge pairings are observable.
        return {p: (view.uid, p, round_no) for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        view.state["log"].append(list(inbox.items()))
        if round_no >= 3:
            view.output = view.state["log"]
            view.halted = True


class BroadcastRecorder(LocalAlgorithm):
    """Broadcast algorithm that also counts which send hooks ran."""

    def __init__(self):
        self.send_calls = 0

    def init(self, view):
        view.state["seen"] = []

    def broadcast(self, view, round_no):
        return ("bc", view.uid, round_no)

    def send(self, view, round_no):
        self.send_calls += 1
        msg = ("bc", view.uid, round_no)
        return {p: msg for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        view.state["seen"].append(sorted(inbox.items()))
        if round_no >= 2:
            view.output = view.state["seen"]
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


def assert_equivalent(net: Network, algorithm_factory, seed: int, max_rounds: int = 50):
    ref = run_local(net, algorithm_factory(), max_rounds=max_rounds, seed=seed)
    fast = run_local_fast(net, algorithm_factory(), max_rounds=max_rounds, seed=seed)
    assert ref.rounds == fast.rounds
    assert ref.completed == fast.completed
    assert ref.outputs() == fast.outputs()
    for rv, fv in zip(ref.views, fast.views):
        assert rv.state == fv.state
        assert rv.halted == fv.halted


class TestEquivalenceProperty:
    """Randomized property tests over graphs x seeds x algorithms."""

    def test_random_sparse_graphs(self):
        for trial in range(6):
            rng = random.Random(trial)
            n = rng.randint(4, 60)
            adj = random_sparse_graph(n, min(n - 1, rng.uniform(1, 6)), seed=trial)
            net = Network(adj)
            for seed in (0, 1, 7):
                assert_equivalent(net, Flood, seed)
                assert_equivalent(net, LubyMIS, seed)
                assert_equivalent(net, InboxOrderRecorder, seed)

    def test_regular_and_grid_topologies(self):
        nets = [
            Network(configuration_model_regular(30, 4, seed=2)),
            Network(grid_graph(5, 6)),
            Network(grid_graph(4, 4, periodic=False)),
            Network(cycle_graph(17)),
        ]
        for net in nets:
            for seed in (3, 11):
                assert_equivalent(net, LubyMIS, seed)
                assert_equivalent(net, lambda: TrialAndFixSinkless(min_degree=1), seed)

    def test_multi_edge_networks(self):
        # Parallel edges exercise the order-of-appearance port pairing.
        for adjacency in (
            [[1, 1], [0, 0]],
            [[1, 1, 1], [0, 0, 0]],
            [[1, 1, 2], [0, 0, 2], [0, 1]],
        ):
            net = Network(adjacency)
            for seed in (0, 5):
                assert_equivalent(net, InboxOrderRecorder, seed)
                assert_equivalent(net, Flood, seed)

    def test_shuffled_ids(self):
        adj = random_sparse_graph(25, 3, seed=9)
        net = Network(adj, ids=[1000 - i for i in range(25)])
        for seed in (0, 2):
            assert_equivalent(net, LubyMIS, seed)
            assert_equivalent(net, InboxOrderRecorder, seed)


class TestBroadcastFastPath:
    def test_broadcast_matches_reference(self):
        net = Network(random_sparse_graph(20, 4, seed=1))
        assert_equivalent(net, BroadcastRecorder, seed=0)

    def test_broadcast_bypasses_send(self):
        net = Network(cycle_graph(6))
        algo = BroadcastRecorder()
        result = run_local_fast(net, algo, max_rounds=5)
        assert algo.send_calls == 0
        assert result.completed
        # every node heard both neighbors each round
        for view in result.views:
            assert all(len(seen) == 2 for seen in view.state["seen"])

    def test_reference_also_honors_broadcast(self):
        net = Network(cycle_graph(6))
        algo = BroadcastRecorder()
        run_local(net, algo, max_rounds=5)
        assert algo.send_calls == 0

    def test_no_broadcast_falls_back_to_send(self):
        net = Network(path_graph(4))
        result = run_local_fast(net, Flood(), max_rounds=6)
        assert all(v.output == 0 for v in result.views)


class TestEngineBehaviour:
    def test_zero_max_rounds(self):
        net = Network(path_graph(3))
        result = run_local_fast(net, Flood(), max_rounds=0)
        assert result.rounds == 0 and not result.completed
        ref = run_local(net, Flood(), max_rounds=0)
        assert ref.rounds == result.rounds and ref.completed == result.completed

    def test_zero_max_rounds_all_halted_in_init(self):
        class HaltImmediately(LocalAlgorithm):
            def init(self, view):
                view.halted = True
                view.output = "done"

            def send(self, view, round_no):
                return {}

            def receive(self, view, round_no, inbox):
                pass

        net = Network(path_graph(3))
        result = run_local_fast(net, HaltImmediately(), max_rounds=0)
        assert result.completed and result.rounds == 0

    def test_negative_max_rounds_rejected(self):
        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            run_local_fast(net, Flood(), max_rounds=-1)

    def test_invalid_port_rejected(self):
        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            run_local_fast(net, BadPort(), max_rounds=1)

    def test_round_cap_reported(self):
        net = Network(cycle_graph(4))
        result = run_local_fast(net, HaltAfter(50), max_rounds=5)
        assert result.rounds == 5 and not result.completed

    def test_early_halt(self):
        net = Network(cycle_graph(4))
        result = run_local_fast(net, HaltAfter(3), max_rounds=100)
        assert result.rounds == 3 and result.completed

    def test_engine_reuse_across_runs_and_seeds(self):
        net = Network(random_sparse_graph(30, 4, seed=4))
        engine = CSREngine(net)
        a = engine.run(LubyMIS(), seed=5)
        b = engine.run(LubyMIS(), seed=5)
        c = engine.run(LubyMIS(), seed=6)
        assert a.outputs() == b.outputs()
        assert a.outputs() != c.outputs() or a.rounds != c.rounds

    def test_csr_arrays_shape(self):
        adj = [[1, 1, 2], [0, 0, 2], [0, 1]]
        engine = CSREngine(Network(adj))
        assert engine.offsets.tolist() == [0, 3, 6, 8]
        assert engine.dst_node.shape == engine.dst_port.shape == (8,)
        # every slot points back at a slot that points here
        for i in range(3):
            for p in range(engine.offsets[i], engine.offsets[i + 1]):
                j = engine.dst_node[p]
                q = engine.dst_port[p]
                back = engine.offsets[j] + q
                assert engine.dst_node[back] == i

    def test_probe_stops_simulation(self):
        net = Network(cycle_graph(8))
        calls = []

        def probe(round_no, views):
            calls.append(round_no)
            return round_no >= 3

        result = CSREngine(net).run(Flood(), max_rounds=100, probe=probe)
        assert result.rounds == 3
        assert calls == [1, 2, 3]
        assert not result.completed  # flood never halts on its own

    def test_probe_not_called_after_completion(self):
        net = Network(cycle_graph(4))
        calls = []

        def probe(round_no, views):
            calls.append(round_no)
            return False

        result = CSREngine(net).run(HaltAfter(2), max_rounds=10, probe=probe)
        assert result.completed and result.rounds == 2
        assert calls == [1]  # all nodes halt in round 2: probe skipped

    def test_sentinel_identity(self):
        # The sentinel must be compared by identity and survive repr.
        assert repr(NO_BROADCAST) == "NO_BROADCAST"
        assert NO_BROADCAST is not None
