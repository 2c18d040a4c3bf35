"""RoundHooks behaviour on the reference simulator.

The hook API is the substrate of the scenario subsystem: crashes in
``before_round``, message drops in ``deliver``, observation in
``after_round``.  These tests pin the call-point semantics directly, with
and without a stopping probe that never fires (the perturbation-level
equivalence with the dense kernels lives in ``tests/scenarios/``).
"""

from functools import partial

import pytest

from repro.local import LocalAlgorithm, Network, RoundHooks, run_local
from tests.conftest import cycle_graph


class Flood(LocalAlgorithm):
    """Min-uid flooding for a fixed number of rounds."""

    def __init__(self, rounds=3):
        self.rounds = rounds

    def init(self, view):
        view.state["best"] = view.uid

    def send(self, view, round_no):
        return {p: view.state["best"] for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        incoming = min(inbox.values(), default=view.state["best"])
        view.state["best"] = min(view.state["best"], incoming)
        if round_no >= self.rounds:
            view.output = view.state["best"]
            view.halted = True


class CrashAt(RoundHooks):
    def __init__(self, victims, at_round):
        self.victims = victims
        self.at_round = at_round

    def before_round(self, round_no, views):
        if round_no == self.at_round:
            for i in self.victims:
                views[i].halted = True
                views[i].state["crashed"] = True


class DropFrom(RoundHooks):
    """Drop every message a given sender emits (pure in (round, sender, port))."""

    def __init__(self, senders):
        self.senders = frozenset(senders)

    def deliver(self, round_no, sender, port):
        return sender not in self.senders


class Recorder(RoundHooks):
    def __init__(self):
        self.before = []
        self.after = []

    def before_round(self, round_no, views):
        self.before.append(round_no)

    def after_round(self, round_no, views):
        self.after.append(round_no)


def never(round_no, views):
    return False


@pytest.mark.parametrize("runner", [run_local, partial(run_local, probe=never)],
                         ids=["plain", "idle-probe"])
class TestHookSemantics:
    def test_crashed_node_stops_participating(self, runner):
        net = Network(cycle_graph(6))
        # Node 0 holds the minimum uid; crashing it before round 1 means its
        # uid never propagates.
        result = runner(net, Flood(rounds=3), max_rounds=10, seed=0,
                        hooks=CrashAt([0], at_round=1))
        assert result.views[0].output is None
        assert result.views[0].state["crashed"]
        assert all(v.output is not None for v in result.views[1:])
        assert 0 not in [v.output for v in result.views[1:]]
        # Survivors all halted, so the run still completes.
        assert result.completed

    def test_crash_after_propagation_keeps_value(self, runner):
        net = Network(cycle_graph(6))
        # One round is enough for uid 0 to reach its two neighbors; from
        # there the survivors spread it among themselves within 3 rounds.
        result = runner(net, Flood(rounds=3), max_rounds=10, seed=0,
                        hooks=CrashAt([0], at_round=2))
        assert [v.output for v in result.views[1:]] == [0, 0, 0, 0, 0]

    def test_dropped_messages_never_arrive(self, runner):
        net = Network(cycle_graph(5))
        result = runner(net, Flood(rounds=4), max_rounds=10, seed=0,
                        hooks=DropFrom([0]))
        # Node 0 is silenced: nobody ever hears uid 0, but node 0 itself
        # keeps receiving and halts normally.
        assert result.completed
        assert result.views[0].output == 0
        assert 0 not in [v.output for v in result.views[1:]]

    def test_before_and_after_called_per_executed_round(self, runner):
        net = Network(cycle_graph(4))
        hooks = Recorder()
        result = runner(net, Flood(rounds=3), max_rounds=10, seed=0, hooks=hooks)
        assert hooks.before == list(range(1, result.rounds + 1))
        assert hooks.after == hooks.before

    def test_crashing_everyone_counts_the_empty_round(self, runner):
        net = Network(cycle_graph(4))
        result = runner(net, Flood(rounds=5), max_rounds=10, seed=0,
                        hooks=CrashAt(range(4), at_round=2))
        # Round 2 executes as an empty round (reference semantics), then the
        # run stops: everyone is halted, nobody produced output.
        assert result.rounds == 2
        assert result.completed
        assert all(v.output is None for v in result.views)


def test_idle_probe_leaves_hooked_runs_unchanged():
    net = Network(cycle_graph(9))
    for hooks_factory in (
        lambda: CrashAt([2, 5], at_round=2),
        lambda: DropFrom([1, 4]),
        lambda: Recorder(),
    ):
        ref = run_local(net, Flood(rounds=4), max_rounds=20, seed=3, hooks=hooks_factory())
        probed = run_local(net, Flood(rounds=4), max_rounds=20, seed=3,
                           hooks=hooks_factory(), probe=never)
        assert ref.rounds == probed.rounds
        assert ref.completed == probed.completed
        assert ref.outputs() == probed.outputs()
        assert [v.state for v in ref.views] == [v.state for v in probed.views]


def test_hooks_compose_with_probe():
    net = Network(cycle_graph(8))
    seen = []

    def probe(round_no, views):
        seen.append(round_no)
        return False

    result = run_local(net, Flood(rounds=3), max_rounds=10, seed=0,
                       probe=probe, hooks=DropFrom([0]))
    assert result.completed
    # The probe fires between rounds while any node is still active.
    assert seen == list(range(1, result.rounds))
