"""Property tests for the harder fault models: correlated crashes and
Byzantine message corruption.

* :class:`CorrelatedCrash` — victim sets hit the requested size, ball mode
  stays connected on connected graphs, shard mode crashes one block-aligned
  contiguous node range, and selection is deterministic per bound seed;
* :func:`corrupt_payload` — the pure Byzantine rewrite covers every shipped
  message vocabulary, is an involution on the symmetric pairs, and passes
  unknown payloads through;
* **hook equivalence** — the Byzantine scenarios produce bit-identical
  metrics across every backend they register (reference hooks, dense
  corruption masks), because the corruption *decision* runs
  on the shared keyed coin kernels and the *rewrite* is mirrored as
  per-slot semantic masks.
"""

import random

import pytest

from repro.local import Network
from repro.scenarios import (
    FORGED_PRIORITY,
    CorrelatedCrash,
    CorruptMessages,
    corrupt_payload,
    get_scenario,
    run_scenario,
)


def connected_graph(seed, n=40, extra=40):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for i in range(1, n):  # random spanning tree keeps it connected
        j = rng.randrange(i)
        adj[i].append(j)
        adj[j].append(i)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def victims_of(pert, net, seed):
    bound = pert.bind(net, seed)
    return sorted(bound.crashes(pert.at_round))


class TestCorrelatedCrash:
    @pytest.mark.parametrize("mode", ["ball", "shard"])
    def test_victim_count_and_schedule(self, mode):
        net = Network(connected_graph(1))
        for fraction in (0.1, 0.25, 0.5):
            pert = CorrelatedCrash(fraction, at_round=3, mode=mode)
            bound = pert.bind(net, 7)
            victims = sorted(bound.crashes(3))
            assert len(victims) == max(1, round(fraction * net.n))
            assert bound.crashes(2) == () and bound.crashes(4) == ()
            assert bound.quiet_after == 3
            # Deterministic per bound seed, no hidden global state.
            assert victims == victims_of(pert, net, 7)

    def test_ball_mode_victims_are_connected(self):
        for seed in range(5):
            net = Network(connected_graph(seed))
            victims = victims_of(CorrelatedCrash(0.3, mode="ball"), net, seed)
            assert victims, "a positive fraction always crashes someone"
            inside = set(victims)
            reached = {victims[0]}
            frontier = [victims[0]]
            while frontier:
                v = frontier.pop()
                for w in net.adjacency[v]:
                    if w in inside and w not in reached:
                        reached.add(w)
                        frontier.append(w)
            assert reached == inside

    def test_shard_mode_is_a_block_aligned_range(self):
        net = Network(connected_graph(2))
        for seed in range(8):
            victims = victims_of(CorrelatedCrash(0.25, mode="shard"), net, seed)
            count = max(1, round(0.25 * net.n))
            assert victims == list(range(victims[0], victims[0] + count))
            assert victims[0] % count == 0

    def test_zero_fraction_crashes_nobody(self):
        net = Network(connected_graph(3))
        bound = CorrelatedCrash(0.0, at_round=2).bind(net, 1)
        assert bound.crashes(2) == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            CorrelatedCrash(1.5)
        with pytest.raises(ValueError, match="mode"):
            CorrelatedCrash(0.1, mode="rack")
        with pytest.raises(ValueError, match="at_round"):
            CorrelatedCrash(0.1, at_round=0)


class TestCorruptPayload:
    def test_symmetric_pairs_are_involutions(self):
        for msg in (0, 1, ("join",), ("stay",), ("flip", 3), ("ok", 3),
                    ("prop", True, 2), ("prop", False, 2)):
            assert corrupt_payload(corrupt_payload(msg)) == msg
            assert corrupt_payload(msg) != msg

    def test_forged_priority_beats_any_honest_draw(self):
        assert corrupt_payload(("prio", (0.999, 10))) == ("prio", FORGED_PRIORITY)
        assert FORGED_PRIORITY > (1.0, 1 << 61)

    def test_unknown_payloads_pass_through(self):
        for msg in (None, 2, "hello", ("unknown", 1), ()):
            assert corrupt_payload(msg) == msg

    def test_corruption_window_and_keying(self):
        net = Network(connected_graph(4))
        bound = CorruptMessages(p=0.5, from_round=2, until_round=4).bind(net, 9)
        assert bound.quiet_after == 4
        assert not any(bound.corrupts(1, s, 0) for s in range(net.n))
        assert not any(bound.corrupts(5, s, 0) for s in range(net.n))
        active = [bound.corrupts(3, s, 0) for s in range(net.n)]
        assert any(active) and not all(active)
        # Scalar decisions equal the vectorized kernel's.
        import numpy as np

        senders = np.arange(net.n, dtype=np.int64)
        mask = bound.corrupts_mask(3, senders, np.zeros(net.n, dtype=np.int64))
        assert mask.tolist() == active
        assert bound.corrupts_mask(1, senders, senders) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="p must"):
            CorruptMessages(p=-0.1)
        with pytest.raises(ValueError, match="until_round"):
            CorruptMessages(from_round=5, until_round=4)


class TestByzantineHookEquivalence:
    """One corruption schedule => identical metrics on every backend."""

    @pytest.mark.parametrize(
        "name", ["luby/byzantine", "sinkless/byzantine", "splitting/byzantine",
                 "luby/crash-correlated", "luby/crash-shard"],
    )
    def test_backends_agree(self, name):
        sc = get_scenario(name)
        runs = [run_scenario(sc, n=64, seed=3, backend=backend) for backend in sc.backends]
        keys = [k for k in runs[0] if not k.endswith("_seconds")]
        for backend, m in zip(sc.backends[1:], runs[1:]):
            for k in keys:
                assert m[k] == runs[0][k], (name, backend, k)

    def test_corruption_changes_outcomes(self):
        clean = run_scenario("luby/crash", n=64, seed=3, backend="reference")
        byz = run_scenario("luby/byzantine", n=64, seed=3, backend="reference")
        # Same base pipeline, different fault family: the Byzantine channel
        # must actually perturb the execution, not just relabel it.
        assert (byz["rounds"], byz["violations"], byz["mis_size"]) != (
            clean["rounds"], clean["violations"], clean["mis_size"],
        )
