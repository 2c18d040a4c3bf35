"""Unit tests for the perturbation vocabulary and the contract helpers."""

import numpy as np
import pytest

from repro.bipartite.instance import BLUE, RED
from repro.core.problems import UniformSplittingSpec
from repro.local import Network
from repro.scenarios import (
    AdversarialIDs,
    CrashNodes,
    DropEdges,
    EdgeChurn,
    IIDMessageDrop,
    MultiEdgeLift,
    MuteHubs,
    PortScramble,
    bind_all,
    edge_key_triples,
    mis_violations,
    quiet_after,
    rewrite_all,
    splitting_violations,
    surviving_sinks,
)
from repro.scenarios.faults import lowest_coins
from repro.utils.rng import NODE_COINS, keyed_u01
from tests.conftest import cycle_graph


def star_graph(n):
    """Node 0 joined to 1..n-1."""
    return [list(range(1, n))] + [[0] for _ in range(n - 1)]


class TestFaultCoins:
    def test_pure_and_seed_sensitive(self):
        a = keyed_u01(1, "drop", 7, 3, 0)
        assert a == keyed_u01(1, "drop", 7, 3, 0)
        assert a != keyed_u01(2, "drop", 7, 3, 0)
        assert a != keyed_u01(1, "drop", 7, 4, 0)
        assert a != keyed_u01(1, "churn", 7, 3, 0)
        assert 0.0 <= a < 1.0

    def test_independent_of_node_coin_namespace(self):
        # A message's fault coin is not the sender's private coin for the
        # same (seed, uid, round, port/draw) key — disjoint labels.
        assert keyed_u01(3, "drop", 5, 1, 0) != keyed_u01(3, NODE_COINS, 5, 1, 0)


class TestCrashNodes:
    def test_deterministic_and_sized(self):
        net = Network(cycle_graph(10))
        bound = CrashNodes(fraction=0.3, at_round=2).bind(net, fault_seed=4)
        assert bound.crashes(2) == bound.crashes(2)
        assert len(bound.crashes(2)) == 3
        assert bound.crashes(1) == () and bound.crashes(3) == ()
        assert bound.quiet_after == 2

    def test_hub_selection_targets_degree(self):
        net = Network(star_graph(8))
        bound = CrashNodes(fraction=0.1, at_round=1, select="hubs").bind(net, 0)
        assert bound.crashes(1) == (0,)  # the hub

    def test_at_least_one_victim(self):
        net = Network(cycle_graph(5))
        bound = CrashNodes(fraction=0.01, at_round=1).bind(net, 0)
        assert len(bound.crashes(1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashNodes(fraction=1.5)
        with pytest.raises(ValueError):
            CrashNodes(at_round=0)
        with pytest.raises(ValueError):
            CrashNodes(select="typo")

    def test_selection_takes_the_lowest_crash_coins(self):
        # The vectorized bind takes the `count` nodes with the lowest
        # scalar keyed crash coins.
        net = Network(cycle_graph(40))
        bound = CrashNodes(fraction=0.25, at_round=1).bind(net, fault_seed=9)
        order = sorted(range(net.n), key=lambda i: keyed_u01(9, "crash", net.ids[i]))
        assert bound.crashes(1) == tuple(sorted(order[:10]))

    def test_selection_is_deterministic_and_sized(self):
        net = Network(cycle_graph(40))
        first = CrashNodes(fraction=0.25, at_round=1).bind(net, fault_seed=9)
        again = CrashNodes(fraction=0.25, at_round=1).bind(net, fault_seed=9)
        other_seed = CrashNodes(fraction=0.25, at_round=1).bind(net, fault_seed=10)
        assert first.crashes(1) == again.crashes(1)
        assert len(first.crashes(1)) == 10
        assert first.crashes(1) != other_seed.crashes(1)

    @pytest.mark.parametrize("seed", range(6))
    def test_lowest_coins_equals_the_stable_argsort_oracle(self, seed):
        # Forced ties at the threshold: coins drawn from a few values, so
        # the stable argsort's index order decides which tied nodes go in.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        for u in (rng.random(n), rng.integers(0, 4, n) / 4.0, np.full(n, 0.5)):
            for count in {1, n, int(rng.integers(1, n + 1)), max(1, n // 20)}:
                oracle = np.sort(np.argsort(u, kind="stable")[:count])
                assert np.array_equal(lowest_coins(u, count), oracle)

    def test_zero_fraction_skips_selection(self):
        net = Network(cycle_graph(6))
        bound = CrashNodes(fraction=0.0, at_round=1).bind(net, fault_seed=0)
        assert bound.crashes(1) == ()


class TestMessageDrops:
    def test_iid_rate_roughly_honored(self):
        net = Network(cycle_graph(200))
        bound = IIDMessageDrop(p=0.3).bind(net, fault_seed=8)
        drops = sum(
            not bound.delivers(r, s, p)
            for r in range(1, 6)
            for s in range(200)
            for p in range(2)
        )
        assert 0.2 < drops / 2000 < 0.4
        assert bound.quiet_after is None

    def test_window(self):
        net = Network(cycle_graph(6))
        bound = IIDMessageDrop(p=1.0, from_round=2, until_round=3).bind(net, 0)
        assert bound.delivers(1, 0, 0)
        assert not bound.delivers(2, 0, 0) and not bound.delivers(3, 0, 0)
        assert bound.delivers(4, 0, 0)
        assert bound.quiet_after == 3

    def test_mute_hubs_silences_top_degree(self):
        net = Network(star_graph(6))
        bound = MuteHubs(count=1, until_round=2).bind(net, 0)
        assert not bound.delivers(1, 0, 3)
        assert bound.delivers(3, 0, 0)  # healed
        assert bound.delivers(1, 2, 0)  # leaves unaffected


class TestDynamicEdges:
    def test_edge_keys_symmetric_across_multiedges(self):
        adj = [[1, 1, 2], [0, 0], [0]]
        net = Network(adj)
        offsets, lo, hi, k = edge_key_triples(net)
        keys = [
            [(lo[s], hi[s], k[s]) for s in range(offsets[i], offsets[i + 1])]
            for i in range(net.n)
        ]
        # The two parallel (0,1) edges get distinct keys, matched in order
        # of appearance on both sides.
        assert keys[0][0] == keys[1][0]
        assert keys[0][1] == keys[1][1]
        assert keys[0][0] != keys[0][1]
        assert keys[0][2] == keys[2][0]

    def test_churn_symmetric_per_edge(self):
        net = Network(cycle_graph(12))
        bound = EdgeChurn(p_down=0.5).bind(net, fault_seed=3)
        # Whatever the decision, both directions of an edge agree.
        for i in range(12):
            for p, j in enumerate(net.adjacency[i]):
                q = net.adjacency[j].index(i)
                assert bound.delivers(4, i, p) == bound.delivers(4, j, q)

    def test_drop_edges_final_graph(self):
        net = Network(cycle_graph(12))
        bound = DropEdges(fraction=0.5, at_round=3).bind(net, fault_seed=1)
        dropped = [
            (s, p)
            for s in range(12)
            for p in range(2)
            if not bound.edge_alive_final(s, p)
        ]
        assert dropped  # 50% of 12 edges: essentially surely non-empty
        for s, p in dropped:
            assert bound.delivers(2, s, p)
            assert not bound.delivers(3, s, p)
            assert not bound.delivers(10, s, p)


class TestRewrites:
    def test_adversarial_ids_rank_by_degree(self):
        adj = star_graph(5)
        _, ids = rewrite_all((AdversarialIDs(),), adj)
        assert ids[0] == 4  # the hub gets the largest uid
        assert sorted(ids) == list(range(5))

    def test_port_scramble_preserves_multiset(self):
        adj = cycle_graph(9)
        scrambled, ids = rewrite_all((PortScramble(salt=3),), adj)
        assert ids == list(range(9))
        assert [sorted(a) for a in scrambled] == [sorted(a) for a in adj]
        Network(scrambled)  # still a valid symmetric adjacency

    def test_multi_edge_lift_multiplies_degrees(self):
        adj = cycle_graph(5)
        lifted, _ = rewrite_all((MultiEdgeLift(times=3),), adj)
        assert all(len(lifted[i]) == 3 * len(adj[i]) for i in range(5))
        Network(lifted)

    def test_rewrites_compose_in_order(self):
        adj = star_graph(4)
        lifted, ids = rewrite_all((MultiEdgeLift(2), AdversarialIDs()), adj)
        assert len(lifted[0]) == 6 and ids[0] == 3


class TestQuietAfter:
    def test_max_over_stack_and_none_dominates(self):
        net = Network(cycle_graph(8))
        crash = CrashNodes(fraction=0.1, at_round=5)
        mute = MuteHubs(count=1, until_round=2)
        assert quiet_after(bind_all((crash, mute), net, 0)) == 5
        forever = IIDMessageDrop(p=0.1)
        assert quiet_after(bind_all((crash, forever), net, 0)) is None
        assert quiet_after(bind_all((MultiEdgeLift(2),), net, 0)) == 0


class TestContracts:
    def test_mis_violations_counts_both_kinds(self):
        adj = cycle_graph(5)
        # Adjacent MIS pair 0-1, and node 3 (neighbors 2, 4) undominated.
        independence, domination = mis_violations(adj, {0, 1})
        assert independence == 1
        assert domination == 1
        assert mis_violations(cycle_graph(4), {0, 2}) == (0, 0)

    def test_mis_violations_respects_survivors(self):
        adj = cycle_graph(4)
        alive = [True, False, True, True]
        # 1 is dead: the 0-1 edge is gone; 2 is alive non-MIS but dominated
        # by 0? 2's neighbors are 1 (dead) and 3. With MIS {0}: 2 and 3
        # both alive, 3 undominated (neighbors 2, 0 — 0 in MIS) -> fine;
        # 2's only alive neighbor 3 is not in MIS -> undominated.
        independence, domination = mis_violations(adj, {0}, alive=alive)
        assert independence == 0
        assert domination == 1

    def test_surviving_sinks(self):
        adj = cycle_graph(3)
        orientation = {(0, 1): True, (1, 2): True, (2, 0): True}
        assert surviving_sinks(adj, orientation, [True] * 3, 2) == []
        # Kill node 1: node 0's outgoing edge leads to the dead node, and
        # its alive degree (1) is below min_degree=2 -> not accountable.
        assert surviving_sinks(adj, orientation, [True, False, True], 2) == []
        # With min_degree=1 node 0 becomes accountable and is stranded.
        assert surviving_sinks(adj, orientation, [True, False, True], 1) == [0]

    def test_splitting_violations_on_surviving_degrees(self):
        adj = star_graph(5)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=2)
        partition = [RED, RED, RED, RED, BLUE]
        # Hub sees 3 red of 4: within [1, 3].
        assert splitting_violations(adj, partition, spec) == []
        # Killing the only blue leaf leaves 3/3 red > hi(3)=2.25.
        alive = [True, True, True, True, False]
        assert splitting_violations(adj, partition, spec, alive=alive) == [0]
