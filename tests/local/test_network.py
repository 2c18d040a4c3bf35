"""Tests for the synchronous LOCAL simulator."""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite import BipartiteInstance
from repro.local import LocalAlgorithm, Network, NodeView, build_reverse_ports, run_local
from tests.conftest import cycle_graph, path_graph


class Flood(LocalAlgorithm):
    """Each node learns the minimum uid in its component (classic flooding)."""

    def init(self, view: NodeView) -> None:
        view.state["best"] = view.uid

    def send(self, view: NodeView, round_no: int) -> Dict[int, int]:
        return {p: view.state["best"] for p in range(view.degree)}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, int]) -> None:
        incoming = min(inbox.values(), default=view.state["best"])
        view.state["best"] = min(view.state["best"], incoming)
        view.output = view.state["best"]


class HaltAfter(LocalAlgorithm):
    def __init__(self, rounds: int):
        self.rounds = rounds

    def init(self, view: NodeView) -> None:
        pass

    def send(self, view: NodeView, round_no: int) -> Dict[int, int]:
        return {}

    def receive(self, view: NodeView, round_no: int, inbox) -> None:
        if round_no >= self.rounds:
            view.halted = True
            view.output = round_no


class EchoPorts(LocalAlgorithm):
    """Sends its uid on every port; records the uid seen per port."""

    def init(self, view: NodeView) -> None:
        view.state["seen"] = {}

    def send(self, view: NodeView, round_no: int) -> Dict[int, int]:
        return {p: view.uid for p in range(view.degree)}

    def receive(self, view: NodeView, round_no: int, inbox) -> None:
        view.state["seen"] = dict(inbox)
        view.output = dict(inbox)
        view.halted = True


def packed_from_reverse_ports(adjacency):
    """CSR ``(offsets, dst_node, dst_port)`` laid out from the per-slot
    reference port tables of :func:`build_reverse_ports`."""
    reverse_port = build_reverse_ports(adjacency)
    offsets = [0]
    for nbrs in adjacency:
        offsets.append(offsets[-1] + len(nbrs))
    dst_node = [j for nbrs in adjacency for j in nbrs]
    dst_port = [q for ports in reverse_port for q in ports]
    return offsets, dst_node, dst_port


@st.composite
def multigraph_cases(draw, max_nodes=12, max_edges=30):
    """Symmetric adjacency with parallel edges, self-loops listed once or
    twice, isolated nodes (``n`` may be 0) and shuffled port order, plus
    default or custom ids."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    adj = [[] for _ in range(n)]
    if n:
        node = st.integers(min_value=0, max_value=n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=max_edges)):
            adj[u].append(v)
            adj[v].append(u)
        for u in draw(st.lists(node, max_size=3)):
            adj[u].append(u)
    adj = [draw(st.permutations(nbrs)) for nbrs in adj]
    ids = draw(st.none() | st.lists(
        st.integers(min_value=-10**9, max_value=10**9), min_size=n, max_size=n, unique=True
    ))
    return adj, ids


class TestNetwork:
    def test_rejects_asymmetric(self):
        cases = [
            ([[1], []], "asymmetric adjacency between nodes 0 and 1"),
            ([[1, 1], [0]], "asymmetric adjacency between nodes 0 and 1"),
            ([[], [2, 2], [1]], "asymmetric adjacency between nodes 1 and 2"),
        ]
        for adj, message in cases:
            with pytest.raises(ValueError, match=message):
                Network(adj)

    def test_rejects_out_of_range(self):
        cases = [
            ([[5]], "node 0 lists out-of-range neighbor 5"),
            ([[1], [-1]], "node 1 lists out-of-range neighbor -1"),
            ([[1], [0, 2]], "node 1 lists out-of-range neighbor 2"),
        ]
        for adj, message in cases:
            with pytest.raises(ValueError, match=message):
                Network(adj)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="ids must be unique"):
            Network(path_graph(3), ids=[1, 1, 2])

    def test_rejects_ids_of_wrong_length(self):
        for ids in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="one entry per node"):
                Network(path_graph(3), ids=ids)

    @given(multigraph_cases())
    @settings(max_examples=200, deadline=None)
    def test_pack_matches_reverse_port_tables(self, case):
        adj, ids = case
        net = Network(adj, ids=ids)
        offsets, dst_node, dst_port = packed_from_reverse_ports(net.adjacency)
        assert net.offsets.tolist() == offsets
        assert net.dst_node.tolist() == dst_node
        assert net.dst_port.tolist() == dst_port
        assert net.offsets.dtype == net.dst_node.dtype == net.dst_port.dtype == np.int64
        assert net.ids == (tuple(range(len(adj))) if ids is None else tuple(ids))
        assert net.simple == all(
            i not in nbrs and len(set(nbrs)) == len(nbrs) for i, nbrs in enumerate(adj)
        )

    def test_packed_arrays_are_read_only(self):
        net = Network(path_graph(3))
        for arr in (net.offsets, net.dst_node, net.dst_port):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_uid_array_is_built_once_and_read_only(self):
        from repro.scenarios import CorruptMessages, IIDMessageDrop, bind_all

        net = Network(path_graph(3), ids=[30, 10, 20])
        uids = net.uid_array
        assert uids.tolist() == [30, 10, 20] and uids.dtype == np.int64
        with pytest.raises(ValueError):
            uids[0] = 1
        # Every binding's fault coins read the network's one array.
        for attempt in range(3):
            for b in bind_all((IIDMessageDrop(0.5), CorruptMessages(0.5)), net, attempt):
                b.delivers_mask(1, net.dst_node, net.dst_port)
                b.corrupts_mask(1, net.dst_node, net.dst_port)
                assert b.network.uid_array is uids

    def test_degree(self):
        net = Network(path_graph(3))
        assert [net.degree(i) for i in range(3)] == [1, 2, 1]

    def test_from_bipartite(self):
        inst = BipartiteInstance(2, 2, [(0, 0), (1, 1), (0, 1)])
        net = Network.from_bipartite(inst)
        assert net.n == 4
        assert net.degree(0) == 2  # left node 0 has two edges

    def test_multi_edge_ports(self):
        net = Network([[1, 1], [0, 0]])
        assert net.degree(0) == 2


class TestRunLocal:
    def test_flood_converges_to_min_id(self):
        net = Network(path_graph(5), ids=[40, 30, 20, 10, 50])
        result = run_local(net, Flood(), max_rounds=10)
        assert all(v.output == 10 for v in result.views)

    def test_information_travels_one_hop_per_round(self):
        # After r rounds, a node knows only uids within distance r.
        net = Network(path_graph(5), ids=[0, 10, 20, 30, 40])
        result = run_local(net, Flood(), max_rounds=2)
        # node 4 (uid 40) is 4 hops from uid 0; after 2 rounds it knows 20.
        assert result.views[4].output == 20

    def test_halting_stops_early(self):
        net = Network(cycle_graph(4))
        result = run_local(net, HaltAfter(3), max_rounds=100)
        assert result.rounds == 3 and result.completed

    def test_round_cap_reported(self):
        net = Network(cycle_graph(4))
        result = run_local(net, HaltAfter(50), max_rounds=5)
        assert result.rounds == 5 and not result.completed

    def test_port_reciprocity(self):
        net = Network(path_graph(3), ids=[100, 200, 300])
        result = run_local(net, EchoPorts(), max_rounds=2)
        # middle node hears both neighbors, one per port
        assert sorted(result.views[1].output.values()) == [100, 300]

    def test_multi_edge_message_delivery(self):
        net = Network([[1, 1], [0, 0]], ids=[7, 8])
        result = run_local(net, EchoPorts(), max_rounds=2)
        assert list(result.views[0].output.values()) == [8, 8]

    def test_private_rng_deterministic(self):
        class CoinOnce(LocalAlgorithm):
            def init(self, view):
                view.output = view.rng.random()
                view.halted = True

            def send(self, view, r):
                return {}

            def receive(self, view, r, inbox):
                pass

        net = Network(path_graph(3))
        a = run_local(net, CoinOnce(), seed=5).outputs()
        b = run_local(net, CoinOnce(), seed=5).outputs()
        c = run_local(net, CoinOnce(), seed=6).outputs()
        assert a == b and a != c

    def test_outputs_helper(self):
        net = Network(path_graph(2))
        result = run_local(net, HaltAfter(1), max_rounds=3)
        assert result.outputs() == [1, 1]

    def test_zero_max_rounds(self):
        net = Network(path_graph(2))
        result = run_local(net, Flood(), max_rounds=0)
        assert result.rounds == 0
        # init ran (state populated) but no round was executed
        assert all(v.state["best"] == v.uid for v in result.views)
        assert not result.completed

    def test_negative_max_rounds_rejected(self):
        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            run_local(net, Flood(), max_rounds=-1)


class PortTagger(LocalAlgorithm):
    """Sends its own port number on each port; records what arrives where."""

    def init(self, view):
        pass

    def send(self, view, round_no):
        return {p: (view.index, p) for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        view.output = dict(inbox)
        view.halted = True


class HaltsThenListens(LocalAlgorithm):
    """Halts immediately in round 1 and records any later receive calls."""

    def init(self, view):
        view.state["receives"] = 0

    def send(self, view, round_no):
        return {p: "ping" for p in range(view.degree)}

    def receive(self, view, round_no, inbox):
        view.state["receives"] += 1
        if view.uid == 0:
            view.halted = True
            view.output = "halted-early"


class TestEdgeSemantics:
    """The fine print of the delivery contract."""

    def test_multi_edge_port_matching_order(self):
        # Node 0 lists node 1 twice; the k-th copy on each side must pair.
        net = Network([[1, 1], [0, 0]])
        result = run_local(net, PortTagger(), max_rounds=1)
        # node 0's port p carries (1, p): first copy <-> first copy, etc.
        assert result.views[0].output == {0: (1, 0), 1: (1, 1)}
        assert result.views[1].output == {0: (0, 0), 1: (0, 1)}

    def test_multi_edge_matching_is_positional_not_sorted(self):
        # Three parallel edges plus a spur; positions must line up pairwise.
        net = Network([[1, 1, 2], [0, 0, 2], [0, 1]])
        result = run_local(net, PortTagger(), max_rounds=1)
        assert result.views[0].output == {0: (1, 0), 1: (1, 1), 2: (2, 0)}
        assert result.views[1].output == {0: (0, 0), 1: (0, 1), 2: (2, 1)}
        assert result.views[2].output == {0: (0, 2), 1: (1, 2)}

    def test_halted_node_inbox_suppressed(self):
        # Node 0 halts in round 1; neighbors keep sending to it, but its
        # receive hook must never fire again.
        net = Network(path_graph(3), ids=[0, 1, 2])
        result = run_local(net, HaltsThenListens(), max_rounds=4)
        assert result.views[0].output == "halted-early"
        assert result.views[0].state["receives"] == 1
        # the still-active nodes kept receiving every round
        assert result.views[1].state["receives"] == 4

    def test_send_not_called_for_halted_nodes(self):
        calls = []

        class RecordingSender(LocalAlgorithm):
            def init(self, view):
                if view.uid == 0:
                    view.halted = True

            def send(self, view, round_no):
                calls.append((view.uid, round_no))
                return {}

            def receive(self, view, round_no, inbox):
                if round_no >= 2:
                    view.halted = True

        net = Network(path_graph(3))
        run_local(net, RecordingSender(), max_rounds=5)
        assert all(uid != 0 for uid, _ in calls)
