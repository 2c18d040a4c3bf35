"""Differential suite: the array-native verifiers and fault contracts against
the per-slot loops they replaced, kept here as reference oracles.

Graphs cover multigraphs, self-loops, isolated nodes and ``n = 0``;
partitions may leave nodes uncolored (``None``); ``edge_ok`` comes as
``None``, a one-sided per-slot mask, or the final-graph mask of a bound
``DropEdges`` stack; the loop oracles read the matching predicate.
Orientations are multisets of arcs, one per edge copy: arc lists, ``Counter`` maps, ``{arc: True}``
dicts or ``(k, 2)`` int64 arrays.  On bad input both sides must raise the
same exception type and message, for the first bad arc in iteration order
(a mapping's keys repeated by their counts).
"""

from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite.generators import random_topology
from repro.bipartite.instance import BLUE, RED
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.local import CSREngine
from repro.local.dense import dense_arcs, dense_orientation
from repro.local.network import Adjacency, Network
from repro.mis import greedy_mis, is_mis
from repro.orientation import is_sinkless, sinks
from repro.scenarios import all_scenarios
from repro.scenarios.base import BoundPerturbation, bind_all, rewrite_all
from repro.scenarios.contracts import (
    edge_ok_slot_mask,
    mis_violations,
    splitting_violations,
    surviving_sinks,
)
from repro.scenarios.dynamic import DropEdges
from repro.scenarios.recovery import _recount, _slot_views, sinkless_violations
from repro.utils.validation import require
from repro.verify.certify import exact_surviving_sinks

EXAMPLES = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# Reference oracles: the per-slot loops the array implementations replaced.
# ---------------------------------------------------------------------------


def loop_is_mis(adjacency, mis):
    for v in mis:
        if any(w in mis for w in adjacency[v]):
            return False
    for v in range(len(adjacency)):
        if v not in mis and not any(w in mis for w in adjacency[v]):
            return False
    return True


def arc_copies(orientation):
    """One arc per edge copy: a mapping's keys repeated by their counts."""
    if isinstance(orientation, Mapping):
        return [arc for arc, k in orientation.items() for _ in range(k)]
    if isinstance(orientation, np.ndarray):
        return [tuple(arc) for arc in orientation.tolist()]
    return list(orientation)


def loop_sinks(adj, orientation, min_degree):
    out_deg = [0] * len(adj)
    for (u, v) in arc_copies(orientation):
        out_deg[u] += 1
    return [v for v in range(len(adj)) if len(adj[v]) >= min_degree and out_deg[v] == 0]


def loop_is_sinkless(adj, orientation, min_degree=1):
    # Per edge copy: each parallel edge is oriented once, self-loops never.
    edges = Counter((u, v) for u in range(len(adj)) for v in adj[u] if u < v)
    covered = Counter()
    for (u, v) in arc_copies(orientation):
        key = (min(u, v), max(u, v))
        require(key in edges, f"orientation mentions non-edge {u, v}")
        require(covered[key] < edges[key], f"edge {key} oriented twice")
        covered[key] += 1
    if covered != edges:
        return False
    return not loop_sinks(adj, orientation, min_degree)


def window_violators(spec, nodes, degrees, reds):
    """The nodes outside the spec window, by the rule written out; checks
    that ``spec.violates`` agrees node by node and elementwise on arrays."""
    verdicts = [
        spec.constrains(d) and not (spec.lo(d) <= red <= spec.hi(d))
        for d, red in zip(degrees, reds)
    ]
    assert [bool(spec.violates(d, red)) for d, red in zip(degrees, reds)] == verdicts
    as_array = spec.violates(np.array(degrees, dtype=np.int64), np.array(reds, dtype=np.int64))
    assert as_array.tolist() == verdicts
    return [v for v, bad in zip(nodes, verdicts) if bad]


def loop_uniform_splitting_violations(adjacency, partition, spec):
    n = len(adjacency)
    require(len(partition) == n, "partition must cover all nodes")
    degrees = [len(adjacency[v]) for v in range(n)]
    reds = [sum(1 for w in adjacency[v] if partition[w] == RED) for v in range(n)]
    return window_violators(spec, range(n), degrees, reds)


def loop_mis_violations(adjacency, mis, alive=None, edge_ok=None):
    n = len(adjacency)
    if alive is None:
        alive = [True] * n
    independence = domination = 0
    for i in range(n):
        if not alive[i]:
            continue
        dominated = i in mis
        for p, j in enumerate(adjacency[i]):
            if not alive[j] or (edge_ok is not None and not edge_ok(i, p)):
                continue
            if j in mis:
                if i in mis and i < j:
                    independence += 1
                dominated = True
        if not dominated:
            domination += 1
    return independence, domination


def loop_surviving_sinks(adjacency, orientation, alive, min_degree=1):
    out_alive = [0] * len(adjacency)
    for (u, v) in arc_copies(orientation):
        if alive[u] and alive[v]:
            out_alive[u] += 1
    bad = []
    for i in range(len(adjacency)):
        if not alive[i]:
            continue
        alive_degree = sum(1 for j in adjacency[i] if alive[j])
        if alive_degree >= min_degree and out_alive[i] == 0:
            bad.append(i)
    return bad


def loop_splitting_violations(adjacency, partition, spec, alive=None, edge_ok=None):
    n = len(adjacency)
    if alive is None:
        alive = [True] * n
    nodes, degrees, reds = [], [], []
    for i in range(n):
        if not alive[i]:
            continue
        degree = red = 0
        for p, j in enumerate(adjacency[i]):
            if not alive[j] or (edge_ok is not None and not edge_ok(i, p)):
                continue
            degree += 1
            if partition[j] == RED:
                red += 1
        nodes.append(i)
        degrees.append(degree)
        reds.append(red)
    return window_violators(spec, nodes, degrees, reds)


def outcome(fn, *args, **kwargs):
    """``("ok", result)``, or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_nodes=10, max_edges=24):
    """Symmetric adjacency with parallel edges, self-loops listed once or
    twice, isolated nodes (``n`` may be 0) and shuffled port order."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    adj = [[] for _ in range(n)]
    if n:
        node = st.integers(min_value=0, max_value=n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=max_edges)):
            adj[u].append(v)
            adj[v].append(u)
        for u in draw(st.lists(node, max_size=2)):
            adj[u].append(u)
    return [draw(st.permutations(row)) for row in adj]


def node_sets(n):
    return st.sets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(set())


def alive_lists(n):
    return st.none() | st.lists(st.booleans(), min_size=n, max_size=n)


@st.composite
def edge_oks(draw, adj):
    """``(oracle predicate, argument)``: the argument is the predicate's
    per-slot mask in CSR slot order."""
    slots = [(i, p) for i in range(len(adj)) for p in range(len(adj[i]))]
    if not slots or draw(st.booleans()):
        return None, None
    dropped = draw(st.frozensets(st.sampled_from(slots)))

    def ok(i, p):
        return (i, p) not in dropped

    return ok, np.array([ok(i, p) for i, p in slots], dtype=bool)


@st.composite
def specs(draw):
    # eps = 1/4 or 1/10 puts integral degrees' bounds on integers, so red
    # counts land exactly on them.
    return UniformSplittingSpec(
        eps=draw(st.sampled_from([0.1, 0.25]) | st.floats(min_value=0.05, max_value=0.45)),
        min_constrained_degree=draw(st.integers(min_value=1, max_value=4)),
    )


@st.composite
def orientations(draw, adj):
    """Each edge copy oriented once in shuffled order, sometimes with a
    copy left out or extra arcs: reversed copies, non-edges, self-loops.
    A list, a ``Counter`` or a ``(k, 2)`` array keeps every arc; a
    ``{arc: True}`` dict keeps one arc per distinct pair, which leaves
    parallel copies uncovered."""
    n = len(adj)
    edges = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    if arcs and draw(st.booleans()):
        arcs.pop(draw(st.integers(min_value=0, max_value=len(arcs) - 1)))
    if n and draw(st.booleans()):
        node = st.integers(min_value=0, max_value=n - 1)
        arcs += draw(st.lists(st.tuples(node, node), max_size=2))
        if edges:
            arcs += [e[::-1] for e in draw(st.lists(st.sampled_from(edges), max_size=1))]
    arcs = draw(st.permutations(arcs))
    array = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    return draw(st.sampled_from([arcs, Counter(arcs), dict.fromkeys(arcs, True), array]))


# ---------------------------------------------------------------------------
# Verifiers.
# ---------------------------------------------------------------------------


def forms(adj):
    """The rows as lists, packed into an Adjacency, and in a Network."""
    return adj, Adjacency(adj), Network(adj)


@EXAMPLES
@given(st.data())
def test_is_mis_matches_loop(data):
    adj = data.draw(graphs())
    n = len(adj)
    # A real MIS makes True verdicts common; toggling a drawn set breaks it.
    mis = greedy_mis(adj, data.draw(st.permutations(range(n))))
    if data.draw(st.booleans()):
        mis ^= data.draw(node_sets(n))
    verdict = loop_is_mis(adj, mis)
    assert all(is_mis(graph, mis) == verdict for graph in forms(adj))


@EXAMPLES
@given(st.data())
def test_is_sinkless_matches_loop(data):
    adj = data.draw(graphs())
    orientation = data.draw(orientations(adj))
    min_degree = data.draw(st.integers(min_value=0, max_value=4))
    want = outcome(loop_is_sinkless, adj, orientation, min_degree)
    for graph in forms(adj):
        assert outcome(is_sinkless, graph, orientation, min_degree) == want


@EXAMPLES
@given(st.data())
def test_uniform_splitting_violations_matches_loop(data):
    adj = data.draw(graphs())
    n = len(adj)
    size = n + data.draw(st.sampled_from([0, 0, 0, 1, -1])) if n else 0
    partition = data.draw(
        st.lists(st.sampled_from([RED, BLUE, None]), min_size=size, max_size=size)
    )
    spec = data.draw(specs())
    want = outcome(loop_uniform_splitting_violations, adj, partition, spec)
    for graph in forms(adj):
        assert outcome(uniform_splitting_violations, graph, partition, spec) == want


# ---------------------------------------------------------------------------
# Contracts.
# ---------------------------------------------------------------------------


def as_graph(data, adj):
    """The adjacency itself, or a Network over it."""
    return Network(adj) if data.draw(st.booleans(), label="network") else adj


@EXAMPLES
@given(st.data())
def test_mis_violations_matches_loop(data):
    adj = data.draw(graphs())
    mis = data.draw(node_sets(len(adj)))
    alive = data.draw(alive_lists(len(adj)))
    oracle, edge_ok = data.draw(edge_oks(adj))
    arg = mis
    if data.draw(st.booleans(), label="mis as a bool node mask"):
        arg = np.zeros(len(adj), dtype=bool)
        arg[list(mis)] = True
    assert mis_violations(as_graph(data, adj), arg, alive, edge_ok) == \
        loop_mis_violations(adj, mis, alive, oracle)


@EXAMPLES
@given(st.data())
def test_surviving_sinks_matches_loop(data):
    adj = data.draw(graphs())
    n = len(adj)
    orientation = {}
    if n:
        node = st.integers(min_value=0, max_value=n - 1)
        arcs = data.draw(st.lists(st.tuples(node, node)))
        orientation = data.draw(st.sampled_from(
            [Counter(arcs), np.array(arcs, dtype=np.int64).reshape(-1, 2)]
        ))
    alive = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    min_degree = data.draw(st.integers(min_value=0, max_value=4))
    assert surviving_sinks(as_graph(data, adj), orientation, alive, min_degree) == \
        loop_surviving_sinks(adj, orientation, alive, min_degree)


@EXAMPLES
@given(st.data())
def test_sinkless_checkers_agree_on_looped_multigraphs(data):
    # One rule everywhere: a random slot state on a multigraph with
    # self-loops, read by the verifier, the contract, the repair's probe
    # counts and the exact oracle, finds the same sinks.
    adj = data.draw(graphs())
    n = len(adj)
    engine = CSREngine(Network(adj))
    m = int(engine.offsets[-1])
    out = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    crashed = np.array(data.draw(
        st.just([False] * n) | st.lists(st.booleans(), min_size=n, max_size=n)
    ), dtype=bool)
    alive = (~crashed).tolist()
    min_degree = data.draw(st.integers(min_value=0, max_value=3))
    orientation = dense_orientation(engine, out)
    arcs = dense_arcs(engine, out)
    assert Counter(map(tuple, arcs.tolist())) == orientation
    bad = surviving_sinks(adj, orientation, alive, min_degree)
    assert surviving_sinks(adj, arcs, alive, min_degree) == bad
    assert exact_surviving_sinks(adj, orientation, alive, min_degree) == bad
    assert exact_surviving_sinks(adj, arcs, alive, min_degree) == bad
    assert sinkless_violations(engine, out, crashed, min_degree) == len(bad)
    _, accountable, _, eff = _recount(_slot_views(engine), out, crashed, min_degree, n)
    assert np.flatnonzero(accountable & (eff == 0)).tolist() == bad
    if not crashed.any():
        assert sinks(adj, orientation, min_degree) == bad
        assert is_sinkless(adj, orientation, min_degree) == (not bad)
        assert is_sinkless(adj, arcs, min_degree) == (not bad)


@EXAMPLES
@given(st.data())
def test_splitting_violations_matches_loop(data):
    adj = data.draw(graphs())
    n = len(adj)
    partition = data.draw(st.lists(st.sampled_from([RED, BLUE, None]), min_size=n, max_size=n))
    spec = data.draw(specs())
    alive = data.draw(alive_lists(n))
    oracle, edge_ok = data.draw(edge_oks(adj))
    assert splitting_violations(as_graph(data, adj), partition, spec, alive, edge_ok) == \
        loop_splitting_violations(adj, partition, spec, alive, oracle)


@EXAMPLES
@given(st.data())
def test_final_edge_masks_match_scalar_predicate(data):
    adj = data.draw(graphs())
    network = Network(adj)
    bound = bind_all(
        [DropEdges(fraction=data.draw(st.sampled_from([0.0, 0.3, 1.0])), at_round=2)],
        network,
        fault_seed=data.draw(st.integers(min_value=0, max_value=2**31)),
    )

    def scalar(i, p):
        return bound[0].edge_alive_final(i, p)

    slots = [(i, p) for i in range(len(adj)) for p in range(len(adj[i]))]
    edge_ok = edge_ok_slot_mask(network, bound)
    assert edge_ok.tolist() == [scalar(i, p) for i, p in slots]
    n = len(adj)
    mis = data.draw(node_sets(n))
    partition = data.draw(st.lists(st.sampled_from([RED, BLUE]), min_size=n, max_size=n))
    spec = data.draw(specs())
    alive = data.draw(alive_lists(n))
    assert mis_violations(network, mis, alive, edge_ok) == \
        loop_mis_violations(adj, mis, alive, scalar)
    assert splitting_violations(network, partition, spec, alive, edge_ok) == \
        loop_splitting_violations(adj, partition, spec, alive, scalar)


def test_identity_stack_has_no_final_edge_mask():
    network = Network([[1], [0]])
    bound = bind_all([], network, fault_seed=0)
    assert edge_ok_slot_mask(network, bound) is None


def test_final_edge_mask_set_on_the_bound_instance_counts():
    bound = BoundPerturbation()
    bound.deletes_edges = True
    bound.edge_alive_final_mask = lambda senders, ports: ports == 0
    triangle = Network([[1, 2], [0, 2], [0, 1]])
    assert edge_ok_slot_mask(triangle, (BoundPerturbation(), bound)).tolist() == [True, False] * 3


def test_final_edge_deletion_without_a_mask_raises():
    class OddPortsGone(BoundPerturbation):
        deletes_edges = True

        def edge_alive_final(self, sender, port):
            return port % 2 == 0

    triangle = Network([[1, 2], [0, 2], [0, 1]])
    with pytest.raises(NotImplementedError, match="OddPortsGone deletes edges without"):
        edge_ok_slot_mask(triangle, (BoundPerturbation(), OddPortsGone()))


@pytest.mark.parametrize("sc", all_scenarios(), ids=lambda sc: sc.name)
def test_bound_perturbations_flag_exactly_the_final_edge_deletions(sc):
    adj, ids = rewrite_all(sc.perturbations, random_topology(sc.topology, 40, 4, seed=1))
    for b in bind_all(sc.perturbations, Network(adj, ids=ids), fault_seed=2):
        overrides = type(b).edge_alive_final is not BoundPerturbation.edge_alive_final
        assert b.deletes_edges == overrides


@pytest.mark.parametrize("edge_ok", [
    lambda i, p: True,
    [True, True, True, True],
    np.ones(3, dtype=bool),
], ids=["callable", "list", "short-mask"])
def test_contracts_reject_an_edge_ok_that_is_not_a_slot_mask(edge_ok):
    path = [[1], [0, 2], [1]]
    spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=1)
    with pytest.raises(ValueError, match="edge_ok must be None or a bool mask"):
        mis_violations(path, {0, 2}, edge_ok=edge_ok)
    with pytest.raises(ValueError, match="edge_ok must be None or a bool mask"):
        splitting_violations(path, [RED, BLUE, RED], spec, edge_ok=edge_ok)


def test_contracts_reject_nodes_outside_graph():
    path = [[1], [0, 2], [1]]
    with pytest.raises(ValueError, match="MIS node -1 is not a node"):
        mis_violations(path, {0, 2, -1})
    with pytest.raises(ValueError, match="orientation endpoint 3 is not a node"):
        surviving_sinks(path, {(0, 1): True, (3, 2): True}, [True] * 3)
