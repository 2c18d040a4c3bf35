"""The packed adjacency: rows that carry their int64 CSR arrays.

The generators return an :class:`~repro.local.network.Adjacency`, and a
:class:`~repro.local.network.Network`, the dense kernels and the verifiers
read its arrays instead of flattening the rows again.  A generated graph
is built from its arrays, and its tuple rows are made only when a row is
first read.  These tests pin that the carried arrays are exactly the
flattening of the rows, that either form of a graph packs and verifies the
same, that the rows and arrays cannot change, and that building, solving,
verifying and pickling a generated graph never builds its rows.
"""

import pickle
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.splitting import uniform_splitting
from repro.bipartite.generators import (
    configuration_model_regular,
    random_sparse_graph,
    random_topology,
)
from repro.bipartite.instance import BLUE, RED
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.local import Adjacency, CSREngine, Network
from repro.local.network import csr_arrays, csr_rows
from repro.mis.luby import is_mis, luby_mis
from repro.orientation.sinkless import is_sinkless, run_trial_and_fix, sinks
from repro.scenarios import all_scenarios

EXAMPLES = settings(max_examples=60, deadline=None)


def flattened(rows):
    """``(offsets, dst)`` of rows, written out."""
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    return offsets, list(chain.from_iterable(rows))


def assert_carries_its_rows(adj):
    assert type(adj) is Adjacency
    assert all(type(row) is tuple for row in adj)
    offsets, dst = flattened(adj)
    assert adj.offsets.dtype == adj.dst_node.dtype == np.int64
    assert adj.offsets.tolist() == offsets
    assert adj.dst_node.tolist() == dst
    assert not adj.offsets.flags.writeable and not adj.dst_node.flags.writeable


@st.composite
def multigraphs(draw, max_nodes=9, max_edges=20):
    """Symmetric rows with parallel edges, self-loops and isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    adj = [[] for _ in range(n)]
    if n:
        node = st.integers(min_value=0, max_value=n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=max_edges)):
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
    return [draw(st.permutations(row)) for row in adj]


@EXAMPLES
@given(
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_generators_carry_the_flattening_of_their_rows(n, degree, seed):
    if degree < n or n == 0:
        assert_carries_its_rows(random_sparse_graph(n, float(degree), seed=seed))
    if degree < n and n * degree % 2 == 0:
        assert_carries_its_rows(configuration_model_regular(n, degree, seed=seed))
    if degree + 1 < n:
        for topology in ("sparse", "regular"):
            assert_carries_its_rows(random_topology(topology, n, degree, seed))


@pytest.mark.parametrize("topology", ["sparse", "regular"])
def test_every_rewrite_packs_the_flattening_of_its_rows(topology):
    base = random_topology(topology, 60, 4, seed=3)
    perturbations = {type(p): p for sc in all_scenarios() for p in sc.perturbations}
    for perturbation in perturbations.values():
        rows, ids = perturbation.rewrite(base, list(range(len(base))))
        network = Network(rows, ids=ids)
        assert network.adjacency == tuple(map(tuple, rows))
        assert_carries_its_rows(network.adjacency)
        if rows is base:
            assert network.adjacency is base


@EXAMPLES
@given(multigraphs(), st.booleans())
def test_network_packs_the_same_arrays_from_either_form(rows, with_ids):
    ids = [3 * i + 1 for i in range(len(rows))] if with_ids else None
    packed = Adjacency(rows)
    assert_carries_its_rows(packed)
    from_lists, from_packed = Network(rows, ids=ids), Network(packed, ids=ids)
    assert from_packed.adjacency is packed
    assert from_lists.adjacency == packed
    for name in ("offsets", "dst_node", "dst_port"):
        a, b = getattr(from_lists, name), getattr(from_packed, name)
        assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
        assert not a.flags.writeable and not b.flags.writeable
    assert from_lists.ids == from_packed.ids


@EXAMPLES
@given(multigraphs())
def test_from_csr_rebuilds_the_rows(rows):
    packed = Adjacency(rows)
    rebuilt = Adjacency.from_csr(packed.offsets.copy(), packed.dst_node.copy())
    assert rebuilt == packed
    assert_carries_its_rows(rebuilt)
    assert all(type(x) is int for row in rebuilt for x in row)


def test_csr_readers_hand_over_the_carried_arrays():
    adj = random_sparse_graph(40, 4.0, seed=2)
    engine = CSREngine(Network(adj))
    for graph in (adj, engine.network, engine):
        offsets, dst = csr_rows(graph)
        assert offsets is adj.offsets and dst is adj.dst_node
        offsets, owner, dst = csr_arrays(graph)
        assert offsets is adj.offsets and dst is adj.dst_node
        assert owner.tolist() == [i for i, row in enumerate(adj) for _ in row]
    lists = [list(row) for row in adj]
    assert [a.tolist() for a in csr_arrays(lists)] == [a.tolist() for a in csr_arrays(adj)]


def test_rows_and_arrays_cannot_be_changed():
    adj = Adjacency([[1, 2], [0], [0]])
    with pytest.raises(TypeError):
        adj[0] = (1,)
    with pytest.raises(TypeError):
        del adj[0]
    with pytest.raises(AttributeError):
        adj[0].append(2)
    with pytest.raises(ValueError, match="read-only"):
        adj.offsets[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        adj.dst_node[0] = 2
    with pytest.raises(AttributeError):
        adj.offsets = np.zeros(4, dtype=np.int64)


@pytest.mark.parametrize(
    "rows", [[], [[]], [[1, 1, 2], [0, 0], [0, 2, 2]]], ids=["empty", "isolated", "multigraph"]
)
def test_pickle_keeps_the_type_and_the_read_only_arrays(rows):
    adj = Adjacency(rows)
    back = pickle.loads(pickle.dumps(adj))
    assert type(back) is Adjacency and back == adj
    assert_carries_its_rows(back)


def test_a_generated_graph_is_solved_and_verified_without_its_rows(monkeypatch):
    def no_rows(self):
        raise AssertionError("the tuple rows were built")

    monkeypatch.setattr(Adjacency, "_rows", property(no_rows))
    adj = random_sparse_graph(300, 8.0, seed=4)
    engine = CSREngine(Network(adj))
    mis, _ = luby_mis(adj, seed=1, method="dense", engine=engine)
    assert is_mis(adj, mis)
    orientation, _ = run_trial_and_fix(adj, min_degree=2, seed=1, method="dense", engine=engine)
    assert is_sinkless(adj, orientation, 2)
    spec = UniformSplittingSpec(eps=0.45, min_constrained_degree=8)
    partition = uniform_splitting(adj, spec, method="dense", seed=1, engine=engine)
    assert uniform_splitting_violations(adj, partition, spec) == []
    back = pickle.loads(pickle.dumps(adj))
    assert type(back) is Adjacency and len(back) == len(adj) == 300
    assert back.offsets.tolist() == adj.offsets.tolist()
    assert back.dst_node.tolist() == adj.dst_node.tolist()
    monkeypatch.undo()
    assert back == adj and hash(back) == hash(tuple(adj))


def test_compares_and_hashes_as_the_tuple_of_its_rows():
    rows = ((1, 1, 2), (0, 0), (0, 2, 2))
    eager, lazy = Adjacency(rows), Adjacency.from_csr(*csr_rows(rows))
    for adj in (eager, lazy):
        assert adj == rows and rows == adj and adj != [list(r) for r in rows]
        assert hash(adj) == hash(rows) and tuple(adj) == rows and list(adj) == list(rows)
        assert adj[1] == (0, 0) and adj[-1] == (0, 2, 2) and adj[:2] == rows[:2]
        assert len(adj) == 3 and (0, 0) in adj
    assert eager == lazy and {eager: 1}[lazy] == 1
    assert not isinstance(eager, tuple) and repr(eager) == f"Adjacency({rows!r})"


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


PATH = [[1], [0, 2], [1, 3], [2]]
SPEC = UniformSplittingSpec(eps=0.25, min_constrained_degree=1)


@pytest.mark.parametrize("mis", [{0, 2}, {0, 3}, {1, 3}, {0, 1, 3}, set(), {0, 2, 4}, {-1}])
def test_is_mis_gives_one_verdict_on_both_forms(mis):
    verdict = outcome(is_mis, PATH, mis)
    assert outcome(is_mis, Adjacency(PATH), mis) == verdict
    assert outcome(is_mis, Network(PATH), mis) == verdict
    assert (verdict is True) == (mis in ({0, 2}, {0, 3}, {1, 3}))
    if mis in ({0, 2, 4}, {-1}):
        assert verdict[0] == "ValueError" and "MIS node" in verdict[1]


@pytest.mark.parametrize("orientation", [
    [(0, 1), (1, 2), (2, 3)],
    [(1, 0), (1, 2), (3, 2)],
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 2)],
    [(0, 2), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (2, 4)],
])
def test_sinkless_verifiers_give_one_verdict_on_both_forms(orientation):
    for min_degree in (1, 2):
        assert outcome(is_sinkless, Adjacency(PATH), orientation, min_degree) == \
            outcome(is_sinkless, PATH, orientation, min_degree)
        assert outcome(sinks, Adjacency(PATH), orientation, min_degree) == \
            outcome(sinks, PATH, orientation, min_degree)


@pytest.mark.parametrize("partition", [
    [RED, BLUE, RED, BLUE],
    [RED, RED, RED, RED],
    [RED, BLUE, None, BLUE],
    [RED, BLUE, RED],
])
def test_uniform_splitting_gives_one_verdict_on_both_forms(partition):
    assert outcome(uniform_splitting_violations, Adjacency(PATH), partition, SPEC) == \
        outcome(uniform_splitting_violations, PATH, partition, SPEC)
