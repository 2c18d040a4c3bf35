"""Block-wise splitting verification against the single-pass kernel.

``uniform_splitting_dense`` verifies nodes in ascending-degree order
(``CSREngine.check_order``), in blocks of doubling slot counts, stops at
the first block holding a violator, and builds its fault masks for the
checked positions only, receive-side.  The oracle below is
the single-pass kernel body it replaced: whole-round ``corrupted_in`` /
``delivered_in`` masks (partner gathers of the outgoing masks) and one
segment sum over every slot.  Both must return the same ``ok``, ``colors``
and ``crashed`` for any graph, seed, spec, fault stack and block size.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.local.dense as dense
from repro.bipartite.generators import random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network
from repro.local.dense import _segment_sum, _verify_blocks, uniform_splitting_dense
from repro.obs import Tracer
from repro.scenarios import (
    BoundPerturbation,
    CorruptMessages,
    CrashNodes,
    IIDMessageDrop,
    MultiEdgeLift,
    Perturbation,
    bind_all,
    rewrite_all,
    run_scenario,
)
from repro.scenarios.masks import DenseFaults
from repro.utils.rng import NODE_COINS, keyed_u01_array

EXAMPLES = settings(max_examples=150, deadline=None)


def full_pass_splitting(engine, spec, seed, red, blue, faults):
    """The single-pass kernel body: ``(ok, colors, crashed, bad)``, where
    ``bad`` marks the nodes that reject the attempt."""
    offsets, dst_node, _ = engine.dense_arrays()
    n = engine.n
    degrees = np.diff(offsets)
    u = keyed_u01_array(seed, NODE_COINS, engine.network.uid_array, 0, 0)
    colors = np.where(u < 0.5, red, blue)
    crashed = np.zeros(n, dtype=bool)
    is_red = colors[dst_node] == red
    if faults is not None:
        flip = faults.corrupted_in(1)
        if flip is not None:
            is_red = is_red ^ flip
    sent = is_red.astype(np.int64)
    if faults is not None:
        crash = faults.crashed_at(1)
        if crash is not None:
            crashed |= crash
            sent &= ~crashed[dst_node]
        heard = faults.delivered_in(1)
        if heard is not None:
            sent &= heard
    red_nbrs = _segment_sum(sent, offsets)
    constrained = spec.constrains(degrees) & ~crashed
    good = ~constrained | ((red_nbrs >= spec.lo(degrees)) & (red_nbrs <= spec.hi(degrees)))
    return bool(good.all()), colors, crashed, ~good


class HashFaults(Perturbation):
    """Drops and corrupts by a coordinate hash instead of the keyed coins:
    a fault pattern unrelated to any coin chain, with masks over the same
    hash."""

    def bind(self, network, fault_seed):
        b = BoundPerturbation()
        b.drops_messages = True
        b.corrupts_messages = True
        b.quiet_after = 1
        b.delivers = lambda r, s, p: (7 * s + p + fault_seed) % 5 != 0
        b.corrupts = lambda r, s, p: (s + 3 * p + fault_seed) % 4 == 0
        b.delivers_mask = lambda r, s, p: (7 * s + p + fault_seed) % 5 != 0
        b.corrupts_mask = lambda r, s, p: (s + 3 * p + fault_seed) % 4 == 0
        return b


FAULTS = st.one_of(
    st.builds(CrashNodes, fraction=st.floats(0.0, 0.5), at_round=st.just(1)),
    st.builds(IIDMessageDrop, p=st.floats(0.0, 0.3)),
    st.builds(CorruptMessages, p=st.floats(0.0, 0.3), until_round=st.just(1)),
    st.builds(HashFaults),
)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 40))
    adj = [[] for _ in range(n)]
    if n >= 2:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6 * n))
        for u, v in pairs:
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
    adj += [[] for _ in range(draw(st.integers(0, 3)))]  # trailing empty segments
    if draw(st.booleans()):
        adj, _ = rewrite_all((MultiEdgeLift(times=draw(st.integers(2, 3))),), adj)
    # Several specs per graph: one fault-masking slip rarely flips a single
    # verdict, but it shows in some spec's knife-edge count.
    specs = [
        UniformSplittingSpec(eps=eps, min_constrained_degree=draw(st.integers(1, 6)))
        for eps in draw(st.lists(st.floats(0.01, 0.49), min_size=1, max_size=12))
    ]
    stack = tuple(draw(st.lists(FAULTS, max_size=3)))
    return {
        "adj": adj,
        "specs": specs,
        "stack": stack,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "fault_seed": draw(st.integers(0, 2**31 - 1)),
        "first_block": draw(st.sampled_from([1, 2, 3, 7, 4096])),
    }


@EXAMPLES
@given(cases())
def test_blocked_kernel_matches_the_full_pass(case):
    engine = CSREngine(Network(case["adj"]))
    m = int(engine.offsets[-1])
    order, check_offsets, _ = engine.check_order()

    def faults():
        if not case["stack"]:
            return None
        bound = bind_all(case["stack"], engine.network, case["fault_seed"])
        return DenseFaults(engine, bound)

    for spec in case["specs"]:
        args = (engine, spec, case["seed"], 0, 1)
        ok, colors, crashed, bad = full_pass_splitting(*args, faults())
        with mock.patch.object(dense, "VERIFY_FIRST_BLOCK", case["first_block"]):
            got = uniform_splitting_dense(
                engine, spec, seed=case["seed"], faults=faults()
            )
            bounds = _verify_blocks(check_offsets)
        assert got.ok == ok
        assert np.array_equal(got.colors, colors)
        assert np.array_equal(got.crashed, crashed)
        # The check stops at the end of the block holding the first
        # rejecting node in check order; an accepted attempt checks every
        # slot.
        stop = m
        if not ok:
            first_bad = int(np.flatnonzero(bad[order])[0])
            stop = int(check_offsets[next(b for b in bounds if b > first_bad)])
        assert got.slots_checked == stop


@EXAMPLES
@given(cases())
def test_check_order_regroups_the_slots_by_ascending_degree(case):
    engine = CSREngine(Network(case["adj"]))
    offsets, dst_node, dst_port = engine.dense_arrays()
    degrees = np.diff(offsets)
    order, check_offsets, check_node = engine.check_order()
    check_port = engine.check_ports()
    assert np.array_equal(order, np.argsort(degrees, kind="stable"))
    assert np.array_equal(check_offsets, np.concatenate(([0], np.cumsum(degrees[order]))))
    for i, v in enumerate(order.tolist()):
        a, b = int(check_offsets[i]), int(check_offsets[i + 1])
        row = slice(int(offsets[v]), int(offsets[v + 1]))
        assert np.array_equal(check_node[a:b], dst_node[row])
        assert np.array_equal(check_port[a:b], dst_port[row])
    for arr in (order, check_offsets, check_node, check_port):
        assert arr.dtype == np.int64


def test_reused_faults_give_the_same_verdicts():
    # One DenseFaults across attempts (the uniform_splitting loop) serves
    # later attempts' block masks from its cache.
    adj = random_sparse_graph(300, 12, seed=4)
    engine = CSREngine(Network(adj))
    spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=6)
    bound = bind_all((CorruptMessages(p=0.05, until_round=1), IIDMessageDrop(0.05)),
                     engine.network, 9)
    shared = DenseFaults(engine, bound)
    with mock.patch.object(dense, "VERIFY_FIRST_BLOCK", 64):
        for seed in range(12):
            ok, colors, _, _ = full_pass_splitting(engine, spec, seed, 0, 1, shared)
            got = uniform_splitting_dense(engine, spec, seed=seed, faults=shared)
            assert got.ok == ok and np.array_equal(got.colors, colors)


@pytest.mark.parametrize("first", [1, 5, 4096])
def test_blocks_tile_the_nodes_and_double(first):
    rng = random.Random(first)
    degrees = [rng.choice([0, 0, 1, 3, 9, 40]) for _ in range(500)]
    offsets = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    with mock.patch.object(dense, "VERIFY_FIRST_BLOCK", first):
        bounds = _verify_blocks(offsets)
    assert bounds[0] == 0 and bounds[-1] == len(degrees)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    ends = [int(offsets[b]) for b in bounds[1:-1]]
    targets = [first * (2 ** (i + 1) - 1) for i in range(64)]
    # every inner cut is the first node boundary at or past some target
    for end, b in zip(ends, bounds[1:-1]):
        assert any(int(offsets[b - 1]) < t <= end for t in targets)
    assert _verify_blocks(np.zeros(1, dtype=np.int64)) == [0]


def test_rejected_attempts_stop_early_on_byzantine_splitting():
    # Each of the 64 fault-blinded attempts is rejected; a full pass would
    # read all 64 * 2m slots (m counts edges).  In ascending-degree order
    # the low-degree nodes, which leave their window most often, reject
    # first: the attempts read 0.09-0.11 * 64 * m slots at seeds 1-3.
    # Verifying in CSR order reads 0.40-0.46 * 64 * m, so the bound fails
    # if the check order is lost.
    tracer = Tracer()
    metrics = run_scenario("splitting/byzantine", n=4000, seed=1, backend="dense",
                           tracer=tracer)
    records = tracer.round_records()
    assert metrics["attempts"] == 64 and metrics["accepted"] == 0
    assert len(records) == 64 and not any(r["ok"] for r in records)
    checked = sum(r["slots_checked"] for r in records)
    assert checked < 0.2 * 64 * metrics["m"]
