"""Live-slot Luby phases against the full-sweep kernel.

``luby_mis_dense`` reduces each phase only over the live slots, those
whose two endpoints are both still on the frontier, and compacts them as
the frontier shrinks.  The oracle below is the kernel body it replaced:
every phase reduces all ``m`` slots with segment reductions over the CSR
rows.  Both must return the same ``in_mis``, ``crashed``, ``rounds``,
``completed`` and traced round records for any graph, seed, fault stack
and round cap.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite.generators import grid_graph, random_sparse_graph
from repro.local import CSREngine, Network
from repro.local.dense import _segment_or, _slot_owner, luby_mis_dense
from repro.obs import Tracer
from repro.scenarios import (
    CorruptMessages,
    CrashNodes,
    IIDMessageDrop,
    MultiEdgeLift,
    MuteHubs,
    bind_all,
    rewrite_all,
)
from repro.scenarios.masks import DenseFaults
from repro.utils.rng import NODE_COINS, keyed_u01_array

EXAMPLES = settings(max_examples=150, deadline=None)


def full_sweep_round(active, r, uid, offsets, dst_node, owner, active2=None,
                     heard1=None, heard2=None, corrupt1=None, corrupt2=None):
    """One phase over every slot: the old ``luby_round_dense``."""
    nbr = dst_node
    nbr_better = (r[nbr] > r[owner]) | ((r[nbr] == r[owner]) & (uid[nbr] > uid[owner]))
    if corrupt1 is not None:
        nbr_better |= corrupt1
    nbr_better &= active[nbr]
    if heard1 is not None:
        nbr_better &= heard1
    joining = active & ~_segment_or(nbr_better, offsets)
    if active2 is None:
        active2 = active
    else:
        joining = joining & active2
    announced = joining[nbr]
    if corrupt2 is not None:
        announced = (announced ^ corrupt2) & active2[nbr]
    if heard2 is not None:
        announced = announced & heard2
    killed = active2 & ~joining & _segment_or(announced, offsets)
    return joining, killed


def full_sweep_luby(engine, seed, max_rounds, faults, tracer):
    """The old ``luby_mis_dense`` body: ``(in_mis, crashed, rounds, completed)``."""
    offsets, dst_node, _ = engine.dense_arrays()
    n = engine.n
    uid = engine.network.uid_array
    degrees = np.diff(offsets)
    in_mis = degrees == 0
    active = ~in_mis
    crashed = np.zeros(n, dtype=bool)
    owner = _slot_owner(offsets)
    r = np.zeros(n, dtype=np.float64)
    faults_expired = getattr(faults, "expired", None)
    rounds = 0
    while active.any():
        if rounds + 1 > max_rounds:
            break
        round1 = rounds + 1
        if faults is not None and faults_expired is not None and faults_expired(round1):
            faults = None
        if faults is not None:
            crash = faults.crashed_at(round1)
            if crash is not None:
                crashed |= active & crash
                active = active & ~crash
        act_idx = np.flatnonzero(active)
        r[act_idx] = keyed_u01_array(seed, NODE_COINS, uid[act_idx], round1, 0)
        rounds += 1
        tracer.round(round1, active=int(active.sum()), seconds=0.0)
        if rounds + 1 > max_rounds or act_idx.shape[0] == 0:
            break
        active2 = heard1 = heard2 = corrupt1 = corrupt2 = None
        if faults is not None:
            round2 = rounds + 1
            crash = faults.crashed_at(round2)
            if crash is not None:
                crashed |= active & crash
                active2 = active & ~crash
            heard1 = faults.delivered_in(round1)
            heard2 = faults.delivered_in(round2)
            corrupted_in = getattr(faults, "corrupted_in", None)
            if corrupted_in is not None:
                corrupt1 = corrupted_in(round1)
                corrupt2 = corrupted_in(round2)
        joining, killed = full_sweep_round(
            active, r, uid, offsets, dst_node, owner, active2=active2,
            heard1=heard1, heard2=heard2, corrupt1=corrupt1, corrupt2=corrupt2,
        )
        in_mis |= joining
        active = (active if active2 is None else active2) & ~(joining | killed)
        rounds += 1
        tracer.round(rounds, active=int(active.sum()), seconds=0.0)
    return in_mis, crashed, rounds, not active.any()


def comparable(records):
    """Round records without wall times and the live-slot counts the
    oracle does not keep."""
    return [
        {k: v for k, v in record.items() if k not in ("seconds", "slots")}
        for record in records
    ]


FAULTS = st.one_of(
    st.builds(CrashNodes, fraction=st.floats(0.0, 0.5), at_round=st.integers(1, 3)),
    st.builds(IIDMessageDrop, p=st.floats(0.0, 0.4),
              until_round=st.one_of(st.none(), st.integers(1, 6))),
    st.builds(MuteHubs, count=st.integers(1, 4), until_round=st.integers(1, 6)),
    st.builds(CorruptMessages, p=st.floats(0.0, 0.3),
              until_round=st.one_of(st.none(), st.integers(1, 6))),
)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 80))
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
    return {
        "adj": adj,
        "stack": tuple(draw(st.lists(FAULTS, max_size=3))),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "fault_seed": draw(st.integers(0, 2**31 - 1)),
        "max_rounds": draw(st.sampled_from([0, 1, 2, 3, 5, 7, 10_000])),
    }


@EXAMPLES
@given(cases())
def test_live_slot_kernel_matches_the_full_sweep(case):
    engine = CSREngine(Network(case["adj"]))

    def faults():
        if not case["stack"]:
            return None
        bound = bind_all(case["stack"], engine.network, case["fault_seed"])
        return DenseFaults(engine, bound)

    want_tracer, got_tracer = Tracer(), Tracer()
    in_mis, crashed, rounds, completed = full_sweep_luby(
        engine, case["seed"], case["max_rounds"], faults(), want_tracer
    )
    got = luby_mis_dense(
        engine, seed=case["seed"], max_rounds=case["max_rounds"], faults=faults(),
        tracer=got_tracer,
    )
    assert np.array_equal(got.in_mis, in_mis)
    assert np.array_equal(got.crashed, crashed)
    assert got.rounds == rounds
    assert got.completed == completed
    records = got_tracer.round_records()
    assert comparable(records) == comparable(want_tracer.round_records())
    assert sum(r.get("slots", 0) for r in records) == got.slots_reduced


GRID_STACKS = {
    "none": (),
    "crash-r1": (CrashNodes(fraction=0.2, at_round=1),),
    "crash-r2": (CrashNodes(fraction=0.2, at_round=2),),
    "crash-r3": (CrashNodes(fraction=0.3, at_round=3),),
    "drop": (IIDMessageDrop(p=0.1),),
    "mute": (MuteHubs(count=3, until_round=6),),
    "corrupt": (CorruptMessages(p=0.1, until_round=6),),
    "crash+corrupt+drop": (CrashNodes(fraction=0.2, at_round=3),
                           CorruptMessages(p=0.05), IIDMessageDrop(p=0.1)),
}


def wide_uids(n, seed):
    """``n`` distinct int64 identifiers spread over the whole range,
    including both extremes and -1 (all ones as a two's-complement key)."""
    rng = random.Random(seed)
    uids = {-(2**63), 2**63 - 1, -1, 0}
    while len(uids) < n:
        uids.add(rng.getrandbits(64) - 2**63)
    uids = sorted(uids)[:n]
    rng.shuffle(uids)
    return uids


def with_hubs(adj, hubs, spokes, seed):
    """``adj`` plus ``hubs`` new nodes, each wired to ``spokes`` others."""
    rng = random.Random(seed)
    n = len(adj)
    adj = [list(row) for row in adj] + [[] for _ in range(hubs)]
    for h in range(n, n + hubs):
        for v in rng.sample(range(n), spokes):
            adj[h].append(v)
            adj[v].append(h)
    return adj


#: Graph families for the grid: ``(network, first seed, caps)`` per graph.
GRID_GRAPHS = {
    "sparse": lambda: [
        (Network(random_sparse_graph(50, 6, seed=51)), 10, (1, 2, 3, 5, 10_000)),
        (Network(random_sparse_graph(300, 6, seed=302)), 20, (3, 10_000)),
    ],
    "multigraph": lambda: [
        (Network(rewrite_all((MultiEdgeLift(times=2),),
                             random_sparse_graph(80, 5, seed=7))[0]),
         30, (1, 2, 3, 5, 10_000)),
    ],
    "torus": lambda: [
        (Network(grid_graph(12, 12, periodic=True)), 40, (1, 3, 10_000)),
    ],
    "hubs": lambda: [
        (Network(with_hubs(random_sparse_graph(200, 3, seed=9), 4, 40, seed=9)),
         50, (2, 3, 10_000)),
    ],
    "wide-uids": lambda: [
        (Network(random_sparse_graph(120, 6, seed=4), ids=wide_uids(120, 4)),
         60, (1, 2, 3, 10_000)),
    ],
}


@pytest.mark.parametrize("stack", GRID_STACKS.values(), ids=GRID_STACKS.keys())
@pytest.mark.parametrize("graphs", GRID_GRAPHS.values(), ids=GRID_GRAPHS.keys())
def test_live_slot_kernel_matches_the_full_sweep_on_a_grid(graphs, stack):
    # Later-phase crashes leave a crashed node's stale priority on live
    # slots for one phase; these graphs are large enough that some node
    # is still on the frontier when that happens.  Six seeds per graph
    # and cap vary both the coins and the fault schedule.  Multi-edges
    # repeat a slot pair, hubs concentrate the mute and crash victims,
    # and extreme uids key both the coins and the tie-breaks.
    for network, first_seed, caps in graphs():
        engine = CSREngine(network)
        for seed in range(first_seed, first_seed + 6):
            for cap in caps:
                faults = [
                    DenseFaults(engine, bind_all(stack, engine.network, seed))
                    if stack else None
                    for _ in range(2)
                ]
                in_mis, crashed, rounds, completed = full_sweep_luby(
                    engine, seed, cap, faults[0], Tracer()
                )
                got = luby_mis_dense(engine, seed=seed, max_rounds=cap, faults=faults[1])
                assert np.array_equal(got.in_mis, in_mis)
                assert np.array_equal(got.crashed, crashed)
                assert (got.rounds, got.completed) == (rounds, completed)


def test_first_phase_reduces_every_slot_and_later_phases_fewer():
    engine = CSREngine(Network(random_sparse_graph(2_000, 12, seed=5)))
    m = engine.dense_arrays()[1].shape[0]
    tracer = Tracer()
    result = luby_mis_dense(engine, seed=1, tracer=tracer)
    slots = [r["slots"] for r in tracer.round_records() if "slots" in r]
    assert len(slots) == result.rounds // 2
    assert slots[0] == m
    assert all(a > b for a, b in zip(slots, slots[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_slots_reduced_stay_near_one_sweep(seed):
    # A full sweep per phase reduces phases * m slots (5 * m here); the
    # live slots of a whole run add up to about 1.11-1.13 * m.
    engine = CSREngine(Network(random_sparse_graph(10_000, 20, seed=20)))
    m = engine.dense_arrays()[1].shape[0]
    result = luby_mis_dense(engine, seed=seed)
    assert result.completed
    assert result.rounds >= 8
    assert m <= result.slots_reduced < 1.5 * m
