"""Incremental sinkless repair == the full-pass loop it replaced.

:func:`~repro.scenarios.recovery.sinkless_repair` keeps per-node counts
and re-reads only the slots a fix round touched.  The oracle below is the
earlier implementation, which reads all slots in every round; for any
slot state, crash record, fault stack and round budget both must return
the same :class:`RepairResult` and leave the same ``out`` and ``crashed``
arrays behind.  The tracing tests check that every repair round leaves
one round record.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite.generators import random_sparse_graph
from repro.local import CSREngine, Network
from repro.local.dense import _segment_or, _segment_sum, _slot_owner, sinkless_trial_dense
from repro.obs.trace import Tracer
from repro.scenarios import (
    CorrelatedCrash,
    CorruptMessages,
    CrashNodes,
    IIDMessageDrop,
    MuteHubs,
    bind_all,
    run_scenario,
)
from repro.scenarios.masks import DenseFaults
from repro.scenarios.recovery import (
    REPAIR_COINS,
    REPAIR_ROUND_CAP,
    RepairResult,
    _budget,
    _round_masks,
    sinkless_repair,
    sinkless_violations,
)
from repro.utils.rng import keyed_u01_array


def full_pass_repair(engine, faults, seed, out, crashed, min_degree, start_round,
                     max_rounds=None, cap=REPAIR_ROUND_CAP):
    """The full-pass repair loop: every round reads all m slots."""
    offsets, dst_node, dst_port = engine.dense_arrays()
    owner = _slot_owner(offsets)
    partner = offsets[:-1][dst_node] + dst_port
    low_view = owner < dst_node
    proper = owner != dst_node  # a self-loop is never outgoing
    n = engine.n
    uid = engine.network.uid_array

    used = 0
    last = start_round - 1
    recovered = False
    while _budget(last, used, 2, max_rounds, cap):
        # --- reconcile round ----------------------------------------------
        r = last + 1
        crash, din, cin = _round_masks(faults, r)
        if crash is not None:
            crashed |= crash
        alive = ~crashed
        claim = out[partner]  # sender's own view of the shared edge
        if cin is not None:
            claim = claim ^ cin
        heard = alive[dst_node] & alive[owner]
        if din is not None:
            heard = heard & din
        adopt = heard & (owner > dst_node)  # only the non-authoritative side adopts
        out[adopt] = ~claim[adopt]
        used += 1
        last = r
        # --- fix round ----------------------------------------------------
        rb = last + 1
        crash = faults.crashed_at(rb) if faults is not None else None
        if crash is not None:
            crashed |= crash
        alive = ~crashed
        live = alive[dst_node]
        alive_deg = _segment_sum(live.astype(np.int64), offsets)
        accountable = alive & (alive_deg >= min_degree)
        sink = accountable & ~_segment_or(out & live & proper, offsets)
        # Choose each sink's flip among its live ports: rank the live
        # slots within the segment and pick the keyed-uniform index.
        exc = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(live.astype(np.int64)))
        )[:-1]
        rank = exc - exc[offsets[:-1][owner]]
        target = (keyed_u01_array(seed, REPAIR_COINS, uid, rb) * alive_deg).astype(np.int64)
        chosen = live & sink[owner] & (rank == target[owner])
        out[chosen] = True
        corrupted_out = getattr(faults, "corrupted_out", None)
        cout = corrupted_out(rb) if corrupted_out is not None else None
        dout = faults.delivered_out(rb) if faults is not None else None
        is_flip = chosen if cout is None else (chosen ^ cout)
        mark = is_flip & alive[owner] & alive[dst_node]
        if dout is not None:
            mark = mark & dout
        out[partner[np.flatnonzero(mark)]] = False
        used += 1
        last = rb
        # --- contract probe (authoritative orientation) -------------------
        eff = np.where(low_view, out, ~out[partner])
        good = _segment_or(eff & live & proper, offsets)
        if not (accountable & ~good).any():
            recovered = True
            break
    return RepairResult(recovered=recovered, repair_rounds=used, last_round=last)


P = st.sampled_from([0.05, 0.2, 0.5])


def stacks(start):
    """Fault stacks whose windows open and close around the repair tail,
    which starts at round ``start``: crashes, drops and corruption begin
    and end at reconcile and fix rounds alike."""
    at = st.integers(max(1, start - 3), start + 12)
    return st.lists(st.one_of(
        st.builds(CrashNodes, fraction=P, at_round=at,
                  select=st.sampled_from(["random", "hubs"])),
        st.builds(CorrelatedCrash, fraction=P, at_round=at,
                  mode=st.sampled_from(["ball", "shard"])),
        st.builds(IIDMessageDrop, p=P, until_round=at),
        st.builds(IIDMessageDrop, p=P, from_round=at),
        st.builds(MuteHubs, count=st.integers(1, 3), until_round=at),
        at.flatmap(lambda a: st.builds(
            CorruptMessages, p=P, from_round=st.just(a),
            until_round=st.one_of(st.none(), st.integers(a, a + 8)),
        )),
    ), max_size=3)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 30))
    start_round = draw(st.integers(1, 8))
    return {
        "n": n,
        "edges": draw(st.integers(0, 3 * n)),
        "uids": draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n,
                              unique=True)),
        "seed": draw(st.integers(0, 2**32)),
        "state_seed": draw(st.integers(0, 2**32)),
        "p_out": draw(st.sampled_from([0.1, 0.5, 0.9])),
        "p_crashed": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "min_degree": draw(st.integers(1, 3)),
        "start_round": start_round,
        # None, or a cap landing anywhere in the tail (odd = mid-phase).
        "max_rounds": draw(st.one_of(
            st.none(), st.integers(start_round - 1, start_round + 12))),
        "cap": draw(st.one_of(st.just(REPAIR_ROUND_CAP), st.integers(0, 9))),
        "stack": tuple(draw(stacks(start_round))),
        "no_faults": draw(st.booleans()),
    }


def random_simple_graph(n, edges, seed):
    """A simple graph on ``n`` nodes from ``edges`` random pair draws."""
    rng = random.Random(seed)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(edges)} if n > 1 else ()
    return adjacency(n, sorted(pairs))


def adjacency(n, pairs):
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def both_repairs(engine, stack, seed, out, crashed, min_degree, start_round,
                 no_faults=False, **budget):
    """``(new, oracle)`` results, each ``(RepairResult, out, crashed)``,
    from fresh array copies and fresh fault views of one binding."""
    bound = bind_all(stack, engine.network, seed)
    runs = []
    for repair in (sinkless_repair, full_pass_repair):
        o, c = out.copy(), crashed.copy()
        faults = None if no_faults and not stack else DenseFaults(engine, bound)
        rep = repair(engine, faults, seed, o, c, min_degree, start_round, **budget)
        runs.append((rep, o, c))
    return runs


def assert_same(new, oracle):
    assert new[0] == oracle[0]
    assert new[1].tobytes() == oracle[1].tobytes()
    assert new[2].tobytes() == oracle[2].tobytes()


@settings(max_examples=300, deadline=None)
@given(cases())
def test_incremental_repair_equals_full_pass(case):
    adj = random_simple_graph(case["n"], case["edges"], case["state_seed"])
    engine = CSREngine(Network(adj, ids=case["uids"]))
    m = int(engine.offsets[-1])
    rng = np.random.default_rng(case["state_seed"])
    out = rng.random(m) < case["p_out"]
    crashed = rng.random(case["n"]) < case["p_crashed"]
    new, oracle = both_repairs(
        engine, case["stack"], case["seed"], out, crashed, case["min_degree"],
        case["start_round"], no_faults=case["no_faults"],
        max_rounds=case["max_rounds"], cap=case["cap"],
    )
    assert isinstance(new[0], RepairResult)
    assert_same(new, oracle)


def random_multigraph(rng, n):
    """Multi-edges and self-loops (a loop is listed once, as one port)."""
    adj = [[] for _ in range(n)]
    for _ in range(rng.randrange(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    return adj


def test_self_loops_and_multi_edges_match_the_full_pass():
    # A self-loop slot is its own partner: it never reconciles and never
    # counts as outgoing, but a sink may still pick it for a flip.
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randrange(2, 12)
        engine = CSREngine(Network(random_multigraph(rng, n)))
        state = np.random.default_rng(trial)
        out = state.random(int(engine.offsets[-1])) < 0.3
        crashed = np.zeros(n, dtype=bool)
        stack = (CrashNodes(0.2, at_round=4),) if trial % 2 else ()
        new, oracle = both_repairs(engine, stack, trial, out, crashed, 1, 2, max_rounds=30)
        assert_same(new, oracle)


def base_end_state(n, stack, seed, min_degree=2):
    """A real trial-and-fix end state on a 4-regular-ish sparse graph."""
    engine = CSREngine(Network(random_sparse_graph(n, 4.0, seed=n)))
    result = sinkless_trial_dense(
        engine, min_degree=min_degree, seed=seed, max_rounds=60,
        faults=DenseFaults(engine, bind_all(stack, engine.network, seed)), strict=False,
    )
    return engine, result


#: ``(base-run stack, tail(r))``: the repair binds the base stack plus
#: ``tail(r)``, faults scheduled relative to the base run's last round r.
END_STATES = {
    "crash-in-tail": ((CrashNodes(0.1, at_round=2),),
                      lambda r: (CrashNodes(0.05, at_round=r + 6),)),
    "drop-settling": ((CrashNodes(0.1, at_round=3),),
                      lambda r: (IIDMessageDrop(0.2, from_round=2, until_round=r + 9),)),
    "drop-forever": ((IIDMessageDrop(0.1, from_round=2),), lambda r: ()),
    "byzantine": ((CrashNodes(0.1, at_round=2),),
                  lambda r: (CorruptMessages(0.05, from_round=2, until_round=r + 6),)),
    # Windows opening at a reconcile round after clean phases.
    "byzantine-late": ((CrashNodes(0.1, at_round=2),),
                       lambda r: (CorruptMessages(0.05, from_round=r + 5, until_round=r + 8),)),
    "drop-late": ((CrashNodes(0.1, at_round=2),),
                  lambda r: (IIDMessageDrop(0.5, from_round=r + 2, until_round=r + 3),)),
    "mute-correlated": ((CrashNodes(0.1, at_round=2),),
                        lambda r: (MuteHubs(3, until_round=r + 4),
                                   CorrelatedCrash(0.1, at_round=r + 3))),
}


@pytest.mark.parametrize("name", sorted(END_STATES))
def test_base_run_end_states_match_the_full_pass(name):
    base, tail = END_STATES[name]
    for seed in (1, 2):
        engine, result = base_end_state(2000, base, seed)
        new, oracle = both_repairs(
            engine, base + tail(result.rounds), seed, result.out, result.crashed,
            2, result.rounds + 1,
        )
        assert new[0].repair_rounds > 2
        assert_same(new, oracle)


def test_violation_count_is_the_surviving_sinks_contract():
    from repro.local.dense import dense_orientation
    from repro.scenarios.contracts import surviving_sinks

    rng = random.Random(9)
    for trial in range(30):
        n = rng.randrange(1, 16)
        adj = random_multigraph(rng, n)
        engine = CSREngine(Network(adj))
        state = np.random.default_rng(trial)
        out = state.random(int(engine.offsets[-1])) < 0.5
        crashed = state.random(n) < 0.2
        for min_degree in (1, 2, 3):
            want = surviving_sinks(adj, dense_orientation(engine, out),
                                   (~crashed).tolist(), min_degree)
            assert sinkless_violations(engine, out, crashed, min_degree) == len(want)


def test_repair_traces_one_record_per_round():
    base, tail = END_STATES["crash-in-tail"]
    engine, result = base_end_state(1000, base, 3)
    stack = base + tail(result.rounds)
    tracer = Tracer()
    crashed = result.crashed
    rep = sinkless_repair(
        engine, DenseFaults(engine, bind_all(stack, engine.network, 3)), 3,
        result.out, crashed, 2, result.rounds + 1, tracer=tracer,
    )
    records = tracer.round_records()
    assert rep.repair_rounds > 0
    assert [r["round"] for r in records] == list(
        range(result.rounds + 1, rep.last_round + 1))
    assert records[-1]["active"] == int((~crashed).sum())
    assert all(r["seconds"] >= 0 for r in records)


@pytest.mark.parametrize("backend", ["dense", "reference"])
def test_recovering_scenario_traces_the_repair_tail(backend):
    tracer = Tracer()
    metrics = run_scenario("sinkless/crash", n=300, seed=4, backend=backend,
                           recover=True, tracer=tracer)
    rounds = [r["round"] for r in tracer.round_records()]
    assert metrics["repair_rounds"] > 0
    assert rounds[-metrics["repair_rounds"]:] == list(
        range(metrics["rounds"] - metrics["repair_rounds"] + 1, metrics["rounds"] + 1))


@pytest.mark.parametrize("max_rounds", [0, 1, 2])
def test_pre_repair_violations_agree_across_backends(max_rounds):
    # With max_rounds=0 no proposal round runs: the reference's views hold
    # no orientation while the dense slot state is all-inward; both
    # backends count pre-repair sinks on the same slot state.
    got = {
        backend: run_scenario("sinkless/crash", n=60, seed=3, backend=backend,
                              max_rounds=max_rounds, recover=True)
        for backend in ("reference", "dense")
    }
    assert ({k: v for k, v in got["reference"].items() if not k.endswith("_seconds")}
            == {k: v for k, v in got["dense"].items() if not k.endswith("_seconds")})
