"""One property: the reference simulator and the dense kernels compute the
same run.

Every node coin is the keyed uniform ``u(seed, "node", uid, round, draw)``
and every fault decision a keyed coin of the trial seed, so for any graph
or multigraph, any identifiers, any seed, any stack of the registered
runtime perturbations and any round cap, the hooked reference simulator
and the masked dense kernels must agree bit for bit — outputs, round
counts and crash records — for Luby MIS, trial-and-fix sinkless
orientation and 0-round uniform splitting.

Fixed-seed regressions pin the same agreement on larger random
multigraphs and fault stacks than the property draws, and on the dense
sinkless kernel's drop, corruption and round-cap paths.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.splitting import ZeroRoundSplitting
from repro.bipartite.generators import random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network, run_local
from repro.local.dense import luby_mis_dense, sinkless_trial_dense, uniform_splitting_dense
from repro.mis.luby import LubyMIS
from repro.orientation.sinkless import (
    TrialAndFixSinkless,
    slot_state_from_views,
    survivors_sink_free,
)
from repro.scenarios import (
    AdversarialIDs,
    CorrelatedCrash,
    CorruptMessages,
    CrashNodes,
    DropEdges,
    EdgeChurn,
    IIDMessageDrop,
    LateEdges,
    MuteHubs,
    PerturbationHooks,
    PortScramble,
    Scenario,
    bind_all,
    get_scenario,
    run_scenario,
)
from repro.scenarios.masks import DenseFaults

SPLIT_SPEC = UniformSplittingSpec(eps=0.25, min_constrained_degree=3)
SINKLESS_MIN_DEGREE = 2

P = st.sampled_from([0.1, 0.3, 0.6])
UNTIL = st.one_of(st.none(), st.integers(1, 6))

#: Every registered runtime perturbation, any schedule.
RUNTIME = st.one_of(
    st.builds(CrashNodes, fraction=P, at_round=st.integers(1, 5),
              select=st.sampled_from(["random", "hubs"])),
    st.builds(CorrelatedCrash, fraction=P, at_round=st.integers(1, 5),
              mode=st.sampled_from(["ball", "shard"])),
    st.builds(IIDMessageDrop, p=P, until_round=UNTIL),
    st.builds(MuteHubs, count=st.integers(1, 3), until_round=st.integers(1, 5)),
    st.builds(EdgeChurn, p_down=P, until_round=UNTIL),
    st.builds(LateEdges, fraction=P, at_round=st.integers(2, 5)),
    st.builds(DropEdges, fraction=P, at_round=st.integers(1, 5)),
    st.builds(CorruptMessages, p=P, until_round=UNTIL),
)

#: The same families with a clean round 1, which trial-and-fix requires.
FROM_ROUND_TWO = st.one_of(
    st.builds(CrashNodes, fraction=P, at_round=st.integers(2, 5)),
    st.builds(IIDMessageDrop, p=P, from_round=st.just(2), until_round=st.integers(2, 6)),
    st.builds(IIDMessageDrop, p=P, from_round=st.integers(2, 4)),
    st.builds(EdgeChurn, p_down=P, from_round=st.integers(2, 4)),
    st.builds(DropEdges, fraction=P, at_round=st.integers(2, 5)),
    st.builds(CorruptMessages, p=P, from_round=st.just(2), until_round=st.integers(2, 5)),
)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 14))
    pairs = []
    if n >= 2:
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
        ))
    return {
        "n": n,
        "pairs": [(u, v) for u, v in pairs if u != v],
        "uids": draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n,
                              unique=True)),
        "seed": draw(st.integers(0, 2**32)),
        "stack": tuple(draw(st.lists(RUNTIME, max_size=3))),
        "sinkless_stack": tuple(draw(st.lists(FROM_ROUND_TWO, max_size=2))),
        "max_rounds": draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 60])),
    }


def adjacency(n, pairs, simple=False):
    """Symmetric adjacency over loop-free ``pairs``; ``simple`` keeps each
    undirected pair once."""
    if simple:
        pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def hooks(stack, net, seed):
    """A fresh hooked-reference view of the stack bound to ``seed``."""
    return PerturbationHooks(bind_all(stack, net, seed))


def faults(engine, stack, seed):
    """The dense kernels' mask view of the same binding."""
    return DenseFaults(engine, bind_all(stack, engine.network, seed))


def crashed(views):
    return [bool(v.state.get("crashed")) for v in views]


def assert_same_run(a, b):
    assert (a.rounds, a.completed) == (b.rounds, b.completed)
    assert a.outputs() == b.outputs()
    assert [v.state for v in a.views] == [v.state for v in b.views]


def check_luby(net, seed, stack, max_rounds):
    engine = CSREngine(net)
    kwargs = dict(max_rounds=max_rounds, seed=seed)
    ref = run_local(net, LubyMIS(), hooks=hooks(stack, net, seed), **kwargs)
    dense = luby_mis_dense(engine, faults=faults(engine, stack, seed), **kwargs)
    assert (dense.rounds, dense.completed) == (ref.rounds, ref.completed)
    assert dense.in_mis.tolist() == [bool(v.state.get("in_mis")) for v in ref.views]
    assert dense.crashed.tolist() == crashed(ref.views)
    return ref


def survivor_probe(adj):
    """The survivor-aware stop of the dense kernel and the scenario runner."""
    def probe(round_no, views):
        return round_no >= 2 and survivors_sink_free(adj, views, SINKLESS_MIN_DEGREE)
    return probe


def check_probe_only_observes(net, seed, stack, max_rounds):
    """A probe-stopped sinkless run ends in the states of the run capped at
    its stopping round: the probe observes and never changes a run."""
    algo = TrialAndFixSinkless(min_degree=SINKLESS_MIN_DEGREE)
    ref = run_local(net, algo, max_rounds=max_rounds, seed=seed,
                    hooks=hooks(stack, net, seed), probe=survivor_probe(net.adjacency))
    capped = run_local(net, algo, max_rounds=ref.rounds, seed=seed,
                       hooks=hooks(stack, net, seed))
    assert_same_run(ref, capped)
    return ref


def check_sinkless(net, seed, stack, max_rounds):
    engine = CSREngine(net)
    adj = net.adjacency
    ref = check_probe_only_observes(net, seed, stack, max_rounds)
    dense = sinkless_trial_dense(
        engine, min_degree=SINKLESS_MIN_DEGREE, seed=seed, max_rounds=max_rounds,
        faults=faults(engine, stack, seed), strict=False,
    )
    out, dead = slot_state_from_views(engine.offsets, ref.views)
    assert dense.rounds == ref.rounds
    assert dense.completed == (ref.rounds >= 2 and survivors_sink_free(
        adj, ref.views, SINKLESS_MIN_DEGREE))
    assert np.array_equal(dense.out, out)
    assert np.array_equal(dense.crashed, dead)


def check_splitting(net, seed, stack):
    engine = CSREngine(net)
    algo = ZeroRoundSplitting(SPLIT_SPEC)
    ref = run_local(net, algo, max_rounds=1, seed=seed, hooks=hooks(stack, net, seed))
    dense = uniform_splitting_dense(engine, SPLIT_SPEC, seed=seed,
                                    faults=faults(engine, stack, seed))
    assert dense.colors.tolist() == [v.state["color"] for v in ref.views]
    assert dense.ok == all(v.output[1] for v in ref.views if v.output is not None)
    assert dense.crashed.tolist() == crashed(ref.views)


@settings(max_examples=200, deadline=None)
@given(cases())
@example({"n": 0, "pairs": [], "uids": [], "seed": 0, "stack": (),
          "sinkless_stack": (), "max_rounds": 60})
@example({"n": 4, "pairs": [(0, 1), (0, 1), (1, 2), (2, 0)], "uids": [9, -4, 0, 2**40],
          "seed": 3, "stack": (CrashNodes(0.3, at_round=3), CorruptMessages(0.3)),
          "sinkless_stack": (CrashNodes(0.3, at_round=2),), "max_rounds": 0})
# A sink flips toward a node crashed before the quiet horizon: the crashed
# receiver stays frozen after the fault masks expire.
@example({"n": 7, "pairs": [(0, 5), (0, 6), (3, 5)], "uids": [1, 0, -1, 6, -2, 2, 3],
          "seed": 464640, "stack": (),
          "sinkless_stack": (CrashNodes(0.1, at_round=2),), "max_rounds": 4})
def test_every_backend_computes_the_same_run(case):
    n, pairs, uids, seed = case["n"], case["pairs"], case["uids"], case["seed"]
    multi = Network(adjacency(n, pairs), ids=uids)
    check_luby(multi, seed, case["stack"], case["max_rounds"])
    check_splitting(multi, seed, case["stack"])
    simple = Network(adjacency(n, pairs, simple=True), ids=uids)
    check_sinkless(simple, seed, case["sinkless_stack"], case["max_rounds"])


def random_multigraph(rng, n):
    """Random sparse symmetric adjacency, occasionally with multi-edges."""
    adj = [[] for _ in range(n)]
    for _ in range(rng.randrange(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def random_stack(rng):
    """A random non-empty subset of runtime perturbations."""
    pool = [
        CrashNodes(fraction=rng.choice([0.1, 0.3]), at_round=rng.randrange(1, 5)),
        IIDMessageDrop(p=rng.choice([0.1, 0.4]), until_round=rng.choice([None, 3])),
        MuteHubs(count=rng.randrange(1, 4), until_round=rng.randrange(1, 5)),
        EdgeChurn(p_down=rng.choice([0.2, 0.5])),
        LateEdges(fraction=0.4, at_round=rng.randrange(2, 5)),
        # Steady state != all-deliver: exercises the quiet-horizon
        # steady-mask reuse in DenseFaults.
        DropEdges(fraction=0.3, at_round=rng.randrange(1, 5)),
        CorruptMessages(p=0.2, until_round=rng.choice([None, 4])),
    ]
    return tuple(rng.sample(pool, rng.randrange(1, 4)))


def simple_sparse_network(rng):
    """A random simple graph on 4..19 nodes with at least one edge."""
    while True:
        adj = random_sparse_graph(rng.randrange(4, 20), 3.0, seed=rng.randrange(999))
        if any(adj):
            return Network(adj)


class TestRandomFaultStacks:
    """Fixed-seed regressions on graphs larger than the property draws."""

    def test_luby_random_fault_stacks(self):
        rng = random.Random(1234)
        for _ in range(25):
            net = Network(random_multigraph(rng, rng.randrange(2, 25)))
            stack, seed = random_stack(rng), rng.randrange(10_000)
            check_luby(net, seed, stack, max_rounds=60)

    def test_sinkless_random_fault_stacks(self):
        # Multigraphs and round-1 faults, which only the reference runs:
        # the defensive round-1 receive (missing proposals under faults)
        # under a probe that must stop without changing the run.
        rng = random.Random(99)
        for _ in range(15):
            net = Network(random_multigraph(rng, rng.randrange(2, 18)))
            stack, seed = random_stack(rng), rng.randrange(10_000)
            check_probe_only_observes(net, seed, stack, max_rounds=12)

    def test_splitting_random_fault_stacks(self):
        rng = random.Random(7)
        for _ in range(15):
            net = Network(random_multigraph(rng, rng.randrange(2, 20)))
            stack, seed = random_stack(rng), rng.randrange(10_000)
            check_splitting(net, seed, stack)


def luby_multigraph(n=60, chords=120, seed=4):
    """A cycle plus random chords, many of them parallel edges."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(chords)]
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return adjacency(n, cycle + [(u, v) for u, v in pairs if u != v])


class TestDenseUnderFaults:
    """Dense kernels fed fault masks == hooked reference, on fixed seeds."""

    def test_luby_crash_and_drop(self):
        rng = random.Random(31)
        for _ in range(12):
            net = Network(random_multigraph(rng, rng.randrange(2, 30)))
            stack, seed = random_stack(rng), rng.randrange(10_000)
            engine = CSREngine(net)
            masks = faults(engine, stack, seed)
            # delivered_in is defined as the partner-gather of
            # delivered_out: both sides of a slot name the same message.
            for round_no in (1, 2, 3, 7):
                out = masks.delivered_out(round_no)
                if out is None:
                    assert masks.delivered_in(round_no) is None
                else:
                    assert np.array_equal(masks.delivered_in(round_no),
                                          out[engine.slot_layout()[2]])
            check_luby(net, seed, stack, max_rounds=40)

    @pytest.mark.parametrize("at_round", [1, 3, 5])
    @pytest.mark.parametrize("graph", ["sparse", "multigraph"])
    def test_luby_whole_frontier_crash_stops_after_the_odd_round(self, graph, at_round):
        # A frontier that crashes entirely at the start of an odd round
        # executes that round and no more; a run that finished earlier is
        # untouched.
        net = Network(random_sparse_graph(150, 5, seed=9) if graph == "sparse"
                      else luby_multigraph())
        stack = (CrashNodes(fraction=1.0, at_round=at_round),)
        for seed in range(4):
            clean = run_local(net, LubyMIS(), seed=seed)
            ref = check_luby(net, seed, stack, max_rounds=60)
            assert ref.rounds == min(at_round, clean.rounds)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, 4, 5, 60])
    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "full-stack"])
    def test_luby_multigraph_round_caps(self, faulty, max_rounds):
        # Odd caps stop mid-phase, even caps between phases; the full stack
        # adds crashes, a bounded drop window and muted hubs at once.
        net = Network(luby_multigraph())
        stack = (
            CrashNodes(fraction=0.1, at_round=2),
            IIDMessageDrop(p=0.15, from_round=1, until_round=4),
            MuteHubs(),
        ) if faulty else ()
        for seed in range(4):
            check_luby(net, seed, stack, max_rounds)

    def test_sinkless_crash(self):
        # Crash-only schedules from round >= 2 (the dense kernel's fault
        # support window).
        rng = random.Random(57)
        for _ in range(10):
            stack = (CrashNodes(fraction=0.2, at_round=rng.randrange(2, 5)),)
            check_sinkless(simple_sparse_network(rng), rng.randrange(10_000), stack,
                           max_rounds=12)

    @pytest.mark.parametrize("max_rounds", [2, 3, 5, 12])
    @pytest.mark.parametrize("stack", ["drop", "corrupt", "crash+drop+corrupt"])
    def test_sinkless_drop_and_corruption(self, stack, max_rounds):
        # Drops exercise the incremental sink-count update on kept flips,
        # corruption rounds (2..4) the full recount, the caps a mid-run stop.
        perts = {
            "drop": (IIDMessageDrop(p=0.3, from_round=2),),
            "corrupt": (CorruptMessages(p=0.2, from_round=2, until_round=4),),
            "crash+drop+corrupt": (
                CrashNodes(fraction=0.2, at_round=3),
                IIDMessageDrop(p=0.2, from_round=2, until_round=6),
                CorruptMessages(p=0.2, from_round=2, until_round=4),
            ),
        }[stack]
        rng = random.Random(max_rounds * 1000 + len(stack))
        for _ in range(8):
            check_sinkless(simple_sparse_network(rng), rng.randrange(10_000), perts,
                           max_rounds)

    def test_splitting_crash_and_drop(self):
        rng = random.Random(83)
        for _ in range(12):
            net = Network(random_multigraph(rng, rng.randrange(2, 25)))
            seed = rng.randrange(10_000)
            check_splitting(net, seed, random_stack(rng))


def test_adversarial_naming_renames_dense_coins_too():
    # Regression: the dense coins once ignored uids, so a renaming changed
    # nothing the dense kernel could see and dense parted from the hooked
    # executors.
    named = {
        backend: run_scenario("luby/adversarial-naming", n=300, seed=4,
                              backend=backend, return_state=True)[1]["mis"]
        for backend in ("reference", "dense")
    }
    assert named["dense"] == named["reference"]
    sc = get_scenario("luby/adversarial-naming")
    assert isinstance(sc.perturbations[0], AdversarialIDs)
    ports_only = Scenario(name="adhoc/ports-only", pipeline="luby",
                          perturbations=sc.perturbations[1:], strict=True)
    assert all(isinstance(p, PortScramble) for p in ports_only.perturbations)
    unnamed = run_scenario(ports_only, n=300, seed=4, backend="dense",
                           return_state=True)[1]["mis"]
    assert unnamed != named["dense"]


def test_pure_decisions_are_order_insensitive():
    """Consulting a bound stack twice (any order) gives the same answers."""
    rng = random.Random(5)
    pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(30)]
    adj = adjacency(12, [(u, v) for u, v in pairs if u != v])
    net = Network(adj)
    perts = (CrashNodes(0.3, at_round=2), IIDMessageDrop(0.3), EdgeChurn(0.4),
             DropEdges(0.3, at_round=2))
    bound_a = bind_all(perts, net, fault_seed=42)
    bound_b = bind_all(perts, net, fault_seed=42)
    queries = [
        (r, s, p)
        for r in range(1, 6)
        for s in range(net.n)
        for p in range(len(adj[s]))
    ]
    rng.shuffle(queries)
    for r, s, p in queries:
        assert all(b.delivers(r, s, p) for b in bound_a) == all(
            b.delivers(r, s, p) for b in bound_b
        )
    for r in range(1, 6):
        assert [tuple(b.crashes(r)) for b in bound_a] == [
            tuple(b.crashes(r)) for b in bound_b
        ]
