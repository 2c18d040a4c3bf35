"""Property tests: deterministic-fault runs are bit-identical across backends.

The scenario subsystem's core guarantee: because every fault decision is a
pure function of ``(fault_seed, round, coordinates)``, a perturbed run is
*bit-identical* between the reference simulator and the batched engine for
any algorithm, and — with replayed coins — between the engine and the
dense kernels for the shipped pipelines.  Random graphs x random fault
stacks x random seeds probe that exhaustively.
"""

import random

import pytest

from repro.apps.splitting import ZeroRoundSplitting
from repro.bipartite.generators import random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network, run_local
from repro.local.dense import (
    luby_mis_dense,
    sinkless_trial_dense,
    uniform_splitting_dense,
)
from repro.mis.luby import LubyMIS
from repro.orientation.sinkless import TrialAndFixSinkless, sinks
from repro.scenarios import (
    CorruptMessages,
    CrashNodes,
    DropEdges,
    EdgeChurn,
    IIDMessageDrop,
    LateEdges,
    MuteHubs,
    PerturbationHooks,
    bind_all,
    orientation_from_views,
)
from repro.scenarios.masks import DenseFaults


def random_multigraph(rng, n):
    """Random sparse symmetric adjacency, occasionally with multi-edges."""
    adj = [[] for _ in range(n)]
    for _ in range(rng.randrange(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
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
    ]
    k = rng.randrange(1, 4)
    return tuple(rng.sample(pool, k))


def assert_bit_identical(ref, fast):
    assert ref.rounds == fast.rounds
    assert ref.completed == fast.completed
    assert ref.outputs() == fast.outputs()
    assert [v.state for v in ref.views] == [v.state for v in fast.views]


def assert_sinkless_dense_matches_engine(rng, make_perts, max_rounds):
    """One random simple graph: the replay-coin dense sinkless kernel under
    the stack ``make_perts(rng)`` ends in the hooked engine's exact slot
    states and round count."""
    while True:
        n = rng.randrange(4, 20)
        adj = random_sparse_graph(n, 3.0, seed=rng.randrange(999))
        if any(adj):
            break
    net = Network(adj)
    engine = CSREngine(net)
    seed = rng.randrange(10_000)
    bound = bind_all(make_perts(rng), net, fault_seed=seed)
    algo = TrialAndFixSinkless(min_degree=2)

    # The same survivor-aware stopping rule the dense kernel checks
    # internally (and the scenario runner uses), so both executors stop at
    # the same round.
    def probe(round_no, views):
        if round_no < 2:
            return False
        orientation = orientation_from_views(adj, views)
        alive = [not v.state.get("crashed") for v in views]
        return not any(alive[v] for v in sinks(adj, orientation, 2))

    eng = engine.run(algo, max_rounds=max_rounds, seed=seed,
                     hooks=PerturbationHooks(bound), probe=probe)
    dense = sinkless_trial_dense(
        engine, min_degree=2, seed=seed, coins="replay",
        max_rounds=max_rounds, faults=DenseFaults(engine, bound), strict=False,
    )
    assert dense.rounds == eng.rounds
    offsets = engine.offsets.tolist()
    slot_out = [False] * offsets[-1]
    for i, view in enumerate(eng.views):
        for p, is_out in view.state.get("out", {}).items():
            slot_out[offsets[i] + p] = is_out
    assert [bool(x) for x in dense.out] == slot_out
    assert [bool(x) for x in dense.crashed] == [
        bool(v.state.get("crashed")) for v in eng.views
    ]


class TestReferenceVsEngineUnderFaults:
    def test_luby_random_fault_stacks(self):
        rng = random.Random(1234)
        for trial in range(25):
            adj = random_multigraph(rng, rng.randrange(2, 25))
            net = Network(adj)
            perts = random_stack(rng)
            seed = rng.randrange(10_000)
            bound = bind_all(perts, net, fault_seed=seed)
            ref = run_local(net, LubyMIS(), max_rounds=60, seed=seed,
                            hooks=PerturbationHooks(bound))
            fast = CSREngine(net).run(LubyMIS(), max_rounds=60, seed=seed,
                                      hooks=PerturbationHooks(bound))
            assert_bit_identical(ref, fast)

    def test_sinkless_random_fault_stacks(self):
        # TrialAndFixSinkless exercises the non-broadcast send path and the
        # defensive round-1 receive (missing proposals under faults).
        rng = random.Random(99)
        for trial in range(15):
            adj = random_multigraph(rng, rng.randrange(2, 18))
            net = Network(adj)
            perts = random_stack(rng)
            seed = rng.randrange(10_000)
            bound = bind_all(perts, net, fault_seed=seed)
            algo = TrialAndFixSinkless(min_degree=2)
            ref = run_local(net, algo, max_rounds=12, seed=seed,
                            hooks=PerturbationHooks(bound))
            fast = CSREngine(net).run(algo, max_rounds=12, seed=seed,
                                      hooks=PerturbationHooks(bound))
            assert_bit_identical(ref, fast)

    def test_splitting_random_fault_stacks(self):
        rng = random.Random(7)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=3)
        for trial in range(15):
            adj = random_multigraph(rng, rng.randrange(2, 20))
            net = Network(adj)
            perts = random_stack(rng)
            seed = rng.randrange(10_000)
            bound = bind_all(perts, net, fault_seed=seed)
            algo = ZeroRoundSplitting(spec)
            ref = run_local(net, algo, max_rounds=1, seed=seed,
                            hooks=PerturbationHooks(bound))
            fast = CSREngine(net).run(algo, max_rounds=1, seed=seed,
                                      hooks=PerturbationHooks(bound))
            assert_bit_identical(ref, fast)


class TestDenseReplayUnderFaults:
    """Dense kernels fed replayed coins + fault masks == hooked engine."""

    def test_luby_crash_and_drop(self):
        import numpy as np

        rng = random.Random(31)
        for trial in range(12):
            adj = random_multigraph(rng, rng.randrange(2, 30))
            net = Network(adj)
            engine = CSREngine(net)
            perts = random_stack(rng)
            seed = rng.randrange(10_000)
            bound = bind_all(perts, net, fault_seed=seed)
            eng = engine.run(LubyMIS(), max_rounds=40, seed=seed,
                             hooks=PerturbationHooks(bound))
            faults = DenseFaults(engine, bound)
            # delivered_in is defined as the partner-gather of
            # delivered_out: both sides of a slot name the same message.
            for round_no in (1, 2, 3, eng.rounds or 1):
                out = faults.delivered_out(round_no)
                din = faults.delivered_in(round_no)
                if out is None:
                    assert din is None
                else:
                    assert np.array_equal(din, out[faults.layout.partner])
            dense = luby_mis_dense(engine, seed=seed, coins="replay",
                                   max_rounds=40, faults=faults)
            assert dense.rounds == eng.rounds
            assert dense.completed == eng.completed
            assert [bool(x) for x in dense.in_mis] == [
                bool(v.state.get("in_mis")) for v in eng.views
            ]
            assert [bool(x) for x in dense.crashed] == [
                bool(v.state.get("crashed")) for v in eng.views
            ]

    def test_sinkless_crash(self):
        # Crash-only schedules from round >= 2 (the dense kernel's fault
        # support window); compare slot states against the engine's views.
        rng = random.Random(57)
        for _ in range(10):
            assert_sinkless_dense_matches_engine(
                rng,
                lambda r: (CrashNodes(fraction=0.2, at_round=r.randrange(2, 5)),),
                max_rounds=12,
            )

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
            assert_sinkless_dense_matches_engine(rng, lambda r: perts, max_rounds)

    def test_splitting_crash_and_drop(self):
        rng = random.Random(83)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=3)
        for trial in range(12):
            adj = random_multigraph(rng, rng.randrange(2, 25))
            net = Network(adj)
            engine = CSREngine(net)
            seed = rng.randrange(10_000)
            perts = random_stack(rng)
            bound = bind_all(perts, net, fault_seed=seed)
            eng = engine.run(ZeroRoundSplitting(spec), max_rounds=1, seed=seed,
                             hooks=PerturbationHooks(bound))
            dense = uniform_splitting_dense(
                engine, spec, seed=seed, coins="replay",
                faults=DenseFaults(engine, bound),
            )
            assert [int(c) for c in dense.colors] == [
                v.state["color"] for v in eng.views
            ]
            alive_ok = all(
                v.output[1] for v in eng.views if v.output is not None
            )
            assert dense.ok == alive_ok
            assert [bool(c) for c in dense.crashed] == [
                bool(v.state.get("crashed")) for v in eng.views
            ]


def test_pure_decisions_are_order_insensitive():
    """Consulting a bound stack twice (any order) gives the same answers."""
    rng = random.Random(5)
    adj = random_multigraph(rng, 12)
    net = Network(adj)
    perts = random_stack(rng)
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
