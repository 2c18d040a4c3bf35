"""Sharded CSR execution (`repro.local.sharded`).

The contract under test is *bit-identity*: for any shard plan, a sharded
trial must reproduce the single-process ``coins="keyed"`` dense kernel
exactly — MIS membership / orientation bits / colors, round counts,
completion flags and crash records — because shard workers recompute
keyed coins from global node/slot indices and exchange only boundary
state.  Most cases run the executor inline (``workers=0``: same step
functions and halo exchange, no pool) so the suite stays fast on 1-CPU
boxes; a handful run real worker processes to cover the shared-memory
transport, the pickle fallback and the kill-and-heal replay path.
"""

import pytest

from repro.bipartite.generators import random_regular_graph, random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network
from repro.local.dense import (
    luby_mis_dense,
    sinkless_trial_dense,
    uniform_splitting_dense,
)
from repro.local.sharded import (
    ShardedExecutor,
    luby_mis_sharded,
    plan_shards,
    sinkless_trial_sharded,
    uniform_splitting_sharded,
)
from repro.scenarios import CrashNodes, IIDMessageDrop, MuteHubs, bind_all
from repro.scenarios.masks import DenseFaults
from repro.utils.rng import ensure_rng

SHARD_COUNTS = (1, 2, 7)


def engine_of(adj):
    engine = CSREngine(Network(adj))
    engine.dense_arrays()
    return engine


def multigraph(n=40, extra=60, seed=3):
    """A connected multigraph: a cycle plus repeated random parallel edges."""
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    rng = ensure_rng(seed)
    for _ in range(extra):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        adj[a].append(b)
        adj[b].append(a)
    return adj


def assert_luby_matches(engine, seed, reference, **kwargs):
    result = luby_mis_sharded(engine, seed=seed, workers=0, **kwargs)
    assert result.rounds == reference.rounds
    assert result.completed == reference.completed
    assert (result.in_mis == reference.in_mis).all()
    assert (result.crashed == reference.crashed).all()
    return result


class TestLubyBitIdentity:
    def test_shard_counts(self):
        engine = engine_of(random_sparse_graph(150, 8, seed=1))
        for seed in range(3):
            reference = luby_mis_dense(engine, seed=seed, coins="keyed")
            for shards in SHARD_COUNTS:
                assert_luby_matches(engine, seed, reference, shards=shards)

    def test_uneven_explicit_bounds(self):
        engine = engine_of(random_sparse_graph(120, 10, seed=2))
        reference = luby_mis_dense(engine, seed=5, coins="keyed")
        with ShardedExecutor(engine, bounds=[3, 7, 110], workers=0) as ex:
            result = luby_mis_sharded(engine, seed=5, executor=ex)
        assert result.rounds == reference.rounds
        assert (result.in_mis == reference.in_mis).all()

    def test_multigraph(self):
        engine = engine_of(multigraph())
        for shards in SHARD_COUNTS:
            reference = luby_mis_dense(engine, seed=9, coins="keyed")
            assert_luby_matches(engine, 9, reference, shards=shards)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, 5])
    def test_round_caps_freeze_identically(self, max_rounds):
        engine = engine_of(random_sparse_graph(100, 12, seed=4))
        reference = luby_mis_dense(
            engine, seed=1, coins="keyed", max_rounds=max_rounds
        )
        assert_luby_matches(engine, 1, reference, shards=3, max_rounds=max_rounds)


class TestFaultyBitIdentity:
    def faults(self, engine, fault_seed=11):
        perts = (
            CrashNodes(fraction=0.1, at_round=2),
            IIDMessageDrop(p=0.15, from_round=1, until_round=4),
            MuteHubs(),
        )
        bound = bind_all(perts, engine.network, fault_seed=fault_seed,
                         fault_mode="mask")
        return DenseFaults(engine, bound)

    def test_luby_under_fault_stack(self):
        engine = engine_of(random_sparse_graph(150, 8, seed=6))
        reference = luby_mis_dense(
            engine, seed=2, coins="keyed", faults=self.faults(engine)
        )
        assert reference.crashed.any()
        for shards in SHARD_COUNTS:
            assert_luby_matches(
                engine, 2, reference, shards=shards, faults=self.faults(engine)
            )

    def test_sinkless_under_drops(self):
        engine = engine_of(random_regular_graph(60, 4, seed=7))
        faults = (IIDMessageDrop(p=0.1, from_round=1, until_round=3),)
        bound = bind_all(faults, engine.network, fault_seed=3, fault_mode="mask")
        reference = sinkless_trial_dense(
            engine, min_degree=2, seed=1, coins="keyed",
            faults=DenseFaults(engine, bound),
        )
        for shards in SHARD_COUNTS:
            result = sinkless_trial_sharded(
                engine, min_degree=2, seed=1, shards=shards, workers=0,
                faults=DenseFaults(engine, bound),
            )
            assert result.rounds == reference.rounds
            assert (result.out == reference.out).all()
            assert (result.crashed == reference.crashed).all()

    def test_splitting_under_crashes(self):
        engine = engine_of(random_sparse_graph(200, 24, seed=8))
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        perts = (CrashNodes(fraction=0.05, at_round=1),)
        bound = bind_all(perts, engine.network, fault_seed=5, fault_mode="mask")
        result = uniform_splitting_sharded(
            engine, spec, seed=3, shards=2, workers=0,
            faults=DenseFaults(engine, bound),
        )
        # Mirror the sequential Las-Vegas loop's attempt-seed stream.
        rng = ensure_rng(3)
        for _ in range(result.attempts):
            run_seed = rng.randrange(2**31)
        reference = uniform_splitting_dense(
            engine, spec, seed=run_seed, coins="keyed",
            faults=DenseFaults(engine, bound),
        )
        assert (result.colors == reference.colors).all()
        assert (result.crashed == reference.crashed).all()
        assert bool(result.ok) == bool(reference.ok)


class TestSinklessAndSplitting:
    def test_sinkless_shard_counts(self):
        engine = engine_of(random_regular_graph(80, 4, seed=10))
        for seed in range(2):
            reference = sinkless_trial_dense(
                engine, min_degree=1, seed=seed, coins="keyed"
            )
            for shards in SHARD_COUNTS:
                result = sinkless_trial_sharded(
                    engine, min_degree=1, seed=seed, shards=shards, workers=0
                )
                assert result.rounds == reference.rounds
                assert result.completed == reference.completed
                assert (result.out == reference.out).all()

    def test_sinkless_rejects_multigraphs(self):
        engine = engine_of(multigraph())
        with pytest.raises(Exception, match="simple graph"):
            sinkless_trial_sharded(engine, seed=0, shards=2, workers=0)

    def test_splitting_shard_counts(self):
        engine = engine_of(random_sparse_graph(200, 24, seed=12))
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        for shards in SHARD_COUNTS:
            result = uniform_splitting_sharded(
                engine, spec, seed=1, shards=shards, workers=0
            )
            assert result.ok and result.attempts >= 1
            rng = ensure_rng(1)
            for _ in range(result.attempts):
                run_seed = rng.randrange(2**31)
            reference = uniform_splitting_dense(
                engine, spec, seed=run_seed, coins="keyed"
            )
            assert (result.colors == reference.colors).all()


class TestShardPlans:
    def test_empty_graph_keeps_one_shard(self):
        engine = engine_of([])
        plan = plan_shards(engine, shards=4)
        assert len(plan) == 1
        result = luby_mis_sharded(engine, seed=0, shards=4, workers=0)
        assert result.completed and result.in_mis.shape == (0,)

    def test_more_shards_than_nodes(self):
        engine = engine_of([[1], [0], [3], [2]])
        reference = luby_mis_dense(engine, seed=0, coins="keyed")
        assert_luby_matches(engine, 0, reference, shards=19)

    def test_max_shard_slots_sizes_the_plan(self):
        engine = engine_of(random_sparse_graph(120, 10, seed=13))
        offsets, dst_node, _ = engine.dense_arrays()
        m = int(dst_node.shape[0])
        plan = plan_shards(engine, max_shard_slots=200)
        assert len(plan) == -(-m // 200) >= 2
        # Cuts are node-aligned, so a shard may overshoot the budget by at
        # most one node's row of slots.
        max_degree = int(max(offsets[i + 1] - offsets[i]
                             for i in range(engine.n)))
        for spec in plan.specs:
            assert int(spec.offsets[-1]) <= 200 + max_degree

    def test_isolated_nodes_and_singleton_components(self):
        adj = [[], [2], [1], [], [5], [4], []]
        engine = engine_of(adj)
        reference = luby_mis_dense(engine, seed=0, coins="keyed")
        for shards in SHARD_COUNTS:
            assert_luby_matches(engine, 0, reference, shards=shards)


class TestRealWorkerPool:
    """Real process-pool coverage: transports, batching and healing."""

    def test_shm_transport(self):
        engine = engine_of(random_sparse_graph(300, 10, seed=14))
        reference = luby_mis_dense(engine, seed=1, coins="keyed")
        result = luby_mis_sharded(engine, seed=1, shards=2)
        assert result.rounds == reference.rounds
        assert (result.in_mis == reference.in_mis).all()

    def test_pickle_transport(self):
        engine = engine_of(random_sparse_graph(300, 10, seed=14))
        reference = luby_mis_dense(engine, seed=1, coins="keyed")
        result = luby_mis_sharded(engine, seed=1, shards=2, transport="pickle")
        assert result.rounds == reference.rounds
        assert (result.in_mis == reference.in_mis).all()

    def test_killed_worker_heals_and_stays_bit_identical(self):
        engine = engine_of(random_sparse_graph(200, 8, seed=15))
        reference = luby_mis_dense(engine, seed=4, coins="keyed")
        with ShardedExecutor(engine, 2) as ex:
            first = luby_mis_sharded(engine, seed=4, executor=ex)
            ex.inject_worker_failure(0)
            healed = luby_mis_sharded(engine, seed=4, executor=ex)
        assert ex.heals == 1
        for result in (first, healed):
            assert result.rounds == reference.rounds
            assert (result.in_mis == reference.in_mis).all()

    def test_executor_amortizes_partition_across_trials(self):
        engine = engine_of(random_sparse_graph(200, 8, seed=16))
        with ShardedExecutor(engine, 2) as ex:
            partition = ex.plan.partition_seconds
            for seed in range(3):
                reference = luby_mis_dense(engine, seed=seed, coins="keyed")
                result = luby_mis_sharded(engine, seed=seed, executor=ex)
                assert (result.in_mis == reference.in_mis).all()
                assert result.partition_seconds == partition
            assert ex.halo_seconds >= 0.0


class TestPipelineDispatch:
    """`method="dense-sharded"` through the public pipeline entry points."""

    def test_luby_mis_dispatch_and_batch(self):
        from repro.mis.luby import is_mis, luby_mis

        adj = random_sparse_graph(150, 8, seed=17)
        mis, rounds = luby_mis(adj, seed=1, method="dense-sharded", coins="keyed",
                               shards=2)
        engine = engine_of(adj)
        reference = luby_mis_dense(engine, seed=1, coins="keyed")
        assert mis == {int(i) for i in reference.in_mis.nonzero()[0]}
        assert rounds == reference.rounds
        assert is_mis(adj, mis)
        batch = luby_mis(adj, seed=[0, 1], method="dense-sharded", coins="keyed",
                         shards=2)
        assert batch[1] == (mis, rounds)

    def test_luby_mis_rejects_replay_coins(self):
        from repro.mis.luby import luby_mis

        with pytest.raises(Exception, match="keyed"):
            luby_mis([[1], [0]], method="dense-sharded", coins="replay")

    def test_default_coins_rejected(self):
        # The pipelines default to philox coins, which dense-sharded cannot
        # run; it must refuse instead of silently switching to keyed coins.
        from repro.apps.splitting import uniform_splitting
        from repro.mis.luby import luby_mis
        from repro.orientation.sinkless import run_trial_and_fix

        adj = [[1], [0]]
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        for call in (
            lambda: luby_mis(adj, method="dense-sharded"),
            lambda: run_trial_and_fix(adj, method="dense-sharded"),
            lambda: uniform_splitting(adj, spec, method="dense-sharded"),
        ):
            with pytest.raises(ValueError, match="keyed coins only"):
                call()

    def test_sinkless_dispatch(self):
        from repro.orientation.sinkless import run_trial_and_fix

        adj = random_regular_graph(60, 4, seed=18)
        orientation, rounds = run_trial_and_fix(
            adj, min_degree=1, seed=1, method="dense-sharded", coins="keyed",
            shards=2,
        )
        engine = engine_of(adj)
        reference = sinkless_trial_dense(engine, min_degree=1, seed=1,
                                         coins="keyed")
        assert rounds == reference.rounds

    def test_splitting_dispatch(self):
        from repro.apps.splitting import uniform_splitting

        adj = random_sparse_graph(200, 24, seed=19)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        colors = uniform_splitting(adj, spec, seed=1, method="dense-sharded",
                                   coins="keyed", shards=2)
        assert len(colors) == 200 and set(colors) <= {0, 1}
