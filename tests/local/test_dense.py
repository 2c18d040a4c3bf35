"""Dense-backend tests: bit-identity edge cases and statistical validity.

Two contracts from ``repro/local/dense.py``:

* every dense kernel is **bit-identical** to the reference simulator
  ``run_local`` — same outputs and round counts for any graph and seed.
  The hypothesis property in ``tests/scenarios/test_hook_equivalence.py``
  covers random graphs, seeds and fault stacks; the cases here pin structured topologies, degenerate
  CSR layouts and the public pipeline entry points;
* the keyed coins are fair: every output must satisfy the algorithm's
  validity predicate (independence + maximality, sinklessness, splitting
  discrepancy bounds), checked across many seeds.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.apps.splitting import uniform_splitting  # noqa: E402
from repro.bipartite.generators import (  # noqa: E402
    configuration_model_regular,
    grid_graph,
    random_sparse_graph,
)
from repro.core.problems import UniformSplittingSpec  # noqa: E402
from repro.core.verifiers import uniform_splitting_violations  # noqa: E402
from repro.local import CSREngine, Network, run_local  # noqa: E402
from repro.local.ledger import RoundLedger  # noqa: E402
from repro.local.dense import (  # noqa: E402
    dense_orientation,
    luby_mis_dense,
    sinkless_trial_dense,
    uniform_splitting_dense,
)
from repro.mis.luby import LubyMIS, is_mis, luby_mis  # noqa: E402
from repro.orientation.sinkless import is_sinkless, run_trial_and_fix  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402


def reference_mis(engine, seed, max_rounds=10_000):
    result = run_local(engine.network, LubyMIS(), max_rounds=max_rounds, seed=seed)
    return [bool(v.state.get("in_mis")) for v in result.views], result.rounds, result.completed


class TestLubyBitIdentity:
    """dense == run_local on structured and degenerate graphs."""

    def test_random_sparse_graphs(self):
        for trial in range(8):
            rng = random.Random(trial)
            n = rng.randint(2, 200)
            adj = random_sparse_graph(n, min(n - 1, rng.uniform(0.5, 8)), seed=trial)
            engine = CSREngine(Network(adj))
            for seed in (0, 1, 7):
                mis, rounds, completed = reference_mis(engine, seed)
                dense = luby_mis_dense(engine, seed=seed)
                assert dense.rounds == rounds
                assert dense.completed == completed
                assert [bool(x) for x in dense.in_mis] == mis

    def test_structured_topologies_and_shuffled_ids(self):
        nets = [
            Network(configuration_model_regular(60, 4, seed=2)),
            Network(grid_graph(7, 8, periodic=True)),
            Network(random_sparse_graph(50, 3, seed=9), ids=[1000 - i for i in range(50)]),
        ]
        for net in nets:
            engine = CSREngine(net)
            for seed in (3, 11):
                mis, rounds, _ = reference_mis(engine, seed)
                dense = luby_mis_dense(engine, seed=seed)
                assert dense.rounds == rounds
                assert [bool(x) for x in dense.in_mis] == mis

    def test_multi_edges_supported(self):
        # Parallel edges just duplicate priority comparisons; outputs match.
        adj = [[1, 1, 2], [0, 0, 2], [0, 1]]
        engine = CSREngine(Network(adj))
        for seed in (0, 5):
            mis, rounds, _ = reference_mis(engine, seed)
            dense = luby_mis_dense(engine, seed=seed)
            assert dense.rounds == rounds and [bool(x) for x in dense.in_mis] == mis

    def test_edgeless_and_tiny_graphs(self):
        for adj in ([], [[]], [[], []], [[1], [0]]):
            engine = CSREngine(Network(adj))
            mis, rounds, completed = reference_mis(engine, 0)
            dense = luby_mis_dense(engine, seed=0)
            assert dense.rounds == rounds and dense.completed == completed
            assert [bool(x) for x in dense.in_mis] == mis

    def test_trailing_isolated_nodes(self):
        # Regression: trailing empty CSR segments have reduceat start == m;
        # a clipped start silently dropped the last slot of the final
        # non-empty segment, corrupting every neighborhood reduction.
        graphs = [
            [[1, 2], [0, 2], [0, 1], []],  # triangle + trailing isolated node
            [[1], [0], [], []],
            [[], [2], [1], [], []],  # interior + trailing empties
        ]
        for adj in graphs:
            engine = CSREngine(Network(adj))
            for seed in (0, 1, 2, 5):
                mis, rounds, completed = reference_mis(engine, seed)
                dense = luby_mis_dense(engine, seed=seed)
                assert [bool(x) for x in dense.in_mis] == mis, (adj, seed)
                assert dense.rounds == rounds and dense.completed == completed
                assert is_mis(adj, {int(i) for i in dense.in_mis.nonzero()[0]})

    def test_round_cap_matches_reference(self):
        adj = random_sparse_graph(40, 4, seed=3)
        engine = CSREngine(Network(adj))
        for cap in (0, 1, 2, 3):
            mis, rounds, completed = reference_mis(engine, 1, max_rounds=cap)
            dense = luby_mis_dense(engine, seed=1, max_rounds=cap)
            assert dense.rounds == rounds
            assert dense.completed == completed

    def test_method_dense_through_luby_mis(self):
        adj = random_sparse_graph(80, 5, seed=4)
        for seed in (0, 2):
            assert luby_mis(adj, seed=seed, method="reference") == luby_mis(
                adj, seed=seed, method="dense"
            )


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


GRAPH_SHAPES = [
    pytest.param([], id="empty"),
    pytest.param([[]], id="single-node"),
    pytest.param([[1], [0], [3], [2]], id="two-edges"),
    pytest.param([[], [2], [1], [], [5], [4], []], id="isolated-and-singletons"),
    pytest.param(multigraph(), id="multigraph"),
]


@pytest.mark.parametrize("adj", GRAPH_SHAPES)
def test_luby_mis_dense_on_one_engine_matches_reference_method(adj):
    # Degenerate and multi-edge CSR layouts through the public pipeline:
    # a seed loop of method="dense" on one shared engine gives the
    # reference method's MIS and round count for every seed.
    engine = CSREngine(Network(adj))
    for seed in range(4):
        dense = luby_mis(adj, seed=seed, method="dense", engine=engine)
        assert dense == luby_mis(adj, seed=seed, method="reference")
        assert is_mis(adj, dense[0])


class TestSinklessBitIdentity:
    def test_regular_graphs(self):
        for trial in range(4):
            adj = configuration_model_regular(50, 4, seed=trial)
            engine = CSREngine(Network(adj))
            for seed in (0, 3):
                orientation, rounds = run_trial_and_fix(
                    adj, min_degree=2, seed=seed, method="reference"
                )
                dense = sinkless_trial_dense(engine, min_degree=2, seed=seed)
                assert dense.rounds == rounds
                assert dense_orientation(engine, dense.out) == orientation

    def test_regular_torus_and_sparse(self):
        graphs = [
            configuration_model_regular(50, 4, seed=0),
            grid_graph(6, 7, periodic=True),
            random_sparse_graph(60, 5, seed=8),
        ]
        for adj in graphs:
            engine = CSREngine(Network(adj))
            for seed in (1, 4):
                orientation, rounds = run_trial_and_fix(
                    adj, min_degree=1, seed=seed, method="reference"
                )
                dense = sinkless_trial_dense(engine, min_degree=1, seed=seed)
                assert dense.rounds == rounds
                assert dense_orientation(engine, dense.out) == orientation

    def test_method_dense_through_driver(self):
        adj = configuration_model_regular(40, 4, seed=5)
        for seed in (0, 2):
            assert run_trial_and_fix(
                adj, min_degree=2, seed=seed, method="reference"
            ) == run_trial_and_fix(adj, min_degree=2, seed=seed, method="dense")

    def test_multi_edge_rejected(self):
        for adj in ([[1, 1], [0, 0]], [[0, 1], [0]]):  # parallel edge, self-loop
            engine = CSREngine(Network(adj))
            with pytest.raises(ValueError, match="requires a simple graph"):
                sinkless_trial_dense(engine, seed=0)

    def test_trailing_isolated_nodes(self):
        # Regression companion to the Luby case: the sink checks (own-view
        # and probe) must survive trailing empty CSR segments.
        adj = [[1, 2], [0, 2], [0, 1], []]
        engine = CSREngine(Network(adj))
        for seed in (0, 1, 3):
            orientation, rounds = run_trial_and_fix(
                adj, min_degree=2, seed=seed, method="reference"
            )
            dense = sinkless_trial_dense(engine, min_degree=2, seed=seed)
            assert dense.rounds == rounds
            assert dense_orientation(engine, dense.out) == orientation

    def test_round_cap_raises_like_driver(self):
        # A single cycle with min_degree=2: solvable, but cap it at round 1.
        adj = [[1, 2], [0, 2], [0, 1]]
        engine = CSREngine(Network(adj))
        with pytest.raises(RuntimeError):
            sinkless_trial_dense(engine, min_degree=2, seed=0, max_rounds=1)


class TestSplittingBitIdentity:
    def test_partition_matches_local_method(self):
        adj = random_sparse_graph(200, 40.0, seed=3)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=15)
        for seed in (0, 1, 5):
            local = uniform_splitting(adj, spec, method="local", seed=seed)
            dense = uniform_splitting(adj, spec, method="dense", seed=seed)
            assert local == dense

    def test_trailing_isolated_nodes(self):
        # Regression: red-neighbor segment sums with trailing empty segments.
        from repro.apps.splitting import ZeroRoundSplitting

        adj = [[1, 2], [0, 2], [0, 1], [], []]
        engine = CSREngine(Network(adj))
        spec = UniformSplittingSpec(eps=0.45, min_constrained_degree=2)
        for run_seed in range(6):
            result = run_local(engine.network, ZeroRoundSplitting(spec), max_rounds=1,
                               seed=run_seed)
            dense = uniform_splitting_dense(engine, spec, seed=run_seed)
            assert [int(c) for c in dense.colors] == [c for c, _ in result.outputs()]
            assert dense.ok == all(ok for _, ok in result.outputs())

    def test_single_attempt_matches_zero_round_algorithm(self):
        from repro.apps.splitting import ZeroRoundSplitting

        adj = random_sparse_graph(120, 30.0, seed=5)
        engine = CSREngine(Network(adj))
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=10)
        for run_seed in (0, 1, 2, 99):
            result = run_local(engine.network, ZeroRoundSplitting(spec), max_rounds=1,
                               seed=run_seed)
            dense = uniform_splitting_dense(engine, spec, seed=run_seed)
            assert [int(c) for c in dense.colors] == [c for c, _ in result.outputs()]
            assert dense.ok == all(ok for _, ok in result.outputs())
            assert dense.rounds == result.rounds == 1


class TestStatisticalValidity:
    """Keyed coins: outputs must satisfy the validity predicates."""

    def test_mis_independence_and_maximality(self):
        for trial in range(3):
            adj = random_sparse_graph(300, 6, seed=trial)
            engine = CSREngine(Network(adj))
            for seed in range(8):
                dense = luby_mis_dense(engine, seed=seed)
                assert dense.completed
                assert is_mis(adj, {int(i) for i in dense.in_mis.nonzero()[0]})

    def test_sinklessness_on_min_degree_3(self):
        for trial in range(3):
            adj = configuration_model_regular(120, 3, seed=trial)
            engine = CSREngine(Network(adj))
            for seed in range(6):
                dense = sinkless_trial_dense(engine, min_degree=3, seed=seed)
                orientation = dense_orientation(engine, dense.out)
                assert is_sinkless(adj, orientation, min_degree=3)
                assert dense.rounds >= 2

    def test_splitting_discrepancy_over_50_seeds(self):
        adj = random_sparse_graph(300, 48.0, seed=7)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=24)
        engine = CSREngine(Network(adj))
        n = len(adj)
        red_fractions = []
        for seed in range(50):
            partition = uniform_splitting(
                adj, spec, method="dense", seed=seed, engine=engine
            )
            assert not uniform_splitting_violations(adj, partition, spec)
            red_fractions.append(partition.count(0) / n)
        # Global red mass concentrates around 1/2 across accepted runs.
        mean = sum(red_fractions) / len(red_fractions)
        assert abs(mean - 0.5) < 0.05
        assert min(red_fractions) > 0.35 and max(red_fractions) < 0.65

    def test_luby_rounds_logarithmic(self):
        # O(log n) w.h.p.: generous cap, but it must not blow up.
        adj = random_sparse_graph(2000, 10, seed=1)
        engine = CSREngine(Network(adj))
        dense = luby_mis_dense(engine, seed=0)
        assert dense.completed and dense.rounds <= 40


class TestDenseArraysOnEngine:
    def test_cached_and_shared_with_the_engine(self):
        adj = [[1, 1, 2], [0, 0, 2], [0, 1]]
        engine = CSREngine(Network(adj))
        offsets, dst_node, dst_port = engine.dense_arrays()
        assert engine.dense_arrays()[0] is offsets  # cached
        assert offsets is engine.offsets
        assert dst_node is engine.dst_node
        assert dst_port is engine.dst_port
        assert offsets.dtype == dst_node.dtype == dst_port.dtype == np.int64

    def test_lazy_exports_resolve(self):
        import repro.local as local

        assert local.luby_mis_dense is luby_mis_dense
        with pytest.raises(AttributeError):
            local.not_a_kernel


@pytest.mark.parametrize(
    "call",
    [
        lambda adj: luby_mis(adj, seed=0, coins="philox"),
        lambda adj: run_trial_and_fix(adj, seed=0, method="dense", coins="replay"),
        lambda adj: uniform_splitting(
            adj, UniformSplittingSpec(eps=0.3, min_constrained_degree=1),
            method="dense", seed=0, coins="keyed",
        ),
        lambda adj: luby_mis_dense(CSREngine(Network(adj)), seed=0, coins="philox"),
    ],
    ids=["luby_mis", "run_trial_and_fix", "uniform_splitting", "luby_mis_dense"],
)
def test_removed_coins_keyword_fails_loudly(call):
    # One coin law: there is no coin kind left to choose.
    with pytest.raises(TypeError, match="coins"):
        call([[1, 2], [0, 2], [0, 1]])


@pytest.mark.parametrize(
    "pipeline, kwargs",
    [
        pytest.param(luby_mis, {}, id="luby_mis"),
        pytest.param(run_trial_and_fix, {"min_degree": 2}, id="run_trial_and_fix"),
        pytest.param(uniform_splitting,
                     {"spec": UniformSplittingSpec(eps=0.3, min_constrained_degree=8)},
                     id="uniform_splitting"),
    ],
)
@pytest.mark.parametrize("method", ["dense-batched", "dense-sharded", "engine"])
def test_pipelines_reject_removed_methods(pipeline, kwargs, method):
    # One seed per call and no batched kernel for any pipeline (a loop of
    # method="dense" runs on one engine is the many-seeds path), and no CSR
    # engine executor (the reference simulator and the dense kernels are
    # the two executors): the removed method names are unknown everywhere.
    adj = configuration_model_regular(40, 4, seed=1)
    for seed in ([0, 1], 0):
        with pytest.raises(ValueError, match="unknown method"):
            pipeline(adj, seed=seed, method=method, **kwargs)


MANY_SEEDS = [
    pytest.param(luby_mis, random_sparse_graph(120, 6, seed=5), {}, id="luby_mis"),
    pytest.param(run_trial_and_fix, configuration_model_regular(60, 4, seed=2),
                 {"min_degree": 3}, id="run_trial_and_fix"),
    pytest.param(uniform_splitting, random_sparse_graph(150, 24.0, seed=3),
                 {"spec": UniformSplittingSpec(eps=0.3, min_constrained_degree=12)},
                 id="uniform_splitting"),
]


class TestManySeedsOnOneEngine:
    """The many-seeds pattern: loop ``method="dense"`` on one shared engine."""

    @pytest.mark.parametrize("pipeline, adj, kwargs", MANY_SEEDS)
    def test_seed_loop_matches_fresh_runs(self, pipeline, adj, kwargs):
        engine = CSREngine(Network(adj))
        for seed in range(4):
            shared = pipeline(adj, seed=seed, method="dense", engine=engine, **kwargs)
            assert shared == pipeline(adj, seed=seed, method="dense", **kwargs)

    @pytest.mark.parametrize("pipeline, adj, kwargs", MANY_SEEDS)
    def test_shared_engine_keeps_no_state_between_seeds(self, pipeline, adj, kwargs):
        # A repeated seed reproduces its first run, and the seed order does
        # not change any run: nothing carries over on the shared engine.
        engine = CSREngine(Network(adj))

        def run(seeds):
            return [pipeline(adj, seed=s, method="dense", engine=engine, **kwargs)
                    for s in seeds]

        forward = run([3, 8, 3, 5])
        assert forward[2] == forward[0]
        assert run([5, 3, 8]) == [forward[3], forward[0], forward[1]]

    @pytest.mark.parametrize("pipeline, adj, kwargs", [
        param for param in MANY_SEEDS if param.id != "run_trial_and_fix"
    ])
    def test_each_run_is_charged_to_the_ledger(self, pipeline, adj, kwargs):
        # One ledger across the loop holds exactly the charges each run
        # makes on its own (splitting charges one round per attempt).
        engine = CSREngine(Network(adj))
        shared = RoundLedger()
        charges = rounds = 0
        for seed in range(5):
            own = RoundLedger()
            out = pipeline(adj, seed=seed, method="dense", engine=engine, ledger=own,
                           **kwargs)
            assert out == pipeline(adj, seed=seed, method="dense", engine=engine,
                                   ledger=shared, **kwargs)
            if pipeline is luby_mis:
                assert is_mis(adj, out[0])
                assert own.simulated_total() == out[1]
            else:
                assert not uniform_splitting_violations(adj, out, kwargs["spec"])
            assert len(own) >= 1
            charges += len(own)
            rounds += own.simulated_total()
        assert (len(shared), shared.simulated_total()) == (charges, rounds)
