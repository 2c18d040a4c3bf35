"""The trial-batched Luby kernel: bit-identity to sequential runs.

The contract under test (``repro/local/dense.py``): a batched run over
seeds ``s1..sk`` is **bit-identical** — MIS membership, round counts,
completion flags and crash records — to ``k`` independent sequential runs
of the same kernel, because every coin is a pure hash of ``(seed, "node",
uid, round, draw)`` and the batched kernel recomputes exactly those hashes
at whatever (trial, node, round) triples are still active.  Tested on
random graphs, including faulty scenarios, ragged termination, and
mid-phase ``max_rounds`` caps.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.apps.splitting import uniform_splitting  # noqa: E402
from repro.bipartite.generators import (  # noqa: E402
    configuration_model_regular,
    random_sparse_graph,
)
from repro.core.problems import UniformSplittingSpec  # noqa: E402
from repro.local import CSREngine, Network  # noqa: E402
from repro.local.dense import (  # noqa: E402
    luby_mis_batched,
    luby_mis_dense,
)
from repro.local.ledger import RoundLedger  # noqa: E402
from repro.mis.luby import is_mis, luby_mis  # noqa: E402
from repro.orientation.sinkless import run_trial_and_fix  # noqa: E402
from repro.scenarios.base import bind_all  # noqa: E402
from repro.scenarios.faults import (  # noqa: E402
    CrashNodes,
    IIDMessageDrop,
    MuteHubs,
)
from repro.scenarios.masks import DenseFaults  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402

SEEDS = list(range(10))


def sparse_engine(n=300, deg=6, gseed=7):
    return CSREngine(Network(random_sparse_graph(n, deg, seed=gseed)))


def regular_engine(n=120, deg=4, gseed=11):
    return CSREngine(Network(configuration_model_regular(n, deg, seed=gseed)))


def assert_luby_identical(engine, seeds, batch, **kwargs):
    for t, s in enumerate(seeds):
        seq = luby_mis_dense(engine, seed=s, **kwargs)
        assert np.array_equal(batch.in_mis[t], seq.in_mis)
        assert np.array_equal(batch.crashed[t], seq.crashed)
        assert int(batch.rounds[t]) == seq.rounds
        assert bool(batch.completed[t]) == seq.completed


class TestLubyBatchedBitIdentity:
    def test_matches_sequential_keyed_runs(self):
        for gseed in (7, 8):
            engine = sparse_engine(gseed=gseed)
            batch = luby_mis_batched(engine, SEEDS)
            assert_luby_identical(engine, SEEDS, batch)

    def test_ragged_trials_freeze_independently(self):
        engine = sparse_engine()
        batch = luby_mis_batched(engine, SEEDS)
        # different seeds genuinely finish at different rounds — the
        # active-trial mask must freeze each one exactly where the
        # sequential run stops
        assert np.unique(batch.rounds).shape[0] >= 2
        assert bool(batch.completed.all())

    def test_pooled_phases_preserve_identity(self):
        # a tiny pool threshold forces every trial through the communal
        # compressed state almost immediately
        engine = sparse_engine()
        batch = luby_mis_batched(engine, SEEDS, pool_pairs=32)
        assert_luby_identical(engine, SEEDS, batch)

    def test_max_rounds_caps_match_including_mid_phase(self):
        engine = sparse_engine(n=150, deg=5, gseed=3)
        for cap in (0, 1, 2, 3, 4, 5, 6):  # odd caps break mid-phase
            batch = luby_mis_batched(engine, SEEDS, max_rounds=cap)
            assert_luby_identical(engine, SEEDS, batch, max_rounds=cap)

    def test_trial_view_slices_batch(self):
        engine = sparse_engine(n=80, deg=4, gseed=2)
        batch = luby_mis_batched(engine, [0, 1])
        one = batch.trial(1)
        seq = luby_mis_dense(engine, seed=1)
        assert np.array_equal(one.in_mis, seq.in_mis)
        assert one.rounds == seq.rounds

    def test_seed_order_permutes_rows(self):
        engine = sparse_engine(n=120, deg=5, gseed=4)
        forward = luby_mis_batched(engine, SEEDS)
        backward = luby_mis_batched(engine, SEEDS[::-1])
        assert np.array_equal(forward.in_mis, backward.in_mis[::-1])
        assert np.array_equal(forward.rounds, backward.rounds[::-1])

    def test_duplicate_seeds_give_identical_rows(self):
        engine = sparse_engine(n=120, deg=5, gseed=4)
        batch = luby_mis_batched(engine, [3, 3, 8, 3])
        for t in (1, 3):
            assert np.array_equal(batch.in_mis[t], batch.in_mis[0])
            assert int(batch.rounds[t]) == int(batch.rounds[0])
        assert_luby_identical(engine, [3, 3, 8, 3], batch)


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


class TestLubyBatchedGraphShapes:
    """Degenerate and multi-edge CSR layouts keep per-trial identity."""

    @pytest.mark.parametrize("adj", GRAPH_SHAPES)
    def test_matches_sequential_keyed_runs(self, adj):
        engine = CSREngine(Network(adj))
        batch = luby_mis_batched(engine, SEEDS[:4])
        assert batch.in_mis.shape == (4, len(adj))
        assert bool(batch.completed.all())
        assert_luby_identical(engine, SEEDS[:4], batch)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, 5])
    def test_multigraph_round_caps_freeze_identically(self, max_rounds):
        engine = CSREngine(Network(multigraph(n=60, extra=120, seed=4)))
        batch = luby_mis_batched(engine, SEEDS, max_rounds=max_rounds)
        assert_luby_identical(engine, SEEDS, batch, max_rounds=max_rounds)


class TestLubyBatchedFaulty:
    def test_crash_and_drop_scenario_identical(self):
        engine = sparse_engine(n=250, deg=6, gseed=5)
        perts = [CrashNodes(fraction=0.05, at_round=3), IIDMessageDrop(p=0.08)]
        bound = bind_all(perts, engine.network, fault_seed=99)
        faults = DenseFaults(engine, bound)
        batch = luby_mis_batched(engine, SEEDS, faults=faults)
        assert_luby_identical(engine, SEEDS, batch, faults=faults)

    def test_full_fault_stack_identical(self):
        # Crashes, a bounded drop window and adversarially muted hubs at once.
        engine = sparse_engine(n=150, deg=8, gseed=6)
        perts = (
            CrashNodes(fraction=0.1, at_round=2),
            IIDMessageDrop(p=0.15, from_round=1, until_round=4),
            MuteHubs(),
        )
        bound = bind_all(perts, engine.network, fault_seed=11)
        faults = DenseFaults(engine, bound)
        batch = luby_mis_batched(engine, SEEDS, faults=faults)
        assert bool(batch.crashed.any())
        assert_luby_identical(engine, SEEDS, batch, faults=faults)

    def test_multigraph_under_crashes_identical(self):
        engine = CSREngine(Network(multigraph()))
        perts = (CrashNodes(fraction=0.1, at_round=1), IIDMessageDrop(p=0.1))
        bound = bind_all(perts, engine.network, fault_seed=2)
        faults = DenseFaults(engine, bound)
        batch = luby_mis_batched(engine, SEEDS, faults=faults)
        assert_luby_identical(engine, SEEDS, batch, faults=faults)

    def test_faulty_mid_phase_caps(self):
        engine = sparse_engine(n=150, deg=5, gseed=9)
        perts = [CrashNodes(fraction=0.06, at_round=2), IIDMessageDrop(p=0.1)]
        bound = bind_all(perts, engine.network, fault_seed=4)
        faults = DenseFaults(engine, bound)
        for cap in (1, 2, 3, 4, 5):
            batch = luby_mis_batched(engine, SEEDS, faults=faults, max_rounds=cap)
            assert_luby_identical(engine, SEEDS, batch, faults=faults, max_rounds=cap)

    @pytest.mark.parametrize("at_round", [1, 3, 5])
    @pytest.mark.parametrize("pool_pairs", [0, 10**9])
    def test_whole_frontier_crash_stops_after_the_odd_round(self, at_round, pool_pairs):
        # Like the engine, a trial whose frontier crashes entirely at the
        # start of an odd round executes that round and no more, on its own
        # and in the communal pool alike.
        engine = sparse_engine(n=150, deg=5, gseed=9)
        bound = bind_all([CrashNodes(fraction=1.0, at_round=at_round)], engine.network, 2)
        faults = DenseFaults(engine, bound)
        batch = luby_mis_batched(engine, SEEDS, faults=faults, pool_pairs=pool_pairs)
        assert_luby_identical(engine, SEEDS, batch, faults=faults)
        running = batch.rounds >= at_round  # trials not finished before the crash
        assert running.any()
        assert (batch.rounds[running] == at_round).all()


@pytest.mark.parametrize(
    "pipeline, adj, kwargs",
    [
        pytest.param(luby_mis, random_sparse_graph(120, 6, seed=5), {},
                     id="luby_mis"),
    ],
)
def test_pipeline_dense_batched_dispatch(pipeline, adj, kwargs):
    """``method="dense-batched"`` through the public pipeline entry points."""
    seeds = SEEDS[:4]
    batch = pipeline(adj, seed=seeds, method="dense-batched", **kwargs)
    assert batch == [pipeline(adj, seed=s, method="dense", **kwargs) for s in seeds]
    with pytest.raises(ValueError, match="unknown method"):
        pipeline(adj, seed=0, method="dense-sharded", **kwargs)


@pytest.mark.parametrize(
    "pipeline, kwargs",
    [
        pytest.param(run_trial_and_fix, {"min_degree": 2}, id="run_trial_and_fix"),
        pytest.param(uniform_splitting,
                     {"spec": UniformSplittingSpec(eps=0.3, min_constrained_degree=8)},
                     id="uniform_splitting"),
    ],
)
@pytest.mark.parametrize("method", ["dense-batched", "dense-sharded"])
def test_pipelines_without_batched_kernel_reject_batched_method(pipeline, kwargs, method):
    # Sinkless orientation and splitting have no trial-batched kernel (a
    # loop of method="dense" runs is faster): the method is unknown there.
    adj = configuration_model_regular(40, 4, seed=1)
    for seed in ([0, 1], 0):
        with pytest.raises(ValueError, match="unknown method"):
            pipeline(adj, seed=seed, method=method, **kwargs)


def test_pipeline_dense_batched_rows_are_valid_and_charged_per_trial():
    adj = random_sparse_graph(150, 8, seed=17)
    ledger = RoundLedger()
    batch = luby_mis(adj, seed=SEEDS[:5], method="dense-batched", ledger=ledger)
    assert len(batch) == 5
    for mis, _ in batch:
        assert is_mis(adj, mis)
    assert len(ledger) == 5
    assert ledger.simulated_total() == sum(rounds for _, rounds in batch)
