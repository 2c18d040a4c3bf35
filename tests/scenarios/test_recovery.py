"""Property tests for the self-stabilizing recovery layer.

Four layers of guarantees:

* **bit-identity** — the ``*_recovering`` variants return identical
  ``(output, rounds, RepairResult)`` tuples on the hooked engine and the
  masked dense kernels, in both fault modes, because the repair drivers
  run one shared vectorized implementation over end-state arrays both
  backends produce bit-identically;
* **bounded truncation** — a ``max_rounds`` cap that lands mid-repair
  stops the tail early on *both* backends at the same round with the same
  partial state (``recovered=False``), and ``cap=0`` disables the tail
  entirely;
* **zero violations** — for every registered crash/drop/Byzantine
  scenario with a settling schedule, ``run_scenario(recover=True)``
  reaches zero contract violations within a bounded repair tail, with
  identical metrics across the scenario's backends;
* **accounting** — repair rounds fold into ``rounds`` (and therefore
  ``rounds_to_recover``), the pre-repair damage is preserved in
  ``violations_before_recovery``, and ``return_state`` exposes the end
  state the certification oracle consumes.
"""

import random

import pytest

from repro.core.problems import UniformSplittingSpec
from repro.scenarios import (
    CorrelatedCrash,
    CorruptMessages,
    CrashNodes,
    IIDMessageDrop,
    RepairResult,
    all_scenarios,
    get_scenario,
    luby_mis_recovering,
    run_scenario,
    sinkless_recovering,
    splitting_recovering,
)

RECOVERING_SCENARIOS = [
    "luby/crash",
    "luby/crash-correlated",
    "luby/crash-shard",
    "luby/byzantine",
    "luby/edge-deletion",
    "sinkless/crash",
    "sinkless/byzantine",
    "splitting/multi-edge",
    "splitting/byzantine",
]


def random_graph(seed, n=24, edges=70):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for _ in range(edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def circulant(n=24, k=3):
    """Deterministic 2k-regular graph (no rejection sampling)."""
    return [
        sorted({(i + d) % n for d in range(1, k + 1)}
               | {(i - d) % n for d in range(1, k + 1)})
        for i in range(n)
    ]


LUBY_STACK = (CrashNodes(0.2, at_round=2), CorruptMessages(p=0.15, until_round=5))
SINKLESS_STACK = (
    CrashNodes(0.15, at_round=2),
    CorruptMessages(p=0.1, from_round=2, until_round=6),
)
SPLITTING_STACK = (CorruptMessages(p=0.1, until_round=1),)
SPLITTING_SPEC = UniformSplittingSpec(eps=0.25, min_constrained_degree=3)


def deterministic(metrics):
    """The metric channels that must be bit-identical across backends."""
    return {k: v for k, v in metrics.items() if not k.endswith("_seconds")}


class TestRecoveringVariantsBitIdentity:
    """engine vs dense: identical (output, rounds, RepairResult)."""

    def test_luby(self):
        for trial in range(4):
            adj = random_graph(100 + trial)
            eng = luby_mis_recovering(adj, LUBY_STACK, seed=trial, method="engine")
            den = luby_mis_recovering(adj, LUBY_STACK, seed=trial, method="dense")
            assert eng == den
            mis, rounds, rep = eng
            assert isinstance(rep, RepairResult)
            assert rep.last_round == rounds
            assert rep.recovered

    def test_sinkless(self):
        adj = circulant(n=24, k=3)
        for seed in (0, 1, 2):
            eng = sinkless_recovering(
                adj, SINKLESS_STACK, min_degree=3, seed=seed, method="engine"
            )
            den = sinkless_recovering(
                adj, SINKLESS_STACK, min_degree=3, seed=seed, method="dense"
            )
            assert eng == den
            assert eng[2].recovered

    def test_splitting(self):
        adj = circulant(n=30, k=4)
        for seed in (0, 1):
            eng = splitting_recovering(
                adj, SPLITTING_SPEC, SPLITTING_STACK, seed=seed, method="engine"
            )
            den = splitting_recovering(
                adj, SPLITTING_SPEC, SPLITTING_STACK, seed=seed, method="dense"
            )
            assert eng == den
            assert eng[2].recovered


class TestBoundedTruncation:
    def _full_and_base(self, adj, seed):
        full = luby_mis_recovering(
            adj, LUBY_STACK, seed=seed, method="dense"
        )
        return full, full[1] - full[2].repair_rounds

    def test_max_rounds_caps_mid_repair_identically(self):
        # Pick a trial whose full repair tail is long enough to truncate.
        for seed in range(20):
            adj = random_graph(200 + seed)
            full, base = self._full_and_base(adj, seed)
            if full[2].repair_rounds > 2:
                break
        else:  # pragma: no cover - the stack above always damages the MIS
            pytest.fail("no trial with a multi-round repair tail")
        capped = base + 2
        eng = luby_mis_recovering(
            adj, LUBY_STACK, seed=seed, method="engine", max_rounds=capped
        )
        den = luby_mis_recovering(
            adj, LUBY_STACK, seed=seed, method="dense",
            max_rounds=capped,
        )
        assert eng == den
        assert not eng[2].recovered
        assert eng[2].last_round <= capped
        assert eng[2].repair_rounds < full[2].repair_rounds

    def test_cap_zero_disables_the_repair_tail(self):
        adj = random_graph(321)
        full, base = self._full_and_base(adj, 3)
        none = luby_mis_recovering(
            adj, LUBY_STACK, seed=3, method="dense", cap=0
        )
        assert none[2].repair_rounds == 0
        assert none[1] == base
        assert not none[2].recovered


class TestRunScenarioRecover:
    @pytest.mark.parametrize("name", RECOVERING_SCENARIOS)
    def test_recovers_to_zero_violations_identically(self, name):
        sc = get_scenario(name)
        per_backend = []
        for backend in sc.backends:
            m = run_scenario(sc, n=60, seed=5, backend=backend,
                             recover=True)
            per_backend.append((backend, m))
            assert m["violations"] == 0, (name, backend)
            assert m["recovered"] == 1, (name, backend)
            assert m["completed"] == 1, (name, backend)
            # Fault-free stacks (quiet horizon 0) omit the channel.
            assert m.get("rounds_to_recover", 0) >= 0
        first = deterministic(per_backend[0][1])
        for backend, m in per_backend[1:]:
            assert deterministic(m) == first, (name, backend)

    def test_repair_rounds_fold_into_round_accounting(self):
        base = run_scenario("luby/byzantine", n=60, seed=5, backend="engine",
                            recover=False)
        rec = run_scenario("luby/byzantine", n=60, seed=5, backend="engine",
                           recover=True)
        assert rec["rounds"] == base["rounds"] + rec["repair_rounds"]
        assert rec["violations_before_recovery"] == base["violations"]
        assert rec["violations"] <= base["violations"]

    def test_return_state_exposes_certifiable_end_state(self):
        _, state = run_scenario("sinkless/byzantine", n=48, seed=2,
                                backend="engine", recover=True,
                                return_state=True)
        assert state["pipeline"] == "sinkless"
        assert set(state) >= {"adjacency", "orientation", "alive",
                              "min_degree", "settles"}
        assert state["settles"] is True
        _, state = run_scenario("luby/churn", n=48, seed=2, backend="engine",
                                recover=True, return_state=True)
        assert state["settles"] is False

    def test_reference_backend_upgrades_to_engine_for_recovery(self):
        eng = run_scenario("luby/crash", n=60, seed=7, backend="engine",
                           recover=True)
        ref = run_scenario("luby/crash", n=60, seed=7, backend="reference",
                           recover=True)
        assert deterministic(ref) == deterministic(eng)

    def test_every_registered_scenario_supports_recovery(self):
        for sc in all_scenarios():
            m = run_scenario(sc, n=48, seed=1, backend=sc.backends[0],
                             recover=True)
            assert m["recovered"] == 1, sc.name
            assert "repair_rounds" in m


class TestPipelineRecoverFlag:
    def test_luby_mis_recover_matches_recovering_variant(self):
        from repro.local import CSREngine, Network
        from repro.mis.luby import luby_mis
        from repro.scenarios import PerturbationHooks, bind_all
        from repro.scenarios.masks import DenseFaults

        adj = random_graph(77)
        net = Network(adj)
        engine = CSREngine(net)
        bound = bind_all(LUBY_STACK, net, fault_seed=4)
        want = luby_mis_recovering(adj, LUBY_STACK, seed=4, method="dense",
                                   engine=engine)
        mis, rounds = luby_mis(adj, seed=4, method="dense",
                               engine=engine,
                               faults=DenseFaults(engine, bound), recover=True)
        assert (mis, rounds) == (want[0], want[1])
        mis, rounds = luby_mis(adj, seed=4, method="engine", engine=engine,
                               hooks=PerturbationHooks(bound), recover=True)
        assert (mis, rounds) == (want[0], want[1])

    def test_sinkless_recover_flag(self):
        from repro.local import CSREngine, Network
        from repro.orientation.sinkless import run_trial_and_fix
        from repro.scenarios import bind_all
        from repro.scenarios.masks import DenseFaults

        adj = circulant(n=24, k=3)
        engine = CSREngine(Network(adj))
        bound = bind_all(SINKLESS_STACK, engine.network, fault_seed=1)
        orientation, rounds = run_trial_and_fix(
            adj, min_degree=3, seed=1, method="dense",
            engine=engine, faults=DenseFaults(engine, bound), recover=True,
        )
        want = sinkless_recovering(adj, SINKLESS_STACK, min_degree=3, seed=1,
                                   method="dense", engine=engine)
        assert (orientation, rounds) == (want[0], want[1])
        assert want[2].recovered

    def test_splitting_recover_flag(self):
        from repro.apps.splitting import uniform_splitting
        from repro.local import CSREngine, Network
        from repro.scenarios import bind_all
        from repro.scenarios.masks import DenseFaults

        adj = circulant(n=30, k=4)
        engine = CSREngine(Network(adj))
        bound = bind_all(SPLITTING_STACK, engine.network, fault_seed=6)
        colors = uniform_splitting(
            adj, SPLITTING_SPEC, method="local", seed=6,
            engine=engine, faults=DenseFaults(engine, bound), recover=True,
        )
        assert len(colors) == 30

    @pytest.mark.parametrize("method", ["engine", "dense"])
    def test_splitting_rejects_zero_attempts(self, method):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            splitting_recovering(
                circulant(n=30, k=4), SPLITTING_SPEC, SPLITTING_STACK,
                method=method, max_attempts=0,
            )

    def test_recover_rejects_unsupported_methods(self):
        # recover=True opens no method of its own: only the methods that
        # run one seed on the engine or the dense kernel are accepted.
        from repro.apps.splitting import uniform_splitting
        from repro.mis.luby import luby_mis
        from repro.orientation.sinkless import run_trial_and_fix

        adj = random_graph(1)
        for method in ("dense-batched", "dense-sharded"):
            with pytest.raises(ValueError, match="unknown method"):
                luby_mis(adj, method=method, recover=True)
            with pytest.raises(ValueError, match="unknown method"):
                run_trial_and_fix(adj, method=method, recover=True)
            with pytest.raises(ValueError, match="unknown method"):
                uniform_splitting(adj, SPLITTING_SPEC, method=method, recover=True)
