"""Property tests for the self-stabilizing recovery layer.

Four layers of guarantees:

* **bit-identity** — ``run_scenario(recover=True)`` on ad-hoc scenarios
  returns identical metrics and end states on the hooked reference and the
  masked dense kernels, because the repair drivers run one shared
  vectorized implementation over end-state arrays both backends produce
  bit-identically;
* **bounded truncation** — a ``max_rounds`` cap that lands mid-repair
  stops :func:`luby_repair` early at the same round with the same partial
  state (``recovered=False``) from either backend's base end state, and
  ``cap=0`` disables the tail entirely;
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

import numpy as np
import pytest

from repro.apps.splitting import uniform_splitting
from repro.core.problems import UniformSplittingSpec
from repro.local import CSREngine, Network
from repro.mis.luby import luby_mis
from repro.orientation.sinkless import run_trial_and_fix
from repro.scenarios import (
    CorruptMessages,
    CrashNodes,
    Scenario,
    all_scenarios,
    bind_all,
    get_scenario,
    luby_repair,
    run_scenario,
)
from repro.scenarios.masks import DenseFaults

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

#: Ad-hoc scenarios over the stacks above, run on explicit graphs.
LUBY = Scenario("adhoc/luby-recover", "luby", LUBY_STACK)
SINKLESS = Scenario("adhoc/sinkless-recover", "sinkless", SINKLESS_STACK, min_degree=3)
SPLITTING = Scenario("adhoc/splitting-recover", "splitting", SPLITTING_STACK, eps=0.25)
#: (scenario, graph, seed, run_scenario options) per pipeline; for splitting
#: ``degree=6`` gives ``min_constrained_degree=3``.
CASES = {
    "luby": [(LUBY, random_graph(100 + t), t, {}) for t in range(4)],
    "sinkless": [(SINKLESS, circulant(n=24, k=3), s, {}) for s in (0, 1, 2)],
    "splitting": [(SPLITTING, circulant(n=30, k=4), s, {"degree": 6}) for s in (0, 1)],
}


def deterministic(metrics):
    """The metric channels that must be bit-identical across backends."""
    return {k: v for k, v in metrics.items() if not k.endswith("_seconds")}


@pytest.mark.parametrize("pipeline", sorted(CASES))
def test_recovering_run_is_bit_identical_across_backends(pipeline):
    """reference vs dense: identical metrics and full repaired end state."""
    for sc, adj, seed, opts in CASES[pipeline]:
        ref, ref_state = run_scenario(sc, adjacency=adj, seed=seed, backend="reference",
                                      recover=True, return_state=True, **opts)
        den, den_state = run_scenario(sc, adjacency=adj, seed=seed, backend="dense",
                                      recover=True, return_state=True, **opts)
        assert deterministic(ref) == deterministic(den), (pipeline, seed)
        assert ref_state == den_state, (pipeline, seed)
        assert ref["recovered"] == 1 and ref["violations"] == 0
        assert ref["repair_rounds"] <= ref["rounds"]


def luby_base(adj, seed, backend):
    """The base-run end state ``(in_mis, crashed, rounds)`` of one LUBY
    trial on ``backend``, as the repair tail starts from it."""
    metrics, state = run_scenario(LUBY, adjacency=adj, seed=seed, backend=backend,
                                  return_state=True)
    in_mis = np.zeros(len(adj), dtype=bool)
    in_mis[sorted(state["mis"])] = True
    return in_mis, ~np.array(state["alive"]), metrics["rounds"]


def luby_tail(adj, seed, backend="dense", **budget):
    """``(survivors' MIS, RepairResult)`` of luby_repair on the base end state."""
    in_mis, crashed, rounds = luby_base(adj, seed, backend)
    engine = CSREngine(Network(adj))
    faults = DenseFaults(engine, bind_all(LUBY_STACK, engine.network, seed))
    rep = luby_repair(engine, faults, seed, in_mis, crashed, start_round=rounds + 1,
                      **budget)
    return set(np.flatnonzero(in_mis & ~crashed).tolist()), rep


class TestBoundedTruncation:
    def test_full_tail_matches_the_recovering_scenario(self):
        adj = random_graph(321)
        metrics, state = run_scenario(LUBY, adjacency=adj, seed=3, backend="dense",
                                      recover=True, return_state=True)
        mis, rep = luby_tail(adj, 3)
        assert (mis, rep.last_round, rep.repair_rounds) == (
            state["mis"], metrics["rounds"], metrics["repair_rounds"])

    def test_max_rounds_caps_mid_repair_identically(self):
        # Pick a trial whose full repair tail is long enough to truncate.
        for seed in range(20):
            adj = random_graph(200 + seed)
            _, full = luby_tail(adj, seed)
            if full.repair_rounds > 2:
                break
        else:  # pragma: no cover - the stack above always damages the MIS
            pytest.fail("no trial with a multi-round repair tail")
        capped = full.last_round - full.repair_rounds + 2
        ref = luby_tail(adj, seed, "reference", max_rounds=capped)
        den = luby_tail(adj, seed, "dense", max_rounds=capped)
        assert ref == den
        assert not ref[1].recovered
        assert ref[1].last_round <= capped
        assert ref[1].repair_rounds < full.repair_rounds

    def test_cap_zero_disables_the_repair_tail(self):
        adj = random_graph(321)
        _, full = luby_tail(adj, 3)
        none = luby_tail(adj, 3, cap=0)[1]
        assert none.repair_rounds == 0
        assert none.last_round == full.last_round - full.repair_rounds
        assert not none.recovered


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
        base = run_scenario("luby/byzantine", n=60, seed=5, backend="reference",
                            recover=False)
        rec = run_scenario("luby/byzantine", n=60, seed=5, backend="reference",
                           recover=True)
        assert rec["rounds"] == base["rounds"] + rec["repair_rounds"]
        assert rec["violations_before_recovery"] == base["violations"]
        assert rec["violations"] <= base["violations"]

    def test_return_state_exposes_certifiable_end_state(self):
        _, state = run_scenario("sinkless/byzantine", n=48, seed=2,
                                backend="reference", recover=True,
                                return_state=True)
        assert state["pipeline"] == "sinkless"
        assert set(state) >= {"adjacency", "orientation", "alive",
                              "min_degree", "settles"}
        assert state["settles"] is True
        _, state = run_scenario("luby/churn", n=48, seed=2, backend="reference",
                                recover=True, return_state=True)
        assert state["settles"] is False

    def test_recovering_reference_sinkless_matches_dense(self):
        # The sinkless pipeline's reference driver (probe-stopped run_local)
        # feeds the shared repair tail the same end state as the kernel.
        den = run_scenario("sinkless/crash", n=60, seed=7, backend="dense",
                           recover=True)
        ref = run_scenario("sinkless/crash", n=60, seed=7, backend="reference",
                           recover=True)
        assert deterministic(ref) == deterministic(den)

    def test_every_registered_scenario_supports_recovery(self):
        for sc in all_scenarios():
            m = run_scenario(sc, n=48, seed=1, backend=sc.backends[0],
                             recover=True)
            assert m["recovered"] == 1, sc.name
            assert "repair_rounds" in m


@pytest.mark.parametrize("knob", ["hooks", "faults", "recover"])
@pytest.mark.parametrize("pipeline", ["luby", "sinkless", "splitting"])
def test_pipelines_take_no_fault_or_recovery_knobs(pipeline, knob):
    # Faulty and recovering runs have one driver, run_scenario; the
    # pipeline drivers run fault-free.
    adj = circulant(n=30, k=4)
    call = {
        "luby": lambda **kw: luby_mis(adj, method="dense", **kw),
        "sinkless": lambda **kw: run_trial_and_fix(adj, method="dense", **kw),
        "splitting": lambda **kw: uniform_splitting(adj, SPLITTING_SPEC, method="dense",
                                                    **kw),
    }[pipeline]
    with pytest.raises(TypeError, match=knob):
        call(**{knob: True if knob == "recover" else None})
