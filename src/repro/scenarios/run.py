"""Scenario execution: drive a pipeline under a perturbation stack.

:func:`run_scenario` is the single entry point: it resolves a registered
:class:`~repro.scenarios.registry.Scenario` (or takes one directly), builds
the scenario graph, applies the stack's graph rewrites, binds the fault
schedule to the trial seed, executes the pipeline on the requested backend
and returns a flat dict of **resilience metrics** — the shape the sweep
runner (:mod:`repro.exp`) records straight into the BENCH json:

* ``rounds`` / ``completed`` — how long the run took and whether every
  surviving node decided;
* ``violations`` — contract defects on the surviving graph (plus
  pipeline-specific splits such as ``independence_violations``);
* ``survivors`` / ``crashed_nodes`` — who is left;
* ``rounds_to_recover`` — rounds executed after the last fault injection
  (only for schedules that settle);
* solution quality (``mis_size``, ``attempts``, ...) and the standard
  ``solve_seconds`` / ``setup_seconds`` timing channels.

Fault coins and node coins are both keyed by the trial ``seed``, under
disjoint labels (see :func:`~repro.utils.rng.keyed_u01`), so one seed axis
drives the whole trial reproducibly and every backend computes the same
run bit for bit.

Scenario cells are amortized like the :func:`~repro.exp.workloads.scenario_engine`
cache: the built network and its :class:`~repro.local.engine.CSREngine`
for one ``(scenario, n, degree, graph_seed)`` cell are cached per process
and reused across trial seeds — only the seeds drive coins and fault
schedules, so validation, packing and the engine's cached slot
coordinates (the fault masks' set-up) are paid once per cell.  Every
backend reads the engine: the dense kernels run on it, and the repair
tails and round-1 fault checks of both backends use its slot layout.

This is the one place that binds a perturbation stack to a pipeline run
and appends a repair tail; the pipeline drivers (``luby_mis``,
``run_trial_and_fix``, ``uniform_splitting``) run fault-free.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.apps.splitting import ZeroRoundSplitting
from repro.bipartite.generators import configuration_model_regular, random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.local.engine import CSREngine
from repro.local.network import Network, run_local
from repro.mis.luby import LubyMIS
from repro.obs.hooks import TracingHooks
from repro.orientation.sinkless import (
    TrialAndFixSinkless,
    slot_state_from_views,
    survivors_sink_free,
)
from repro.scenarios.base import PerturbationHooks, bind_all, quiet_after, rewrite_all
from repro.scenarios.contracts import (
    alive_mask,
    edge_ok_slot_mask,
    final_edge_ok,
    mis_violations,
    orientation_from_views,
    splitting_violations,
    surviving_sinks,
)
from repro.scenarios.registry import Scenario, get_scenario
from repro.utils.rng import ensure_rng
from repro.utils.validation import require

__all__ = ["run_scenario"]

_DEFAULT_DEGREE = {"luby": 8, "sinkless": 4, "splitting": 40}


def _scenario_adjacency(sc: Scenario, n: int, degree: int, graph_seed: int):
    if sc.topology == "regular":
        if n * degree % 2:
            n += 1
        return configuration_model_regular(n, degree, seed=graph_seed)
    require(sc.topology == "sparse", f"unknown scenario topology {sc.topology!r}")
    return random_sparse_graph(n, float(degree), seed=graph_seed)


# Per-process cell cache: the engine (and its network) for one
# (scenario, n, degree, graph_seed) cell, reused across trial seeds
# (the seeds drive coins and fault schedules, never the topology).  Keyed by
# the Scenario object itself — registered scenarios are module singletons,
# ad-hoc ones simply miss.  Small FIFO cap: a sweep touches a handful of
# cells per worker.
_CELL_CACHE: dict = {}
_CELL_CACHE_MAX = 4


def _scenario_cell(sc: Scenario, n: int, degree: int, graph_seed: int):
    """``(engine, setup_seconds)`` for one scenario cell.

    ``setup_seconds`` is the graph build + rewrite + packing time paid by
    *this* call (0.0 on a cache hit).
    """
    key = (sc, int(n), int(degree), int(graph_seed))
    engine = _CELL_CACHE.get(key)
    if engine is not None:
        return engine, 0.0
    setup_start = time.perf_counter()
    adjacency = _scenario_adjacency(sc, n, degree, graph_seed)
    adjacency, ids = rewrite_all(sc.perturbations, adjacency)
    engine = CSREngine(Network(adjacency, ids=ids))
    if len(_CELL_CACHE) >= _CELL_CACHE_MAX:
        _CELL_CACHE.pop(next(iter(_CELL_CACHE)))
    _CELL_CACHE[key] = engine
    return engine, time.perf_counter() - setup_start


def run_scenario(
    scenario: Union[str, Scenario],
    n: int = 600,
    degree: Optional[int] = None,
    seed: int = 0,
    graph_seed: int = 1,
    backend: str = "dense",
    adjacency=None,
    max_rounds: Optional[int] = None,
    max_attempts: int = 64,
    fault_mode: str = "mask",
    tracer=None,
    recover: bool = False,
    return_state: bool = False,
):
    """Execute one scenario trial and return its resilience metrics.

    ``scenario`` is a registry name or a :class:`Scenario`;
    ``backend`` one of the scenario's supported executors (``reference`` —
    hooked :func:`run_local`, ``dense`` — masked numpy kernels); both
    compute the same run bit for bit.  ``fault_mode`` accepts only ``"mask"``, the keyed fault
    coins every run uses; any other value, such as the removed replay mode,
    raises ``ValueError``.  ``adjacency`` overrides the default scenario graph (the perturbation
    stack's graph rewrites are still applied on top; such runs bypass the
    cell cache).  ``seed`` drives both the algorithm's coins and the fault
    schedule; ``graph_seed`` only the topology.  ``max_rounds`` defaults
    per pipeline: 10_000 (luby), 400 (sinkless — a run that has not
    recovered by then is recorded as incomplete, which is data).

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`; None by default) records
    one round record per executed round — via
    :class:`~repro.obs.hooks.TracingHooks` on the reference backend, via the
    kernels' own trace points on the dense backend — plus a final
    ``result`` event carrying this trial's metrics.

    ``recover=True`` runs the pipeline's *recovering* variant: after the
    base run the self-stabilizing repair layer
    (:mod:`repro.scenarios.recovery`) executes detect-and-repair rounds
    under the same fault schedule (round numbering continues, so late
    faults keep landing).  ``rounds`` then includes the repair tail (and
    so does ``rounds_to_recover``), ``violations`` is recomputed on the
    repaired state, and the metrics gain ``recovered``/``repair_rounds``/
    ``violations_before_recovery``.  The sinkless repair tail traces its
    rounds like the base run; the other repair tails are not traced.

    ``return_state=True`` returns ``(metrics, state)`` where ``state``
    holds the end state the contract was judged on (``alive`` plus the
    pipeline's solution and parameters) — the input shape of the exact
    certification oracle (:mod:`repro.verify.certify`).
    """
    if fault_mode != "mask":
        raise ValueError(
            f"fault_mode={fault_mode!r} is not supported: the replay fault mode was "
            "removed and every fault coin is keyed; 'mask' is the only value"
        )
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    require(
        backend in sc.backends,
        f"scenario {sc.name!r} supports backends {sc.backends}, got {backend!r}",
    )
    require(max_attempts >= 1, f"max_attempts must be >= 1, got {max_attempts}")
    if degree is None:
        degree = sc.degree if sc.degree is not None else _DEFAULT_DEGREE[sc.pipeline]
    if max_rounds is None:
        max_rounds = 400 if sc.pipeline == "sinkless" else 10_000

    if adjacency is None:
        engine, setup_seconds = _scenario_cell(sc, n, degree, graph_seed)
    else:
        setup_start = time.perf_counter()
        adjacency, ids = rewrite_all(sc.perturbations, adjacency)
        engine = CSREngine(Network(adjacency, ids=ids))
        setup_seconds = time.perf_counter() - setup_start
    network = engine.network

    bound = bind_all(sc.perturbations, network, fault_seed=seed)
    quiet = quiet_after(bound)

    solve_start = time.perf_counter()
    if sc.pipeline == "luby":
        metrics, state = _run_luby(
            sc, network, engine, bound, backend, seed, max_rounds,
            tracer=tracer, recover=recover,
        )
    elif sc.pipeline == "sinkless":
        metrics, state = _run_sinkless(
            sc, network, engine, bound, backend, seed, max_rounds,
            tracer=tracer, recover=recover,
        )
    else:
        metrics, state = _run_splitting(
            sc, network, engine, backend, seed, degree, max_attempts,
            tracer=tracer, recover=recover,
        )
    metrics["solve_seconds"] = time.perf_counter() - solve_start

    metrics["n"] = network.n
    metrics["m"] = int(network.offsets[-1]) // 2
    metrics["setup_seconds"] = setup_seconds
    if quiet is not None and quiet > 0:
        # Rounds the run needed after the last fault injection; omitted for
        # never-settling schedules (quiet=None) and fault-free stacks.
        metrics["rounds_to_recover"] = max(0, metrics["rounds"] - quiet)
    if sc.strict:
        require(
            metrics["violations"] == 0,
            f"strict scenario {sc.name!r} produced {metrics['violations']} violations",
        )
        require(
            metrics["completed"] == 1,
            f"strict scenario {sc.name!r} did not complete",
        )
    if tracer is not None and tracer.enabled:
        tracer.event("result", **metrics)
    if return_state:
        # Settling schedules back the recovery layer's zero-violation
        # guarantee; never-settling ones only promise best-effort repair.
        state["settles"] = quiet is not None
        return metrics, state
    return metrics


def _run_luby(sc, network, engine, bound, backend, seed, max_rounds, tracer=None,
              recover=False):
    edge_ok = final_edge_ok(bound)
    if backend == "dense":
        from repro.local.dense import luby_mis_dense
        from repro.scenarios.masks import DenseFaults

        result = luby_mis_dense(
            engine, seed=seed, max_rounds=max_rounds,
            faults=DenseFaults(engine, bound), tracer=tracer,
        )
        alive = (~result.crashed).tolist()
        mis = set(np.flatnonzero(result.in_mis).tolist())
        completed = result.completed
        rounds = result.rounds
    else:
        hooks = PerturbationHooks(bound)
        if tracer is not None and tracer.enabled:
            hooks = TracingHooks(tracer, inner=hooks)
        result = run_local(network, LubyMIS(), max_rounds=max_rounds, seed=seed, hooks=hooks)
        alive = alive_mask(result.views)
        mis = {
            i
            for i, v in enumerate(result.views)
            if alive[i] and v.state.get("in_mis")
        }
        completed = result.completed
        rounds = result.rounds
    metrics = {}
    if recover:
        from repro.scenarios.masks import DenseFaults
        from repro.scenarios.recovery import luby_repair

        if backend == "dense":
            in_mis = result.in_mis
            crashed = result.crashed
        else:
            in_mis = np.array([bool(v.state.get("in_mis")) for v in result.views])
            crashed = np.array([bool(v.state.get("crashed")) for v in result.views])
        pre_ind, pre_dom = mis_violations(network, mis, alive=alive, edge_ok=edge_ok)
        # ``max_rounds`` bounds the base run only: a base run that stalled
        # against its cap is exactly the state repair exists for, so the
        # tail gets its own REPAIR_ROUND_CAP-bounded budget.
        rep = luby_repair(
            engine, DenseFaults(engine, bound), seed, in_mis,
            crashed, start_round=rounds + 1,
        )
        alive = (~crashed).tolist()
        mis = set(np.flatnonzero(in_mis & ~crashed).tolist())
        rounds = rep.last_round
        completed = bool(completed) or rep.recovered
        metrics["recovered"] = int(rep.recovered)
        metrics["repair_rounds"] = rep.repair_rounds
        metrics["violations_before_recovery"] = pre_ind + pre_dom
    independence, domination = mis_violations(network, mis, alive=alive, edge_ok=edge_ok)
    survivors = sum(alive)
    metrics.update({
        "rounds": rounds,
        "completed": int(completed),
        "mis_size": len(mis),
        "survivors": survivors,
        "crashed_nodes": network.n - survivors,
        "independence_violations": independence,
        "domination_violations": domination,
        "violations": independence + domination,
    })
    state = {
        "pipeline": "luby",
        "adjacency": network.adjacency,
        "mis": mis,
        "alive": alive,
        "edge_ok": edge_ok,
    }
    return metrics, state


def _round_one_delivers_clean(b, engine) -> bool:
    """Whether perturbation ``b`` delivers every round-1 message.

    Trusts the ``drops_messages`` capability flag like
    :class:`~repro.scenarios.masks.DenseFaults` does, then asks the
    vectorized mask over the engine's slot coordinates; a perturbation
    without one falls back to its pure per-message decision.
    """
    if not b.drops_messages:
        return True
    senders, ports, _ = engine.slot_layout()
    mask = b.delivers_mask(1, senders, ports)
    if mask is NotImplemented:
        return all(b.delivers(1, int(s), int(p)) for s, p in zip(senders, ports))
    return mask is None or bool(mask.all())


def _round_one_corruption_free(b, engine) -> bool:
    """Whether perturbation ``b`` leaves every round-1 payload intact."""
    if not getattr(b, "corrupts_messages", False):
        return True
    senders, ports, _ = engine.slot_layout()
    mask = b.corrupts_mask(1, senders, ports)
    if mask is NotImplemented:
        return not any(b.corrupts(1, int(s), int(p)) for s, p in zip(senders, ports))
    return mask is None or not bool(mask.any())


def _run_sinkless(sc, network, engine, bound, backend, seed, max_rounds, tracer=None,
                  recover=False):
    adjacency = network.adjacency
    min_degree = sc.min_degree
    # Fault schedules for sinkless must leave round 1 (the proposal
    # exchange) clean — the dense kernel's fault window starts at round 2,
    # so a round-1 fault would silently diverge between backends instead of
    # degrading gracefully.  Enforce it as a loud error rather than wrong
    # data (vectorized over the engine's slot coordinates).
    for b in bound:
        require(
            not tuple(b.crashes(1)),
            "sinkless scenarios must leave round 1 clean: schedule crashes "
            "from round 2 on (e.g. CrashNodes(at_round=2))",
        )
        require(
            _round_one_delivers_clean(b, engine),
            "sinkless scenarios must leave round 1 clean: start message "
            "faults from round 2 (e.g. IIDMessageDrop(from_round=2))",
        )
        require(
            _round_one_corruption_free(b, engine),
            "sinkless scenarios must leave round 1 clean: start Byzantine "
            "corruption from round 2 (e.g. CorruptMessages(from_round=2))",
        )
    # Recovery dynamics start with the fix rounds.
    if backend == "dense":
        from repro.local.dense import sinkless_trial_dense
        from repro.scenarios.masks import DenseFaults

        result = sinkless_trial_dense(
            engine, min_degree=min_degree, seed=seed,
            max_rounds=max_rounds, faults=DenseFaults(engine, bound),
            strict=False, tracer=tracer,
        )
        out, crashed = result.out, result.crashed
        completed = result.completed
        rounds = result.rounds
    else:
        hooks = PerturbationHooks(bound)
        if tracer is not None and tracer.enabled:
            hooks = TracingHooks(tracer, inner=hooks)

        # Stop when no *alive* node is a full-graph sink — the strongest
        # condition the algorithm can reach: crashes are silent, so a node
        # whose outgoing edge leads to a dead neighbor rightly believes it
        # is done.  Residual surviving-subgraph sinks are recorded as
        # violations below.  (This is exactly the dense kernel's probe.)
        def probe(round_no: int, views) -> bool:
            return round_no >= 2 and survivors_sink_free(adjacency, views, min_degree)

        result = run_local(
            network, TrialAndFixSinkless(min_degree=min_degree),
            max_rounds=max_rounds, seed=seed, hooks=hooks, probe=probe,
        )
        rounds = result.rounds
        completed = rounds >= 2 and survivors_sink_free(adjacency, result.views, min_degree)
        if recover:
            out, crashed = slot_state_from_views(engine.offsets, result.views)
        else:
            alive = alive_mask(result.views)
            orientation = orientation_from_views(adjacency, result.views)
    metrics = {}
    if recover:
        from repro.scenarios.masks import DenseFaults
        from repro.scenarios.recovery import sinkless_repair, sinkless_violations

        pre = sinkless_violations(engine, out, crashed, min_degree)
        # Base-run cap only; the repair tail is REPAIR_ROUND_CAP-bounded
        # (a base run livelocked by corrupted flips *needs* the tail).
        rep = sinkless_repair(
            engine, DenseFaults(engine, bound), seed, out,
            crashed, min_degree, start_round=rounds + 1, tracer=tracer,
        )
        rounds = rep.last_round
        completed = bool(completed) or rep.recovered
        metrics["recovered"] = int(rep.recovered)
        metrics["repair_rounds"] = rep.repair_rounds
        metrics["violations_before_recovery"] = pre
    if recover or backend == "dense":
        from repro.local.dense import dense_orientation

        alive = (~crashed).tolist()
        orientation = dense_orientation(engine, out)
    remaining = surviving_sinks(network, orientation, alive, min_degree)
    survivors = sum(alive)
    metrics.update({
        "rounds": rounds,
        "completed": int(completed),
        "survivors": survivors,
        "crashed_nodes": network.n - survivors,
        "violations": len(remaining),
    })
    state = {
        "pipeline": "sinkless",
        "adjacency": adjacency,
        "orientation": orientation,
        "alive": alive,
        "min_degree": min_degree,
    }
    return metrics, state


def _run_splitting(sc, network, engine, backend, seed, degree, max_attempts, tracer=None,
                   recover=False):
    spec = UniformSplittingSpec(eps=sc.eps, min_constrained_degree=max(2, degree // 2))
    rng = ensure_rng(seed)
    if backend == "dense":
        from repro.local.dense import uniform_splitting_dense
        from repro.scenarios.masks import DenseFaults
    for attempts in range(1, max_attempts + 1):
        run_seed = rng.randrange(2**31)
        # Every attempt is one fresh round-1 execution, so the fault
        # schedule rebinds on the attempt's own seed — otherwise a lossy
        # environment would replay the identical drop pattern against all
        # retries (a frozen adversary instead of an i.i.d. channel).
        attempt_bound = bind_all(sc.perturbations, network, fault_seed=run_seed)
        if backend == "dense":
            result = uniform_splitting_dense(
                engine, spec, seed=run_seed,
                faults=DenseFaults(engine, attempt_bound),
                tracer=tracer,
            )
            accepted = result.ok
        else:
            hooks = PerturbationHooks(attempt_bound)
            if tracer is not None and tracer.enabled:
                hooks = TracingHooks(tracer, inner=hooks)
            result = run_local(
                network, ZeroRoundSplitting(spec), max_rounds=1, seed=run_seed, hooks=hooks,
            )
            alive = alive_mask(result.views)
            accepted = all(
                v.output[1]
                for i, v in enumerate(result.views)
                if alive[i] and v.output is not None
            )
        if accepted:
            break
    # Only the attempt that stood is converted to the end state.
    if backend == "dense":
        colors = result.colors.astype(np.int64)
        crashed = result.crashed.copy()
    else:
        colors = np.array([
            v.output[0] if alive[i] and v.output is not None else v.state.get("color")
            for i, v in enumerate(result.views)
        ], dtype=np.int64)
        crashed = ~np.array(alive, dtype=bool)
    # Ground truth for the attempt that actually stood (its binding decides
    # the final edge set under edge-dropping perturbations).
    edge_ok = final_edge_ok(attempt_bound)
    rounds = attempts  # one communication round per Las-Vegas attempt
    completed = accepted
    metrics = {}
    if recover:
        from repro.scenarios.masks import DenseFaults
        from repro.scenarios.recovery import splitting_repair

        pre = len(
            splitting_violations(network, colors, spec, alive=~crashed, edge_ok=edge_ok)
        )
        # Repair continues the final attempt's environment: its binding is
        # the schedule still in force and its run seed keys the repair coins.
        rep = splitting_repair(
            engine, DenseFaults(engine, attempt_bound), spec,
            run_seed, colors, crashed, start_round=2,
            edge_ok_mask=edge_ok_slot_mask(engine, attempt_bound),
        )
        rounds = attempts + rep.repair_rounds
        completed = bool(accepted) or rep.recovered
        metrics["recovered"] = int(rep.recovered)
        metrics["repair_rounds"] = rep.repair_rounds
        metrics["violations_before_recovery"] = pre
    from repro.local.dense import _segment_sum

    alive = ~crashed
    bad = splitting_violations(network, colors, spec, alive=alive, edge_ok=edge_ok)
    survivors = int(np.count_nonzero(alive))
    alive_degree = _segment_sum(alive[network.dst_node].astype(np.int64), network.offsets)
    constrained = int(np.count_nonzero(alive & spec.constrains(alive_degree)))
    metrics.update({
        "rounds": rounds,
        "completed": int(completed),
        "attempts": attempts,
        "accepted": int(accepted),
        "survivors": survivors,
        "crashed_nodes": network.n - survivors,
        "constrained": constrained,
        "violations": len(bad),
    })
    state = {
        "pipeline": "splitting",
        "adjacency": network.adjacency,
        "partition": colors.tolist(),
        "alive": alive.tolist(),
        "spec": spec,
        "edge_ok": edge_ok,
    }
    return metrics, state
