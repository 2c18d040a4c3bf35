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
coordinates (the fault masks' set-up) are paid once per cell.

Each pipeline body branches on the backend once, and both branches end
in the same end-state arrays: ``in_mis``/``crashed`` (luby), ``out``/
``crashed`` (sinkless), ``colors``/``crashed``/``accepted`` (splitting).
Contracts, the repair tail, metrics and ``state`` then run once for both
backends, and the repair tail reuses the base run's one
:class:`~repro.scenarios.masks.DenseFaults` (the final attempt's for splitting).

This is the one place that binds a perturbation stack to a pipeline run
and appends a repair tail; the pipeline drivers (``luby_mis``,
``run_trial_and_fix``, ``uniform_splitting``) run fault-free.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.apps.splitting import ZeroRoundSplitting
from repro.bipartite.generators import random_topology
from repro.core.problems import UniformSplittingSpec
from repro.local import BACKENDS
from repro.local.dense import (
    _segment_sum,
    dense_arcs,
    luby_mis_dense,
    sinkless_trial_dense,
    uniform_splitting_dense,
)
from repro.local.engine import CSREngine
from repro.local.network import Network, run_local
from repro.mis.luby import LubyMIS
from repro.obs.hooks import TracingHooks
from repro.orientation.sinkless import (
    TrialAndFixSinkless,
    slot_state_from_views,
    survivor_probe,
    survivors_sink_free,
)
from repro.scenarios.base import PerturbationHooks, bind_all, quiet_after, rewrite_all
from repro.scenarios.contracts import edge_ok_slot_mask, mis_violations, splitting_violations
from repro.scenarios.masks import DenseFaults
from repro.scenarios.recovery import (
    luby_repair,
    sinkless_repair,
    sinkless_violations,
    splitting_repair,
)
from repro.scenarios.registry import Scenario, get_scenario
from repro.utils.rng import ensure_rng
from repro.utils.validation import require

__all__ = ["run_scenario"]

_DEFAULT_DEGREE = {"luby": 8, "sinkless": 4, "splitting": 40}
_MAX_ATTEMPTS = 64  # Las-Vegas attempts of one splitting trial


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
    require(sc.topology in ("sparse", "regular"), f"unknown scenario topology {sc.topology!r}")
    adjacency = random_topology(sc.topology, n, degree, graph_seed)
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
    fault_mode: str = "mask",
    tracer=None,
    recover: bool = False,
    return_state: bool = False,
):
    """Execute one scenario trial and return its resilience metrics.

    ``scenario`` is a registry name or a :class:`Scenario`; ``backend``
    one of :data:`~repro.local.BACKENDS` (``reference`` — hooked
    :func:`run_local`, ``dense`` — masked numpy kernels).  Every scenario
    runs on both, multigraphs and round-1 faults included, and both
    compute the same run bit for bit.  ``fault_mode`` accepts only
    ``"mask"``, the keyed fault coins every run uses; any other value, such
    as the removed replay mode, raises ``ValueError``.  ``adjacency``
    overrides the default scenario graph (the perturbation stack's graph
    rewrites are still applied on top; such runs bypass the cell cache).
    ``seed`` drives both the algorithm's coins and the fault schedule;
    ``graph_seed`` only the topology.  ``degree`` defaults per pipeline:
    8 (luby), 4 (sinkless), 40 (splitting); ``max_rounds`` 10_000 (luby),
    400 (sinkless).  A splitting trial makes at most 64 Las-Vegas
    attempts.  A sinkless base run
    ends at the first round with no surviving sink, at the cap, or
    earlier at a fixed point: once no fault can land and no node is a
    sink in its own view, no node flips again, so the run stops there
    (one ``stalled`` trace event).  A run that ends at the cap or at a
    fixed point is recorded as incomplete, which is data.

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
    certification oracle (:mod:`repro.verify.certify`).  A sinkless state's
    ``orientation`` is the ``(k, 2)`` int64 arc array of
    :func:`~repro.local.dense.dense_arcs`, not a ``Counter``.
    """
    if fault_mode != "mask":
        raise ValueError(
            f"fault_mode={fault_mode!r} is not supported: the replay fault mode was "
            "removed and every fault coin is keyed; 'mask' is the only value"
        )
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    require(backend in BACKENDS, f"unknown backend {backend!r}")
    if degree is None:
        degree = _DEFAULT_DEGREE[sc.pipeline]
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
    if sc.pipeline == "splitting":
        metrics, state = _run_splitting(sc, engine, backend, seed, degree, tracer, recover)
    else:
        run = _run_luby if sc.pipeline == "luby" else _run_sinkless
        metrics, state = run(sc, engine, bound, backend, seed, max_rounds, tracer, recover)
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


def _reference_run(network, algorithm, bound, tracer, **kwargs):
    """One hooked :func:`run_local` of ``algorithm`` under the bound stack,
    traced through :class:`~repro.obs.hooks.TracingHooks` when ``tracer``
    records."""
    hooks = PerturbationHooks(bound)
    if tracer is not None and tracer.enabled:
        hooks = TracingHooks(tracer, inner=hooks)
    return run_local(network, algorithm, hooks=hooks, **kwargs)


def _state_flags(views, key: str) -> np.ndarray:
    """Per-node bool array of one state flag of the reference views."""
    return np.array([bool(v.state.get(key)) for v in views], dtype=bool)


def _repair_metrics(rep, violations_before: int) -> dict:
    return {
        "recovered": int(rep.recovered),
        "repair_rounds": rep.repair_rounds,
        "violations_before_recovery": violations_before,
    }


def _run_luby(sc, engine, bound, backend, seed, max_rounds, tracer, recover):
    network = engine.network
    faults = DenseFaults(engine, bound)
    if backend == "dense":
        result = luby_mis_dense(
            engine, seed=seed, max_rounds=max_rounds, faults=faults, tracer=tracer,
        )
        in_mis, crashed = result.in_mis, result.crashed
    else:
        result = _reference_run(
            network, LubyMIS(), bound, tracer, max_rounds=max_rounds, seed=seed,
        )
        in_mis = _state_flags(result.views, "in_mis")
        crashed = _state_flags(result.views, "crashed")
    rounds, completed = result.rounds, result.completed
    edge_ok = edge_ok_slot_mask(engine, bound)
    metrics = {}
    if recover:
        pre = sum(mis_violations(network, in_mis, alive=~crashed, edge_ok=edge_ok))
        # ``max_rounds`` bounds the base run only: a base run that stalled
        # against its cap is exactly the state repair exists for, so the
        # tail gets its own REPAIR_ROUND_CAP-bounded budget.
        rep = luby_repair(engine, faults, seed, in_mis, crashed, start_round=rounds + 1)
        rounds, completed = rep.last_round, bool(completed) or rep.recovered
        metrics.update(_repair_metrics(rep, pre))
    alive = ~crashed
    in_mis = in_mis & alive
    independence, domination = mis_violations(network, in_mis, alive=alive, edge_ok=edge_ok)
    survivors = int(np.count_nonzero(alive))
    metrics.update({
        "rounds": rounds,
        "completed": int(completed),
        "mis_size": int(np.count_nonzero(in_mis)),
        "survivors": survivors,
        "crashed_nodes": network.n - survivors,
        "independence_violations": independence,
        "domination_violations": domination,
        "violations": independence + domination,
    })
    state = {
        "pipeline": "luby",
        "adjacency": network.adjacency,
        "mis": set(np.flatnonzero(in_mis).tolist()),
        "alive": alive.tolist(),
        "edge_ok": edge_ok,
    }
    return metrics, state


def _run_sinkless(sc, engine, bound, backend, seed, max_rounds, tracer, recover):
    network = engine.network
    min_degree = sc.min_degree
    faults = DenseFaults(engine, bound)
    if backend == "dense":
        result = sinkless_trial_dense(
            engine, min_degree=min_degree, seed=seed, max_rounds=max_rounds,
            faults=faults, strict=False, tracer=tracer,
        )
        out, crashed, completed = result.out, result.crashed, result.completed
    else:
        # The dense kernel's stop: no *alive* node is a full-graph sink (crashes
        # are silent, so an arc into a dead neighbor rightly looks done), or a
        # fixed point.  Residual surviving-subgraph sinks count as violations.
        probe = survivor_probe(
            network.adjacency, min_degree, faults.expired, max_rounds, tracer=tracer,
        )
        result = _reference_run(
            network, TrialAndFixSinkless(min_degree=min_degree), bound, tracer,
            max_rounds=max_rounds, seed=seed, probe=probe,
        )
        completed = result.rounds >= 2 and survivors_sink_free(
            network.adjacency, result.views, min_degree
        )
        out, crashed = slot_state_from_views(engine.offsets, result.views)
    rounds = result.rounds
    metrics = {}
    if recover:
        pre = sinkless_violations(engine, out, crashed, min_degree)
        # Base-run cap only; the repair tail is REPAIR_ROUND_CAP-bounded
        # (a base run stalled by lost or corrupted flips *needs* the tail).
        rep = sinkless_repair(
            engine, faults, seed, out, crashed, min_degree,
            start_round=rounds + 1, tracer=tracer,
        )
        rounds, completed = rep.last_round, bool(completed) or rep.recovered
        metrics.update(_repair_metrics(rep, pre))
    alive = ~crashed
    survivors = int(np.count_nonzero(alive))
    metrics.update({
        "rounds": rounds,
        "completed": int(completed),
        "survivors": survivors,
        "crashed_nodes": network.n - survivors,
        "violations": sinkless_violations(engine, out, crashed, min_degree),
    })
    state = {
        "pipeline": "sinkless",
        "adjacency": network.adjacency,
        "orientation": dense_arcs(engine, out),
        "alive": alive.tolist(),
        "min_degree": min_degree,
    }
    return metrics, state


def _run_splitting(sc, engine, backend, seed, degree, tracer, recover):
    network = engine.network
    spec = UniformSplittingSpec(eps=sc.eps, min_constrained_degree=max(2, degree // 2))
    rng = ensure_rng(seed)
    for attempts in range(1, _MAX_ATTEMPTS + 1):
        run_seed = rng.randrange(2**31)
        # Every attempt is one fresh round-1 execution, so the fault
        # schedule rebinds on the attempt's own seed — otherwise a lossy
        # environment would replay the identical drop pattern against all
        # retries (a frozen adversary instead of an i.i.d. channel).
        bound = bind_all(sc.perturbations, network, fault_seed=run_seed)
        faults = DenseFaults(engine, bound)
        if backend == "dense":
            result = uniform_splitting_dense(
                engine, spec, seed=run_seed, faults=faults, tracer=tracer,
            )
            colors, crashed, accepted = result.colors, result.crashed, result.ok
        else:
            views = _reference_run(
                network, ZeroRoundSplitting(spec), bound, tracer, max_rounds=1, seed=run_seed,
            ).views
            # Output is (color, window ok); crashed nodes keep their init color.
            crashed = _state_flags(views, "crashed")
            colors = np.array([v.state["color"] for v in views], dtype=np.int64)
            accepted = all(
                v.output[1] for v, c in zip(views, crashed) if not c and v.output is not None
            )
        if accepted:
            break
    # Ground truth for the attempt that actually stood (its binding decides
    # the final edge set under edge-dropping perturbations).
    edge_ok = edge_ok_slot_mask(engine, bound)
    rounds = attempts  # one communication round per Las-Vegas attempt
    completed = accepted
    metrics = {}
    if recover:
        pre = len(
            splitting_violations(network, colors, spec, alive=~crashed, edge_ok=edge_ok)
        )
        # Repair continues the final attempt's environment: its binding is
        # the schedule still in force and its run seed keys the repair coins.
        rep = splitting_repair(
            engine, faults, spec, run_seed, colors, crashed, start_round=2,
            edge_ok_mask=edge_ok, violations=pre,
        )
        rounds = attempts + rep.repair_rounds
        completed = bool(accepted) or rep.recovered
        metrics.update(_repair_metrics(rep, pre))
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
