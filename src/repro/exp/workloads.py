"""Picklable workload functions for the sweep runner.

Every function here is a module-level callable with signature
``fn(seed, **params) -> Dict[str, number]`` so it can cross a process-pool
boundary.  Each runs one algorithm against a *scenario* graph and returns
flat numeric metrics; validity is asserted inside the workload so a sweep
cannot silently record garbage.

Scenario engines are amortized: the packed :class:`CSREngine` for a
``(topology, n, degree, graph_seed)`` cell is built once per worker process
(:func:`scenario_engine`) and reused by every trial of that cell — the
trial seeds drive the algorithms' coins, not the topology.  The trial that
pays the packing reports it through the runner's reserved
``setup_seconds`` metric; cache hits report 0, so the sweep JSON separates
one-off build cost from per-trial solve cost.

Algorithm workloads take a ``backend`` axis (``"reference"`` — the dict
simulator :func:`~repro.local.network.run_local`, ``"dense"`` — the
vectorized numpy kernels; both draw the same keyed coins) so one sweep
JSON can record both side by side.

These are the workloads ``benchmarks/run_experiments.py`` fans out; tests
run them inline through the same entry points.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence, Tuple

from repro.apps.splitting import uniform_splitting
from repro.bipartite.generators import grid_graph, powerlaw_bipartite, random_topology
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.local import BACKENDS
from repro.local.engine import CSREngine
from repro.local.network import Network
from repro.mis.luby import is_mis, luby_mis
from repro.orientation.sinkless import is_sinkless, run_trial_and_fix
from repro.utils.validation import require

__all__ = [
    "build_topology",
    "scenario_engine",
    "luby_mis_workload",
    "sinkless_workload",
    "splitting_workload",
    "engine_throughput_workload",
    "scenario_workload",
]

TOPOLOGIES = ("sparse", "regular", "torus", "grid", "powerlaw")


def build_topology(
    topology: str, n: int, degree: int, seed: int
) -> Sequence[Sequence[int]]:
    """Scenario graph by name; all run in O(m).

    ``sparse``  — Erdős–Rényi G(n, m) with average degree ``degree``;
    ``regular`` — configuration-model ``degree``-regular simple graph;
    ``torus``   — periodic 2-D grid on ~n nodes (4-regular; ``degree`` ignored);
    ``grid``    — open 2-D grid on ~n nodes (``degree`` ignored);
    ``powerlaw``— communication graph of a power-law bipartite instance
    with left degrees in ``[2, degree]``.
    """
    require(topology in TOPOLOGIES, f"unknown topology {topology!r}")
    if topology in ("sparse", "regular"):
        return random_topology(topology, n, degree, seed=seed)
    if topology in ("torus", "grid"):
        side = max(3, int(round(n ** 0.5)))
        return grid_graph(side, side, periodic=(topology == "torus"))
    inst = powerlaw_bipartite(
        n_left=n // 2, n_right=n - n // 2, dmin=2, dmax=max(2, degree), seed=seed
    )
    return inst.adjacency()


# Packed engines per scenario, per worker process.  A sweep touches a
# handful of scenario cells; the cap only guards against unbounded growth
# in long-lived interactive sessions.
_ENGINE_CACHE: Dict[Tuple[str, int, int, int], Tuple[CSREngine, float]] = {}
_ENGINE_CACHE_MAX = 8


def scenario_engine(
    topology: str, n: int, degree: int, graph_seed: int
) -> Tuple[CSREngine, float]:
    """The packed CSR engine for one scenario cell, built once per process.

    Returns ``(engine, setup_seconds)`` where ``setup_seconds`` is the
    topology-generation + CSR-packing time paid by *this* call — 0.0 on a
    cache hit, so callers can forward it straight to the runner's reserved
    ``setup_seconds`` metric.
    """
    key = (topology, int(n), int(degree), int(graph_seed))
    cached = _ENGINE_CACHE.get(key)
    if cached is not None:
        return cached[0], 0.0
    start = time.perf_counter()
    adj = build_topology(topology, n, degree, seed=graph_seed)
    engine = CSREngine(Network(adj))
    setup = time.perf_counter() - start
    if len(_ENGINE_CACHE) >= _ENGINE_CACHE_MAX:
        _ENGINE_CACHE.pop(next(iter(_ENGINE_CACHE)))
    _ENGINE_CACHE[key] = (engine, setup)
    return engine, setup


def luby_mis_workload(
    seed: int,
    topology: str = "sparse",
    n: int = 1000,
    degree: int = 8,
    backend: str = "dense",
    graph_seed: int = 1,
) -> Dict[str, Any]:
    """Luby MIS on the chosen backend; verifies the MIS before reporting."""
    require(backend in BACKENDS, f"unknown backend {backend!r}")
    engine, setup = scenario_engine(topology, n, degree, graph_seed)
    adj = engine.network.adjacency
    start = time.perf_counter()
    mis, rounds = luby_mis(adj, seed=seed, method=backend, engine=engine)
    solve = time.perf_counter() - start
    require(is_mis(adj, mis), "luby produced an invalid MIS")
    m = sum(len(a) for a in adj) // 2
    return {
        "n": len(adj),
        "m": m,
        "rounds": rounds,
        "mis_size": len(mis),
        "solve_seconds": solve,
        "nodes_per_second": len(adj) / solve if solve > 0 else 0.0,
        "setup_seconds": setup,
    }


def sinkless_workload(
    seed: int,
    topology: str = "regular",
    n: int = 1000,
    degree: int = 4,
    backend: str = "dense",
    graph_seed: int = 2,
) -> Dict[str, Any]:
    """Trial-and-fix sinkless orientation on the chosen backend (the
    reference run is probe-driven)."""
    require(backend in BACKENDS, f"unknown backend {backend!r}")
    engine, setup = scenario_engine(topology, n, degree, graph_seed)
    adj = engine.network.adjacency
    start = time.perf_counter()
    orientation, rounds = run_trial_and_fix(
        adj, min_degree=2, seed=seed, method=backend, engine=engine
    )
    solve = time.perf_counter() - start
    require(is_sinkless(adj, orientation, min_degree=2), "orientation has a sink")
    return {
        "n": len(adj),
        # Edge copies: one arc row each.  The sweep's graphs are simple, so
        # this is the distinct-arc count; on a multigraph it counts copies.
        "m": orientation.arcs.shape[0],
        "rounds": rounds,
        "solve_seconds": solve,
        "setup_seconds": setup,
    }


def splitting_workload(
    seed: int,
    topology: str = "sparse",
    n: int = 500,
    degree: int = 40,
    eps: float = 0.25,
    backend: str = "dense",
    graph_seed: int = 3,
) -> Dict[str, Any]:
    """Las-Vegas uniform splitting (Section 4.1) on the chosen backend."""
    require(backend in BACKENDS, f"unknown backend {backend!r}")
    engine, setup = scenario_engine(topology, n, degree, graph_seed)
    adj = engine.network.adjacency
    spec = UniformSplittingSpec(eps=eps, min_constrained_degree=max(2, degree // 2))
    start = time.perf_counter()
    partition = uniform_splitting(adj, spec, method=backend, seed=seed, engine=engine)
    solve = time.perf_counter() - start
    violations = uniform_splitting_violations(adj, partition, spec)
    require(not violations, f"splitting left {len(violations)} violated nodes")
    return {
        "n": len(adj),
        "constrained": sum(1 for a in adj if spec.constrains(len(a))),
        "violations": len(violations),
        "solve_seconds": solve,
        "setup_seconds": setup,
    }


def scenario_workload(
    seed: int,
    scenario: str = "luby/crash",
    n: int = 600,
    degree: int = None,
    backend: str = "dense",
    graph_seed: int = 5,
    recover: bool = False,
    trace_out: str = None,
) -> Dict[str, Any]:
    """One registered fault/adversary scenario trial (see
    :mod:`repro.scenarios`): the ``scenario=`` axis of a sweep.

    ``recover=True`` appends the self-stabilizing repair tail
    (:mod:`repro.scenarios.recovery`) after the base run, adding the
    ``recovered`` / ``repair_rounds`` / ``violations_before_recovery``
    channels — the plain-vs-recovering comparison the resilience tables
    curate.

    The trial seed drives both the algorithm's coins and the deterministic
    fault schedule.  The returned metrics are the scenario runner's resilience channels
    (``violations``, ``survivors``, ``rounds_to_recover``, ...) which land
    in the BENCH json next to the throughput numbers.  Scenario graphs are
    rewritten per scenario (relabelings, multi-edge lifts), so these cells
    use the scenario runner's own per-cell cache instead of
    :func:`scenario_engine`'s.

    ``trace_out``, when set, records round-level trace records for this
    trial (tagged with the trial seed, backend and scenario) and appends
    them to that JSONL path — torn-write-safe, so concurrent pool workers
    appending to one file cannot corrupt earlier records.
    """
    from repro.scenarios import run_scenario

    tracer = None
    if trace_out:
        from repro.obs import Tracer

        tracer = Tracer(trial=seed, backend=backend, scenario=scenario)
    metrics = run_scenario(
        scenario, n=n, degree=degree, seed=seed, graph_seed=graph_seed,
        backend=backend, recover=recover, tracer=tracer,
    )
    if tracer is not None:
        tracer.flush(trace_out)
    return metrics


def engine_throughput_workload(
    seed: int,
    topology: str = "sparse",
    n: int = 10_000,
    degree: int = 20,
    graph_seed: int = 4,
) -> Dict[str, Any]:
    """Reference vs dense on Luby MIS over one fixed graph.

    This is the perf-trajectory metric CI tracks across PRs: both
    executors run the same scenario, the runs are asserted bit-identical,
    and ``speedup`` is their wall-clock ratio, reference/dense.
    """
    engine, setup = scenario_engine(topology, n, degree, graph_seed)
    adj = engine.network.adjacency

    start = time.perf_counter()
    reference = luby_mis(adj, seed=seed, method="reference", engine=engine)
    t_reference = time.perf_counter() - start

    start = time.perf_counter()
    dense = luby_mis(adj, seed=seed, method="dense", engine=engine)
    t_dense = time.perf_counter() - start

    require(dense == reference, "dense kernel diverged from reference")
    require(is_mis(adj, dense[0]), "dense kernel produced an invalid MIS")
    return {
        "n": engine.n,
        "m": int(engine.offsets[-1]) // 2,
        "rounds": dense[1],
        "reference_seconds": t_reference,
        "dense_seconds": t_dense,
        "speedup": t_reference / t_dense if t_dense > 0 else 0.0,
        "setup_seconds": setup,
    }
