"""The benchmark's three workloads over the library's public calls.

Every input is generated here from the workload seed; the library only
receives the generated graphs and trial seeds.  A workload's ops are a
fixed set drawn from the seed, and every round of a run repeats the same
set, so each op is timed several times on identical work.  All pipelines
run the per-trial ``method="dense"`` path on a prebuilt ``engine=``, the fastest
path every pipeline and fault stack supports.  Each call into a library
layer is wrapped in a tracer span named after that layer (see
:mod:`spans`); the untraced run's spans are no-ops.

* ``cold_build`` — the one-shot job: each op generates, validates and
  packs a fresh graph, solves it once and verifies the result.  Build is
  most of an op, so it stresses generate, validate and pack.  It reuses
  nothing, so its set-up is one such op per pipeline.
* ``hot_sweep`` — one cell of a multi-seed sweep: set-up builds one graph
  per pipeline, each op is one seed's solve and verify on it.  It stresses
  the kernels, the coins and the verifiers.
* ``faulty_recover`` — recovering scenarios that settle, on the dense
  backend with mask-mode faults.  It runs the same kernels under fault and
  corruption masks, repair tails and the scenario contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from outcheck import (
    Graph,
    mis_problem,
    orientation_problem,
    scenario_problem,
    splitting_problem,
)
from repro.apps.splitting import uniform_splitting
from repro.bipartite.generators import configuration_model_regular, random_sparse_graph
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.local.engine import CSREngine
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.mis.luby import is_mis, luby_mis
from repro.orientation.sinkless import is_sinkless, run_trial_and_fix
from repro.scenarios.run import run_scenario
from spans import PIPELINES

SPLIT_SPEC = UniformSplittingSpec(eps=0.35, min_constrained_degree=30)
SINKLESS_MIN_DEGREE = 2

#: Recovering scenarios that settle, one cell per pipeline.
SCENARIOS = {"luby": "luby/byzantine", "sinkless": "sinkless/crash",
             "split": "splitting/byzantine"}

# Salts that keep the seed streams of ops, graphs and warm-up calls apart.
_OPS, _GRAPHS, _SETUP_TRIALS = 0, 1, 2


def derive(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a path of indices."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


class OutputRejected(Exception):
    """The library's own verifier rejected the library's output."""


@dataclass(frozen=True)
class Shape:
    """Graph size of one pipeline: 4-regular for sinkless, sparse otherwise."""

    n: int
    degree: int

    def generate(self, pipeline: str, seed: int):
        if pipeline == "sinkless":
            return configuration_model_regular(self.n, self.degree, seed=seed)
        return random_sparse_graph(self.n, float(self.degree), seed=seed)


@dataclass(frozen=True)
class Op:
    pipeline: str
    graph_seed: Optional[int]
    trial_seed: int


def build(pipeline: str, shape: Shape, graph_seed: int, tracer):
    """Generate, validate and pack one graph; returns ``(adjacency, engine)``."""
    with tracer.span("generate", pipeline) as attrs:
        adjacency = shape.generate(pipeline, graph_seed)
    if tracer.enabled:
        attrs["slots"] = sum(map(len, adjacency))
    with tracer.span("validate", pipeline):
        network = Network(adjacency)
    with tracer.span("pack", pipeline):
        engine = CSREngine(network)
        engine.dense_arrays()
    return adjacency, engine


def solve_and_verify(pipeline: str, adjacency, engine, trial_seed: int, tracer):
    """One dense solve on a packed engine, then the library's verifier."""
    if pipeline == "luby":
        with tracer.span("solve", pipeline) as attrs:
            out, attrs["rounds"] = luby_mis(
                adjacency, seed=trial_seed, method="dense", engine=engine
            )
        with tracer.span("verify", pipeline):
            ok = is_mis(adjacency, out)
    elif pipeline == "sinkless":
        with tracer.span("solve", pipeline) as attrs:
            out, attrs["rounds"] = run_trial_and_fix(
                adjacency, min_degree=SINKLESS_MIN_DEGREE, seed=trial_seed,
                method="dense", engine=engine,
            )
        with tracer.span("verify", pipeline):
            ok = is_sinkless(adjacency, out, SINKLESS_MIN_DEGREE)
    else:
        ledger = RoundLedger()
        with tracer.span("solve", pipeline) as attrs:
            out = uniform_splitting(
                adjacency, SPLIT_SPEC, ledger=ledger, method="dense",
                seed=trial_seed, engine=engine,
            )
        attrs["attempts"] = len(ledger)
        attrs["useful_ratio"] = 1.0 / len(ledger)  # one accepted attempt
        with tracer.span("verify", pipeline):
            ok = not uniform_splitting_violations(adjacency, out, SPLIT_SPEC)
    if not ok:
        raise OutputRejected(f"the library's verifier rejected a {pipeline} output")
    return out


def solution_problem(pipeline: str, graph: Graph, out) -> Optional[str]:
    """The benchmark's own check of a clean-pipeline output."""
    if pipeline == "luby":
        return mis_problem(graph, out)
    if pipeline == "sinkless":
        return orientation_problem(graph, out, SINKLESS_MIN_DEGREE)
    return splitting_problem(
        graph, out, SPLIT_SPEC.eps, SPLIT_SPEC.min_constrained_degree
    )


class ColdBuild:
    """Each op builds a fresh graph, solves it once and verifies it."""

    name = "cold_build"

    def __init__(self, shapes: Dict[str, Shape], ops_per_pipeline: int = 1):
        self.shapes = shapes
        self.ops_per_pipeline = ops_per_pipeline

    def setup(self, seed: int, rep: int, tracer) -> None:
        """Nothing is reused across ops, so set-up is one op of each
        pipeline at the workload's sizes, on graphs no measured op builds."""
        for k, p in enumerate(PIPELINES):
            op = Op(p, derive(seed, _SETUP_TRIALS, rep, k, 0),
                    derive(seed, _SETUP_TRIALS, rep, k, 1))
            self.run(op, tracer)

    def prepare_checks(self) -> None:
        pass

    def ops(self, seed: int) -> List[Op]:
        return [
            Op(p, derive(seed, _OPS, k, t, 0), derive(seed, _OPS, k, t, 1))
            for t in range(self.ops_per_pipeline)
            for k, p in enumerate(PIPELINES)
        ]

    def run(self, op: Op, tracer):
        adjacency, engine = build(op.pipeline, self.shapes[op.pipeline], op.graph_seed, tracer)
        return adjacency, solve_and_verify(op.pipeline, adjacency, engine, op.trial_seed, tracer)

    def check(self, op: Op, output) -> Optional[str]:
        adjacency, out = output
        return solution_problem(op.pipeline, Graph.from_adjacency(adjacency), out)


class HotSweep:
    """Set-up packs one graph per pipeline; each op is one seed on it."""

    name = "hot_sweep"

    def __init__(self, shapes: Dict[str, Shape], ops_per_pipeline: int = 1):
        self.shapes = shapes
        self.ops_per_pipeline = ops_per_pipeline
        self.cells: Dict[str, tuple] = {}
        self.graphs: Dict[str, Graph] = {}

    def setup(self, seed: int, rep: int, tracer) -> None:
        self.cells = {}  # drop the previous repetition's graphs first
        for k, p in enumerate(PIPELINES):
            self.cells[p] = build(p, self.shapes[p], derive(seed, _GRAPHS, k), tracer)

    def prepare_checks(self) -> None:
        self.graphs = {p: Graph.from_adjacency(adj) for p, (adj, _) in self.cells.items()}

    def ops(self, seed: int) -> List[Op]:
        return [
            Op(p, None, derive(seed, _OPS, k, t))
            for t in range(self.ops_per_pipeline)
            for k, p in enumerate(PIPELINES)
        ]

    def run(self, op: Op, tracer):
        adjacency, engine = self.cells[op.pipeline]
        return solve_and_verify(op.pipeline, adjacency, engine, op.trial_seed, tracer)

    def check(self, op: Op, output) -> Optional[str]:
        return solution_problem(op.pipeline, self.graphs[op.pipeline], output)


class FaultyRecover:
    """Recovering scenario trials, ordered cell by cell as a sweep runs them.

    The library caches the four most recently built scenario cells, so with
    three cells no op rebuilds a graph.  Set-up is one warm-up trial per
    cell, on trial seeds no op uses; each
    repetition uses fresh graph seeds so that it really builds its cells,
    and the ops reuse the last repetition's cells.
    """

    name = "faulty_recover"

    def __init__(self, sizes: Dict[str, int], trials_per_cell: int = 1):
        self.sizes = sizes
        self.trials_per_cell = trials_per_cell
        self.cells: Dict[str, tuple] = {}
        self.graphs: Dict[str, Graph] = {}

    def scenario(self, pipeline: str, graph_seed: int, trial_seed: int, tracer):
        with tracer.span("scenario", pipeline) as attrs:
            metrics, state = run_scenario(
                SCENARIOS[pipeline], n=self.sizes[pipeline], seed=trial_seed,
                graph_seed=graph_seed, backend="dense", fault_mode="mask",
                recover=True, return_state=True,
            )
        attrs["rounds"] = metrics["rounds"]
        attrs["repair_rounds"] = metrics["repair_rounds"]
        attrs["recovered_ratio"] = metrics["recovered"]
        if pipeline == "split":
            attrs["attempts"] = metrics["attempts"]
        return metrics, state

    def setup(self, seed: int, rep: int, tracer) -> None:
        self.cells = {}
        for k, p in enumerate(PIPELINES):
            graph_seed = derive(seed, _GRAPHS, rep, k)
            _, state = self.scenario(p, graph_seed, derive(seed, _SETUP_TRIALS, rep, k), tracer)
            self.cells[p] = (graph_seed, state["adjacency"])

    def prepare_checks(self) -> None:
        self.graphs = {p: Graph.from_adjacency(adj) for p, (_, adj) in self.cells.items()}

    def ops(self, seed: int) -> List[Op]:
        return [
            Op(p, self.cells[p][0], derive(seed, _OPS, k, t))
            for k, p in enumerate(PIPELINES)
            for t in range(self.trials_per_cell)
        ]

    def run(self, op: Op, tracer):
        return self.scenario(op.pipeline, op.graph_seed, op.trial_seed, tracer)

    def check(self, op: Op, output) -> Optional[str]:
        metrics, state = output
        if state["adjacency"] is not self.cells[op.pipeline][1]:
            return "the scenario cell was rebuilt instead of reused"
        return scenario_problem(self.graphs[op.pipeline], metrics, state)


def make_workloads():
    """Full-size workloads.  Sizes keep a round of the op set to a few
    seconds on a 2-core machine, so that a run repeats every op several
    times.  The scenario sizes keep a trial's cost nearly independent of
    its seed: at n=4000 every splitting trial makes all 64 fault-blinded
    attempts, and at n=16000 every sinkless base run hits its round cap.
    Below those sizes some trials finish far earlier than others."""
    return {
        "cold_build": ColdBuild({
            "luby": Shape(4_000, 20), "sinkless": Shape(8_000, 4),
            "split": Shape(2_000, 40),
        }, ops_per_pipeline=4),
        "hot_sweep": HotSweep({
            "luby": Shape(10_000, 20), "sinkless": Shape(20_000, 4),
            "split": Shape(4_000, 40),
        }, ops_per_pipeline=4),
        "faulty_recover": FaultyRecover(
            {"luby": 8_000, "sinkless": 16_000, "split": 4_000}, trials_per_cell=3
        ),
    }


_TINY_SHAPES = {"luby": Shape(400, 10), "sinkless": Shape(400, 4), "split": Shape(400, 40)}
_TINY_N = {"luby": 400, "sinkless": 400, "split": 400}


def warm_up(tracer) -> None:
    """One tiny call through every layer of every pipeline.

    Pays first-call costs (lazy imports, numpy dispatch caches) before
    timing, and gives every workload's trace a span for every layer.
    """
    cold, faulty = ColdBuild(_TINY_SHAPES), FaultyRecover(_TINY_N)
    for k, p in enumerate(PIPELINES):
        cold.run(Op(p, k + 1, k + 1), tracer)
        faulty.scenario(p, k + 1, k + 1, tracer)
