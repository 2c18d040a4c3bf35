"""Whole-job benchmark of the randomized splitting pipelines.

Run from the repository root::

    python3 perfbench/run.py --workload hot_sweep --seed 1 --seconds 25 --trace 0

Workloads are ``cold_build``, ``hot_sweep`` and ``faulty_recover`` (see
``workloads.py``).  A run first makes one tiny untimed pass through every
layer (first-call costs), then sets the workload up at least three times
and for at least two seconds, reporting the median as ``setup_s`` (scaled
like the ops, below).  It then runs rounds in a closed loop, one op at a
time in this one process, for ``--seconds``: every round runs the same
fixed set of ops drawn from the seed, and the loop stops at the first
round boundary past the deadline.  A shared host changes speed by up to
half for seconds to minutes at a time, so each op's time is scaled by the
host's speed around it (see :func:`calibration`), and an op's figure is
the median of its scaled times over the rounds.  ``<pipeline>_op_s`` is
the median over the pipeline's ops of that figure, and ``ops_per_s`` the
number of ops in the set over the sum of their figures.  Every op's output
is re-checked by the benchmark's own checker outside the timed region; an
op that raises or fails the check counts as failed, and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
round twice, untraced and traced, prints the per-layer metrics and writes
every span to ``.perfbench/`` once the run ends.  Metric names and units
are those of ``BENCHMARK.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no library source under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import PIPELINES, NullTracer, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import make_workloads, warm_up  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up repeats until both floors are met; setup_s is the median of the
# scaled set-up times.
MIN_SETUP_REPS = 3
MIN_SETUP_SECONDS = 2.0
MAX_REPORTED_FAILURES = 5

#: Wall time of :func:`calibration` on an idle 2-vCPU x86-64 host with
#: Python 3.11, the speed that scaled op times are expressed at.
CALIBRATION_REFERENCE_S = 0.004

_CAL_ROW = list(range(20))


def calibration() -> float:
    """Wall time of a fixed task of a few milliseconds: an interpreter loop,
    then adjacency-like lists built and flattened into a numpy array.

    The list part makes it slow down with the host as much as the
    allocation-heavy graph builds do; the collector is off while it runs,
    so a collection of the ops' garbage never lands in it.

    It runs before the first op of a round and after every op.  An op's
    scaled time is its wall time times ``CALIBRATION_REFERENCE_S`` over
    the mean of the two calibrations around it: what the op would take on
    the reference host at full speed.  The library never runs in it, so a
    change to the library moves the scaled times in full, while a slowdown
    of the whole host moves the op and its calibrations together.
    """
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        rows = [_CAL_ROW[: i % 20] + [i] for i in range(3_000)]
        np.fromiter((x for row in rows for x in row), dtype=np.int64)
        return perf_counter() - start
    finally:
        gc.enable()


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the calibrations around it."""
    return elapsed * CALIBRATION_REFERENCE_S / ((before + after) / 2)


@dataclass
class Pass:
    """Outcome of one closed-loop pass; every round runs the same ops."""

    #: Per op of the set: wall time and scaled time of every verified run.
    times: List[List[float]] = field(default_factory=list)
    scaled: List[List[float]] = field(default_factory=list)
    total_op_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0

    def op_times(self, ops, scaled: bool = True) -> List[Tuple[str, float]]:
        """``(pipeline, median scaled time)`` of every op verified at least
        once; the median wall time instead if not ``scaled``."""
        per_op = self.scaled if scaled else self.times
        return [(op.pipeline, median(t)) for op, t in zip(ops, per_op) if t]


def _report_failure(result: Pass, op, reason: str) -> None:
    result.failed += 1
    if result.failed <= MAX_REPORTED_FAILURES:
        print(f"failed op {op}: {reason}", file=sys.stderr)


def run_round(workload, ops, tracer, result: Pass) -> None:
    """Run, time and check every op of the set once."""
    tracer.round_index = result.rounds
    if not result.times:
        result.times = [[] for _ in ops]
        result.scaled = [[] for _ in ops]
    before = calibration()
    for op, times, scaled_times in zip(ops, result.times, result.scaled):
        tracer.op_id = result.attempted
        result.attempted += 1
        problem = None
        start = perf_counter()
        try:
            with tracer.span("op", op.pipeline):
                output = workload.run(op, tracer)
        except Exception:  # a failing op is counted and the run goes on
            problem = traceback.format_exc()
        elapsed = perf_counter() - start
        after = calibration()
        result.total_op_s += elapsed
        if problem is None:
            try:
                problem = workload.check(op, output)
            except Exception:  # malformed output the checker cannot read
                problem = traceback.format_exc()
        if problem is None:
            times.append(elapsed)
            scaled_times.append(scaled(elapsed, before, after))
        else:
            _report_failure(result, op, problem)
        before = after
    result.rounds += 1


def measure(workload, ops, tracer, seconds: float) -> Pass:
    """Run whole rounds until ``seconds`` pass; at least one runs."""
    result = Pass()
    deadline = perf_counter() + seconds
    while result.rounds == 0 or perf_counter() < deadline:
        run_round(workload, ops, tracer, result)
    return result


def measure_traced(workload, ops, tracer, seconds: float) -> Tuple[Pass, Pass]:
    """Run every round twice, untraced and traced, alternating which goes
    first, so that the tracing overhead is not confounded with drift in the
    machine's speed over the run."""
    untraced, traced = Pass(), Pass()
    deadline = perf_counter() + seconds
    while traced.rounds == 0 or perf_counter() < deadline:
        order = [(NullTracer(), untraced), (tracer, traced)]
        for t, result in order[:: 1 if traced.rounds % 2 == 0 else -1]:
            run_round(workload, ops, t, result)
    return untraced, traced


def end_to_end(setup_times: List[float], ops, result: Pass) -> Dict[str, float]:
    op_times = result.op_times(ops)
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": len(op_times) / sum(t for _, t in op_times) if op_times else 0.0,
    }
    for p in PIPELINES:
        times = [t for q, t in op_times if q == p]
        metrics[f"{p}_op_s"] = median(times) if times else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(tracer: Tracer, ops, untraced: Pass, traced: Pass):
    """Per-layer metrics, and the phase of every figure not taken from ops."""
    metrics, sources = layer_metrics(tracer.spans)
    metrics["op.self_s"] = fmean(self_times(tracer.spans))
    # Traced over untraced scaled op time, summed over the ops: above 1 by
    # what the spans cost, give or take the run's noise.
    metrics["trace.overhead_ratio"] = (
        sum(t for _, t in traced.op_times(ops)) / sum(t for _, t in untraced.op_times(ops))
    )
    return metrics, sources


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(workload, seed: int, seconds: float, trace: bool):
    """Set up and measure.

    Returns the result line, a note per metric (sample counts, or the phase
    a per-layer figure was taken from) and the tracer.
    """
    tracer = Tracer() if trace else NullTracer()
    tracer.phase = "warmup"
    warm_up(tracer)
    tracer.phase = "setup"
    setup_times: List[float] = []
    while len(setup_times) < MIN_SETUP_REPS or sum(setup_times) < MIN_SETUP_SECONDS:
        before = calibration()
        start = perf_counter()
        workload.setup(seed, len(setup_times), tracer)
        elapsed = perf_counter() - start
        setup_times.append(scaled(elapsed, before, calibration()))
    workload.prepare_checks()
    ops = workload.ops(seed)
    tracer.phase = "ops"
    if trace:
        untraced, traced = measure_traced(workload, ops, tracer, seconds)
        passes = [untraced, traced]
        metrics, sources = per_layer(tracer, ops, untraced, traced)
        notes = {name: f"from {phase}" for name, phase in sources.items()}
    else:
        passes = [measure(workload, ops, tracer, seconds=seconds)]
        metrics = end_to_end(setup_times, ops, passes[0])
        rounds = passes[0].rounds
        each = f"each the median of {rounds} rounds, scaled"
        notes = {"setup_s": f"median of {len(setup_times)}, scaled",
                 "ops_per_s": f"{len(ops)} ops, {each}"}
        wall = passes[0].op_times(ops, scaled=False)
        for p in PIPELINES:
            times = [t for q, t in wall if q == p]
            notes[f"{p}_op_s"] = (f"median of {len(times)} ops, {each};"
                                  f" unscaled {median(times) if times else 0.0:.4g} s")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    return line, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workload = make_workloads()[args.workload]
    line, notes, tracer = run(workload, args.seed, args.seconds, bool(args.trace))
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, **provenance()}
    if args.trace:
        stamp["notes"] = notes
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl", stamp)
    print("# " + json.dumps(stamp))
    for name, metric in line["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"# {'failed_frac':34s} {line['failed'] / line['attempted']:.6g} ratio"
          f"  ({line['failed']} of {line['attempted']} ops)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
