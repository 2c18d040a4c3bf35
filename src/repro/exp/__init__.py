"""Multi-seed experiment sweeps: specs, process-pool runner, aggregation.

The paper's measured claims are all statements about *distributions* —
round counts w.h.p., validity rates, decay trajectories — so every serious
experiment is a sweep over seeds (and usually over scenario parameters
too).  This package factors that pattern out of the ad-hoc benchmark
scripts:

* :class:`~repro.exp.runner.ExperimentSpec` names a workload function and
  the parameter/seed grid to fan out;
* :func:`~repro.exp.runner.run_sweep` executes the fan-out on a process
  pool (or inline), timing every trial and collecting metrics;
* :func:`~repro.exp.runner.aggregate` reduces per-seed metrics to
  mean/std/min/max summaries;
* :mod:`~repro.exp.workloads` holds the picklable workload functions
  (Luby MIS, sinkless orientation, uniform splitting, dense-vs-reference
  throughput) over the scenario topologies in
  :mod:`repro.bipartite.generators`.

A workload exception is a failed-trial row; a dead worker or a Ctrl-C
fails the sweep, and the remedy is to re-run it.

``benchmarks/run_experiments.py`` is the command-line face of this
package and writes the machine-readable ``BENCH_<date>.json`` consumed by
CI.
"""

from repro.exp.runner import (
    ExperimentSpec,
    SweepResult,
    TrialResult,
    aggregate,
    run_sweep,
)

__all__ = [
    "ExperimentSpec",
    "TrialResult",
    "SweepResult",
    "run_sweep",
    "aggregate",
]
