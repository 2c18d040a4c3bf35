#!/usr/bin/env python3
"""Multi-seed experiment sweeps with machine-readable results.

Default mode fans the scenario sweep out over a process pool via
:mod:`repro.exp` and writes

* ``BENCH_<date>.json`` — schema-versioned per-experiment timings, metrics
  and per-trial rows, the artifact CI uploads so the perf trajectory is
  comparable across PRs;
* a human-readable summary table on stdout (and optionally a markdown
  report via ``--report``).

Usage::

    python benchmarks/run_experiments.py                  # full sweep
    python benchmarks/run_experiments.py --quick          # CI smoke sizes
    python benchmarks/run_experiments.py --seeds 8 --workers 4
    python benchmarks/run_experiments.py --out BENCH_ci.json
    python benchmarks/run_experiments.py --scenarios all  # + resilience cells
    python benchmarks/run_experiments.py --scenarios luby/crash,sinkless/crash
    python benchmarks/run_experiments.py --scenarios all --recover  # + repair tails
    python benchmarks/run_experiments.py --scenarios all --trace  # round traces
    python benchmarks/run_experiments.py --legacy-tables  # old E1-E16 scrape

Sweeps run on a plain process pool (``--workers 0`` runs inline).  A
trial that raises is a failed row and the exit code is 1; a dead worker
or a Ctrl-C aborts the sweep, and the remedy is to re-run it.

Every trial is also appended to the ``bench_history.jsonl`` results store
(``--history`` overrides the path, ``--history ''`` disables) keyed by
(git commit, experiment, backend, seed), so the perf/resilience trajectory
stays queryable across PRs.

``--legacy-tables`` reproduces the historical behaviour: run the full
pytest-benchmark suite and collect the ``== Ei ==`` tables into one
markdown file (EXPERIMENTS.md's measured side).
"""

from __future__ import annotations

import argparse
import datetime
import re
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.exp import ExperimentSpec, run_sweep  # noqa: E402
from repro.exp.workloads import (  # noqa: E402
    BACKENDS,
    engine_throughput_workload,
    luby_mis_workload,
    scenario_workload,
    sinkless_workload,
    splitting_workload,
)


def build_specs(quick: bool, num_seeds: int, backends=("reference", "dense")):
    """The sweep suite: every workload across topologies x backends.

    ``backends`` selects the execution-backend axis for the algorithm
    workloads (``reference`` / ``dense``); the ``engine/throughput`` cell
    always measures both side by side.
    Every seed of every cell is one task.  Scenario graphs are fixed per
    cell (trial seeds drive the coins), so every backend and every seed of
    a cell reuses one packed engine.
    """
    seeds = tuple(range(num_seeds))
    scale = 1 if quick else 4
    mis_n = 2_000 * scale

    specs = [
        ExperimentSpec(
            f"mis/{topology}@{backend}",
            luby_mis_workload,
            {"topology": topology, "n": mis_n, "degree": 12, "backend": backend},
            seeds=seeds,
        )
        for topology in ("sparse", "regular", "torus", "powerlaw")
        for backend in backends
    ]
    specs += [
        ExperimentSpec(
            f"sinkless/{topology}@{backend}",
            sinkless_workload,
            {"topology": topology, "n": 1_000 * scale, "degree": 4, "backend": backend},
            seeds=seeds,
        )
        for topology in ("regular", "torus")
        for backend in backends
    ]
    specs += [
        ExperimentSpec(
            f"splitting/sparse@{backend}",
            splitting_workload,
            {"topology": "sparse", "n": 500 * scale, "degree": 48, "backend": backend},
            seeds=seeds,
        )
        for backend in backends
    ]
    specs.append(
        ExperimentSpec(
            "engine/throughput",
            engine_throughput_workload,
            {"topology": "sparse", "n": 10_000 if quick else 20_000, "degree": 20},
            seeds=seeds[: max(2, num_seeds // 2)],
        )
    )
    return specs


def build_scenario_specs(quick: bool, num_seeds: int, names: str, backends,
                         trace_out=None, recover: bool = False):
    """Scenario cells for the ``--scenarios`` axis (resilience metrics).

    ``names`` is ``"all"`` or a comma-separated list of registry names from
    :mod:`repro.scenarios`; one cell per (scenario, backend in
    ``backends``); a backend outside ``BACKENDS`` fails its trials.  Each
    trial seed drives both the algorithm coins and the deterministic fault
    schedule, identically on every backend.
    ``trace_out`` threads a round-trace jsonl path into every cell: each
    trial then records per-round tracer spans (see :mod:`repro.obs`) and
    appends them to that file.  ``recover=True`` adds a ``+recover``
    sibling for every cell running the same trials with the
    self-stabilizing repair tail, so the BENCH json carries the
    plain-vs-recovering comparison (``recovered``, ``repair_rounds``,
    ``violations_before_recovery``) per scenario.
    """
    from repro.scenarios import get_scenario, scenario_names

    selected = scenario_names() if names == "all" else [
        s.strip() for s in names.split(",") if s.strip()
    ]
    seeds = tuple(range(num_seeds))
    n = 400 if quick else 1_500
    specs = []
    for name in selected:
        sc = get_scenario(name)  # fails fast on typos, before the sweep
        for backend in backends:
            params = {"scenario": name, "n": n, "backend": backend}
            if trace_out:
                params["trace_out"] = trace_out
            specs.append(
                ExperimentSpec(
                    f"scenario/{name}@{backend}",
                    scenario_workload,
                    params,
                    seeds=seeds,
                )
            )
            if recover:
                specs.append(
                    ExperimentSpec(
                        f"scenario/{name}@{backend}+recover",
                        scenario_workload,
                        dict(params, recover=True),
                        seeds=seeds,
                    )
                )
    return specs


def _print_summary(sweep) -> None:
    summary = sweep.summary()
    if not summary:
        print("\nno trials ran")
        return
    name_width = max(len(n) for n in summary) + 2
    print(f"\n{'experiment':<{name_width}} {'ok':>3} {'fail':>4}  key metrics (mean over seeds)")
    for name in sorted(summary):
        entry = summary[name]
        metrics = entry["metrics"]
        parts = []
        for key in ("rounds", "speedup", "mis_size", "violations",
                    "survivors", "rounds_to_recover", "recovered",
                    "repair_rounds", "solve_seconds"):
            if key in metrics:
                value = metrics[key]["mean"]
                parts.append(f"{key}={value:.3g}")
        if "elapsed" in metrics and metrics["elapsed"]:
            parts.append(f"elapsed={metrics['elapsed']['mean']:.3f}s")
        print(f"{name:<{name_width}} {entry['ok']:>3} {entry['failed']:>4}  {' '.join(parts)}")
    print(f"\ntotal wall time {sweep.elapsed:.1f}s on {sweep.workers or 'inline'} workers")


def _write_report(sweep, path: Path) -> None:
    summary = sweep.summary()
    lines = [
        "# Experiment sweep report",
        "",
        "Produced by `python benchmarks/run_experiments.py`.",
        "",
        "| experiment | seeds ok | failed | mean metrics |",
        "|---|---|---|---|",
    ]
    for name in sorted(summary):
        entry = summary[name]
        cells = ", ".join(
            f"{key}={stats['mean']:.4g}"
            for key, stats in sorted(entry["metrics"].items())
            if stats and key != "elapsed"
        )
        lines.append(f"| {name} | {entry['ok']} | {entry['failed']} | {cells} |")
    path.write_text("\n".join(lines) + "\n")


def _load_store():
    """The sibling ``store.py`` module (benchmarks/ is not a package)."""
    import importlib.util

    path = Path(__file__).resolve().parent / "store.py"
    spec = importlib.util.spec_from_file_location("bench_store", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_sweeps(args) -> int:
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    unknown = sorted(set(backends) - set(BACKENDS))
    if unknown:
        print(f"unknown backend(s) {', '.join(unknown)}; choose from "
              f"{', '.join(BACKENDS)}", file=sys.stderr)
        return 2
    out = Path(
        args.out
        if args.out
        else f"BENCH_{datetime.date.today().isoformat()}.json"
    )
    trace_out = None
    if args.trace is not None:
        trace_out = args.trace or f"{out}.trace.jsonl"
    specs = build_specs(args.quick, args.seeds, backends=backends)
    if args.scenarios is not None:
        specs += build_scenario_specs(
            args.quick, args.seeds, args.scenarios, backends,
            trace_out=trace_out, recover=args.recover,
        )
    elif trace_out:
        print("--trace only instruments --scenarios cells; none selected",
              file=sys.stderr)

    def progress(trial):
        status = "ok" if trial.ok else f"FAILED ({trial.error})"
        print(f"  [{trial.experiment} seed={trial.seed}] {status}"
              f" {trial.elapsed:.2f}s")

    print(f"running {sum(len(s.seeds) for s in specs)} trials "
          f"({len(specs)} experiments x seeds)...")
    sweep = run_sweep(specs, workers=args.workers, json_path=str(out), progress=progress)
    _print_summary(sweep)
    print(f"wrote {out}")
    if trace_out and Path(trace_out).exists():
        print(f"round traces appended to {trace_out}")
    if args.history:
        store = _load_store()
        if store.bootstrap_history(args.history):
            print(f"bootstrapped new results store at {args.history}")
        rows = store.append_history(sweep, args.history)
        print(f"appended {rows} rows to {args.history}")
    if args.report:
        _write_report(sweep, Path(args.report))
        print(f"wrote {args.report}")
    failed = sum(1 for t in sweep.trials if not t.ok)
    if failed:
        print(f"{failed} trial(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Legacy mode: regenerate the E1-E16 tables by scraping pytest-benchmark.
# ---------------------------------------------------------------------------


def run_legacy_tables(out_path: Path) -> int:
    bench_dir = Path(__file__).resolve().parent
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(bench_dir),
            "--benchmark-only",
            "-s",
            "-p",
            "no:warnings",
        ],
        capture_output=True,
        text=True,
        cwd=bench_dir.parent,
    )
    sys.stdout.write(proc.stdout[-2000:])
    tables = _extract_tables(proc.stdout)
    if not tables:
        print("no experiment tables found — did the benchmarks fail?", file=sys.stderr)
        sys.stderr.write(proc.stdout[-4000:])
        return 1

    with out_path.open("w") as fh:
        fh.write("# Experiment tables (regenerated)\n")
        fh.write("\nProduced by `python benchmarks/run_experiments.py --legacy-tables`.\n")
        for title, body in sorted(tables, key=lambda t: _sort_key(t[0])):
            fh.write(f"\n## {title}\n\n```\n{body}\n```\n")
    print(f"\nwrote {len(tables)} experiment tables to {out_path}")
    return 0 if proc.returncode == 0 else proc.returncode


def _extract_tables(stdout: str):
    """Pull every ``== title ==`` table block out of the pytest output."""
    tables = []
    lines = stdout.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^== (.*) ==$", lines[i])
        if not m:
            i += 1
            continue
        title = m.group(1)
        body: list = []
        i += 1
        while i < len(lines) and lines[i].strip() and not lines[i].startswith("=="):
            body.append(lines[i].rstrip())
            i += 1
        tables.append((title, "\n".join(body)))
    return tables


def _sort_key(title: str):
    m = re.match(r"^E(\d+)", title)
    return (int(m.group(1)) if m else 99, title)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    def positive_int(value: str) -> int:
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return number

    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--seeds", type=positive_int, default=5,
                        help="seeds per experiment (>= 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (0 = inline, default = cpu count)")
    parser.add_argument("--backends", default="reference,dense",
                        help="comma-separated execution backends for the "
                        "algorithm workloads (reference,dense)")
    parser.add_argument("--scenarios", nargs="?", const="all", default=None,
                        metavar="NAMES",
                        help="also sweep fault/adversary scenarios: 'all' or "
                        "comma-separated registry names from repro.scenarios "
                        "(resilience metrics land in the BENCH json)")
    parser.add_argument("--trace", nargs="?", const="", default=None,
                        metavar="JSONL",
                        help="record round-level traces for --scenarios "
                        "cells into this jsonl file (default "
                        "<out>.trace.jsonl; see repro.obs)")
    parser.add_argument("--recover", action="store_true",
                        help="add a '+recover' sibling for every --scenarios "
                        "cell: same trials with the self-stabilizing repair "
                        "tail (repro.scenarios.recovery), recording "
                        "recovered / repair_rounds / "
                        "violations_before_recovery next to the plain cell")
    parser.add_argument("--history", default="bench_history.jsonl",
                        metavar="JSONL",
                        help="append every trial to this results store "
                        "keyed by (commit, experiment, backend, seed); "
                        "pass '' to disable")
    parser.add_argument("--out", default=None, help="JSON output path "
                        "(default BENCH_<date>.json)")
    parser.add_argument("--report", default=None, help="also write a markdown summary")
    parser.add_argument("--legacy-tables", nargs="?", const="experiment_tables.md",
                        default=None, metavar="OUT_MD",
                        help="regenerate the E1-E16 pytest tables instead")
    args = parser.parse_args()
    if args.workers is not None and args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.legacy_tables is not None:
        return run_legacy_tables(Path(args.legacy_tables))
    return run_sweeps(args)


if __name__ == "__main__":
    raise SystemExit(main())
