"""Run the benchmark once per seed and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; it should stay well below the metric's bound in
``BENCHMARK.json``.  Runs are sequential, so they do not compete for cores.
The bounds in ``BENCHMARK.json`` were set from this tool's output.

    python3 perfbench/spread.py --workload hot_sweep --seeds 1 2 3 4 5

Repeating one seed (``--seeds 1 1 1 1 1``) measures the spread that comes
from the host alone; distinct seeds add the spread between inputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.monotonic() - start
        line = json.loads(done.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            print(f"seed {seed}: {line['failed']} of {line['attempted']} ops failed")
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.1f} s): "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = quantiles(vals, n=4)
        share = (q3 - q1) / median(vals)
        print(f"{name:16s} median {median(vals):.5g}  spread {share:.4f}"
              f"  bound {bounds[name]}  {'ok' if share < bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
