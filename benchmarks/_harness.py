"""Shared helpers for the experiment benchmarks.

Every experiment Ei has a module ``bench_*.py`` here.
Each benchmark (a) times the algorithm under pytest-benchmark, (b) computes
the *rows* the corresponding paper claim is about (round counts, validity
rates, component sizes, trajectories, ...), (c) asserts the paper's
predicted shape, and (d) records the rows both into
``benchmark.extra_info`` and onto stdout via :func:`emit_table`, so

    pytest benchmarks/ --benchmark-only -s

prints every reproduced table/series.
"""

from __future__ import annotations

import gc
import time
from typing import Sequence

__all__ = ["emit_table", "attach_rows", "best_of"]


def best_of(fn, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn()`` with the GC paused.

    The standard timing discipline for this repo's perf *assertions*: on the
    1-CPU CI/container a single noisy scheduler window can distort one
    measurement, and a GC cycle landing mid-run distorts short ones, so
    ratio gates compare minima over several runs with collection disabled.
    """
    best = float("inf")
    for _ in range(repeat):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        best = min(best, elapsed)
    return best


def emit_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print an aligned experiment table (visible under ``-s``)."""
    cols = len(header)
    str_rows = [[_fmt(x) for x in row] for row in rows]
    widths = [
        max(len(header[i]), max((len(r[i]) for r in str_rows), default=0))
        for i in range(cols)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for r in str_rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def attach_rows(benchmark, title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Record experiment rows in the pytest-benchmark report and print them."""
    benchmark.extra_info["experiment"] = title
    benchmark.extra_info["header"] = list(header)
    benchmark.extra_info["rows"] = [[_fmt(x) for x in row] for row in rows]
    emit_table(title, header, rows)
