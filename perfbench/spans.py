"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the library's
public functions; nothing inside the library is instrumented.  Each span
keeps its name, pipeline, phase, start, end, parent and op id, plus a
small dict of counts read from the call's result.  The untraced run uses
:class:`NullTracer`, which records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Layers named after the library modules whose public calls they wrap.
LAYERS = ("generate", "validate", "pack", "solve", "verify", "scenario")
PIPELINES = ("luby", "sinkless", "split")

#: Count attributes reported per layer (``<layer>.<pipeline>.<count>``).
COUNTS = {
    "generate": {"luby": ("slots",), "sinkless": ("slots",), "split": ("slots",)},
    "solve": {"luby": ("rounds",), "sinkless": ("rounds",),
              "split": ("attempts", "useful_ratio")},
    "scenario": {
        "luby": ("rounds", "repair_rounds", "recovered_ratio"),
        "sinkless": ("rounds", "repair_rounds", "recovered_ratio"),
        "split": ("rounds", "repair_rounds", "recovered_ratio", "attempts"),
    },
}

#: Phases in the order a layer's figures are taken from: the measured ops
#: if the layer runs there, else the workload's own set-up, else the
#: warm-up pass every workload makes through every layer.
PHASES = ("ops", "setup", "warmup")


class NullTracer:
    """Tracer of the untraced run: every span is a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        self.phase = "setup"
        self.op_id: Optional[int] = None
        self.round_index: Optional[int] = None
        self._null = nullcontext({})

    def span(self, name: str, pipeline: Optional[str] = None):
        return self._null


class Tracer(NullTracer):
    """Keeps every span in memory; :meth:`write` dumps them once."""

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, pipeline: Optional[str] = None):
        record = {
            "name": name,
            "pipeline": pipeline,
            "phase": self.phase,
            "op": self.op_id,
            "round": self.round_index,
            "parent": self._open[-1] if self._open else None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def self_times(spans: List[dict]) -> List[float]:
    """Self time of every op span: its duration minus its children's."""
    child: Dict[int, float] = {}
    for record in spans:
        parent = record["parent"]
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + _duration(record)
    return [
        _duration(r) - child.get(i, 0.0)
        for i, r in enumerate(spans)
        if r["name"] == "op" and r["phase"] == "ops"
    ]


def layer_metrics(spans: List[dict]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer busy time and counts, named ``<layer>.<pipeline>.<metric>``.

    ``busy_s`` is the mean duration of one call into the layer.  Counts come
    from the first round of ops (or every call of a set-up phase), so they
    repeat exactly for one seed whatever the run length.  Also returns the
    phase of every figure that is not taken from the ops.
    """
    by_key: Dict[tuple, List[dict]] = {}
    for record in spans:
        if record["name"] in LAYERS:
            key = (record["name"], record["pipeline"], record["phase"])
            by_key.setdefault(key, []).append(record)
    metrics: Dict[str, float] = {}
    sources: Dict[str, str] = {}
    for layer in LAYERS:
        for pipeline in PIPELINES:
            phase = next(p for p in PHASES if (layer, pipeline, p) in by_key)
            calls = by_key[(layer, pipeline, phase)]
            names = [f"{layer}.{pipeline}.busy_s"]
            metrics[names[0]] = fmean(map(_duration, calls))
            counted = [r for r in calls if phase != "ops" or r["round"] == 0]
            for count in COUNTS.get(layer, {}).get(pipeline, ()):
                names.append(f"{layer}.{pipeline}.{count}")
                metrics[names[-1]] = fmean(r["attrs"][count] for r in counted)
            if phase != "ops":
                sources.update(dict.fromkeys(names, phase))
    return metrics, sources
