"""Golden pins for recovering sinkless scenarios.

Each pin is one ``run_scenario(name, recover=True, return_state=True)``
trial: its metrics without timing fields, plus a SHA-256 digest of the
returned orientation arcs and alive flags.  The pins were recorded before
the repair tail switched to incremental counts, so any drift in the
repair's rounds, coins, fault handling or pre-repair accounting shows up
here as a changed metric or digest.  The 19 cases whose base runs spun
to the 400-round cap were re-recorded when base runs began to stop at
their fixed points: same base end state, earlier start of the repair.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/scenarios/test_sinkless_repair_golden.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.scenarios import run_scenario

GOLDEN = Path(__file__).with_name("sinkless_repair_golden.json")

SCENARIOS = ("sinkless/crash", "sinkless/byzantine")
SIZES = {"dense": (200, 1000, 4000), "reference": (200,)}
SEEDS = range(1, 7)


def cases():
    return [
        (name, backend, n, seed)
        for name in SCENARIOS
        for backend, sizes in SIZES.items()
        for n in sizes
        for seed in SEEDS
    ]


def case_id(name, backend, n, seed):
    return f"{name}@{backend}/n{n}/s{seed}"


def observe(name, backend, n, seed):
    """The pinned view of one recovering trial."""
    metrics, state = run_scenario(
        name, n=n, seed=seed, backend=backend, recover=True, return_state=True
    )
    # The distinct arcs, as pinned when the state held a Counter.
    arcs = sorted(Counter(map(tuple, state["orientation"].tolist())))
    digest = hashlib.sha256(
        json.dumps([arcs, state["alive"]]).encode()
    ).hexdigest()
    return {
        "metrics": {k: v for k, v in metrics.items() if not k.endswith("_seconds")},
        "digest": digest,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "name,backend,n,seed", cases(), ids=[case_id(*c) for c in cases()]
)
def test_recovering_sinkless_matches_pin(golden, name, backend, n, seed):
    assert observe(name, backend, n, seed) == golden[case_id(name, backend, n, seed)]


def test_pins_cover_every_case(golden):
    assert sorted(golden) == sorted(case_id(*c) for c in cases())


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_id(*c): observe(*c) for c in cases()}, indent=1, sort_keys=True)
        + "\n"
    )
