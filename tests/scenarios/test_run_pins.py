"""Pinned outputs of every registered scenario.

Each pin is a SHA-256 digest over eight ``run_scenario(name, n=120,
return_state=True)`` trials — both backends, recover off and on, seeds 1
and 2 — of the metrics without their ``*_seconds`` timing keys and the
returned state.  The digest encodes every value with its type (a set is
not a list, an int64 array not a list of ints, a Python ``int`` not a
``bool``) and keeps the metrics' key order, so any drift in the numbers,
the container types or the shape of the output fails here.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/scenarios/test_run_pins.py
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.local import BACKENDS, Adjacency
from repro.scenarios import run_scenario, scenario_names

PINS = {
    "luby/adversarial-naming": "761c2d4fb84603d71aaa8bec9efed216444da55780282bc9052cb8dd9863aa74",
    "luby/byzantine": "a871c169a0b35b3524708334a851282617cb29410d1e90aaa7ea64a86aecd2f1",
    "luby/churn": "405d8895e1f67dbdd80f181ab9237b70a1a2f0f0b6d3639af6d9a79c877fcd75",
    "luby/crash": "6e88624f7cc21627deffba89a144ebf30b3ca70f6906cde5c561b6b0dca25eed",
    "luby/crash-correlated": "249962a7c9a9980049c6ef36fb5a37bdde22497bfd34d8474881c7687bd97fd8",
    "luby/crash-hubs": "518f301cd0fc458b53e5453a12456ad60d372dad16f88af74ecb88d9a43dc44f",
    "luby/crash-shard": "f093044e31388b1263906c0d9e91e1cb42f64bfaf16f6aa6f1598b1539982376",
    "luby/drop-iid": "e20462d6b353ded8c973709a40dd6c9821e368db285a1365f978375abda07a06",
    "luby/edge-deletion": "d571128c1ad23b10b021f87946b2e2ab68d03e73ffc2cd205892a417c2fbfe58",
    "luby/late-edges": "37b7653d12e7c35ffd1a28e1c4abfc874a1320e14e4f0017f2605ea914a99dd5",
    "luby/mute-hubs": "b51665c9949372cde859fa052fbcb34432b7c10fe963bd6f1722aba26c4d1dbf",
    "sinkless/byzantine": "bc0fbca251f8ac79b262ea930e44d73c966cfacbab7a734dbb8bf2ca39eacfc0",
    "sinkless/crash": "5939c385711898ec4d7f2ebd9c450087a279cd2a7119bf52aa9f9c28a2e791a1",
    "splitting/byzantine": "111302615e31964073bd346ae428a3eadfe245c9570344af8c25aaf5d05cda83",
    "splitting/drop-iid": "8bda6eb82d6ddd56114b7ed2c5608223dc0307e1f6282f4d87cd097dd1cc669d",
    "splitting/multi-edge": "d3ec91e4c2aae8252cb29b842fdc6a0acd0cf25875dd38117cda8e529f60f636",
}


def _canon(x):
    """A type-tagged, order-exact nested tuple of ``x``."""
    tag = type(x).__name__
    if isinstance(x, np.ndarray):
        return (tag, str(x.dtype), x.shape, hashlib.sha256(x.tobytes()).hexdigest())
    if isinstance(x, dict):
        return (tag, tuple((k, _canon(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return (tag, tuple(sorted(_canon(v) for v in x)))
    if isinstance(x, (list, tuple, Adjacency)):
        return (tag, tuple(_canon(v) for v in x))
    if dataclasses.is_dataclass(x):
        return (tag, _canon(dataclasses.asdict(x)))
    if x is None or isinstance(x, (bool, int, float, str, np.generic)):
        return (tag, repr(x))
    raise TypeError(f"no canonical form for {tag}")


def digest(name):
    trials = []
    for backend in BACKENDS:
        for recover in (False, True):
            for seed in (1, 2):
                metrics, state = run_scenario(
                    name, n=120, seed=seed, backend=backend,
                    recover=recover, return_state=True,
                )
                metrics = {k: v for k, v in metrics.items() if not k.endswith("_seconds")}
                trials.append((backend, recover, seed, _canon(metrics), _canon(state)))
    return hashlib.sha256(repr(trials).encode()).hexdigest()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_output_matches_pin(name):
    assert digest(name) == PINS[name]


def test_pins_cover_every_scenario():
    assert sorted(PINS) == scenario_names()


if __name__ == "__main__":
    print("PINS = {")
    for name in scenario_names():
        print(f'    "{name}": "{digest(name)}",')
    print("}")
