"""LOCAL model: synchronous simulator, dense kernels, packed CSR arrays, ledger.

Two executors run LOCAL algorithms: :func:`run_local`, the reference
simulator for any :class:`LocalAlgorithm`, and the per-algorithm dense
numpy kernels, which index the packed arrays a :class:`CSREngine` holds.
Building a :class:`Network` needs numpy: its validation packs those CSR
arrays.  The dense kernels are exported lazily:
``repro.local.luby_mis_dense`` etc. resolve on first access, so importing
the package does not load them.
"""

from repro.local.complexity import (
    degree_splitting_rounds,
    degree_splitting_rounds_simplified,
    log_star,
    power_graph_coloring_rounds,
    slocal_conversion_rounds,
)
from repro.local.engine import CSREngine
from repro.local.ids import sequential_ids, shuffled_ids, sparse_random_ids
from repro.local.ledger import Charge, RoundLedger
from repro.local.network import (
    LocalAlgorithm,
    Network,
    NodeView,
    RoundHooks,
    SimulationResult,
    build_reverse_ports,
    run_local,
)

__all__ = [
    "LocalAlgorithm",
    "Network",
    "NodeView",
    "RoundHooks",
    "SimulationResult",
    "run_local",
    "CSREngine",
    "build_reverse_ports",
    "Charge",
    "RoundLedger",
    "log_star",
    "degree_splitting_rounds",
    "degree_splitting_rounds_simplified",
    "slocal_conversion_rounds",
    "power_graph_coloring_rounds",
    "sequential_ids",
    "shuffled_ids",
    "sparse_random_ids",
    # lazy (numpy-backed) dense kernel exports, resolved in __getattr__:
    "DenseResult",
    "luby_round_dense",
    "luby_mis_dense",
    "sinkless_trial_dense",
    "dense_orientation",
    "uniform_splitting_dense",
]

_DENSE_NAMES = frozenset(
    {
        "DenseResult",
        "luby_round_dense",
        "luby_mis_dense",
        "sinkless_trial_dense",
        "dense_orientation",
        "uniform_splitting_dense",
    }
)


def __getattr__(name):  # PEP 562: defer the kernel imports to first use
    if name in _DENSE_NAMES:
        from repro.local import dense

        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
