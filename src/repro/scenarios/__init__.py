"""Scenario subsystem: fault injection, dynamic graphs, adversarial schedules.

The paper's algorithms are analyzed on clean static graphs; this package
turns *unclean* conditions into a first-class experimental axis.  A
:class:`Scenario` is a declarative triple — graph family x perturbation
schedule x validity contract — executed by :func:`run_scenario` on either
backend (the hooked reference simulator or the masked dense numpy kernels)
with **deterministic** fault schedules: every fault decision is a pure
function of the trial seed, and so is every node coin, so faulty runs are
reproducible and bit-identical across both backends.

Vocabulary:

* faults — :class:`CrashNodes`, :class:`IIDMessageDrop`, :class:`MuteHubs`;
* harder fault models — :class:`CorrelatedCrash` (spatially-clustered
  fail-stop), :class:`CorruptMessages` (Byzantine payload rewriting);
* dynamic graphs — :class:`EdgeChurn`, :class:`LateEdges`,
  :class:`DropEdges` (supergraph + per-round delivery masking);
* adversarial presentations — :class:`AdversarialIDs`,
  :class:`PortScramble`, :class:`MultiEdgeLift`.

:func:`run_scenario` is the one driver of faulty runs: it binds the stack
to the trial seed (per attempt for splitting) and runs the pipeline on
the chosen backend; the pipeline drivers in :mod:`repro.mis`,
:mod:`repro.orientation` and :mod:`repro.apps` take no faults.  Both
backends end in the same per-node end-state arrays, which the contracts
(:mod:`repro.scenarios.contracts`) judge as arrays.  An ad-hoc
:class:`Scenario` runs any stack on any graph via ``adjacency=``.

Recovery: ``run_scenario(..., recover=True)`` appends the self-stabilizing
detect-and-repair layer (:mod:`repro.scenarios.recovery`) to any scenario
run, and ``return_state=True`` returns the repaired end state; the exact
oracle in :mod:`repro.verify.certify` independently certifies the
contract verdicts on small instances.

Registered scenarios (``scenario_names()``) are runnable by name from the
sweep CLI: ``python benchmarks/run_experiments.py --scenarios all``.
"""

from repro.scenarios.adversary import AdversarialIDs, MultiEdgeLift, PortScramble
from repro.scenarios.base import (
    BoundPerturbation,
    Perturbation,
    PerturbationHooks,
    bind_all,
    quiet_after,
    rewrite_all,
)
from repro.scenarios.byzantine import (
    FORGED_PRIORITY,
    CorrelatedCrash,
    CorruptMessages,
    corrupt_payload,
)
from repro.scenarios.contracts import (
    mis_violations,
    orientation_from_views,
    splitting_violations,
    surviving_sinks,
)
from repro.scenarios.dynamic import (
    DropEdges,
    EdgeChurn,
    LateEdges,
    edge_key_triples,
)
from repro.scenarios.faults import CrashNodes, IIDMessageDrop, MuteHubs
from repro.scenarios.recovery import (
    REPAIR_ROUND_CAP,
    RepairResult,
    luby_repair,
    sinkless_repair,
    splitting_repair,
)
from repro.scenarios.registry import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.run import run_scenario

__all__ = [
    # protocol
    "Perturbation",
    "BoundPerturbation",
    "PerturbationHooks",
    "bind_all",
    "rewrite_all",
    "quiet_after",
    # perturbations
    "CrashNodes",
    "IIDMessageDrop",
    "MuteHubs",
    "CorrelatedCrash",
    "CorruptMessages",
    "corrupt_payload",
    "FORGED_PRIORITY",
    "EdgeChurn",
    "LateEdges",
    "DropEdges",
    "edge_key_triples",
    "AdversarialIDs",
    "PortScramble",
    "MultiEdgeLift",
    # contracts
    "mis_violations",
    "surviving_sinks",
    "splitting_violations",
    "orientation_from_views",
    # recovery
    "RepairResult",
    "REPAIR_ROUND_CAP",
    "luby_repair",
    "sinkless_repair",
    "splitting_repair",
    # registry + execution
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "run_scenario",
]
