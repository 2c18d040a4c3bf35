"""Declarative scenario registry.

A :class:`Scenario` names one experimental condition: a graph family, a
perturbation schedule, and the pipeline whose validity contract gets
checked on whatever survives.  Scenarios are declarative data — the
execution semantics live in :mod:`repro.scenarios.run` — so registering a
new one is a few lines of composition over the perturbation vocabulary
(:mod:`~repro.scenarios.faults`, :mod:`~repro.scenarios.dynamic`,
:mod:`~repro.scenarios.adversary`).

``strict=True`` marks adversarial-but-fault-free scenarios (renamings,
port permutations, multi-edge lifts): the algorithm is still accountable
for an exactly-valid output, and the runner raises on any violation.
Fault scenarios instead *record* violation counts as resilience metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.scenarios.adversary import AdversarialIDs, MultiEdgeLift, PortScramble
from repro.scenarios.base import Perturbation
from repro.scenarios.byzantine import CorrelatedCrash, CorruptMessages
from repro.scenarios.dynamic import DropEdges, EdgeChurn, LateEdges
from repro.scenarios.faults import CrashNodes, IIDMessageDrop, MuteHubs
from repro.utils.validation import require

__all__ = [
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]

#: Pipelines the runner knows how to drive and validate.
PIPELINES = ("luby", "sinkless", "splitting")


@dataclass(frozen=True)
class Scenario:
    """One named scenario: graph family x perturbation schedule x contract."""

    name: str
    pipeline: str  #: "luby" | "sinkless" | "splitting"
    perturbations: Tuple[Perturbation, ...]
    description: str = ""
    topology: str = "sparse"  #: default graph family ("sparse" | "regular")
    min_degree: int = 2  #: sinkless accountability threshold
    eps: float = 0.25  #: splitting spec epsilon
    strict: bool = False  #: require zero violations (adversarial, fault-free)

    def __post_init__(self):
        require(self.pipeline in PIPELINES, f"unknown pipeline {self.pipeline!r}")


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (names must be unique)."""
    require(
        scenario.name not in _REGISTRY,
        f"scenario {scenario.name!r} is already registered",
    )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name, with a helpful error."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r}; registered: {known}")
    return _REGISTRY[name]


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------------
# Built-in scenarios.  Every pipeline runs any multigraph, self-loops
# included, and any fault stack on both backends, bit-identically.
# Luby MIS is the main stress subject (its contract degrades gracefully);
# sinkless orientation covers recovery dynamics; splitting covers weighted
# graphs and fault-blind verification.
# ---------------------------------------------------------------------------

register_scenario(Scenario(
    name="luby/crash",
    pipeline="luby",
    perturbations=(CrashNodes(fraction=0.1, at_round=3),),
    description="10% of the nodes fail-stop right before round 3; survivors "
    "must still decide.  Violations = MIS defects on the surviving subgraph.",
))

register_scenario(Scenario(
    name="luby/crash-hubs",
    pipeline="luby",
    perturbations=(CrashNodes(fraction=0.05, at_round=3, select="hubs"),),
    description="The 5% highest-degree nodes fail-stop before round 3 — the "
    "adversarial crash pattern (hubs carry the most progress).",
))

register_scenario(Scenario(
    name="luby/drop-iid",
    pipeline="luby",
    perturbations=(IIDMessageDrop(p=0.08),),
    description="Every message is lost i.i.d. with probability 8% for the "
    "whole run; lost priorities can seat adjacent MIS nodes — the recorded "
    "independence violations measure that.",
))

register_scenario(Scenario(
    name="luby/mute-hubs",
    pipeline="luby",
    perturbations=(MuteHubs(count=4, until_round=4),),
    description="An adversary silences the 4 highest-degree nodes for the "
    "first 4 rounds (they compute but deliver nothing), then the network "
    "heals; rounds_to_recover measures the tail.",
))

register_scenario(Scenario(
    name="luby/churn",
    pipeline="luby",
    perturbations=(EdgeChurn(p_down=0.15),),
    description="Dynamic graph: each edge is down i.i.d. 15% of every "
    "round.  The contract validates against the full topology, so churn "
    "shows up as recorded violations.",
))

register_scenario(Scenario(
    name="luby/late-edges",
    pipeline="luby",
    perturbations=(LateEdges(fraction=0.3, at_round=4),),
    description="Insertion stream: 30% of the edges only come up at round "
    "4, after early phases broke symmetry on the sparser prefix; the "
    "contract checks the final (full) graph.",
))

register_scenario(Scenario(
    name="luby/edge-deletion",
    pipeline="luby",
    perturbations=(DropEdges(fraction=0.25, at_round=3),),
    description="Deletion stream: 25% of the edges vanish at round 3 and "
    "stay gone.  The contract validates against the post-deletion graph "
    "(kills caused by now-deleted neighbors surface as domination "
    "violations).",
))

register_scenario(Scenario(
    name="luby/crash-correlated",
    pipeline="luby",
    perturbations=(CorrelatedCrash(fraction=0.1, at_round=3, mode="ball"),),
    description="A spatially-clustered failure: a BFS ball covering 10% of "
    "the nodes fail-stops before round 3 — unlike i.i.d. crashes, the dead "
    "region's entire frontier loses progress at once, orphaning its "
    "boundary (domination violations concentrate there).",
))

register_scenario(Scenario(
    name="luby/crash-shard",
    pipeline="luby",
    perturbations=(CorrelatedCrash(fraction=0.125, at_round=3, mode="shard"),),
    description="One contiguous node-range block (12.5% of the nodes, "
    "starting at a multiple of the block size) fail-stops before round 3; "
    "the victim set is index-aligned rather than topology-aligned.",
))

register_scenario(Scenario(
    name="luby/byzantine",
    pipeline="luby",
    perturbations=(CorruptMessages(p=0.1, until_round=6),),
    description="A Byzantine channel rewrites 10% of delivered messages for "
    "the first 6 rounds: forged priorities seat adjacent MIS nodes and "
    "flipped join/stay announcements kill or orphan their neighbors.  The "
    "window closes at round 6, so rounds_to_recover measures the tail and "
    "the recovering variant must reach zero violations.",
))

register_scenario(Scenario(
    name="sinkless/byzantine",
    pipeline="sinkless",
    perturbations=(CorruptMessages(p=0.1, from_round=2, until_round=6),),
    description="Byzantine flip/ok announcements during trial-and-fix "
    "rounds 2-6 (the window opens after round 1, the proposal exchange): a "
    "corrupted flip leaves the two endpoints disagreeing about the edge "
    "direction, a defect only the recovering variant's reconcile round can "
    "repair.",
    topology="regular",
))

register_scenario(Scenario(
    name="splitting/byzantine",
    pipeline="splitting",
    perturbations=(CorruptMessages(p=0.05, until_round=1),),
    description="The splitting verification round runs over a Byzantine "
    "channel flipping 5% of the broadcast colors: nodes accept based on "
    "forged counts, and the contract recomputes the true violation count "
    "centrally.",
))

register_scenario(Scenario(
    name="luby/adversarial-naming",
    pipeline="luby",
    perturbations=(AdversarialIDs(), PortScramble()),
    description="Fault-free adversarial presentation: hubs get the highest "
    "uids (and thus different coin streams) and every port table is "
    "scrambled.  The MIS must still be exactly valid (strict).",
    strict=True,
))

register_scenario(Scenario(
    name="sinkless/crash",
    pipeline="sinkless",
    perturbations=(CrashNodes(fraction=0.05, at_round=3),),
    description="5% of the nodes fail-stop during trial-and-fix sinkless "
    "orientation (round 3); the run continues until no *surviving* node is "
    "a sink, and rounds_to_recover measures the repair tail.",
    topology="regular",
))

register_scenario(Scenario(
    name="splitting/multi-edge",
    pipeline="splitting",
    perturbations=(MultiEdgeLift(times=2),),
    description="Weighted variant: every edge doubled, so all degrees and "
    "neighbor counts scale by 2.  The Las-Vegas 0-round splitting must "
    "still land every constrained node inside the spec bounds (strict).",
    strict=True,
))

register_scenario(Scenario(
    name="splitting/drop-iid",
    pipeline="splitting",
    perturbations=(IIDMessageDrop(p=0.05),),
    description="The splitting verification round runs over 5%-lossy "
    "links: nodes accept based on the colors they actually heard, and the "
    "contract recomputes the true violation count centrally.",
))
