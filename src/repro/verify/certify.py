"""Exact contract certification: independent brute-force oracles (n <= 64).

The scenario layer's verifiers (:mod:`repro.scenarios.contracts`) are
port-loop implementations sharing conventions with the runners they judge;
the recovery layer (:mod:`repro.scenarios.recovery`) additionally *claims*
that a recovered end state has zero violations.  This module re-derives
every contract from its definition with a different computational
substrate — **bitmask integers**: each node's surviving neighborhood is a
Python int bitset, violation counts are popcounts, and bound checks run in
exact :class:`~fractions.Fraction` arithmetic — so a bug in the contracts
and a bug in the oracle would have to agree to go unnoticed.

Three layers:

* exact checkers — :func:`exact_mis_violations`,
  :func:`exact_surviving_sinks`, :func:`exact_splitting_violations` —
  independently recompute each contract's verdict (multigraphs from
  :class:`~repro.scenarios.adversary.MultiEdgeLift` take a
  multiplicity-weighted path, since bitsets collapse parallel edges);
* existence oracles — :func:`sinkless_feasible` (DPLL-style backtracking
  with unit propagation: does *any* orientation of the surviving graph
  avoid all accountable sinks?) and :func:`min_splitting_violations`
  (branch-and-bound over colorings: the best violation count *any*
  partition could achieve) — which bound what recovery can promise;
* the driver — :func:`certify_scenario` runs a scenario trial with
  ``return_state=True`` and cross-checks the recorded metrics against the
  oracle verdicts, :func:`certify_all` sweeps every registered scenario
  across its backends (the property suite run in CI tier 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.bipartite.instance import RED
from repro.utils.validation import require

__all__ = [
    "CERTIFY_MAX_NODES",
    "exact_mis_violations",
    "exact_surviving_sinks",
    "exact_splitting_violations",
    "sinkless_feasible",
    "min_splitting_violations",
    "certify_scenario",
    "certify_all",
]

#: The oracle's instance-size gate: brute force is the point, so keep it
#: where brute force is instant.
CERTIFY_MAX_NODES = 64


def _alive_bits(alive: Sequence[bool]) -> int:
    bits = 0
    for i, a in enumerate(alive):
        if a:
            bits |= 1 << i
    return bits


def _surviving_views(adjacency, alive, edge_ok):
    """Per-node surviving neighborhoods as ``(bitsets, weights, simple)``.

    ``bitsets[i]`` has bit ``j`` set iff some port of ``i`` reaches an
    alive ``j`` over a surviving edge (the view the contracts evaluate
    from ``i``'s side); ``weights[i][j]`` counts the parallel surviving
    ports behind that bit.  ``simple`` is False when any weight exceeds 1
    — multiplicity then matters for edge/neighbor *counts* and the
    checkers switch to the weighted path.
    """
    n = len(adjacency)
    bitsets = [0] * n
    weights: List[Dict[int, int]] = [dict() for _ in range(n)]
    simple = True
    for i in range(n):
        if not alive[i]:
            continue
        w = weights[i]
        for p, j in enumerate(adjacency[i]):
            if not alive[j]:
                continue
            if edge_ok is not None and not edge_ok(i, p):
                continue
            bitsets[i] |= 1 << j
            w[j] = w.get(j, 0) + 1
            if w[j] > 1:
                simple = False
    return bitsets, weights, simple


def exact_mis_violations(
    adjacency,
    mis: Set[int],
    alive: Optional[Sequence[bool]] = None,
    edge_ok=None,
) -> Tuple[int, int]:
    """``(independence, domination)`` recomputed with bitset arithmetic.

    Matches the counting convention of
    :func:`repro.scenarios.contracts.mis_violations`: independence counts
    surviving MIS-MIS edges once from the lower endpoint's side (with
    multiplicity on multigraphs), domination counts alive non-MIS nodes
    whose surviving view contains no MIS node.
    """
    n = len(adjacency)
    require(n <= CERTIFY_MAX_NODES, f"oracle instances are capped at {CERTIFY_MAX_NODES} nodes")
    if alive is None:
        alive = [True] * n
    views, weights, simple = _surviving_views(adjacency, alive, edge_ok)
    mis_bits = 0
    for v in mis:
        mis_bits |= 1 << v
    independence = 0
    domination = 0
    for i in range(n):
        if not alive[i]:
            continue
        if i in mis:
            higher = views[i] & mis_bits & ~((1 << (i + 1)) - 1)
            if simple:
                independence += higher.bit_count()
            else:
                while higher:
                    j = (higher & -higher).bit_length() - 1
                    independence += weights[i][j]
                    higher &= higher - 1
        elif not (views[i] & mis_bits):
            domination += 1
    return independence, domination


def exact_surviving_sinks(
    adjacency,
    orientation: Dict[Tuple[int, int], bool],
    alive: Sequence[bool],
    min_degree: int = 1,
) -> List[int]:
    """Accountable alive sinks recomputed with bitset arithmetic.

    Matches :func:`repro.scenarios.contracts.surviving_sinks`:
    accountability uses the alive-neighbor count of the *full* adjacency,
    outgoing edges only help when both endpoints are alive.
    """
    n = len(adjacency)
    require(n <= CERTIFY_MAX_NODES, f"oracle instances are capped at {CERTIFY_MAX_NODES} nodes")
    alive_bits = _alive_bits(alive)
    out_bits = [0] * n
    for (u, v) in orientation:
        out_bits[u] |= 1 << v
    bad: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        nbr_bits = 0
        for j in adjacency[i]:
            nbr_bits |= 1 << j
        if (nbr_bits & alive_bits).bit_count() < min_degree:
            continue
        if not (out_bits[i] & alive_bits):
            bad.append(i)
    return bad


def _exact_bounds(spec, degree: int) -> Tuple[Fraction, Fraction]:
    """The spec's red-count window in exact rational arithmetic."""
    eps = Fraction(spec.eps)
    return (Fraction(1, 2) - eps) * degree, (Fraction(1, 2) + eps) * degree


def exact_splitting_violations(
    adjacency,
    partition: Sequence,
    spec,
    alive: Optional[Sequence[bool]] = None,
    edge_ok=None,
) -> List[int]:
    """Constrained nodes outside the spec window, recomputed exactly.

    Neighbor counts are popcounts over surviving-view bitsets (weighted on
    multigraphs) and the window check runs in :class:`Fraction` arithmetic
    — no float rounding between ``(1/2 ± eps) · deg`` and the integer red
    count.
    """
    n = len(adjacency)
    require(n <= CERTIFY_MAX_NODES, f"oracle instances are capped at {CERTIFY_MAX_NODES} nodes")
    if alive is None:
        alive = [True] * n
    views, weights, simple = _surviving_views(adjacency, alive, edge_ok)
    red_bits = 0
    for j in range(n):
        if alive[j] and partition[j] == RED:
            red_bits |= 1 << j
    bad: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        if simple:
            degree = views[i].bit_count()
            red = (views[i] & red_bits).bit_count()
        else:
            degree = sum(weights[i].values())
            red = sum(c for j, c in weights[i].items() if red_bits >> j & 1)
        if not spec.constrains(degree):
            continue
        lo, hi = _exact_bounds(spec, degree)
        if not (lo <= red <= hi):
            bad.append(i)
    return bad


def sinkless_feasible(
    adjacency,
    alive: Optional[Sequence[bool]] = None,
    min_degree: int = 1,
) -> bool:
    """Whether *any* orientation of the surviving graph has zero
    accountable sinks — DPLL-style backtracking with unit propagation.

    Each accountable node must claim one of its surviving edges as
    outgoing, and an edge satisfies at most one endpoint; the search
    branches on the unsatisfied node with the fewest free edges, forcing
    single-choice nodes first (unit propagation) and backtracking on
    conflicts.  A recovered sinkless state is a feasibility *witness*, so
    ``recovered`` must imply ``sinkless_feasible(...)`` — the consistency
    check :func:`certify_scenario` applies.
    """
    n = len(adjacency)
    require(n <= CERTIFY_MAX_NODES, f"oracle instances are capped at {CERTIFY_MAX_NODES} nodes")
    if alive is None:
        alive = [True] * n
    # Surviving edge list (parallel edges kept: each is a separate claim).
    edges: List[Tuple[int, int]] = []
    incident: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        if not alive[i]:
            continue
        for j in adjacency[i]:
            if i < j and alive[j]:
                incident[i].append(len(edges))
                incident[j].append(len(edges))
                edges.append((i, j))
    accountable = [
        alive[i] and len(incident[i]) >= min_degree for i in range(n)
    ]
    taken = [False] * len(edges)
    satisfied = [not accountable[i] for i in range(n)]

    def free_edges(i: int) -> List[int]:
        return [e for e in incident[i] if not taken[e]]

    def search(pending: List[int]) -> bool:
        pending = [i for i in pending if not satisfied[i]]
        if not pending:
            return True
        # Unit propagation: a node with one free edge has no choice; a
        # node with none is a conflict.
        pending.sort(key=lambda i: len(free_edges(i)))
        node = pending[0]
        choices = free_edges(node)
        if not choices:
            return False
        for e in choices:
            taken[e] = True
            satisfied[node] = True
            if search(pending[1:]):
                return True
            taken[e] = False
            satisfied[node] = False
        return False

    return search([i for i in range(n) if accountable[i]])


def min_splitting_violations(
    adjacency,
    spec,
    alive: Optional[Sequence[bool]] = None,
    edge_ok=None,
    max_free: int = 20,
) -> int:
    """The minimum violation count any red/blue partition can achieve —
    branch-and-bound over the alive nodes' colorings.

    Nodes are colored in index order; a constrained node becomes a
    *certain* violation as soon as no completion can land it in the spec
    window (reds already exceed ``hi``, or reds plus every undecided
    neighbor fall short of ``lo``), and branches whose certain count
    reaches the incumbent are pruned.  Exponential by design — ``max_free``
    caps the number of alive nodes (default 20).  This bounds what the
    recovery layer can promise: if the optimum is positive, no repair
    schedule can reach zero violations on that instance.
    """
    n = len(adjacency)
    require(n <= CERTIFY_MAX_NODES, f"oracle instances are capped at {CERTIFY_MAX_NODES} nodes")
    if alive is None:
        alive = [True] * n
    free = [i for i in range(n) if alive[i]]
    require(
        len(free) <= max_free,
        f"branch-and-bound is capped at {max_free} alive nodes, got {len(free)}",
    )
    views, weights, simple = _surviving_views(adjacency, alive, edge_ok)

    def neighbor_count(i: int, member_bits: int) -> int:
        if simple:
            return (views[i] & member_bits).bit_count()
        return sum(c for j, c in weights[i].items() if member_bits >> j & 1)

    degrees = {
        i: (views[i].bit_count() if simple else sum(weights[i].values()))
        for i in free
    }
    constrained = [i for i in free if spec.constrains(degrees[i])]
    bounds = {i: _exact_bounds(spec, degrees[i]) for i in constrained}
    best = len(constrained) + 1

    def certain_violations(red_bits: int, undecided_bits: int) -> int:
        count = 0
        for i in constrained:
            red = neighbor_count(i, red_bits)
            open_n = neighbor_count(i, undecided_bits)
            lo, hi = bounds[i]
            if red > hi or red + open_n < lo:
                count += 1
        return count

    def search(idx: int, red_bits: int, undecided_bits: int) -> None:
        nonlocal best
        lower = certain_violations(red_bits, undecided_bits)
        if lower >= best:
            return
        if idx == len(free):
            best = lower
            return
        node_bit = 1 << free[idx]
        search(idx + 1, red_bits | node_bit, undecided_bits & ~node_bit)
        search(idx + 1, red_bits, undecided_bits & ~node_bit)

    search(0, 0, _alive_bits(alive))
    return best


# ---------------------------------------------------------------------------
# Scenario-level certification.
# ---------------------------------------------------------------------------


def certify_scenario(
    scenario,
    n: int = 48,
    seed: int = 0,
    backend: str = "dense",
    recover: bool = True,
    graph_seed: int = 1,
    strict: bool = True,
) -> Dict[str, Union[int, str, List[str]]]:
    """Run one scenario trial and certify its contract verdicts exactly.

    Executes :func:`~repro.scenarios.run.run_scenario` with
    ``return_state=True`` on a small instance, recomputes the contract
    with the matching exact checker, and cross-checks:

    * the recorded ``violations`` (and the Luby split counts) equal the
      oracle's count on the end state;
    * a ``recovered`` run on a settling fault schedule has **zero** exact
      violations — the recovery layer's headline claim (never-settling
      channels only promise best-effort repair and skip this check);
    * a recovered sinkless state is consistent with
      :func:`sinkless_feasible` (the state is a witness, so the DPLL
      oracle must agree).

    Returns a report dict (``ok``, ``mismatches``, the counts); with
    ``strict=True`` (default) any mismatch raises instead, which is how
    the tier-1 property suite consumes it.
    """
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.run import run_scenario

    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    metrics, state = run_scenario(
        sc, n=n, seed=seed, graph_seed=graph_seed, backend=backend,
        recover=recover, return_state=True,
    )
    adjacency = state["adjacency"]
    alive = state["alive"]
    mismatches: List[str] = []

    def check(label: str, recorded, exact) -> None:
        if recorded != exact:
            mismatches.append(f"{label}: recorded {recorded} != exact {exact}")

    if state["pipeline"] == "luby":
        ind, dom = exact_mis_violations(
            adjacency, state["mis"], alive=alive, edge_ok=state["edge_ok"]
        )
        check("independence_violations", metrics["independence_violations"], ind)
        check("domination_violations", metrics["domination_violations"], dom)
        check("violations", metrics["violations"], ind + dom)
        exact_total = ind + dom
    elif state["pipeline"] == "sinkless":
        bad = exact_surviving_sinks(
            adjacency, state["orientation"], alive, state["min_degree"]
        )
        check("violations", metrics["violations"], len(bad))
        exact_total = len(bad)
        if recover and metrics.get("recovered") and exact_total == 0:
            if not sinkless_feasible(adjacency, alive, state["min_degree"]):
                mismatches.append(
                    "recovered sinkless state contradicts the feasibility oracle"
                )
    else:
        bad = exact_splitting_violations(
            adjacency, state["partition"], state["spec"], alive=alive,
            edge_ok=state["edge_ok"],
        )
        check("violations", metrics["violations"], len(bad))
        exact_total = len(bad)
    # The zero-violation guarantee only holds for settling fault schedules
    # — a never-settling channel (churn, iid drops) can hide a violation
    # from the repair probe's clean round, so recovery there is best
    # effort and only the exact-vs-recorded checks above apply.
    if recover and metrics.get("recovered") and state.get("settles", True):
        check("recovered implies zero violations", 0, exact_total)

    report: Dict[str, Union[int, str, List[str]]] = {
        "scenario": sc.name,
        "backend": backend,
        "violations": metrics["violations"],
        "exact_violations": exact_total,
        "recovered": int(metrics.get("recovered", 0)),
        "repair_rounds": int(metrics.get("repair_rounds", 0)),
        "mismatches": mismatches,
        "ok": int(not mismatches),
    }
    require(
        not (strict and mismatches),
        f"certification failed for {sc.name}@{backend}: {mismatches}",
    )
    return report


def certify_all(
    n: int = 48,
    seed: int = 0,
    recover: bool = True,
    strict: bool = True,
) -> List[Dict[str, Union[int, str, List[str]]]]:
    """Certify every registered scenario on each of its backends."""
    from repro.scenarios.registry import all_scenarios

    return [
        certify_scenario(
            sc, n=n, seed=seed, backend=backend, recover=recover, strict=strict,
        )
        for sc in all_scenarios()
        for backend in sc.backends
    ]
