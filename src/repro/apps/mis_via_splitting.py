"""Lemma 4.2 — MIS via splitting-driven heavy-node elimination.

Section 4.2's algorithm, phase by phase:

* A node is *heavy* when its remaining degree is at least ∆/2 (∆ = the
  remaining graph's maximum degree).  ``G'`` is induced by the heavy nodes
  and their neighbors; initially all of ``G'`` is *active*.
* Repeatedly split the active nodes red/blue (constraint: every active node
  keeps a balanced number of red neighbors); blue nodes become passive, as
  does every node with fewer than ``log n`` red (active) neighbors.  After
  ``~2 log ∆`` splits the active graph ``G*`` has maximum degree
  ``< 4 log n`` while heavy nodes that survived keep ``> log n`` active
  neighbors.
* Compute an MIS on ``G*`` (we use Luby — the paper's [BEK14b] black box
  has the same role) and remove the MIS nodes and their neighbors from the
  remaining graph.  Lemma 4.4: each round covers Ω(|V_H| / log³ n) heavy
  nodes, so O(log⁴ n) repetitions empty the heavy set; O(log ∆) phases
  later the whole graph has poly log degree and one final MIS finishes.

For small/medium experimental inputs the asymptotic thresholds are larger
than the graph itself; the implementation therefore degrades explicitly: if
an elimination round makes no progress (or no node qualifies as a splitting
constraint), it falls back to running the MIS step on the current active
graph directly — correctness (a verified MIS) is never compromised, and the
experiments report the split-phase statistics only in the regimes where the
machinery actually engages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.bipartite.instance import RED
from repro.apps.splitting import min_constrained_degree, uniform_splitting
from repro.core.problems import UniformSplittingSpec
from repro.local.ledger import RoundLedger
from repro.mis.luby import is_mis, luby_mis
from repro.utils.mathx import log2
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = ["MISResult", "mis_via_splitting"]


@dataclass
class MISResult:
    """Outcome of the Section 4.2 pipeline."""

    mis: Set[int]  #: the maximal independent set
    phases: int  #: heavy-elimination phases executed
    splits: int  #: total uniform splittings performed
    heavy_history: List[int] = field(default_factory=list)  #: heavy count per phase
    luby_rounds: int = 0  #: simulated rounds spent in MIS subcalls


def _remaining_adjacency(
    adjacency: Sequence[Sequence[int]], alive: Set[int]
) -> List[List[int]]:
    return [
        [w for w in adjacency[v] if w in alive] if v in alive else []
        for v in range(len(adjacency))
    ]


def mis_via_splitting(
    adjacency: Sequence[Sequence[int]],
    seed: SeedLike = 0,
    ledger: Optional[RoundLedger] = None,
    method: str = "dense",
    eps: Optional[float] = None,
    low_degree_factor: float = 4.0,
    max_phases: int = 10_000,
) -> MISResult:
    """Compute a (verified) MIS via splitting-driven heavy-node elimination.

    ``method`` selects the splitter (the Las-Vegas ``"dense"`` kernel by
    default — the derandomized splitter requires degrees Ω(log n/ε²) which
    only large instances meet; experiment E13 uses both).
    ``low_degree_factor · log n`` is the degree below which the endgame MIS
    runs directly.
    """
    rng = ensure_rng(seed)
    n = len(adjacency)
    log_n = max(2.0, log2(max(4, n)))
    low_degree = low_degree_factor * log_n

    alive: Set[int] = set(range(n))
    mis: Set[int] = set()
    phases = 0
    splits = 0
    luby_rounds = 0
    heavy_history: List[int] = []

    while alive and phases < max_phases:
        phases += 1
        rem = _remaining_adjacency(adjacency, alive)
        Delta = max((len(rem[v]) for v in alive), default=0)
        if Delta <= low_degree:
            # Endgame: poly log degree, one MIS finishes everything.
            sub_mis, rounds = _mis_on(rem, alive, rng, ledger)
            luby_rounds += rounds
            mis |= sub_mis
            break

        heavy = {v for v in alive if len(rem[v]) >= Delta / 2.0}
        heavy_history.append(len(heavy))
        g_prime = set(heavy)
        for v in heavy:
            g_prime.update(rem[v])

        # Degree-reduction splits on the active set.  The paper's accuracy is
        # ε = 1/log² n; at experimental scale that demands astronomically
        # large degrees, so the default loosens to 1/log n (capped at 0.24) —
        # still o(1), and the palette arithmetic of Lemma 4.1/4.4 is
        # unaffected in shape.
        active = set(g_prime)
        split_eps = eps if eps is not None else min(0.24, 1.0 / log2(max(4, n)))
        while True:
            act_adj = _remaining_adjacency(adjacency, active & alive)
            act_degree = max((len(act_adj[v]) for v in active), default=0)
            if act_degree <= low_degree:
                break
            spec = UniformSplittingSpec(
                eps=split_eps,
                min_constrained_degree=max(int(low_degree), min_constrained_degree(n, split_eps)),
            )
            try:
                partition = uniform_splitting(
                    act_adj, spec, ledger=ledger, method=method,
                    seed=rng.getrandbits(62),
                )
            except RuntimeError:
                break  # splitter cannot engage; fall through to direct MIS
            splits += 1
            reds = {v for v in active if partition[v] == RED}
            # The paper additionally passivates nodes with < log n red
            # (still-active) neighbors; apply the rule when it leaves a
            # non-empty set (below the asymptotic regime it would empty it).
            strict = {
                v
                for v in reds
                if sum(1 for w in act_adj[v] if w in reds) >= log_n
            }
            new_active = strict if strict else reds
            if not new_active or new_active == active:
                break
            active = new_active

        g_star = _remaining_adjacency(adjacency, active & alive)
        sub_mis, rounds = _mis_on(g_star, active & alive, rng, ledger)
        luby_rounds += rounds
        mis |= sub_mis
        removed = set(sub_mis)
        for v in sub_mis:
            removed.update(w for w in adjacency[v] if w in alive)
        if not removed:
            # No progress through splitting machinery: finish directly.
            sub_mis, rounds = _mis_on(rem, alive, rng, ledger)
            luby_rounds += rounds
            mis |= sub_mis
            break
        alive -= removed

    # Maximality sweep: greedily admit any still-undominated node (this is
    # the final poly log-degree MIS step of the paper, done sequentially).
    for v in sorted(alive):
        if v not in mis and not any(w in mis for w in adjacency[v]):
            mis.add(v)

    require(is_mis(adjacency, mis), "pipeline produced an invalid MIS")
    return MISResult(
        mis=mis,
        phases=phases,
        splits=splits,
        heavy_history=heavy_history,
        luby_rounds=luby_rounds,
    )


def _mis_on(
    rem: Sequence[Sequence[int]],
    members: Set[int],
    rng,
    ledger: Optional[RoundLedger],
) -> Tuple[Set[int], int]:
    """MIS restricted to ``members`` of the (global-index) graph ``rem``."""
    members = sorted(members)
    index = {v: i for i, v in enumerate(members)}
    sub = [[index[w] for w in rem[v] if w in index] for v in members]
    sub_mis, rounds = luby_mis(sub, seed=rng.getrandbits(31), ledger=ledger)
    return {members[i] for i in sub_mis}, rounds
