"""The Section 4 (uniform / strong) splitting problem on general graphs.

Section 4 treats splitting as an oracle: divide the nodes into red and blue
so every constrained node keeps between ``(1/2 − ε)d`` and ``(1/2 + ε)d``
neighbors on each side.  The paper reduces coloring (Lemma 4.1) and MIS
(Lemma 4.2) *to* this oracle; the oracle itself is realized here the same
way every splitting in this reproduction is realized:

* a randomized 0-round process (uniform coin per node), valid w.h.p. when
  every constrained degree is Ω(log n / ε²) — both as a centralized coin
  flip (``method="random"``) and as a genuine message-passing LOCAL
  algorithm (:class:`ZeroRoundSplitting`, ``method="local"``) whose single
  communication round broadcasts each node's color, and as its dense numpy
  kernel (``method="dense"``);
* its derandomization by conditional expectations with a two-sided
  Chernoff/MGF pessimistic estimator (:class:`BalancedSplitEstimator`),
  giving a deterministic SLOCAL(2) algorithm run in LOCAL via a ``B²``
  coloring — mirroring Lemma 2.1's structure one-for-one.

The Remark in Section 4.1 (virtual δ-clique gadgets that lift low-degree
nodes to degree δ) is provided by :func:`attach_clique_gadgets` and tested,
though the pipelines use the equivalent "unconstrained below δ" formulation
the Remark proves interchangeable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring
from repro.core.basic import processing_order
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.derand.conditional import DerandomizationError, greedy_minimize
from repro.derand.estimators import ColoringEstimator
from repro.local.complexity import slocal_conversion_rounds
from repro.local.engine import CSREngine
from repro.local.ledger import RoundLedger
from repro.local.network import LocalAlgorithm, Network, NodeView, run_local
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = [
    "BalancedSplitEstimator",
    "ZeroRoundSplitting",
    "uniform_splitting",
    "min_constrained_degree",
    "attach_clique_gadgets",
]


def min_constrained_degree(n: int, eps: float, slack: float = 1.1) -> int:
    """Smallest degree the derandomized splitter can certify.

    With MGF parameter ``t = 1 + 2ε`` both tails of
    :class:`BalancedSplitEstimator` decay at rate

        rate(ε) = (1/2 + ε)·ln(1 + 2ε) − ln(1 + ε)   (≈ (3/2)ε² for small ε),

    per unit of degree, so the union over ``n`` nodes (two tails each) stays
    below 1 once ``d >= ln(4n) / rate(ε)``.  ``slack`` adds headroom for the
    ceiling effects in the thresholds.  This is the concrete form of the
    paper's "splitting needs ∆ = Ω(log n / ε²)" remark (Section 1.1).
    """
    require(0 < eps < 0.5, f"eps must lie in (0, 1/2), got {eps}")
    rate = (0.5 + eps) * math.log1p(2.0 * eps) - math.log1p(eps)
    return math.ceil(slack * math.log(4.0 * max(2, n)) / rate)


class BalancedSplitEstimator(ColoringEstimator):
    """Two-sided MGF pessimistic estimator for uniform splitting.

    For constrained node ``u`` of degree ``d`` let ``X`` be its final red
    neighbor count; failure is ``X > hi_u`` or ``X < lo_u`` with
    ``hi_u = ⌊(1/2+ε)d⌋`` and ``lo_u = ⌈(1/2−ε)d⌉``.  With MGF parameter
    ``t = 1 + 2ε``,

        up(u) = t^{red(u)} · ((1+t)/2)^{free(u)} / t^{hi_u + 1}
        dn(u) = t^{−red(u)} · ((1+1/t)/2)^{free(u)} · t^{lo_u − 1}

    each upper-bounds its tail (Markov on ``t^{±X}``) and is a martingale
    under uniform completion, so the greedy argmin preserves ``Σ (up + dn)``.
    """

    num_colors = 2

    def __init__(self, inst: BipartiteInstance, spec: UniformSplittingSpec) -> None:
        self.inst = inst
        self.spec = spec
        self.t = 1.0 + 2.0 * spec.eps
        self.up_step = (1.0 + self.t) / 2.0  # E[t^{coin}] for one free var
        self.dn_step = (1.0 + 1.0 / self.t) / 2.0
        self.free: List[int] = [inst.left_degree(u) for u in range(inst.n_left)]
        self.red: List[int] = [0] * inst.n_left
        self.hi: List[int] = []
        self.lo: List[int] = []
        for u in range(inst.n_left):
            d = inst.left_degree(u)
            self.hi.append(math.floor(spec.hi(d)))
            self.lo.append(math.ceil(spec.lo(d)))
        self._value = sum(self._contribution(u) for u in range(inst.n_left))

    def _contribution(self, u: int) -> float:
        t = self.t
        up = (t ** self.red[u]) * (self.up_step ** self.free[u]) / (t ** (self.hi[u] + 1))
        dn = (t ** (-self.red[u])) * (self.dn_step ** self.free[u]) * (t ** (self.lo[u] - 1))
        return up + dn

    def value(self) -> float:
        return self._value

    def gain(self, v: int, color: int) -> float:
        require(color in (RED, BLUE), f"invalid color {color}")
        delta = 0.0
        for u in self.inst.right_neighbors(v):
            old = self._contribution(u)
            self.free[u] -= 1
            if color == RED:
                self.red[u] += 1
            new = self._contribution(u)
            # restore
            self.free[u] += 1
            if color == RED:
                self.red[u] -= 1
            delta += new - old
        return delta

    def commit(self, v: int, color: int) -> None:
        self._value += self.gain(v, color)
        for u in self.inst.right_neighbors(v):
            self.free[u] -= 1
            if color == RED:
                self.red[u] += 1

    def violations(self) -> int:
        """Fully-decided constraints outside [lo, hi]."""
        return sum(
            1
            for u in range(self.inst.n_left)
            if self.free[u] == 0 and not (self.lo[u] <= self.red[u] <= self.hi[u])
        )


class ZeroRoundSplitting(LocalAlgorithm):
    """Section 4.1's 0-round splitting as a message-passing LOCAL algorithm.

    Each node flips a uniform coin for its own color before round 1; round 1
    sends the color on every port; on receive every constrained node checks
    its red neighbor count against the spec and reports validity.  Output per node
    is ``(color, ok)``; one communication round total — the 0-round process
    plus the standard 1-round verification.
    """

    def __init__(self, spec: UniformSplittingSpec) -> None:
        self.spec = spec

    def init(self, view: NodeView) -> None:
        view.state["color"] = RED if view.rng.random() < 0.5 else BLUE

    def send(self, view: NodeView, round_no: int) -> Dict[int, int]:
        color = view.state["color"]
        return {p: color for p in range(view.degree)}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, int]) -> None:
        d = view.degree
        if self.spec.constrains(d):
            red = 0
            for c in inbox.values():
                if c == RED:
                    red += 1
            ok = self.spec.lo(d) <= red <= self.spec.hi(d)
        else:
            ok = True
        view.output = (view.state["color"], ok)
        view.halted = True


def _constraint_instance(
    adjacency: Sequence[Sequence[int]], spec: UniformSplittingSpec
) -> BipartiteInstance:
    """Bipartite view: constrained nodes (left) vs. all nodes (right)."""
    n = len(adjacency)
    constrained = [v for v in range(n) if spec.constrains(len(adjacency[v]))]
    edges = [(i, w) for i, v in enumerate(constrained) for w in adjacency[v]]
    return BipartiteInstance(len(constrained), n, edges, allow_multi=True)


def uniform_splitting(
    adjacency: Sequence[Sequence[int]],
    spec: UniformSplittingSpec,
    ledger: Optional[RoundLedger] = None,
    method: str = "derandomized",
    seed: SeedLike = None,
    max_attempts: int = 64,
    engine: Optional[CSREngine] = None,
) -> List[int]:
    """Split a general graph's nodes red/blue per the Section 4.1 spec.

    ``method="derandomized"`` (default) certifies the result whenever every
    constrained degree is at least :func:`min_constrained_degree` (raises
    :class:`DerandomizationError` otherwise); ``method="random"`` runs the
    0-round process Las-Vegas (verify and retry); ``method="local"`` runs
    the same Las-Vegas process as a genuine message-passing algorithm
    (:class:`ZeroRoundSplitting`) on :func:`~repro.local.network.run_local`,
    with the validity check distributed to the nodes themselves; ``method="dense"`` runs the
    identical Las-Vegas loop through the vectorized numpy kernel
    (:func:`repro.local.dense.uniform_splitting_dense`), which draws the
    same keyed node coins, so its accepted partition is bit-identical to
    ``method="local"`` for the same seed.  A prebuilt
    ``engine`` over the same adjacency amortizes validation and CSR packing
    across calls (used by the ``local`` and ``dense`` methods only).

    The run is fault-free; faulty and recovering runs go through
    :func:`repro.scenarios.run_scenario`, which rebinds the fault schedule
    on every attempt's own seed.

    There is no batched method: for many master seeds, loop
    ``method="dense"`` over them with one shared ``engine``.
    ``max_attempts`` must be at least 1 for the Las-Vegas methods
    (``random``, ``local``, ``dense``).
    """
    require(
        method in ("derandomized", "random", "local", "dense"),
        f"unknown method {method!r}",
    )
    require(
        method == "derandomized" or max_attempts >= 1,
        f"max_attempts must be >= 1, got {max_attempts}",
    )
    n = len(adjacency)

    if method in ("local", "dense"):
        rng = ensure_rng(seed)
        if engine is None:
            engine = CSREngine(Network(adjacency))
        if method == "dense":
            from repro.local.dense import uniform_splitting_dense
        else:
            algorithm = ZeroRoundSplitting(spec)
        for _ in range(max_attempts):
            run_seed = rng.randrange(2**31)
            if method == "dense":
                dense = uniform_splitting_dense(engine, spec, seed=run_seed)
                rounds, accepted = dense.rounds, bool(dense.ok)
            else:
                result = run_local(engine.network, algorithm, max_rounds=1, seed=run_seed)
                rounds = result.rounds
                accepted = all(v.output[1] for v in result.views)
            if ledger is not None:
                ledger.charge_simulated(rounds, "0-round-splitting+check")
            if accepted:
                if method == "dense":
                    return dense.colors.tolist()
                return [v.output[0] for v in result.views]
        raise RuntimeError(
            f"{method} uniform splitting failed {max_attempts} times; "
            "constrained degrees are below the w.h.p. regime"
        )

    inst = _constraint_instance(adjacency, spec)

    if method == "random":
        rng = ensure_rng(seed)
        for _ in range(max_attempts):
            partition = [RED if rng.random() < 0.5 else BLUE for _ in range(n)]
            if ledger is not None:
                ledger.charge_simulated(1, "0-round-splitting+check")
            if not uniform_splitting_violations(adjacency, partition, spec):
                return partition
        raise RuntimeError(
            f"random uniform splitting failed {max_attempts} times; "
            "constrained degrees are below the w.h.p. regime"
        )

    order, num_colors = processing_order(inst, ledger=ledger)
    if ledger is not None:
        ledger.charge(slocal_conversion_rounds(num_colors, radius=2), "slocal-conversion")
    estimator = BalancedSplitEstimator(inst, spec)
    partition = greedy_minimize(estimator, order, strict=True)
    return [c if c is not None else RED for c in partition]


def attach_clique_gadgets(
    adjacency: Sequence[Sequence[int]], delta: int
) -> Tuple[List[List[int]], int]:
    """The Remark's gadget: lift every node below degree ``delta``.

    Every node ``v`` with ``deg(v) < delta`` receives a private virtual
    ``delta``-clique, ``delta − deg(v)`` of whose members are joined to
    ``v``.  The result has minimum degree >= ``delta`` while the original
    nodes' neighborhoods only gain virtual nodes (so a uniform splitting of
    the gadget graph restricted to original nodes solves the modified
    problem).  Returns ``(new adjacency, original node count)``.
    """
    require(delta >= 1, f"delta must be >= 1, got {delta}")
    n = len(adjacency)
    new_adj: List[List[int]] = [list(nbrs) for nbrs in adjacency]
    for v in range(n):
        missing = delta - len(adjacency[v])
        if missing <= 0:
            continue
        base = len(new_adj)
        for _ in range(delta):
            new_adj.append([])
        clique = list(range(base, base + delta))
        for i in clique:
            for j in clique:
                if i < j:
                    new_adj[i].append(j)
                    new_adj[j].append(i)
        for i in clique[:missing]:
            new_adj[v].append(i)
            new_adj[i].append(v)
    return new_adj, n
