"""Section 3 — the multicolor splitting variants and their completeness.

Two relaxations of weak splitting (Definitions 1.2 and 1.3) are shown to be
P-RLOCAL-complete.  Completeness has two directions, and both are
implemented:

* **Membership** (the problems are efficiently solvable): Theorems 3.2/3.3
  exhibit randomized 0-round processes whose failure probability union-bounds
  below 1, hence derandomize ([GHK16]) into SLOCAL(2) algorithms and run in
  LOCAL via a ``B²`` coloring.  :func:`weak_multicolor_splitting` and
  :func:`multicolor_splitting` perform exactly that (with randomized
  variants for comparison).

* **Hardness** (solving them lets you solve weak splitting): given a C-weak
  multicolor splitting, each constraint selects ``⌈2 log n⌉`` neighbors with
  pairwise distinct colors; keeping only those edges yields ``B'`` on which
  the given coloring is a proper partial coloring of ``B'²`` — precisely the
  fuel the SLOCAL→LOCAL conversion needs — so weak splitting on ``B'``
  (hence on ``B``) runs in ``O(C)`` more rounds
  (:func:`weak_splitting_from_multicolor`).  And a (C, λ)-multicolor
  splitting oracle boosts itself to per-color fraction ``1/(2 log n)`` in
  ``⌈log_{1/λ}(2 log n)⌉`` iterations via virtual constraint nodes
  (:func:`boost_multicolor_splitting`), at which point every sufficiently
  large constraint must see at least ``2 log n`` distinct colors — a weak
  multicolor splitting (Theorem 3.3's reduction).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bipartite.instance import BipartiteInstance, Coloring
from repro.core.basic import basic_weak_splitting
from repro.core.problems import weak_multicolor_required_colors
from repro.derand.conditional import greedy_minimize
from repro.derand.estimators import MissingColorEstimator, OverloadEstimator
from repro.local.complexity import slocal_conversion_rounds
from repro.local.ledger import RoundLedger
from repro.utils.mathx import log2
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require, require_positive

__all__ = [
    "weak_multicolor_splitting",
    "multicolor_splitting",
    "weak_splitting_from_multicolor",
    "boost_multicolor_splitting",
    "select_rainbow_neighbors",
]


def weak_multicolor_splitting(
    inst: BipartiteInstance,
    n: Optional[int] = None,
    palette: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    strict: bool = True,
    seed: SeedLike = None,
    randomized: bool = False,
) -> Coloring:
    """Solve C-weak multicolor splitting (Theorem 3.2's membership half).

    Variables choose among ``palette = ⌈2 log n⌉`` colors; the derandomized
    run (default) certifies every constraint sees *all* palette colors —
    which implies the Definition 1.3 requirement of >= 2 log n distinct
    colors.  ``randomized=True`` instead samples the 0-round process
    verbatim (no certificate; used by the experiments to measure its
    empirical failure rate).
    """
    if n is None:
        n = inst.n
    n = max(2, n)
    if palette is None:
        palette = weak_multicolor_required_colors(n)
    require(palette >= 2, f"palette must have >= 2 colors, got {palette}")

    if randomized:
        rng = ensure_rng(seed)
        if ledger is not None:
            ledger.charge_simulated(1, "0-round-multicolor")
        return [rng.randrange(palette) for _ in range(inst.n_right)]

    from repro.core.basic import processing_order

    order, num_colors = processing_order(inst, ledger=ledger)
    if ledger is not None:
        ledger.charge(slocal_conversion_rounds(num_colors, radius=2), "slocal-conversion")
    estimator = MissingColorEstimator(inst, palette)
    return greedy_minimize(estimator, order, strict=strict)


def multicolor_splitting(
    inst: BipartiteInstance,
    num_colors: int,
    lam: float,
    ledger: Optional[RoundLedger] = None,
    strict: bool = True,
    seed: SeedLike = None,
    randomized: bool = False,
) -> Coloring:
    """Solve (C, λ)-multicolor splitting (Theorem 3.3's membership half).

    Following the proof, the variables actually use
    ``C' = 3`` colors if λ >= 2/3 and ``C' = ⌈3/λ⌉ <= C`` otherwise; a
    coloring with fewer colors trivially also uses at most ``C`` colors.
    The derandomized run uses the Chernoff pessimistic estimator of
    Equation (2) and certifies no constraint exceeds ``⌈λ·deg(u)⌉``
    neighbors of any color.
    """
    require(num_colors >= 2, f"need C >= 2, got {num_colors}")
    require_positive(lam, "lam")
    require(lam >= 2.0 / num_colors, f"Definition 1.2 needs lam >= 2/C, got {lam}")
    c_prime = 3 if lam >= 2.0 / 3.0 else math.ceil(3.0 / lam)
    c_prime = min(c_prime, num_colors)

    if randomized:
        rng = ensure_rng(seed)
        if ledger is not None:
            ledger.charge_simulated(1, "0-round-(C,lam)")
        return [rng.randrange(c_prime) for _ in range(inst.n_right)]

    from repro.core.basic import processing_order

    order, pg_colors = processing_order(inst, ledger=ledger)
    if ledger is not None:
        ledger.charge(slocal_conversion_rounds(pg_colors, radius=2), "slocal-conversion")
    estimator = OverloadEstimator(inst, c_prime, lam)
    return greedy_minimize(estimator, order, strict=strict)


def select_rainbow_neighbors(
    inst: BipartiteInstance, coloring: Coloring, count: int
) -> Tuple[BipartiteInstance, List[int]]:
    """Per-constraint rainbow selection ``S(u)`` of the Theorem 3.2 reduction.

    Each constraint keeps ``count`` incident edges to neighbors with
    pairwise distinct colors (raises if some constraint cannot — i.e. the
    multicolor solution it was given is invalid).  Returns the kept-edge
    subgraph ``B'`` and its edge map.
    """
    keep: List[int] = []
    for u in range(inst.n_left):
        chosen_colors: Set[int] = set()
        chosen_edges: List[int] = []
        for e in inst.left_inc[u]:
            v = inst.edges[e][1]
            c = coloring[v]
            if c is not None and c not in chosen_colors:
                chosen_colors.add(c)
                chosen_edges.append(e)
                if len(chosen_edges) == count:
                    break
        require(
            len(chosen_edges) >= count,
            f"constraint {u} sees only {len(chosen_edges)} distinct colors "
            f"< required {count} — the multicolor splitting input is invalid",
        )
        keep.extend(chosen_edges)
    return inst.subgraph(keep)


def weak_splitting_from_multicolor(
    inst: BipartiteInstance,
    multicolor: Coloring,
    n: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
) -> Coloring:
    """Theorem 3.2's hardness direction: weak splitting from a C-weak
    multicolor splitting, in ``O(C)`` additional rounds.

    Builds ``B'`` by rainbow selection, checks that the given coloring is a
    proper partial coloring of ``B'²`` restricted to the variables (any two
    variables sharing a constraint in ``B'`` have distinct colors — true by
    construction), then runs the SLOCAL(2) weak splitting of Lemma 3.1 in
    color-class order.  The result weakly splits ``B'`` and therefore ``B``.
    """
    if n is None:
        n = inst.n
    n = max(2, n)
    count = weak_multicolor_required_colors(n)
    b_prime, _edge_map = select_rainbow_neighbors(inst, multicolor, count)

    # The multicolor classes are proper on B'^2 (variable side): verify.
    for u in range(b_prime.n_left):
        seen: Set[int] = set()
        for v in b_prime.left_neighbors(u):
            c = multicolor[v]
            require(c not in seen, "rainbow selection produced a color clash")
            seen.add(c)

    order = sorted(range(b_prime.n_right), key=lambda v: (multicolor[v], v))
    num_classes = len({multicolor[v] for v in range(b_prime.n_right)}) or 1
    if ledger is not None:
        ledger.charge(
            slocal_conversion_rounds(num_classes, radius=2),
            "weak-splitting-via-multicolor-classes",
        )
    # B' has delta = count = ceil(2 log n) >= 2 log n: Lemma 3.1 applies.
    return basic_weak_splitting(b_prime, ledger=None, strict=True, order=order)


def boost_multicolor_splitting(
    inst: BipartiteInstance,
    num_colors: int,
    lam: float,
    solver: Optional[Callable[[BipartiteInstance], Coloring]] = None,
    n: Optional[int] = None,
    alpha: float = 2.0,
    ledger: Optional[RoundLedger] = None,
    max_iterations: Optional[int] = None,
) -> Tuple[Coloring, int, int]:
    """Theorem 3.3's hardness direction: iterate a (C, λ) oracle until the
    per-color fraction drops to ``1/(2 log n)``.

    At iteration ``i``, every constraint ``u`` spawns one *virtual
    constraint* per color class of its neighborhood under the current
    combined coloring; virtual constraints of degree below ``α·λ·ln n`` are
    dropped (their class is already small enough and, by the floor, stays
    so).  The oracle — by default the Theorem 3.3 membership algorithm —
    splits each class into ``C`` sub-classes with per-color cap
    ``⌈λ·(class size)⌉``; combining old and new colors multiplies the
    palette by at most ``C`` and shrinks every large class by factor λ.

    Returns ``(coloring, palette_size, iterations)`` with every constraint
    guaranteed at most ``max(λ^i·deg(u), ~α·λ·ln n · (1+λ))`` neighbors per
    color, which for the theorem's degree regime means at least ``2 log n``
    distinct colors per constraint.
    """
    require(0 < lam < 1, f"boosting needs 0 < lam < 1, got {lam}")
    if n is None:
        n = inst.n
    n = max(2, n)
    if solver is None:
        def solver(sub: BipartiteInstance) -> Coloring:
            return multicolor_splitting(sub, num_colors, lam, ledger=ledger, strict=False)

    target_fraction = 1.0 / (2.0 * log2(n))
    iterations = max_iterations
    if iterations is None:
        iterations = math.ceil(math.log(2.0 * log2(n)) / math.log(1.0 / lam))
    min_virtual_degree = alpha * lam * math.log(n)

    combined: List[Tuple[int, ...]] = [(0,) for _ in range(inst.n_right)]
    for _it in range(iterations):
        # Group each constraint's edges by current combined color.
        virtual_edges: List[Tuple[int, int]] = []
        n_virtual = 0
        for u in range(inst.n_left):
            classes: Dict[Tuple[int, ...], List[int]] = {}
            for v in inst.left_neighbors(u):
                classes.setdefault(combined[v], []).append(v)
            for _color, members in sorted(classes.items()):
                if len(members) < min_virtual_degree:
                    continue
                vid = n_virtual
                n_virtual += 1
                for v in members:
                    virtual_edges.append((vid, v))
        if n_virtual == 0:
            break
        sub = BipartiteInstance(n_virtual, inst.n_right, virtual_edges, allow_multi=True)
        new_colors = solver(sub)
        combined = [
            combined[v] + (new_colors[v] if new_colors[v] is not None else 0,)
            for v in range(inst.n_right)
        ]

    palette: Dict[Tuple[int, ...], int] = {}
    flat: Coloring = []
    for v in range(inst.n_right):
        flat.append(palette.setdefault(combined[v], len(palette)))
    return flat, len(palette), iterations
