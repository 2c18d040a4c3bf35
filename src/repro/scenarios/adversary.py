"""Adversarial graph presentations: renamings, port orders, multi-edges.

These perturbations inject no runtime faults — they attack the *inputs*
the LOCAL model lets an adversary pick: the unique identifiers, the port
numbering, and edge multiplicities.  A correct algorithm must produce a
valid output under every such presentation, so scenarios built from these
run with ``strict=True``: the verifier-checked contract must hold exactly.

Because they are rewrite-only, all three bind to the identity
:class:`~repro.scenarios.base.BoundPerturbation`, whose vectorized
``delivers_mask`` / ``crashes_mask`` surface is trivially fault-free —
the dense adapter's capability flags skip their mask
builds entirely, so adversarial scenarios keep the fault-free hot path.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.scenarios.base import Perturbation
from repro.utils.validation import require

__all__ = ["AdversarialIDs", "PortScramble", "MultiEdgeLift"]

Adjacency = List[List[int]]


class AdversarialIDs(Perturbation):
    """Degree-rank relabeling: identifiers ordered by degree.

    ``order="hubs_high"`` gives the highest-degree nodes the largest uids
    (they win every uid tie-break); ``"hubs_low"`` inverts that.  Since
    each node's private coins are keyed by its uid on every backend, this
    also adversarially reassigns the coins — a naming attack the analyses
    must be indifferent to.
    """

    def __init__(self, order: str = "hubs_high"):
        require(order in ("hubs_high", "hubs_low"), f"unknown order {order!r}")
        self.order = order

    def rewrite(self, adjacency: Adjacency, ids: List[int]) -> Tuple[Adjacency, List[int]]:
        n = len(adjacency)
        rank = sorted(range(n), key=lambda i: (len(adjacency[i]), ids[i]))
        new_ids = [0] * n
        for pos, i in enumerate(rank):
            new_ids[i] = pos if self.order == "hubs_high" else n - 1 - pos
        return adjacency, new_ids


class PortScramble(Perturbation):
    """Adversarial port permutation: each node's neighbor list is shuffled
    by a deterministic per-node permutation (keyed on ``salt`` and the
    node's uid).  Port pairings are re-derived by the simulator's
    order-of-appearance rule, so the wiring an algorithm observes — which
    port leads where — changes completely while the graph stays the same.
    """

    def __init__(self, salt: int = 0):
        self.salt = salt

    def rewrite(self, adjacency: Adjacency, ids: List[int]) -> Tuple[Adjacency, List[int]]:
        scrambled: Adjacency = []
        for i, nbrs in enumerate(adjacency):
            row = list(nbrs)
            random.Random(f"ports/{self.salt}/{ids[i]}").shuffle(row)
            scrambled.append(row)
        return scrambled, ids


class MultiEdgeLift(Perturbation):
    """Weighted/multi-edge variant: every edge duplicated ``times`` times.

    Each adjacency entry is repeated, multiplying every degree (and every
    neighbor count a verifier sees) by ``times`` — an integer-weighted
    graph in the multigraph encoding the simulators already support.
    Splitting specs with affine bounds remain meaningful on the lift; MIS
    is unchanged semantically but the algorithm now has to cope with
    parallel ports.
    """

    def __init__(self, times: int = 2):
        require(times >= 1, f"times must be >= 1, got {times}")
        self.times = times

    def rewrite(self, adjacency: Adjacency, ids: List[int]) -> Tuple[Adjacency, List[int]]:
        lifted = [[j for j in nbrs for _ in range(self.times)] for nbrs in adjacency]
        return lifted, ids
