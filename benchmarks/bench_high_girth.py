"""E14 — Section 5 (girth >= 10 instances).

Paper claims (Lemma 5.1, Theorems 5.2/5.3): on girth >= 10 instances with
δ = Ω(√log n), one shattering round leaves a residual with δ_H >= 6·r_H
(here: residual rank collapses to <= 1 with δ_H >= δ/4 >= 2), after which
the Theorem 2.7 machinery finishes in poly log rounds.  We run the
scalable acyclic family (exact independence; genuinely cyclic girth-10
instances with large δ exceed laptop scale) and validate the cyclic
incidence construction separately.
"""

import math

import pytest

from repro.bipartite import bipartite_girth, high_girth_instance, tree_instance
from repro.core import (
    high_girth_weak_splitting,
    is_weak_splitting,
    shatter_until_low_rank,
)
from repro.local import RoundLedger

from _harness import attach_rows


def test_e14_residual_regime_on_forest_family(benchmark):
    rows = []
    for d in (16, 20, 24):
        inst = tree_instance(roots=25, d=d, r=2)
        out = shatter_until_low_rank(inst, seed=d)
        res = out.residual
        delta_h = (
            min(res.left_degree(u) for u in range(res.n_left)) if res.n_left else None
        )
        rows.append((d, inst.n, len(out.unsatisfied), res.rank, delta_h))
        if res.n_left:
            assert (res.rank <= 1 and delta_h >= 2) or delta_h >= 6 * res.rank

    inst = tree_instance(roots=25, d=20, r=2)
    benchmark(lambda: shatter_until_low_rank(inst, seed=5))
    attach_rows(
        benchmark,
        "E14 (Lemma 5.1): residual after shattering on girth-inf instances",
        ["delta", "n", "#unsatisfied", "r_H", "delta_H"],
        rows,
    )


def test_e14_full_pipelines(benchmark):
    inst = tree_instance(roots=20, d=20, r=2)
    rows = []
    for det in (True, False):
        led = RoundLedger()
        coloring = high_girth_weak_splitting(inst, seed=6, ledger=led, deterministic=det)
        assert is_weak_splitting(inst, coloring)
        rows.append(("Thm 5.2 (det)" if det else "Thm 5.3 (rand)", led.total))

    benchmark(lambda: high_girth_weak_splitting(inst, seed=7, deterministic=False))
    attach_rows(
        benchmark,
        "E14 (Theorems 5.2/5.3): high-girth pipelines, rounds",
        ["pipeline", "rounds"],
        rows,
    )


def test_e14_cyclic_incidence_construction(benchmark):
    rows = []
    for n, d in ((120, 4), (200, 4)):
        inst = high_girth_instance(n, d, seed=n, min_delta=2)
        g = bipartite_girth(inst)
        rows.append((n, d, inst.delta, inst.rank, g if g is not None else "acyclic"))
        assert g is None or g >= 10
        assert inst.rank == 2

    benchmark(lambda: high_girth_instance(120, 4, seed=1, min_delta=2))
    attach_rows(
        benchmark,
        "E14: genuinely cyclic girth >= 10 incidence instances",
        ["n_G", "d", "delta_B", "rank_B", "girth"],
        rows,
    )
