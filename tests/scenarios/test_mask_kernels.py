"""Property tests for the vectorized fault-mask kernels.

Three layers of guarantees:

* **coin kernels** — :func:`keyed_u01_array` and the per-node-prefix
  :func:`keyed_u01_slots` match the scalar :func:`keyed_u01` chain bit
  for bit (scalar and vectorized executors may interleave decisions in any
  order);
* **mask surface** — for every registered scenario, on index uids and on
  uids spread over the whole int64 range, the :class:`DenseFaults` masks
  equal a per-slot scalar sweep of the pure ``delivers`` / ``crashes``
  decisions, ``delivered_in`` is the partner-gather of ``delivered_out``,
  and the check-range masks are ``delivered_in`` / ``corrupted_in``
  gathered through the engine's check-order slot permutation;
* **lifecycle** — rounds past the quiet horizon reuse one steady-state
  mask (persistent deletions stay down, healed stacks return ``None``),
  and never-settling stacks keep a bounded cache.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.local import CSREngine, Network
from repro.local.dense import luby_mis_dense
from repro.scenarios import (
    CrashNodes,
    DropEdges,
    IIDMessageDrop,
    MuteHubs,
    all_scenarios,
    bind_all,
    rewrite_all,
    run_scenario,
)
from repro.scenarios.masks import DenseFaults
from repro.utils.rng import keyed_u01, keyed_u01_array, keyed_u01_slots


def small_graph(seed, n=24, edges=70):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for _ in range(edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def wide_ids(n, seed):
    """``n`` distinct int64 identifiers across the whole range, both
    extremes and -1 included: the fault coins are keyed on these uids."""
    rng = random.Random(seed)
    ids = {-(2**63), 2**63 - 1, -1, 0}
    while len(ids) < n:
        ids.add(rng.getrandbits(64) - 2**63)
    ids = sorted(ids)[:n]
    rng.shuffle(ids)
    return ids


#: Identifier layouts the scenarios' rewrites start from.
ID_LAYOUTS = {
    "index-ids": lambda n, seed: None,
    "wide-ids": wide_ids,
}


class TestCoinKernels:
    def test_array_chain_matches_scalar_chain(self):
        ent = np.arange(500, dtype=np.int64) * 7919
        ports = np.arange(500, dtype=np.int64) % 11
        got = keyed_u01_array(99, "churn", ent, ports, 3)
        expect = [keyed_u01(99, "churn", int(e), int(p), 3) for e, p in zip(ent, ports)]
        assert got.tolist() == expect

    def test_coins_are_keyed_uniforms(self):
        ent = np.arange(20_000, dtype=np.int64)
        u = keyed_u01_array(1, "drop", ent, 1)
        assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.02  # 3.5 sigma at n=20k
        # Distinct along every key axis, identical on repetition.
        v = keyed_u01_array(1, "drop", ent, 2)
        w = keyed_u01_array(2, "drop", ent, 1)
        x = keyed_u01_array(1, "late", ent, 1)
        assert (u != v).mean() > 0.99
        assert (u != w).mean() > 0.99
        assert (u != x).mean() > 0.99
        assert np.array_equal(u, keyed_u01_array(1, "drop", ent, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        uids=st.lists(
            st.one_of(
                st.integers(-(2**63), 2**63 - 1),
                st.integers(2**63 - 8, 2**63 - 1),
                st.integers(-8, -1),
            ),
            min_size=1,
            max_size=12,
        ),
        picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 40)), max_size=40),
        round_no=st.sampled_from([1, 2, 7, 2**40]),
    )
    @example(seed=0, uids=[2**63 - 1, -1], picks=[], round_no=1)
    @example(seed=2**64 - 1, uids=[-(2**63), 2**63 - 1, -1],
             picks=[(2, 5), (0, 0), (2, 5), (1, 40), (0, 3)], round_no=2**40)
    def test_slot_prefix_helper_matches_full_chain(self, seed, uids, picks, round_no):
        # Per-node prefix + per-slot port link == the full per-slot chain,
        # for repeated/unsorted senders, empty slot lists and extreme uids.
        uid_arr = np.array(uids, dtype=np.int64)
        senders = np.array([s % len(uids) for s, _ in picks], dtype=np.int64)
        ports = np.array([p for _, p in picks], dtype=np.int64)
        got = keyed_u01_slots(seed, "drop", uid_arr, round_no, senders, ports)
        full = keyed_u01_array(seed, "drop", uid_arr[senders], round_no, ports)
        assert got.dtype == np.float64 and got.shape == senders.shape
        assert np.array_equal(got, full)
        assert got.tolist() == [
            keyed_u01(seed, "drop", int(uid_arr[s]), round_no, int(p))
            for s, p in zip(senders, ports)
        ]


def scalar_delivered(bound, engine, round_no):
    senders, ports, _ = engine.slot_layout()
    return np.array(
        [
            all(b.delivers(round_no, int(s), int(p)) for b in bound)
            for s, p in zip(senders, ports)
        ],
        dtype=bool,
    )


def scalar_crashed(bound, n, round_no):
    mask = np.zeros(n, dtype=bool)
    for b in bound:
        mask[list(b.crashes(round_no))] = True
    return mask


class TestMasksMatchScalarDecisions:
    """DenseFaults masks == the per-slot scalar sweep, per scenario."""

    @pytest.mark.parametrize("sc", all_scenarios(), ids=lambda s: s.name)
    @pytest.mark.parametrize("layout_ids", ID_LAYOUTS.values(), ids=ID_LAYOUTS.keys())
    def test_registered_scenario_masks(self, layout_ids, sc):
        base = small_graph(hash(sc.name) % 997)
        adjacency, ids = rewrite_all(sc.perturbations, base, layout_ids(len(base), 3))
        net = Network(adjacency, ids=ids)
        engine = CSREngine(net)
        partner = engine.slot_layout()[2]
        bound = bind_all(sc.perturbations, net, fault_seed=42)
        faults = DenseFaults(engine, bound)
        for round_no in (1, 2, 3, 4, 5, 9, 40):
            out = faults.delivered_out(round_no)
            got = out if out is not None else np.ones(partner.shape[0], bool)
            assert np.array_equal(got, scalar_delivered(bound, engine, round_no)), (
                sc.name, round_no,
            )
            din = faults.delivered_in(round_no)
            if out is None:
                assert din is None
            else:
                assert np.array_equal(din, out[partner])
            crash = faults.crashed_at(round_no)
            got_crash = crash if crash is not None else np.zeros(net.n, bool)
            assert np.array_equal(got_crash, scalar_crashed(bound, net.n, round_no))

    @pytest.mark.parametrize("sc", all_scenarios(), ids=lambda s: s.name)
    @pytest.mark.parametrize("layout_ids", ID_LAYOUTS.values(), ids=ID_LAYOUTS.keys())
    def test_slot_range_masks_equal_whole_round_slices(self, layout_ids, sc):
        # Range masks address positions of the ascending-degree check order
        # and are built receive-side from (check_node, check_port); the
        # whole-round ones are partner gathers of the outgoing masks, here
        # gathered through the check order's slot permutation.
        rng = random.Random(sc.name)
        base = small_graph(rng.randrange(991))
        adjacency, ids = rewrite_all(sc.perturbations, base, layout_ids(len(base), 4))
        net = Network(adjacency, ids=ids)
        engine = CSREngine(net)
        m = int(net.offsets[-1])
        order, _, _ = engine.check_order()
        perm = np.array(
            [k for v in order for k in range(net.offsets[v], net.offsets[v + 1])],
            dtype=np.int64,
        )
        cuts = sorted(rng.randrange(m + 1) for _ in range(6))
        spans = [(0, m), (0, 0), (m, m)] + list(zip(cuts, cuts[1:]))
        bound = bind_all(sc.perturbations, net, fault_seed=17)
        whole = DenseFaults(engine, bound)
        ranged = DenseFaults(engine, bound)
        for round_no in (1, 2, 3, 5, 40):
            din = whole.delivered_in(round_no)
            cin = whole.corrupted_in(round_no)
            for a, b in spans:
                got = ranged.delivered_in_range(round_no, a, b)
                want = np.ones(m, bool) if din is None else din[perm]
                assert np.array_equal(
                    np.ones(b - a, bool) if got is None else got, want[a:b]
                ), (sc.name, round_no, a, b)
                got = ranged.corrupted_in_range(round_no, a, b)
                want = np.zeros(m, bool) if cin is None else cin[perm]
                assert np.array_equal(
                    np.zeros(b - a, bool) if got is None else got, want[a:b]
                ), (sc.name, round_no, a, b)

    def test_range_masks_build_no_slot_layout(self):
        # A splitting attempt reads only check-range masks, so it must not
        # pay for the engine's O(m) whole-round slot coordinates.
        from repro.scenarios import CorruptMessages

        net = Network(small_graph(9))
        engine = CSREngine(net)
        bound = bind_all((IIDMessageDrop(p=0.3), CorruptMessages(p=0.3)), net, 4)
        faults = DenseFaults(engine, bound)
        m = int(net.offsets[-1])
        assert faults.delivered_in_range(1, 0, m) is not None
        assert faults.corrupted_in_range(1, 0, m) is not None
        assert engine._layout is None
        faults.delivered_in(1)
        assert engine._layout is not None

    def test_scalar_fallback_for_unvectorized_perturbations(self):
        from repro.scenarios.base import BoundPerturbation, Perturbation

        class OddSlotDrop(Perturbation):
            def bind(self, network, fault_seed):
                b = BoundPerturbation()
                b.drops_messages = True
                b.quiet_after = None
                b.delivers = lambda r, s, p: (s + p + r) % 2 == 0
                return b

        adj = small_graph(3)
        net = Network(adj)
        engine = CSREngine(net)
        bound = bind_all((OddSlotDrop(),), net, fault_seed=0)
        faults = DenseFaults(engine, bound)
        for r in (1, 2):
            assert np.array_equal(
                faults.delivered_out(r), scalar_delivered(bound, engine, r)
            )


class TestQuietHorizon:
    def test_steady_state_masks_are_reused_not_rebuilt(self):
        adj = small_graph(5)
        net = Network(adj)
        engine = CSREngine(net)
        bound = bind_all(
            (CrashNodes(0.2, at_round=2), DropEdges(0.3, at_round=3)), net, fault_seed=7
        )
        faults = DenseFaults(engine, bound)
        assert faults.quiet == 3
        # Deletions persist: the steady mask equals the scalar schedule at
        # any later round, and the stack never "expires".
        steady = faults.delivered_out(1000)
        assert np.array_equal(steady, scalar_delivered(bound, engine, 1000))
        assert steady is faults.delivered_out(2000)  # one build, reused
        assert not faults.expired(100)
        faults.delivered_in(500)
        faults.crashed_at(500)
        size = len(faults._cache)
        for r in range(10, 400, 13):
            faults.delivered_out(r)
            faults.delivered_in(r)
            faults.crashed_at(r)
        assert len(faults._cache) == size

    def test_healed_stack_expires(self):
        adj = small_graph(6)
        net = Network(adj)
        engine = CSREngine(net)
        bound = bind_all(
            (MuteHubs(2, until_round=4), CrashNodes(0.2, at_round=2)), net, 3
        )
        faults = DenseFaults(engine, bound)
        assert not faults.expired(4)
        assert faults.expired(5)
        assert faults.delivered_out(7) is None
        assert faults.delivered_in(7) is None
        assert faults.crashed_at(7) is None

    def test_never_settling_stack_has_bounded_cache(self):
        adj = small_graph(7)
        net = Network(adj)
        engine = CSREngine(net)
        bound = bind_all((IIDMessageDrop(0.2),), net, 3)
        faults = DenseFaults(engine, bound)
        assert faults.quiet is None
        for r in range(1, 5 * DenseFaults.CACHE_MAX):
            # "in" first: its build re-enters the cache for the "out" mask,
            # the order that can overshoot a naive evict-before-build cap.
            faults.delivered_in(r)
            faults.delivered_out(r)
            assert len(faults._cache) <= DenseFaults.CACHE_MAX

    def test_luby_recovery_tail_stops_consulting_masks(self):
        adj = small_graph(8)
        engine = CSREngine(Network(adj))
        bound = bind_all((MuteHubs(2, until_round=2),), engine.network, 1)

        class Counting(DenseFaults):
            calls = 0

            def delivered_out(self, round_no):
                Counting.calls += 1
                return super().delivered_out(round_no)

        faults = Counting(engine, bound)
        result = luby_mis_dense(engine, seed=1, faults=faults)
        assert result.completed
        # Only rounds 1..quiet+1 may query masks; the tail pays nothing.
        assert Counting.calls <= 2 * (faults.quiet + 1)


def scalar_corrupted(bound, engine, round_no):
    senders, ports, _ = engine.slot_layout()
    return np.array(
        [
            any(
                getattr(b, "corrupts_messages", False)
                and b.corrupts(round_no, int(s), int(p))
                for b in bound
            )
            for s, p in zip(senders, ports)
        ],
        dtype=bool,
    )


class TestCorruptionMasks:
    """Byzantine corruption masks == the per-slot scalar sweep."""

    def test_corruption_masks_match_scalar_decisions(self):
        from repro.scenarios import CorruptMessages

        net = Network(small_graph(21))
        engine = CSREngine(net)
        partner = engine.slot_layout()[2]
        bound = bind_all(
            (CorruptMessages(p=0.3, from_round=2, until_round=5),
             CrashNodes(0.2, at_round=3)),
            net, fault_seed=5,
        )
        faults = DenseFaults(engine, bound)
        assert faults.corrupting
        for round_no in (1, 2, 3, 5, 6, 40):
            cout = faults.corrupted_out(round_no)
            got = cout if cout is not None else np.zeros(partner.shape, bool)
            assert np.array_equal(got, scalar_corrupted(bound, engine, round_no)), round_no
            cin = faults.corrupted_in(round_no)
            if cout is None:
                assert cin is None
            else:
                # The receiving view is the partner gather of the outgoing
                # one: a slot is corrupted-in iff its sender corrupted-out.
                assert np.array_equal(cin, cout[partner])

    def test_corrupting_stack_settles_and_expires(self):
        from repro.scenarios import CorruptMessages

        net = Network(small_graph(22))
        engine = CSREngine(net)
        bound = bind_all((CorruptMessages(p=0.5, until_round=4),), net, 1)
        faults = DenseFaults(engine, bound)
        assert faults.quiet == 4
        assert faults.corrupted_out(4) is not None
        # Steady state past the horizon: nothing is corrupted, one lookup.
        assert faults.corrupted_out(5) is None
        assert faults.corrupted_in(5) is None
        assert faults.expired(5)

    def test_never_settling_corrupter_keeps_bounded_cache(self):
        from repro.scenarios import CorruptMessages

        net = Network(small_graph(23))
        engine = CSREngine(net)
        bound = bind_all((CorruptMessages(p=0.2),), net, 2)
        faults = DenseFaults(engine, bound)
        assert faults.quiet is None
        for r in range(1, 5 * DenseFaults.CACHE_MAX):
            faults.corrupted_in(r)  # nested "cout" build, like "in"/"out"
            faults.corrupted_out(r)
            assert len(faults._cache) <= DenseFaults.CACHE_MAX


class TestScenarioCellCache:
    def test_cells_are_reused_across_trial_seeds(self):
        from repro.scenarios import run as run_mod

        run_mod._CELL_CACHE.clear()
        a = run_scenario("luby/crash", n=180, seed=0, backend="dense")
        assert len(run_mod._CELL_CACHE) == 1
        engine = next(iter(run_mod._CELL_CACHE.values()))
        layout = engine.slot_layout()
        b = run_scenario("luby/crash", n=180, seed=1, backend="reference")
        assert next(iter(run_mod._CELL_CACHE.values())) is engine
        assert engine.slot_layout() is layout  # built once per engine
        assert a["n"] == b["n"] and a["m"] == b["m"]
        # Different trial seeds still draw different schedules/coins.
        run_mod._CELL_CACHE.clear()

    def test_cache_is_bounded_and_adjacency_runs_bypass_it(self):
        from repro.scenarios import Scenario
        from repro.scenarios import run as run_mod

        run_mod._CELL_CACHE.clear()
        for n in (60, 80, 100, 120, 140, 160):
            run_scenario("luby/crash", n=n, seed=0, backend="reference")
        assert len(run_mod._CELL_CACHE) <= run_mod._CELL_CACHE_MAX
        before = dict(run_mod._CELL_CACHE)
        sc = Scenario(name="adhoc/bypass", pipeline="luby",
                      perturbations=(CrashNodes(0.3, at_round=1),))
        run_scenario(sc, adjacency=[[1], [0], []], seed=0)
        assert dict(run_mod._CELL_CACHE) == before
        run_mod._CELL_CACHE.clear()
