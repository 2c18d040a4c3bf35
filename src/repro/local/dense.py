"""Vectorized dense round kernels: whole LOCAL rounds as numpy array ops.

The reference simulator :func:`~repro.local.network.run_local` makes
O(n) Python hook calls (``init``/``send``/``receive``) and dict operations
per round.  For the paper's randomized pipelines — Luby MIS, trial-and-fix
sinkless orientation, 0-round uniform splitting — the per-node logic is a
few comparisons, so the interpreter *is* the cost.

The kernels here are the second executor: each executes an entire round
of one specific algorithm as masked array arithmetic over the CSR arrays a
:class:`~repro.local.engine.CSREngine` holds
(:meth:`CSREngine.dense_arrays`): neighborhood reductions are
``np.logical_or.reduceat`` / ``np.add.reduceat`` over the CSR segments, and
the per-slot owner array ``np.repeat(arange(n), degrees)`` turns "compare
me against each neighbor" into two gathers and a compare.

Coins follow the one keyed law of :mod:`repro.utils.rng`: a node's ``k``-th
draw in round ``r`` is ``u(seed, "node", uid, r, k)``, exactly what
:class:`~repro.utils.rng.NodeCoins` hands the executors' node views.  A
kernel computes the draws its algorithm's hooks make as one array per
round (:func:`~repro.utils.rng.keyed_u01_array`, or
:func:`~repro.utils.rng.keyed_u01_slots` for one draw per port), so every
kernel is **bit-identical** to :func:`~repro.local.network.run_local` for
any seed and fault stack, with O(1) coin setup.  There is one kernel per
algorithm and one seed per call: to run many seeds, loop over seeds on one
shared engine (its CSR arrays are packed once).

Each kernel documents exactly which hook-level draws it computes; any
change to the corresponding :class:`LocalAlgorithm` must be mirrored here
(the equivalence property in ``tests/scenarios/test_hook_equivalence.py``
enforces this).
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.bipartite.instance import BLUE, RED
from repro.local.engine import CSREngine
from repro.utils.rng import (
    NODE_COINS,
    keyed_u01_array,
    keyed_u01_slots,
)
from repro.utils.validation import require

__all__ = [
    "DenseResult",
    "luby_round_dense",
    "luby_mis_dense",
    "sinkless_trial_dense",
    "dense_orientation",
    "uniform_splitting_dense",
]


class DenseResult:
    """Outcome of a dense kernel run: per-node arrays instead of NodeViews."""

    __slots__ = ("rounds", "completed", "data")

    def __init__(self, rounds: int, completed: bool, **data):
        self.rounds = rounds
        self.completed = completed
        self.data = data

    def __getattr__(self, name):
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None


# ---------------------------------------------------------------------------
# Segment (per-CSR-row) reductions.
# ---------------------------------------------------------------------------


def _segment_or(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment logical OR; empty segments reduce to False.

    ``reduceat`` has two sharp edges this wraps: an empty segment yields the
    element *at* its start index (garbage — masked out afterwards), and a
    *trailing* empty segment has a start index of ``len(values)`` (out of
    range — and clipping it would insert a bogus boundary that drops the
    last slot of the final non-empty segment).  Trailing empties are the
    suffix of starts equal to ``m``; we reduce only the prefix before them.
    """
    n = offsets.shape[0] - 1
    m = values.shape[0]
    out = np.zeros(n, dtype=bool)
    if m == 0:
        return out
    starts = offsets[:-1]
    k = int(np.searchsorted(starts, m))  # first trailing-empty segment
    out[:k] = np.logical_or.reduceat(values, starts[:k])
    out[starts == offsets[1:]] = False
    return out


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments reduce to 0 (see :func:`_segment_or`)."""
    n = offsets.shape[0] - 1
    m = values.shape[0]
    out = np.zeros(n, dtype=values.dtype)
    if m == 0:
        return out
    starts = offsets[:-1]
    k = int(np.searchsorted(starts, m))
    out[:k] = np.add.reduceat(values, starts[:k])
    out[starts == offsets[1:]] = 0
    return out


def _slot_owner(offsets: np.ndarray) -> np.ndarray:
    """``owner[k]`` = the node whose CSR row contains slot ``k``."""
    n = offsets.shape[0] - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))


def _ragged_slots(offsets: np.ndarray, degrees: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """All CSR slots owned by the nodes in ``idx``, in node order.

    O(output) — the sinkless repair tail uses it to touch only the sinks'
    slots instead of sweeping all ``m`` slots per phase.
    """
    cnt = degrees[idx]
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = offsets[idx]
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(cnt[:-1]))), cnt)
    return np.arange(total, dtype=np.int64) + base


# ---------------------------------------------------------------------------
# Luby MIS.
# ---------------------------------------------------------------------------


def _owner_or(own: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per-node logical OR of ``values`` over slots owned by ``own``."""
    out = np.zeros(n, dtype=bool)
    out[own[np.flatnonzero(values)]] = True
    return out


def luby_round_dense(
    active: np.ndarray,
    r: np.ndarray,
    uid: np.ndarray,
    own: np.ndarray,
    nbr: np.ndarray,
    active2: "np.ndarray" = None,
    heard1: "np.ndarray" = None,
    heard2: "np.ndarray" = None,
    corrupt1: "np.ndarray" = None,
    corrupt2: "np.ndarray" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One Luby phase (priority exchange + announcement) as array ops.

    ``active`` is the per-node frontier mask, ``r`` the per-node priority
    coins (only entries of active nodes are read).  ``own``/``nbr`` are the
    owner and neighbor of each slot in a set of CSR slots holding every
    slot whose two endpoints are both active — all ``m`` slots, or only
    those: a slot with an inactive endpoint can neither suppress a join
    nor carry a kill.  Returns ``(joining, killed)``: nodes that enter the
    MIS this phase, and nodes eliminated because a neighbor joined.  The
    priority order is the tuple compare ``(r, uid)`` — ties on
    ``r`` (possible, if rarely, between 53-bit coins) break on uid,
    exactly like :class:`~repro.mis.luby.LubyMIS`, so there is no float-tie
    hazard.

    The optional fault arguments mirror the hooked reference's semantics on
    a faulty environment (all default to the clean-run behaviour); the
    per-slot masks are aligned with ``own``/``nbr``:

    * ``heard1`` — per-slot delivery mask for the priority round: a dropped
      priority does not suppress the receiver's join;
    * ``active2`` — frontier at the announcement round (nodes crashing
      between the two rounds decided to join but never announce — and never
      enter the MIS);
    * ``heard2`` — per-slot delivery mask for the announcement round: a
      dropped join announcement does not kill the receiver;
    * ``corrupt1`` — per-slot Byzantine mask (receiving side) for the
      priority round: a corrupted priority from an active sender is the
      forged always-winning payload
      (:data:`~repro.scenarios.byzantine.FORGED_PRIORITY`), so the receiver
      loses the comparison regardless of the genuine draws;
    * ``corrupt2`` — per-slot Byzantine mask for the announcement round: a
      corrupted announcement from an active sender arrives with its
      join/stay bit flipped.
    """
    n = active.shape[0]
    # Slot k: does the (active) neighbor at this slot beat the slot's owner?
    r_nbr = r[nbr]
    r_own = r[own]
    nbr_better = r_nbr > r_own
    tie = r_nbr == r_own
    if tie.any():
        nbr_better |= tie & (uid[nbr] > uid[own])
    if corrupt1 is not None:
        nbr_better |= corrupt1  # forged winner: beats any genuine priority
    nbr_better &= active[nbr]
    if heard1 is not None:
        nbr_better &= heard1
    joining = active & ~_owner_or(own, nbr_better, n)
    if active2 is None:
        active2 = active
    else:
        joining = joining & active2
    announced = joining[nbr]
    if corrupt2 is not None:
        # Flipped join/stay bit; any *sending* (active) neighbor counts.
        announced = (announced ^ corrupt2) & active2[nbr]
    if heard2 is not None:
        announced = announced & heard2
    killed = active2 & ~joining & _owner_or(own, announced, n)
    return joining, killed


def luby_mis_dense(
    engine: CSREngine,
    seed: int = 0,
    max_rounds: int = 10_000,
    faults=None,
    tracer=None,
) -> DenseResult:
    """Luby's MIS as dense phases; same semantics as running
    :class:`~repro.mis.luby.LubyMIS` on :func:`~repro.local.network.run_local`.

    Draws per hook call: one ``random()`` per *active* node per odd
    (priority) round ``r``, the coin ``u(seed, "node", uid, r, 0)``, and
    nothing on even rounds; degree-0 nodes join the MIS in ``init`` and
    never draw.  The returned ``in_mis`` mask and round count are
    bit-identical to the reference's outputs for the same seed.

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`) is the
    masked-array equivalent of running the reference with scenario hooks:
    crashed nodes leave the frontier before drawing (and never join),
    dropped priority/announcement messages are excluded from the
    neighborhood reductions, corrupted ones arrive forged.  A faulty dense
    run is bit-identical to the reference under the same perturbation
    stack.

    Cost: each phase reduces only the *live slots*, those whose two
    endpoints are both still on the frontier (see
    :func:`luby_round_dense`), and drops the rest as the frontier shrinks.
    Phase 1 costs O(m); every later phase O(live slots + n), and Luby's
    frontier decays geometrically, so a whole run reduces little more than
    m slots where a sweep of every slot per phase would reduce phases * m.
    Fault masks still cover all m slots per round; the phase reads them at
    the live slots only.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`; None or a NullTracer by
    default) records one round record per executed round — the same round
    numbers, active-set sizes and total as a hook-traced reference run of
    the same seed (mask-based delivery accounting means the dense records omit
    the per-round delivered/dropped message counts).  Each phase's even
    round record also carries ``slots``, the live slots it reduced.

    Returns a :class:`DenseResult` with ``in_mis`` (bool array of length n),
    ``crashed`` (bool array; all-False on a clean run) and
    ``slots_reduced`` (live slots reduced over the whole run).
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    trace = tracer is not None and tracer.enabled
    offsets, dst_node, _ = engine.dense_arrays()
    n = engine.n
    uid = engine.network.uid_array
    degrees = np.diff(offsets)

    in_mis = degrees == 0  # isolated nodes join immediately (init)
    active = ~in_mis
    crashed = np.zeros(n, dtype=bool)
    r = np.zeros(n, dtype=np.float64)
    # The live slots' endpoints (both on the frontier at the phase start;
    # round-1 crashers stay in until the phase ends, which the phase body
    # allows), compacted after each phase.  Their slot indices are kept
    # only while fault masks need them.  ``own`` is built per run rather
    # than read from the engine's cached slot_layout(): that would pin
    # three m-sized arrays on every engine a Luby sweep packs, and the
    # first compaction drops this copy anyway.
    own = _slot_owner(offsets)
    nbr = dst_node
    slots = None if faults is None else np.arange(dst_node.shape[0], dtype=np.int64)
    slots_reduced = 0

    def at_live(mask):
        return None if mask is None else mask[slots]

    # Past the stack's quiet horizon no fault can occur, so the loop drops
    # the faults object and the recovery tail runs at fault-free cost.
    rounds = 0
    while active.any():
        if rounds + 1 > max_rounds:
            break
        round1 = rounds + 1
        if faults is not None and faults.expired(round1):
            faults = slots = None
        if faults is not None:
            crash = faults.crashed_at(round1)
            if crash is not None:
                crashed |= active & crash
                active = active & ~crash
        # Odd round: every active node draws its first coin of the round.
        if trace:
            phase_start = time.perf_counter()
        act_idx = np.flatnonzero(active)
        r[act_idx] = keyed_u01_array(seed, NODE_COINS, uid[act_idx], round1, 0)
        rounds += 1
        if trace:
            # Post-round-1-crash frontier == the reference's non-halted
            # count after the odd round (degree-0 nodes halted in init).
            tracer.round(
                round1,
                active=int(active.sum()),
                seconds=time.perf_counter() - phase_start,
            )
            phase_start = time.perf_counter()
        if rounds + 1 > max_rounds or act_idx.shape[0] == 0:
            # The reference stops after the odd round: at the cap (mid-phase),
            # or when round-1 crashes halted the whole frontier.
            break
        active2 = heard1 = heard2 = corrupt1 = corrupt2 = None
        if faults is not None:
            round2 = rounds + 1
            crash = faults.crashed_at(round2)
            if crash is not None:
                crashed |= active & crash
                active2 = active & ~crash
            heard1 = at_live(faults.delivered_in(round1))
            heard2 = at_live(faults.delivered_in(round2))
            corrupt1 = at_live(faults.corrupted_in(round1))
            corrupt2 = at_live(faults.corrupted_in(round2))
        joining, killed = luby_round_dense(
            active, r, uid, own, nbr,
            active2=active2, heard1=heard1, heard2=heard2,
            corrupt1=corrupt1, corrupt2=corrupt2,
        )
        in_mis |= joining
        active = (active if active2 is None else active2) & ~(joining | killed)
        reduced = own.shape[0]
        slots_reduced += reduced
        keep = active[own] & active[nbr]
        own, nbr = own[keep], nbr[keep]
        if slots is not None:
            slots = slots[keep]
        rounds += 1
        if trace:
            tracer.round(
                rounds,
                active=int(active.sum()),
                slots=reduced,
                seconds=time.perf_counter() - phase_start,
            )
    return DenseResult(
        rounds,
        completed=not active.any(),
        in_mis=in_mis,
        crashed=crashed,
        slots_reduced=slots_reduced,
    )


# ---------------------------------------------------------------------------
# Trial-and-fix sinkless orientation.
# ---------------------------------------------------------------------------


def sinkless_trial_dense(
    engine: CSREngine,
    min_degree: int = 1,
    seed: int = 0,
    max_rounds: int = 200,
    faults=None,
    strict: bool = True,
    tracer=None,
) -> DenseResult:
    """Trial-and-fix sinkless orientation as dense rounds.

    Mirrors :class:`~repro.orientation.sinkless.TrialAndFixSinkless` driven
    by :func:`~repro.orientation.sinkless.run_trial_and_fix`'s global probe:

    * round 1 — every node draws one coin per port (port order); for each
      edge the higher-uid endpoint's coin decides the direction;
    * rounds >= 2 — every *current sink* (own-view: degree >= ``min_degree``
      and no outward port) draws one ``randrange(degree)`` and flips that
      port outward; the neighbor marks the paired port inward.  Two sinks
      flipping the same edge in one round leave both sides inward — the
      reference's exact (quirky) semantics;
    * after each round >= 2 the harness-side probe checks the *extracted*
      orientation (lower endpoint's view wins) and stops when sink-free.

    Requires a simple graph (no multi-edges or self-loops): the probe's
    orientation dict collapses parallel edges, which has no faithful slot
    representation.  Returns a :class:`DenseResult` with ``out`` (bool per
    CSR slot, True = outward in the owner's own view) and ``crashed`` (bool
    per node).  Raises ``RuntimeError`` if no sink-free round occurs within
    ``max_rounds``, matching the driver; ``strict=False`` instead returns
    an incomplete result (the scenario runner's mode — under faults,
    non-recovery is data).

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`) mirrors the
    hooked reference from round 2 on: crashed nodes freeze their slot state
    (they neither flip nor process flips) and leave the sink probe; dropped
    flip announcements leave the receiving side outward, exactly like the
    reference's receive phase.  Round-1 faults are not supported here —
    scenario schedules for sinkless orientation leave the proposal round
    clean.

    Cost: round 1 and the initial per-node outward-slot counts (own view
    and extracted view) are O(m).  Each fix round then costs O(n + touched
    slots): sinks and the probe read the counts, and the counts move only
    at the flipped slots and their partners.  Byzantine fix rounds rewrite
    O(m) slots anyway and recount in full; their number is bounded by
    the corruption window.

    ``tracer`` records one round record per executed round; ``active`` is
    the surviving (non-crashed) node count, matching the hook-traced
    reference where sinkless nodes never halt on their own.
    """
    require(min_degree >= 1, f"min_degree must be >= 1, got {min_degree}")
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    trace = tracer is not None and tracer.enabled
    offsets, dst_node, _ = engine.dense_arrays()
    n = engine.n
    uid = engine.network.uid_array
    degrees = np.diff(offsets)
    m = dst_node.shape[0]

    require(
        engine.network.simple,
        "sinkless_trial_dense requires a simple graph (no multi-edges/self-loops)",
    )
    crashed = np.zeros(n, dtype=bool)
    if n == 0 or max_rounds == 0:
        # The reference stops before round 1: nobody is active or no round
        # is allowed, so nothing is proposed and the probe never fires.
        if strict:
            raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")
        return DenseResult(0, completed=False, out=np.zeros(m, dtype=bool), crashed=crashed)
    # Slot k is node owner[k]'s port ports[k]; partner[k] is the CSR slot
    # on the other endpoint of its edge.
    owner, ports, partner = engine.slot_layout()

    # Round 1: per-port proposals (port p is the node's draw p of the
    # round), higher-uid endpoint's coin wins; the winner's coin True means
    # "winner's side points outward".
    if trace:
        phase_start = time.perf_counter()
    coins1 = keyed_u01_slots(seed, NODE_COINS, uid, 1, owner, ports) < 0.5
    higher = uid[owner] > uid[dst_node]
    out = np.where(higher, coins1, ~coins1[partner])
    rounds = 1
    if trace:
        tracer.round(1, active=n, seconds=time.perf_counter() - phase_start)

    constrained = degrees >= min_degree
    low_view = owner < dst_node  # extraction rule: lower *index* endpoint's view
    live = constrained  # constrained & ~crashed, refreshed on crash rounds
    if faults is not None and faults.corrupting:
        # The proposal round has no slot-state representation for rewritten
        # coins; corruption schedules for sinkless orientation must leave
        # round 1 clean (the scenario runner enforces the same contract).
        require(
            faults.corrupted_out(1) is None,
            "sinkless_trial_dense requires a corruption-free proposal round",
        )

    def effective(idx):
        # The extracted orientation at slots ``idx``: the lower-index
        # endpoint's slot is authoritative.
        return np.where(low_view[idx], out[idx], ~out[partner[idx]])

    def recount():
        # Outward slots per node, own view and extracted view.
        return (np.bincount(owner[out], minlength=n),
                np.bincount(owner[effective(slice(None))], minlength=n))

    def flip_ports(sinks, round_no):
        # Each sink's first draw of the round: randrange(degree).
        u = keyed_u01_array(seed, NODE_COINS, uid[sinks], round_no, 0)
        return (u * degrees[sinks]).astype(np.int64)

    own_cnt, eff_cnt = recount()

    for round_no in range(2, max_rounds + 1):
        if trace:
            phase_start = time.perf_counter()
        if faults is not None and faults.expired(round_no):
            faults = None  # quiet horizon passed: fix rounds run fault-free
        if faults is not None:
            crash = faults.crashed_at(round_no)
            if crash is not None:
                crashed |= crash
                live = constrained & ~crashed
        # Send phase: sinks by their own view flip one uniformly random port
        # (crashed nodes are frozen: no draws, no flips).
        sink_idx = np.flatnonzero(live & (own_cnt == 0))
        corrupt = None if faults is None else faults.corrupted_out(round_no)
        if corrupt is not None:
            # Byzantine fix round: every live node sends on every port
            # ("flip" on a sink's chosen slot, "ok" elsewhere) and the
            # corruption flips that bit per delivered slot, so the set of
            # perceived flips is (chosen XOR corrupt) over live endpoints.
            # O(m) slots change, so both counts are rebuilt in full.
            is_flip = np.zeros(m, dtype=bool)
            if sink_idx.shape[0]:
                chosen = offsets[:-1][sink_idx] + flip_ports(sink_idx, round_no)
                out[chosen] = True
                is_flip[chosen] = True
            is_flip ^= corrupt
            mark = is_flip & ~crashed[owner] & ~crashed[dst_node]
            delivered = faults.delivered_out(round_no)
            if delivered is not None:
                mark &= delivered
            out[partner[np.flatnonzero(mark)]] = False
            own_cnt, eff_cnt = recount()
        elif sink_idx.shape[0]:
            chosen = offsets[:-1][sink_idx] + flip_ports(sink_idx, round_no)
            # Only the chosen slots and their partners change (a set closed
            # under ``partner``, so it also covers every extracted-view
            # change); the counts move by the per-slot deltas there.
            touched = np.unique(np.concatenate((chosen, partner[chosen])))
            own_old = out[touched].view(np.int8)
            eff_old = effective(touched).view(np.int8)
            out[chosen] = True
            # Receive phase: the paired port is marked inward.  A doubly
            # flipped edge has each chosen slot as the other's partner, so
            # both end False — exactly the reference outcome.  The flip
            # announcement must actually arrive: crashed receivers (also
            # past the quiet horizon, when ``faults`` is gone but the
            # crashed stay frozen) and dropped messages leave the paired
            # slot untouched.
            keep = ~crashed[dst_node[chosen]]
            if faults is not None:
                delivered = faults.delivered_out(round_no)
                if delivered is not None:
                    keep &= delivered[chosen]
            out[partner[chosen[keep]]] = False
            touched_owner = owner[touched]
            np.add.at(own_cnt, touched_owner, out[touched].view(np.int8) - own_old)
            np.add.at(eff_cnt, touched_owner, effective(touched).view(np.int8) - eff_old)
        rounds = round_no
        if trace:
            tracer.round(
                round_no,
                active=int(n - crashed.sum()),
                seconds=time.perf_counter() - phase_start,
            )
        # Probe: stop at the first round with no live sink in the extracted
        # orientation.
        if not (live & (eff_cnt == 0)).any():
            return DenseResult(rounds, completed=True, out=out, crashed=crashed)
    if strict:
        raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")
    return DenseResult(rounds, completed=False, out=out, crashed=crashed)


def dense_orientation(
    engine: CSREngine, out: np.ndarray
) -> Dict[Tuple[int, int], bool]:
    """Extract the ``{(u, v): True}`` orientation dict from slot states.

    Same rule as the simulator driver: for each edge the lower-index
    endpoint's slot decides the direction.
    """
    dst_node = engine.dst_node
    owner = engine.slot_layout()[0]
    low = np.flatnonzero(owner < dst_node)
    srcs = np.where(out[low], owner[low], dst_node[low])
    dsts = np.where(out[low], dst_node[low], owner[low])
    return dict.fromkeys(zip(srcs.tolist(), dsts.tolist()), True)


# ---------------------------------------------------------------------------
# Uniform (Section 4.1) 0-round splitting.
# ---------------------------------------------------------------------------


#: Slots in the first verification block of :func:`uniform_splitting_dense`;
#: each later block doubles the slots checked so far.  Blocks run over the
#: engine's ascending-degree check order (:meth:`CSREngine.check_order`).
VERIFY_FIRST_BLOCK = 4096


def _verify_blocks(offsets: np.ndarray) -> list:
    """Node boundaries ``[0, b1, ..., n]`` of growing verification blocks.

    Block ``i`` ends at the first node boundary at or past slot
    ``VERIFY_FIRST_BLOCK * (2**(i+1) - 1)``, so the checked prefix doubles
    block by block and a whole pass takes O(log m) blocks.  Nodes without
    slots ride in whichever block covers their position.
    """
    m = int(offsets[-1])
    targets = []
    target = VERIFY_FIRST_BLOCK
    while target < m:
        targets.append(target)
        target = 2 * target + VERIFY_FIRST_BLOCK
    bounds = [0]
    for cut in np.searchsorted(offsets, targets).tolist() + [offsets.shape[0] - 1]:
        if cut > bounds[-1]:
            bounds.append(cut)
    return bounds


def uniform_splitting_dense(
    engine: CSREngine,
    spec,
    seed: int = 0,
    faults=None,
    tracer=None,
) -> DenseResult:
    """One attempt of the 0-round splitting + 1-round verification, dense.

    Mirrors :class:`~repro.apps.splitting.ZeroRoundSplitting` for one run
    seed: every node draws one coin in ``init``, ``u(seed, "node", uid, 0,
    0)``, and colors itself :data:`~repro.bipartite.instance.RED` iff the
    coin is < 1/2 (else ``BLUE``); the verification round counts each
    node's red neighbors over its CSR segment and checks the spec bounds for
    constrained degrees.  The Las-Vegas retry loop lives in
    :func:`repro.apps.splitting.uniform_splitting` (``method="dense"``).

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`) mirrors the
    hooked reference on the single round: every node still draws its color in
    ``init`` (crashes land *after* init), but crashed nodes neither broadcast nor verify, dropped
    color messages are excluded from the red-neighbor counts and corrupted
    ones arrive with the opposite color — ``ok`` is then the surviving
    nodes' own (possibly fault-blinded) verdict, exactly what the
    distributed Las-Vegas loop would act on.

    One violating node rejects the attempt, so the check visits nodes in
    ascending-degree order (:meth:`CSREngine.check_order`) — a node of
    degree ``d`` leaves its window with probability at most
    ``2 exp(-2 eps^2 d)``, so low degrees reject first — in blocks whose
    slot counts double (see :func:`_verify_blocks`), and stops at the first
    block holding a live constrained node outside ``[lo, hi]``.  Fault
    masks are built receive-side for the checked positions only
    (:meth:`~repro.scenarios.masks.DenseFaults.delivered_in_range`).  A
    rejected attempt therefore costs O(n) for the colors plus the slots up
    to the end of its first violating block — at most about twice the
    slots before its first violator in check order, past the first block —
    and an accepted one checks all m slots.  The verdict is an AND over
    all nodes, so the order changes only ``slots_checked``.

    Returns a :class:`DenseResult` with ``colors`` (int array), ``ok``
    (bool: every live constrained node inside ``[lo, hi]``), ``crashed``
    (bool array) and ``slots_checked`` (the slots verified before the
    verdict, also on the tracer's round record); ``rounds`` is 1, the
    verification round, matching the reference's charge.
    """
    trace = tracer is not None and tracer.enabled
    order, offsets, check_node = engine.check_order()
    n = engine.n
    degrees = np.diff(offsets)

    if trace:
        phase_start = time.perf_counter()
    u = keyed_u01_array(seed, NODE_COINS, engine.network.uid_array, 0, 0)
    colors = np.where(u < 0.5, RED, BLUE)
    crashed = np.zeros(n, dtype=bool)
    crash = None if faults is None else faults.crashed_at(1)
    if crash is not None:
        crashed |= crash
    is_red = colors == RED
    # spec.lo / spec.hi / spec.constrains are affine in the degree, so they
    # vectorize directly over the (check-ordered) degree array.  An
    # unconstrained or crashed node accepts any count.
    constrained = spec.constrains(degrees)
    if crash is not None:
        constrained = constrained & ~crashed[order]
    lo = np.where(constrained, spec.lo(degrees), -np.inf)
    hi = np.where(constrained, spec.hi(degrees), np.inf)
    ok = True
    slots_checked = 0
    bounds = _verify_blocks(offsets)
    slot_bounds = offsets[bounds].tolist()
    for a, b, start, stop in zip(bounds, bounds[1:], slot_bounds, slot_bounds[1:]):
        senders = check_node[start:stop]
        sent = is_red[senders]
        if faults is not None:
            flip = faults.corrupted_in_range(1, start, stop)
            if flip is not None:
                # Byzantine color broadcast: a corrupted slot carries the
                # opposite color (RED <-> BLUE is the whole vocabulary).
                sent ^= flip
            if crash is not None:
                sent &= ~crashed[senders]
            heard = faults.delivered_in_range(1, start, stop)
            if heard is not None:
                sent &= heard
        red_nbrs = _segment_sum(sent.astype(np.int64), offsets[a : b + 1] - start)
        slots_checked += stop - start
        ok = bool(((red_nbrs >= lo[a:b]) & (red_nbrs <= hi[a:b])).all())
        if not ok:
            break
    if trace:
        # Every node decides and halts in the single verification round
        # (crashed nodes are halted too), so the post-round active count is
        # 0 — matching the hook-traced reference; survivors ride alongside.
        tracer.round(
            1,
            active=0,
            survivors=int(n - crashed.sum()),
            ok=ok,
            slots_checked=slots_checked,
            seconds=time.perf_counter() - phase_start,
        )
    return DenseResult(
        1, completed=True, colors=colors, ok=ok,
        crashed=crashed, slots_checked=slots_checked,
    )
