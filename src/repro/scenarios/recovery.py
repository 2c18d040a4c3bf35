"""Self-stabilizing recovery: detect-and-repair phases over a run's end state.

A faulty environment (crashes, drops, Byzantine corruption — see
:mod:`repro.scenarios.faults` and :mod:`repro.scenarios.byzantine`) can
leave a pipeline's output violating its contract: adjacent MIS nodes seated
by forged priorities, surviving sinks whose outgoing edges lead into
crashed neighbors, constrained splitting nodes outside the spec bounds.
This module holds the three repair drivers (:func:`luby_repair`,
:func:`sinkless_repair`, :func:`splitting_repair`) that
``run_scenario(..., recover=True)`` (:mod:`repro.scenarios.run`, the one
driver of faulty and recovering runs) appends to a base run: after the
base algorithm stops, the nodes keep running a *detect-and-repair* phase —
defensive message validation, restart-on-inconsistency of the violating
neighborhood, gossip re-join of orphaned (undominated) nodes — until the
contract holds on the surviving graph or a round cap is hit.

Three structural properties make the repair layer exact and cheap to test:

* **State-level repair.**  Each repair driver consumes only the end-state
  arrays that every backend exposes bit-identically (``in_mis``/``crashed``
  for Luby, per-slot ``out`` orientation bits for sinkless, ``colors`` for
  splitting), plus per-round fault masks from
  :class:`~repro.scenarios.masks.DenseFaults` and keyed repair coins.  A
  recovering scenario run on the hooked reference simulator therefore
  matches one on the dense kernels bit for bit, end state included (property-tested in
  ``tests/scenarios/test_recovery.py``) — the repair itself is one shared
  vectorized implementation.
* **Faults keep landing.**  Repair rounds continue the base run's round
  numbering, so the perturbation stack's schedule applies unchanged: a
  Byzantine window reaching into the repair keeps corrupting repair
  messages, crashes scheduled late keep killing repairers.  Past the
  stack's quiet horizon every detection is exact, so a stable repair state
  implies **zero contract violations** — certified independently by the
  exact oracle in :mod:`repro.verify.certify`.
* **Keyed repair coins.**  All repair randomness is the keyed coin
  ``u(seed, "repair", uid, round)`` (:func:`~repro.utils.rng.keyed_u01_array`,
  label :data:`REPAIR_COINS`), pure in its key — no consumption order, so executors may evaluate repair decisions in any order without
  diverging, and the repair coins never perturb the base algorithm's
  streams.

Never-settling stacks (``quiet_after=None``, e.g. ``luby/drop-iid``) get
best-effort repair bounded by :data:`REPAIR_ROUND_CAP`; the zero-violation
guarantee applies to settling schedules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bipartite.instance import BLUE, RED
from repro.local.dense import _ragged_slots, _segment_or, _segment_sum
from repro.scenarios.contracts import splitting_violations
from repro.utils.rng import keyed_u01_array

__all__ = [
    "REPAIR_COINS",
    "REPAIR_ROUND_CAP",
    "RepairResult",
    "luby_repair",
    "sinkless_repair",
    "sinkless_violations",
    "splitting_repair",
]

#: Coin label of the repair layer: disjoint from the algorithm's ``"node"``
#: coins and every fault label.
REPAIR_COINS = "repair"

#: Default bound on repair rounds — a backstop for never-settling fault
#: schedules, far above the O(log n) tail a settling schedule needs.
REPAIR_ROUND_CAP = 256


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one repair run.

    ``recovered`` — the repair reached a stable, violation-free state
    (exact past the stack's quiet horizon); ``repair_rounds`` — the number
    of simulated rounds the repair consumed; ``last_round`` — the last
    round number executed (base rounds + repair tail).
    """

    recovered: bool
    repair_rounds: int
    last_round: int


def _round_masks(faults, round_no: int):
    """``(crash, delivered_in, corrupted_in)`` masks for one repair round."""
    if faults is None:
        return None, None, None
    return (
        faults.crashed_at(round_no),
        faults.delivered_in(round_no),
        faults.corrupted_in(round_no),
    )


def _budget(last_round, used, k, max_rounds, cap):
    """Whether ``k`` more repair rounds fit under both caps."""
    if used + k > cap:
        return False
    return max_rounds is None or last_round + k <= max_rounds


# ---------------------------------------------------------------------------
# Luby MIS: gossip detection + Luby-with-blockers re-election.
# ---------------------------------------------------------------------------


def luby_repair(
    engine,
    faults,
    seed: int,
    in_mis,
    crashed,
    start_round: int,
    max_rounds: Optional[int] = None,
    cap: int = REPAIR_ROUND_CAP,
) -> RepairResult:
    """Detect-and-repair for Luby MIS end states (mutates the arrays).

    Iterates ``detect round; re-election phase`` until stable:

    * **detect** (1 round) — every alive node gossips its MIS bit.  An MIS
      node hearing an alive MIS neighbor *demotes* itself back to active
      (restart-on-inconsistency: forged priorities or lost announcements
      seated adjacent MIS nodes); an alive undecided node hearing no MIS
      neighbor *re-activates* (gossip re-join of orphans — their dominator
      crashed, their kill was forged, or a deleted edge orphaned them).
      Stable = no demotions, no orphans, no active nodes.
    * **re-election** (2 rounds) — one Luby phase over the active nodes
      with *standing-MIS blockers*: surviving MIS nodes always block their
      active neighbors in the priority round and always announce in the
      join round, so repair never unseats a consistent MIS node and active
      nodes adjacent to one are re-dominated immediately.

    Detection messages ride the same faulty channel as the base run
    (delivery and corruption masks keyed by the continuing round numbers),
    so a Byzantine window reaching into the repair can forge demotions —
    later detect rounds catch them; past the quiet horizon detection is
    exact (the steady delivery mask *is* the final surviving edge set) and
    a stable state has zero contract violations.
    """
    offsets, dst_node, _ = engine.dense_arrays()
    nbr = dst_node
    owner = engine.slot_layout()[0]
    uid = engine.network.uid_array
    n = engine.n

    active = np.zeros(n, dtype=bool)
    used = 0
    last = start_round - 1
    recovered = False
    while _budget(last, used, 1, max_rounds, cap):
        # --- detect round -------------------------------------------------
        r = last + 1
        crash, din, cin = _round_masks(faults, r)
        if crash is not None:
            crashed |= crash
        alive = ~crashed
        bit = in_mis[nbr]
        if cin is not None:
            bit = bit ^ cin  # Byzantine: MIS bit flipped in transit
        heard = bit & alive[nbr]
        if din is not None:
            heard = heard & din
        heard_mis = _segment_or(heard, offsets)
        demote = alive & in_mis & heard_mis
        orphan = alive & ~in_mis & ~active & ~heard_mis
        used += 1
        last = r
        in_mis &= ~demote
        active = (active & alive) | demote | orphan
        if not active.any():
            recovered = True
            break
        if not _budget(last, used, 2, max_rounds, cap):
            break
        # --- re-election phase (2 rounds) ---------------------------------
        r1 = last + 1
        crash, din1, cin1 = _round_masks(faults, r1)
        if crash is not None:
            crashed |= crash
        alive = ~crashed
        act = active & alive
        pri = keyed_u01_array(seed, REPAIR_COINS, uid, r1)
        better = (pri[nbr] > pri[owner]) | (
            (pri[nbr] == pri[owner]) & (uid[nbr] > uid[owner])
        )
        if cin1 is not None:
            better = better | cin1  # forged-winner priority
        block = alive[nbr] & (in_mis[nbr] | (act[nbr] & better))
        if din1 is not None:
            block = block & din1
        joining = act & ~_segment_or(block, offsets)
        r2 = r1 + 1
        crash, din2, cin2 = _round_masks(faults, r2)
        if crash is not None:
            crashed |= crash
            alive = ~crashed
            act = act & alive
            joining = joining & alive
        sender = act | (in_mis & alive)
        announced = joining[nbr] | in_mis[nbr]
        if cin2 is not None:
            announced = announced ^ cin2  # join <-> stay flipped in transit
        announced = announced & sender[nbr]
        if din2 is not None:
            announced = announced & din2
        killed = act & ~joining & _segment_or(announced, offsets)
        in_mis |= joining
        active = act & ~joining & ~killed
        used += 2
        last = r2
    return RepairResult(recovered=recovered, repair_rounds=used, last_round=last)


# ---------------------------------------------------------------------------
# Sinkless orientation: reconcile views + alive-aware sink fixes.
# ---------------------------------------------------------------------------


def _slot_views(engine):
    """CSR slot arrays of the repair: ``offsets``, ``dst_node``, ``owner``,
    the partner slot (same edge, other endpoint; a self-loop slot is its
    own) and whether the owner is the lower-index, authoritative
    endpoint."""
    offsets, dst_node, _ = engine.dense_arrays()
    owner, _, partner = engine.slot_layout()
    return offsets, dst_node, owner, partner, owner < dst_node


def _extracted(out, partner, low_view, idx=slice(None)):
    """The extracted orientation at slots ``idx``: the lower-index
    endpoint's slot decides the edge's direction."""
    low = low_view[idx]
    return (low & out[idx]) | ~(low | out[partner[idx]])


def _per_node(owner, mask, n):
    """Per-node count of a slot mask (a weighted bincount, so the
    irregular masked slots are never gathered)."""
    return np.bincount(owner, weights=mask, minlength=n).astype(np.int64)


def _counted(views, out, crashed, idx=slice(None)):
    """The outward bits at slots ``idx`` that count for their owner, own
    view and extracted view, as int8: the head is alive and the slot is
    not a self-loop (a self-loop is never outgoing)."""
    _, dst_node, owner, partner, low_view = views
    live = ~crashed[dst_node[idx]] & (owner[idx] != dst_node[idx])
    eff = _extracted(out, partner, low_view, idx)
    return (out[idx] & live).view("int8"), (eff & live).view("int8")


def _recount(views, out, crashed, min_degree, n):
    """Per-node alive degree (self-loops counted), accountability (alive,
    alive degree >= ``min_degree``) and counted outward slots, own view
    and extracted view."""
    _, dst_node, owner, _, _ = views
    deg = _per_node(owner, ~crashed[dst_node], n)
    own, eff = (_per_node(owner, c, n) for c in _counted(views, out, crashed))
    return deg, ~crashed & (deg >= min_degree), own, eff


def sinkless_repair(
    engine,
    faults,
    seed: int,
    out,
    crashed,
    min_degree: int,
    start_round: int,
    max_rounds: Optional[int] = None,
    cap: int = REPAIR_ROUND_CAP,
    tracer=None,
) -> RepairResult:
    """Detect-and-repair for sinkless orientations (mutates the arrays).

    Iterates two-round repair phases until the *contract* probe (surviving
    sinks on the authoritative orientation, exactly
    :func:`~repro.scenarios.contracts.surviving_sinks`) reaches zero:

    * **reconcile** (1 round) — defensive validation of the shared edge
      state: every alive node re-broadcasts its own direction bit per
      port, and the higher-index endpoint adopts the complement of the
      lower-index (authoritative) endpoint's delivered claim.  This
      repairs the silent disagreements dropped or corrupted flip
      announcements leave behind — a node believing it owns an outgoing
      edge the rest of the network attributes to its neighbor.
    * **fix** (1 round) — alive-aware sink fixing: every alive node that
      is accountable on the *surviving* graph (>= ``min_degree`` alive
      neighbors) and has no outgoing edge to an alive neighbor flips one
      keyed-uniform **live** port outward (the base algorithm wastes flips
      on edges into crashed neighbors; the repair does not).  Flip
      announcements travel under the round's delivery and corruption
      masks with the base kernel's exact semantics (a corrupted slot
      flips ``flip`` <-> ``ok``).

    Cost: O(m) for the first reconcile, for a reconcile with a delivery or
    corruption mask and the reconcile after it, for the recount after a
    crash, and for reading a fix round's corruption mask.  Every other
    phase costs O(n + touched slots): per-node counts of live ports and of
    live outward slots (own view and extracted view) answer the sink test
    and the probe and move by per-slot deltas, a mask-free reconcile
    re-reads only the slots the previous fix round touched (every other
    heard view already agrees with its partner), and the fix round draws
    coins and ranks live ports for the sinks alone.

    ``tracer`` records one round record per repair round; ``active`` is
    the surviving node count, as in
    :func:`~repro.local.dense.sinkless_trial_dense`.
    """

    trace = tracer is not None and tracer.enabled
    views = _slot_views(engine)
    offsets, dst_node, owner, partner, low_view = views
    degrees = np.diff(offsets)
    n = engine.n
    uid = engine.network.uid_array

    def shift(idx, before):
        # Move the counts by the per-slot deltas at ``idx`` (closed under
        # ``partner``, so it covers every extracted-view change).
        after = _counted(views, out, crashed, idx)
        np.add.at(own_cnt, owner[idx], after[0] - before[0])
        np.add.at(eff_cnt, owner[idx], after[1] - before[1])

    def traced(round_no, start):
        if trace:
            tracer.round(round_no, active=int(n - crashed.sum()),
                         seconds=time.perf_counter() - start)

    alive_deg, accountable, own_cnt, eff_cnt = _recount(views, out, crashed, min_degree, n)
    used = 0
    last = start_round - 1
    recovered = False
    touched = None  # slots that may disagree with their partner; None = any
    while _budget(last, used, 2, max_rounds, cap):
        # --- reconcile round ----------------------------------------------
        r = last + 1
        start = time.perf_counter() if trace else 0.0
        crash, din, cin = _round_masks(faults, r)
        stale = crash is not None  # a crash moves the counts at every slot
        if stale:
            crashed |= crash
        masked = din is not None or cin is not None
        full = touched is None or masked
        cand = slice(None) if full else touched
        claim = out[partner[cand]]  # sender's own view of the shared edge
        if cin is not None:
            claim ^= cin[cand]
        # Only the non-authoritative, higher-index side adopts ``~claim``
        # (a self-loop has no other side): the slots it changes are those
        # still equal to the claim.
        adopt = (owner[cand] > dst_node[cand]) & ~crashed[dst_node[cand]] & ~crashed[owner[cand]]
        if din is not None:
            adopt &= din[cand]
        moved = adopt & (out[cand] == claim)
        moved = np.flatnonzero(moved) if full else cand[moved]
        span = np.unique(np.concatenate((moved, partner[moved])))
        before = _counted(views, out, crashed, span)
        out[moved] = ~out[moved]
        shift(span, before)
        used += 1
        last = r
        traced(r, start)
        # --- fix round ----------------------------------------------------
        rb = last + 1
        start = time.perf_counter() if trace else 0.0
        crash = faults.crashed_at(rb) if faults is not None else None
        if crash is not None:
            crashed |= crash
        if stale or crash is not None:
            alive_deg, accountable, own_cnt, eff_cnt = _recount(views, out, crashed, min_degree, n)
        sinks = np.flatnonzero(accountable & (own_cnt == 0))
        # Each sink flips its keyed-uniform index among its live ports:
        # live slots are numbered across the sinks' segments in order.
        slots = _ragged_slots(offsets, degrees, sinks)
        live = ~crashed[dst_node[slots]]
        ports = alive_deg[sinks]
        target = (keyed_u01_array(seed, REPAIR_COINS, uid[sinks], rb) * ports).astype(np.int64)
        pick = np.where(target < ports, np.cumsum(ports) - ports + target, -1)
        chosen = slots[live & (np.cumsum(live) - 1 == np.repeat(pick, degrees[sinks]))]
        cout = faults.corrupted_out(rb) if faults is not None else None
        dout = faults.delivered_out(rb) if faults is not None else None
        # Announced flips: corruption turns "flip" <-> "ok" on any slot.
        flip = chosen if cout is None else np.setxor1d(chosen, np.flatnonzero(cout))
        heard = flip[~crashed[owner[flip]] & ~crashed[dst_node[flip]]]
        if dout is not None:
            heard = heard[dout[heard]]
        span = np.unique(np.concatenate((chosen, partner[chosen], heard, partner[heard])))
        before = _counted(views, out, crashed, span)
        out[chosen] = True
        out[partner[heard]] = False
        shift(span, before)
        # A masked reconcile may have left disagreements anywhere.
        touched = None if masked else span
        used += 1
        last = rb
        traced(rb, start)
        # --- contract probe (authoritative orientation) -------------------
        if not (accountable & (eff_cnt == 0)).any():
            recovered = True
            break
    return RepairResult(recovered=recovered, repair_rounds=used, last_round=last)


def sinkless_violations(engine, out, crashed, min_degree: int) -> int:
    """Alive accountable nodes (>= ``min_degree`` alive neighbors) with no
    outgoing edge to an alive neighbor in the extracted orientation of the
    slot state ``out``: :func:`~repro.scenarios.contracts.surviving_sinks`
    on :func:`~repro.local.dense.dense_arcs`, without building the arcs:
    a sinkless scenario's ``violations`` (``violations_before_recovery`` on
    the base-run state), and the count :func:`sinkless_repair`'s probe reads."""
    _, accountable, _, eff = _recount(_slot_views(engine), out, crashed, min_degree, engine.n)
    return int((accountable & (eff == 0)).sum())


# ---------------------------------------------------------------------------
# Uniform splitting: violator NACK gossip + neighborhood redraw.
# ---------------------------------------------------------------------------


def splitting_repair(
    engine,
    faults,
    spec,
    seed: int,
    colors,
    crashed,
    start_round: int,
    max_rounds: Optional[int] = None,
    cap: int = REPAIR_ROUND_CAP,
    edge_ok_mask=None,
    violations: Optional[int] = None,
) -> RepairResult:
    """Detect-and-repair for uniform splitting (mutates the arrays).

    Iterates two-round repair phases until the contract
    (:func:`~repro.scenarios.contracts.splitting_violations` on the
    surviving graph) holds:

    * **check** (1 round) — colors are re-broadcast; every alive
      constrained node recounts its red neighbors over the colors it
      actually heard (delivery and corruption masks applied) and flags
      itself a violator if outside the spec bounds;
    * **redraw** (1 round) — violators NACK their neighborhood; every
      violator and every alive node hearing a NACK redraws its color from
      the keyed repair chain (restart-on-inconsistency of the violating
      neighborhood — a violator's count only moves if neighbors move with
      it).

    The stop probe is that contract itself, a central ground-truth
    recount, so ``recovered`` implies zero violations by construction.
    ``edge_ok_mask`` (per-slot bool, see
    :func:`~repro.scenarios.contracts.edge_ok_slot_mask`) restricts the
    probe under edge-deleting perturbations.  A caller that has already
    counted the contract on the entry state passes the count as
    ``violations``, and the first probe is not run again.
    """
    offsets, dst_node, _ = engine.dense_arrays()
    uid = engine.network.uid_array

    def violated(alive):
        return splitting_violations(engine, colors, spec, alive=alive, edge_ok=edge_ok_mask)

    used = 0
    last = start_round - 1
    if violations is None:
        violations = len(violated(~crashed))
    if not violations:
        return RepairResult(recovered=True, repair_rounds=0, last_round=last)
    recovered = False
    while _budget(last, used, 2, max_rounds, cap):
        # --- check round --------------------------------------------------
        r = last + 1
        crash, din, cin = _round_masks(faults, r)
        if crash is not None:
            crashed |= crash
        alive = ~crashed
        is_red = colors[dst_node] == RED
        if cin is not None:
            is_red = is_red ^ cin  # Byzantine: color flipped in transit
        heard = alive[dst_node]
        if din is not None:
            heard = heard & din
        deg_h = _segment_sum(heard.astype(np.int64), offsets)
        red_h = _segment_sum((heard & is_red).astype(np.int64), offsets)
        violator = alive & spec.violates(deg_h, red_h)
        used += 1
        last = r
        # --- redraw round -------------------------------------------------
        rb = last + 1
        crash, dinb, cinb = _round_masks(faults, rb)
        if crash is not None:
            crashed |= crash
            alive = ~crashed
            violator = violator & alive
        nack = violator[dst_node]
        if cinb is not None:
            nack = nack ^ cinb
        nack = nack & alive[dst_node]
        if dinb is not None:
            nack = nack & dinb
        redraw = alive & (violator | _segment_or(nack, offsets))
        fresh = np.where(keyed_u01_array(seed, REPAIR_COINS, uid, rb) < 0.5, RED, BLUE)
        colors[redraw] = fresh[redraw]
        used += 1
        last = rb
        if not violated(alive):
            recovered = True
            break
    return RepairResult(recovered=recovered, repair_rounds=used, last_round=last)
