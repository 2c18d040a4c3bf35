"""Sharded CSR execution: node-range shards with per-round halo exchange.

The dense kernels (:mod:`repro.local.dense`) run a whole graph inside one
process, so the largest instances are capped by a single core's memory
bandwidth.  The LOCAL model itself is the license to shard: a round's
output depends only on each node's one-hop neighborhood, so the packed CSR
arrays can be partitioned into contiguous *node-range shards* — each
holding its interior slots plus a **halo** of cut-edge partner state — and
a full round needs to move only the boundary frontier values between
shards, never the CSR state itself.

Three properties of the existing stack make the sharded run *bit-identical*
per trial to the unsharded ``coins="keyed"`` dense kernels:

* **Keyed coins are pure.**  Every coin is ``keyed_hash53`` of
  ``(seed_hash, global node/slot index, round)``
  (:mod:`repro.utils.rng`), so a shard recomputes its nodes' (and its halo
  nodes') coins locally from *global* indices — no coin ever crosses a
  shard boundary.
* **Fault masks are pure.**  The SplitMix64 mask kernels
  (:mod:`repro.scenarios.base`, PR 4) are pure functions of
  ``(fault_seed, entity, round, port)``; :class:`_ShardFaults` evaluates
  the same bound perturbation stack over shard-local slot coordinates,
  producing exactly the mask slices :class:`~repro.scenarios.masks.DenseFaults`
  would hand the unsharded kernel.
* **Only frontier state is dynamic.**  What a neighbor shard cannot
  recompute is the *outcome* of a round on the other side of a cut edge —
  Luby's join/active bits, sinkless' flip clears — and those are exactly
  the per-round ``(boundary node -> frontier value)`` vectors the halo
  exchange ships, through per-shard shared-memory buffers
  (:mod:`multiprocessing.shared_memory`) with a pickle fallback.

Execution model: one persistent single-worker process pool per shard (the
worker keeps its shard arrays hot across rounds *and* across trials of a
batch), a hub-and-spoke driver that dispatches per-round step calls and
assembles halo inputs between them, and deterministic replay-based
healing — the driver logs every step's halo input (small vectors), so when
a shard worker dies (``BrokenProcessPool``) the pool is rebuilt
(:func:`repro.exp.resilient._kill_pool` idiom) and the shard's state is
reconstructed exactly by replaying the logged rounds from the checkpoint
history, then the failed step is retried.

Partition and halo-exchange wall time are tracked per run
(``partition_seconds`` / ``halo_seconds`` on the results) and emitted as
``repro.obs`` span records when a tracer is attached — the E22 gate in
``benchmarks/bench_engine.py`` reports them as their own columns.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.local.dense import (
    DenseResult,
    _segment_or,
    _segment_sum,
)
from repro.local.engine import CSREngine
from repro.scenarios.base import quiet_after
from repro.utils.rng import ensure_rng, keyed_u01, mix64
from repro.utils.validation import require

__all__ = [
    "ShardSpec",
    "ShardPlan",
    "plan_shards",
    "ShardedExecutor",
    "luby_mis_sharded",
    "luby_mis_sharded_batch",
    "sinkless_trial_sharded",
    "uniform_splitting_sharded",
]


# ---------------------------------------------------------------------------
# Shard planning.
# ---------------------------------------------------------------------------


class ShardSpec:
    """The picklable per-shard payload: one contiguous node range's CSR slice.

    Shipped to the shard's worker exactly once at pool init (re-shipped only
    on heal); everything per-round derives from it plus the halo exchange.
    All indices are global unless suffixed ``_local``; local node space is
    ``[0, hi-lo)`` for interior nodes followed by the sorted halo nodes.
    """

    def __init__(self, sid, lo, hi, n_global, slot_base, offsets, dst_local,
                 dst_global, dst_port, partner_global, halo_global, uid_local,
                 boundary_local, cut_slots):
        self.sid = sid
        self.lo = lo
        self.hi = hi
        self.n_global = n_global
        self.slot_base = slot_base
        self.offsets = offsets            # local CSR offsets, len (hi-lo)+1
        self.dst_local = dst_local        # per-slot neighbor, local index
        self.dst_global = dst_global      # per-slot neighbor, global index
        self.dst_port = dst_port          # per-slot reverse port (global semantics)
        self.partner_global = partner_global  # per-slot partner slot, global index
        self.halo_global = halo_global    # sorted global ids of halo nodes
        self.uid_local = uid_local        # uid for interior + halo nodes
        self.boundary_local = boundary_local  # interior nodes with a cut edge
        self.cut_slots = cut_slots        # local slots whose dst is external


class ShardPlan:
    """A full partition of one engine's CSR arrays plus exchange routing.

    ``specs`` are the per-shard payloads; the routing arrays say, for each
    shard, which *other* shard (and which position in its boundary / cut
    vectors) every halo node / cut slot reads from during the exchange.
    ``partition_seconds`` is the wall time of the plan build — the E22 gate
    reports it as its own column.
    """

    def __init__(self, engine: CSREngine, cuts: Sequence[int]):
        start = time.perf_counter()
        offsets, dst_node, dst_port = engine.dense_arrays()
        n = engine.n
        uid = np.asarray(engine.network.ids, dtype=np.int64)
        self.n = n
        self.m = int(dst_node.shape[0])
        starts = offsets[:-1]

        ranges = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                ranges.append((int(lo), int(hi)))
        if not ranges:  # empty graph: keep one empty shard so all paths run
            ranges = [(0, n)]
        self.los = np.array([lo for lo, _ in ranges], dtype=np.int64)

        self.specs: List[ShardSpec] = []
        for sid, (lo, hi) in enumerate(ranges):
            s0, s1 = int(offsets[lo]), int(offsets[hi])
            dstg = dst_node[s0:s1]
            ext = (dstg < lo) | (dstg >= hi)
            halo = np.unique(dstg[ext])
            interior = hi - lo
            dst_local = np.where(
                ext, interior + np.searchsorted(halo, dstg), dstg - lo
            ).astype(np.int64)
            off_local = (offsets[lo:hi + 1] - s0).astype(np.int64)
            owner_local = np.repeat(
                np.arange(interior, dtype=np.int64), np.diff(off_local)
            )
            cut_slots = np.flatnonzero(ext)
            boundary = np.unique(owner_local[ext])
            uid_local = np.concatenate([uid[lo:hi], uid[halo]])
            partner_global = starts[dstg] + dst_port[s0:s1]
            self.specs.append(ShardSpec(
                sid, lo, hi, n, s0, off_local, dst_local,
                dstg.astype(np.int64), dst_port[s0:s1].astype(np.int64),
                partner_global.astype(np.int64), halo.astype(np.int64),
                uid_local.astype(np.int64), boundary.astype(np.int64),
                cut_slots.astype(np.int64),
            ))

        # Exchange routing: halo node -> (owner shard, boundary position) and
        # cut slot -> (partner shard, partner cut position).
        boundary_global = [sp.lo + sp.boundary_local for sp in self.specs]
        self.halo_src_shard: List[np.ndarray] = []
        self.halo_src_pos: List[np.ndarray] = []
        self.cut_peer_shard: List[np.ndarray] = []
        self.cut_peer_pos: List[np.ndarray] = []
        for sp in self.specs:
            src = self._shard_of(sp.halo_global)
            pos = np.empty(sp.halo_global.shape[0], dtype=np.int64)
            for t in np.unique(src):
                sel = src == t
                pos[sel] = np.searchsorted(boundary_global[t], sp.halo_global[sel])
            self.halo_src_shard.append(src)
            self.halo_src_pos.append(pos)

            cut_dst = sp.dst_global[sp.cut_slots]
            peer = self._shard_of(cut_dst)
            ppos = np.empty(cut_dst.shape[0], dtype=np.int64)
            partner_g = sp.partner_global[sp.cut_slots]
            for t in np.unique(peer):
                sel = peer == t
                ppos[sel] = np.searchsorted(
                    self.specs[t].cut_slots, partner_g[sel] - self.specs[t].slot_base
                )
            self.cut_peer_shard.append(peer)
            self.cut_peer_pos.append(ppos)
        self.partition_seconds = time.perf_counter() - start

    def _shard_of(self, nodes: np.ndarray) -> np.ndarray:
        return (np.searchsorted(self.los, nodes, side="right") - 1).astype(np.int64)

    def __len__(self) -> int:
        return len(self.specs)


def plan_shards(
    engine: CSREngine,
    shards: Optional[int] = None,
    *,
    max_shard_slots: Optional[int] = None,
    bounds: Optional[Sequence[int]] = None,
) -> ShardPlan:
    """Partition ``engine``'s CSR arrays into contiguous node-range shards.

    Exactly one sizing rule applies: explicit ``bounds`` (interior node cut
    points — uneven ranges allowed), a slot budget ``max_shard_slots``
    (size-bounded shards: ``ceil(m / max_shard_slots)`` of them), or a
    target ``shards`` count with slot-balanced cuts (default 2).  Cuts are
    always node-aligned, so every CSR row lives wholly inside one shard.
    """
    offsets, dst_node, _ = engine.dense_arrays()
    n = engine.n
    m = int(dst_node.shape[0])
    if bounds is not None:
        cuts = [0]
        for b in bounds:
            b = int(b)
            require(0 <= b <= n, f"shard bound {b} outside [0, {n}]")
            require(b >= cuts[-1], "shard bounds must be nondecreasing")
            cuts.append(b)
        cuts.append(n)
    else:
        if shards is None:
            if max_shard_slots is not None:
                require(max_shard_slots >= 1, "max_shard_slots must be >= 1")
                shards = max(1, -(-m // max_shard_slots))
            else:
                shards = 2
        require(shards >= 1, f"shards must be >= 1, got {shards}")
        shards = min(int(shards), max(1, n))
        cuts = [0]
        for i in range(1, shards):
            target = (m * i) // shards
            cut = int(np.searchsorted(offsets, target, side="left"))
            cuts.append(min(max(cut, cuts[-1]), n))
        cuts.append(n)
    return ShardPlan(engine, cuts)


# ---------------------------------------------------------------------------
# Shard-local fault masks.
# ---------------------------------------------------------------------------


class _ShardFaults:
    """:class:`~repro.scenarios.masks.DenseFaults` over shard coordinates.

    Built worker-side from the picklable bound perturbation stack.  Every
    mask is the shard-local slice of what the unsharded adapter would
    build: crash masks over interior + halo nodes (sliced from the full-n
    mask — crashes are pure per node), delivery masks evaluated directly on
    the shard's slot coordinates — ``delivered_in[k]`` is the decision for
    ``(sender = dst_global[k], port = dst_port[k])``, which is exactly the
    partner-gather the dense adapter computes, because each dropper's
    decision is pure per ``(sender, round, port)``.
    """

    CACHE_MAX = 32

    def __init__(self, sp: ShardSpec, bound, node_global, owner_global, out_port):
        self.bound = tuple(bound)
        require(
            not any(getattr(b, "corrupts_messages", False) for b in self.bound),
            "sharded kernels do not implement Byzantine corruption masks",
        )
        self._crashing = any(b.crashes_nodes for b in self.bound)
        self._droppers = tuple(b for b in self.bound if b.drops_messages)
        self.quiet = quiet_after(self.bound)
        self._cache: dict = {}
        self._sp = sp
        self._node_global = node_global      # interior + halo, global indices
        self._owner_global = owner_global    # per local slot: sender as global node
        self._out_port = out_port            # per local slot: port on the sender

    def expired(self, round_no: int) -> bool:
        if self.quiet is None or round_no <= self.quiet:
            return False
        # Unlike the global adapter, incoming deliveries are built directly
        # (not gathered from "out"), so the steady "in" mask is checked too.
        return (
            self._steady("crash") is None
            and self._steady("out") is None
            and self._steady("in") is None
        )

    def _steady(self, kind: str):
        key = ("steady", kind)
        if key not in self._cache:
            self._cache[key] = self._build(kind, self.quiet + 1)
        return self._cache[key]

    def _lookup(self, kind: str, round_no: int):
        if self.quiet is not None and round_no > self.quiet:
            return self._steady(kind)
        key = (kind, round_no)
        if key not in self._cache:
            value = self._build(kind, round_no)
            if len(self._cache) >= self.CACHE_MAX:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = value
        return self._cache[key]

    def _build(self, kind: str, round_no: int):
        if kind == "crash":
            return self._build_crash(round_no)
        if kind == "out":
            return self._build_del(round_no, self._owner_global, self._out_port)
        return self._build_del(round_no, self._sp.dst_global, self._sp.dst_port)

    def _build_crash(self, round_no: int):
        mask = None
        n = self._sp.n_global
        for b in self.bound:
            part = b.crashes_mask(round_no, n)
            if part is NotImplemented:
                victims = list(b.crashes(round_no))
                if not victims:
                    continue
                part = np.zeros(n, dtype=bool)
                part[victims] = True
            if part is None:
                continue
            mask = part if mask is None else (mask | part)
        return None if mask is None else mask[self._node_global]

    def _build_del(self, round_no: int, senders, ports):
        mask = None
        for b in self._droppers:
            part = b.delivers_mask(round_no, senders, ports)
            if part is NotImplemented:
                part = np.ones(senders.shape[0], dtype=bool)
                delivers = b.delivers
                for k in range(senders.shape[0]):
                    if not delivers(round_no, int(senders[k]), int(ports[k])):
                        part[k] = False
            if part is None:
                continue
            mask = part if mask is None else (mask & part)
        return mask

    def crashed_at(self, round_no: int):
        if not self._crashing:
            return None
        return self._lookup("crash", round_no)

    def delivered_out(self, round_no: int):
        if not self._droppers:
            return None
        return self._lookup("out", round_no)

    def delivered_in(self, round_no: int):
        if not self._droppers:
            return None
        return self._lookup("in", round_no)


# ---------------------------------------------------------------------------
# Worker side: process-global shard state + step functions.
#
# Each step function takes ``(key, ..., payload)`` where ``payload`` is the
# halo input for that step — either ``("data", bytes-or-array)`` carried in
# the call itself (pickle transport / inline mode) or ``("shm", nbytes)``
# meaning the driver already wrote the vector into the shard's shared-memory
# IN region.  Step outputs flow the same way in reverse: written into the
# OUT region (shm) or returned alongside the small scalar result (pickle).
# ---------------------------------------------------------------------------

_STATE: dict = {}


def _attach_shm(name: str):
    from multiprocessing import shared_memory

    # Attaching must not (re-)register the driver-owned segment with the
    # resource tracker: a forked worker shares the driver's tracker, so a
    # second register/unregister pair would strip the driver's own entry
    # and a spawn worker's private tracker would unlink the segment when
    # the worker exits.  Python 3.13's track=False replaces this idiom.
    try:
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
    except Exception:
        orig_register = None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        if orig_register is not None:
            resource_tracker.register = orig_register


def _w_init(key, spec: ShardSpec, shm_name, out_nbytes, in_nbytes):
    """Install one shard's arrays into this process; derive slot coordinates."""
    nI = spec.hi - spec.lo
    owner = np.repeat(np.arange(nI, dtype=np.int64), np.diff(spec.offsets))
    degrees = np.diff(spec.offsets)
    out_port = np.arange(spec.dst_local.shape[0], dtype=np.int64) - \
        spec.offsets[:-1][owner]
    node_global = np.concatenate(
        [np.arange(spec.lo, spec.hi, dtype=np.int64), spec.halo_global]
    )
    is_cut = np.zeros(spec.dst_local.shape[0], dtype=bool)
    is_cut[spec.cut_slots] = True
    st = {
        "spec": spec,
        "nI": nI,
        "L": nI + spec.halo_global.shape[0],
        "owner": owner,
        "degrees": degrees,
        "out_port": out_port,
        "node_global": node_global,
        "owner_global": node_global[owner],
        "is_cut": is_cut,
        # partner slot local index; only valid where ~is_cut
        "partner_local": spec.partner_global - spec.slot_base,
        "low_view": node_global[owner] < spec.dst_global,
        "shm": None,
        "out_view": None,
        "in_view": None,
    }
    if shm_name is not None:
        shm = _attach_shm(shm_name)
        st["shm"] = shm
        st["out_view"] = shm.buf[:out_nbytes]
        st["in_view"] = shm.buf[out_nbytes:out_nbytes + in_nbytes]
    _STATE[key] = st
    return spec.sid


def _w_close(key):
    st = _STATE.pop(key, None)
    if st is not None and st.get("shm") is not None:
        st["out_view"] = st["in_view"] = None
        st["shm"].close()
    return True


def _get_payload(st, payload) -> Optional[np.ndarray]:
    if payload is None:
        return None
    kind, value = payload
    if kind == "shm":
        return np.frombuffer(st["in_view"], dtype=np.uint8, count=value).copy()
    return np.frombuffer(memoryview(value), dtype=np.uint8).copy()


def _put_payload(st, arr: np.ndarray):
    """Ship a uint8 vector back: into the OUT region, or with the return."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if st["out_view"] is not None:
        st["out_view"][:arr.shape[0]] = arr.tobytes()
        return None
    return arr.tobytes()


def _shard_faults(st, bound) -> Optional[_ShardFaults]:
    if bound is None:
        return None
    return _ShardFaults(
        st["spec"], bound, st["node_global"], st["owner_global"], st["out_port"]
    )


def _w_set_fail(key):
    """Test hook: make this worker die at the start of its next step."""
    _STATE[key]["fail_next"] = True
    return True


def _maybe_fail(st):
    if st.pop("fail_next", False):
        os._exit(17)


# -- Luby MIS ---------------------------------------------------------------


def _w_luby_start(key, seed_hash, bound, payload=None):
    st = _STATE[key]
    _maybe_fail(st)
    nI = st["nI"]
    halo = st["L"] - nI
    in_mis = st["degrees"] == 0
    active = np.concatenate([~in_mis, np.ones(halo, dtype=bool)])
    st["luby"] = {
        "sh": seed_hash,
        "in_mis": in_mis,
        "crashed": np.zeros(nI, dtype=bool),
        "active": active,
        "r": np.zeros(st["L"], dtype=np.float64),
        "faults": _shard_faults(st, bound),
        "joining": None,
        "active2": None,
        "heard2": None,
    }
    return (int(active[:nI].sum()), None)


def _w_luby_phase_a(key, round1, do_join, payload=None):
    """Rounds ``round1`` (priorities) and the setup of ``round1 + 1``.

    Mirrors :func:`repro.local.dense.luby_mis_dense`'s loop body exactly:
    expiry check, round-1 crashes leave before drawing, active nodes draw
    keyed priorities, then (unless the mid-phase ``max_rounds`` cap stops
    the trial — ``do_join=False``) round-2 crashes and both delivery masks
    are evaluated and the shard's interior joins are decided.  Ships the
    boundary joining bits; the kill/deactivate half runs in phase B once
    the halo joins arrive.
    """
    st = _STATE[key]
    _maybe_fail(st)
    lu = st["luby"]
    sp = st["spec"]
    nI = st["nI"]
    halo_active = _get_payload(st, payload)
    active = lu["active"]
    if halo_active is not None:
        active[nI:] = halo_active.view(bool)[: st["L"] - nI]
    faults = lu["faults"]
    if faults is not None and faults.expired(round1):
        faults = lu["faults"] = None
    if faults is not None:
        crash = faults.crashed_at(round1)
        if crash is not None:
            lu["crashed"] |= active[:nI] & crash[:nI]
            active &= ~crash
    act_idx = np.flatnonzero(active)
    lu["r"][act_idx] = keyed_u01(np, lu["sh"], st["node_global"][act_idx], round1)
    if not do_join:
        return (int(active[:nI].sum()), None)
    round2 = round1 + 1
    active2 = heard1 = heard2 = None
    if faults is not None:
        crash = faults.crashed_at(round2)
        if crash is not None:
            lu["crashed"] |= active[:nI] & crash[:nI]
            active2 = active & ~crash
        heard1 = faults.delivered_in(round1)
        heard2 = faults.delivered_in(round2)
    r = lu["r"]
    uid = sp.uid_local
    nbr = st["dst_local"] if "dst_local" in st else sp.dst_local
    own = st["owner"]
    nbr_better = active[nbr] & (
        (r[nbr] > r[own]) | ((r[nbr] == r[own]) & (uid[nbr] > uid[own]))
    )
    if heard1 is not None:
        nbr_better &= heard1
    joining = active[:nI] & ~_segment_or(nbr_better, sp.offsets)
    if active2 is not None:
        joining = joining & active2[:nI]
    lu["joining"] = joining
    lu["active2"] = active2
    lu["heard2"] = heard2
    return (0, _put_payload(st, joining[sp.boundary_local]))


def _w_luby_phase_b(key, round1, payload=None):
    """The announcement half: kills, MIS updates, next frontier."""
    st = _STATE[key]
    _maybe_fail(st)
    lu = st["luby"]
    sp = st["spec"]
    nI = st["nI"]
    halo_join = _get_payload(st, payload)
    joining = lu["joining"]
    join_ext = np.concatenate(
        [joining, np.zeros(st["L"] - nI, dtype=bool)]
    )
    if halo_join is not None:
        join_ext[nI:] = halo_join.view(bool)[: st["L"] - nI]
    nbr = sp.dst_local
    announced = join_ext[nbr]
    if lu["heard2"] is not None:
        announced = announced & lu["heard2"]
    active2 = lu["active2"]
    act_base = lu["active"] if active2 is None else active2
    killed = act_base[:nI] & ~joining & _segment_or(announced, sp.offsets)
    lu["in_mis"] |= joining
    new_active = act_base.copy()
    new_active[:nI] &= ~(joining | killed)
    # Halo joins deactivate halo copies too; their authoritative next-phase
    # state still arrives with the next phase A's halo exchange.
    new_active[nI:] &= ~join_ext[nI:]
    lu["active"] = new_active
    lu["joining"] = lu["active2"] = lu["heard2"] = None
    return (
        int(new_active[:nI].sum()),
        _put_payload(st, new_active[:nI][sp.boundary_local]),
    )


def _w_luby_gather(key, payload=None):
    lu = _STATE[key]["luby"]
    return ((lu["in_mis"].copy(), lu["crashed"].copy()), None)


# -- Sinkless orientation ---------------------------------------------------


def _w_sink_start(key, seed_hash, bound, min_degree, payload=None):
    """Round 1: per-port proposal coins, higher-uid endpoint's coin wins.

    Both endpoints' round-1 coins are keyed by *global slot index*, so the
    shard computes the partner's coin directly — round 1 needs no exchange.
    """
    st = _STATE[key]
    _maybe_fail(st)
    sp = st["spec"]
    nI = st["nI"]
    m_local = sp.dst_local.shape[0]
    slot_global = sp.slot_base + np.arange(m_local, dtype=np.int64)
    coins_own = keyed_u01(np, seed_hash, slot_global, 1) < 0.5
    coins_partner = keyed_u01(np, seed_hash, sp.partner_global, 1) < 0.5
    uid = sp.uid_local
    higher = uid[st["owner"]] > uid[sp.dst_local]
    out = np.where(higher, coins_own, ~coins_partner)
    st["sink"] = {
        "sh": seed_hash,
        "out": out,
        "crashed": np.zeros(st["L"], dtype=bool),
        "constrained": st["degrees"] >= min_degree,
        "faults": _shard_faults(st, bound),
        "clear_sent": np.zeros(sp.cut_slots.shape[0], dtype=bool),
        "partner_out_cut": np.zeros(sp.cut_slots.shape[0], dtype=bool),
    }
    return (int(nI), None)


def _w_sink_send(key, round_no, payload=None):
    """Fix-round send phase: crashes land, own-view sinks flip one port.

    Ships ``(post-set out bits, clear bits)`` for the cut slots — the
    receiving shard derives the partner's final bit as
    ``post_set & ~clear``, so one exchange settles both the clears and the
    probe's partner view.
    """
    st = _STATE[key]
    _maybe_fail(st)
    sk = st["sink"]
    sp = st["spec"]
    nI = st["nI"]
    faults = sk["faults"]
    if faults is not None and faults.expired(round_no):
        faults = sk["faults"] = None
    crashed = sk["crashed"]
    if faults is not None:
        crash = faults.crashed_at(round_no)
        if crash is not None:
            crashed |= crash
    out = sk["out"]
    sinks_own = sk["constrained"] & ~crashed[:nI] & ~_segment_or(out, sp.offsets)
    sink_idx = np.flatnonzero(sinks_own)
    clear = np.zeros(sp.cut_slots.shape[0], dtype=bool)
    if sink_idx.shape[0]:
        degrees = st["degrees"]
        # Keyed by global node index, exactly CoinTable("keyed").randints.
        ports = (
            keyed_u01(np, sk["sh"], st["node_global"][sink_idx], round_no)
            * degrees[sink_idx]
        ).astype(np.int64)
        chosen = sp.offsets[:-1][sink_idx] + ports
        out[chosen] = True
        keep = np.ones(chosen.shape[0], dtype=bool)
        if faults is not None:
            keep = ~crashed[sp.dst_local[chosen]]
            delivered = faults.delivered_out(round_no)
            if delivered is not None:
                keep &= delivered[chosen]
        cleared = chosen[keep]
        internal = cleared[~st["is_cut"][cleared]]
        out[st["partner_local"][internal]] = False
        external = cleared[st["is_cut"][cleared]]
        if external.shape[0]:
            clear[np.searchsorted(sp.cut_slots, external)] = True
    sk["clear_sent"] = clear
    post_set = out[sp.cut_slots]
    packed = np.concatenate(
        [post_set.view(np.uint8), clear.view(np.uint8)]
    ) if sp.cut_slots.shape[0] else np.zeros(0, dtype=np.uint8)
    return (0, _put_payload(st, packed))


def _w_sink_settle(key, round_no, payload=None):
    """Apply incoming clears, record partner cut state, run the probe."""
    st = _STATE[key]
    _maybe_fail(st)
    sk = st["sink"]
    sp = st["spec"]
    nI = st["nI"]
    out = sk["out"]
    c = sp.cut_slots.shape[0]
    data = _get_payload(st, payload)
    if c and data is not None:
        peer_post = data[:c].view(bool)
        peer_clear = data[c:2 * c].view(bool)
        out[sp.cut_slots] &= ~peer_clear
        sk["partner_out_cut"] = peer_post & ~sk["clear_sent"]
    partner_out = np.empty(out.shape[0], dtype=bool)
    internal = ~st["is_cut"]
    partner_out[internal] = out[st["partner_local"][internal]]
    partner_out[sp.cut_slots] = sk["partner_out_cut"]
    effective_out = np.where(st["low_view"], out, ~partner_out)
    live = bool(
        (
            sk["constrained"]
            & ~sk["crashed"][:nI]
            & ~_segment_or(effective_out, sp.offsets)
        ).any()
    )
    return (live, None)


def _w_sink_gather(key, payload=None):
    sk = _STATE[key]["sink"]
    return ((sk["out"].copy(), sk["crashed"][: _STATE[key]["nI"]].copy()), None)


# -- Uniform splitting ------------------------------------------------------


def _w_split_start(key, spec_obj, bound, red, blue, payload=None):
    st = _STATE[key]
    _maybe_fail(st)
    faults = _shard_faults(st, bound)
    crashed = np.zeros(st["L"], dtype=bool)
    heard = None
    if faults is not None:
        crash = faults.crashed_at(1)
        if crash is not None:
            crashed = crash.copy()
        heard = faults.delivered_in(1)
    degrees = st["degrees"]
    st["split"] = {
        "spec_obj": spec_obj,
        "red": red,
        "blue": blue,
        "crashed": crashed,
        "heard": heard,
        "constrained": spec_obj.constrains(degrees) & ~crashed[: st["nI"]],
        "lo": spec_obj.lo(degrees),
        "hi": spec_obj.hi(degrees),
        "colors": None,
    }
    return (0, None)


def _w_split_attempt(key, run_hash, payload=None):
    """One 0-round splitting + verification: colors are pure per
    ``(run_hash, node)``, so no halo exchange is needed at all."""
    st = _STATE[key]
    _maybe_fail(st)
    sl = st["split"]
    sp = st["spec"]
    u = keyed_u01(np, run_hash, st["node_global"], 1)
    cols = np.where(u < 0.5, sl["red"], sl["blue"])
    sent = (cols[sp.dst_local] == sl["red"]).astype(np.int64)
    if sl["crashed"].any():
        sent &= ~sl["crashed"][sp.dst_local]
    if sl["heard"] is not None:
        sent &= sl["heard"]
    red_nbrs = _segment_sum(sent, sp.offsets)
    ok = bool(
        (
            ~sl["constrained"]
            | ((red_nbrs >= sl["lo"]) & (red_nbrs <= sl["hi"]))
        ).all()
    )
    sl["colors"] = cols[: st["nI"]]
    return (ok, None)


def _w_split_gather(key, payload=None):
    st = _STATE[key]
    sl = st["split"]
    return ((sl["colors"].copy(), sl["crashed"][: st["nI"]].copy()), None)


# ---------------------------------------------------------------------------
# The executor: per-shard pools, shared-memory channels, healing.
# ---------------------------------------------------------------------------

_EXEC_SEQ = [0]


class _ShardHandle:
    """One shard's pool, shared-memory channel, and replay log."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        b = int(spec.boundary_local.shape[0])
        h = int(spec.halo_global.shape[0])
        c = int(spec.cut_slots.shape[0])
        self.out_nbytes = max(1, b, 2 * c)
        self.in_nbytes = max(1, h, 2 * c)
        self.pool = None
        self.shm = None
        self.out_view = None
        self.in_view = None
        self.log: List[Tuple] = []  # (fn, args, in_bytes) since job start


class ShardedExecutor:
    """Persistent sharded runtime over one engine's CSR arrays.

    One single-worker process pool per shard keeps that shard's arrays hot
    across rounds and across trials of a batch; ``workers=0`` runs every
    shard step inline in the driver process (the property-test mode — same
    code path, no processes).  ``transport="shm"`` moves the per-round halo
    vectors through per-shard :mod:`multiprocessing.shared_memory` buffers;
    ``"pickle"`` carries them in the task messages instead (the automatic
    fallback where shared memory is unavailable).

    A shard worker dying mid-run surfaces as ``BrokenProcessPool``; the
    executor kills and rebuilds that shard's pool, replays the shard's
    logged steps (init + every dispatched round, with the recorded halo
    inputs — all step math is pure given those inputs, so the state is
    reconstructed exactly), and retries the failed step.
    """

    MAX_HEALS = 3

    def __init__(
        self,
        engine: CSREngine,
        shards: Optional[int] = None,
        *,
        max_shard_slots: Optional[int] = None,
        bounds: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
        transport: str = "shm",
        tracer=None,
    ):
        require(transport in ("shm", "pickle"), f"unknown transport {transport!r}")
        self.engine = engine
        self.plan = plan_shards(
            engine, shards, max_shard_slots=max_shard_slots, bounds=bounds
        )
        self.inline = workers == 0
        if workers is not None and workers != 0:
            require(
                workers == len(self.plan),
                f"workers ({workers}) must equal the shard count "
                f"({len(self.plan)}); each shard is pinned to one worker",
            )
        self.transport = "pickle" if self.inline else transport
        self.tracer = tracer
        self.halo_seconds = 0.0
        self.heals = 0
        _EXEC_SEQ[0] += 1
        self._job = f"shard-{os.getpid()}-{_EXEC_SEQ[0]}"
        self._handles = [_ShardHandle(sp) for sp in self.plan.specs]
        self._closed = False
        for h in self._handles:
            self._open_channel(h)
            self._start_pool(h)
            self._init_shard(h)

    # -- lifecycle ----------------------------------------------------------

    def _open_channel(self, h: _ShardHandle):
        if self.transport != "shm":
            return
        try:
            from multiprocessing import shared_memory

            h.shm = shared_memory.SharedMemory(
                create=True, size=h.out_nbytes + h.in_nbytes
            )
            h.out_view = h.shm.buf[: h.out_nbytes]
            h.in_view = h.shm.buf[h.out_nbytes : h.out_nbytes + h.in_nbytes]
        except Exception:
            self.transport = "pickle"  # fall back for every shard
            for other in self._handles:
                self._close_channel(other)

    def _close_channel(self, h: _ShardHandle):
        if h.shm is not None:
            h.out_view = h.in_view = None
            h.shm.close()
            try:
                h.shm.unlink()
            except Exception:
                pass
            h.shm = None

    def _start_pool(self, h: _ShardHandle):
        if self.inline:
            return
        from concurrent.futures import ProcessPoolExecutor

        h.pool = ProcessPoolExecutor(max_workers=1)

    def _key(self, sid: int):
        return (self._job, sid)

    def _init_shard(self, h: _ShardHandle, record: bool = True):
        shm_name = h.shm.name if h.shm is not None else None
        args = (h.spec, shm_name, h.out_nbytes, h.in_nbytes)
        if self.inline:
            _w_init(self._key(h.spec.sid), *args)
        else:
            h.pool.submit(_w_init, self._key(h.spec.sid), *args).result()
        if record:
            h.log = [("_init", None, None)]

    def close(self):
        if self._closed:
            return
        self._closed = True
        for h in self._handles:
            try:
                if self.inline:
                    _w_close(self._key(h.spec.sid))
                elif h.pool is not None:
                    h.pool.submit(_w_close, self._key(h.spec.sid)).result(timeout=10)
            except Exception:
                pass
            if h.pool is not None:
                h.pool.shutdown(wait=True, cancel_futures=True)
                h.pool = None
            self._close_channel(h)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # best-effort: never leak shm segments
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch + healing -------------------------------------------------

    def _submit(self, h: _ShardHandle, fn, args, payload_bytes):
        key = self._key(h.spec.sid)
        if payload_bytes is None:
            payload = None
        elif self.transport == "shm":
            h.in_view[: len(payload_bytes)] = payload_bytes
            payload = ("shm", len(payload_bytes))
        else:
            payload = ("data", payload_bytes)
        if self.inline:
            result, outdata = fn(key, *args, payload=payload)
            return result, outdata
        future = h.pool.submit(fn, key, *args, payload=payload)
        return future

    def _heal(self, h: _ShardHandle):
        self.heals += 1
        require(
            self.heals <= self.MAX_HEALS * max(1, len(self._handles)),
            "sharded pool healing limit exceeded (worker keeps dying)",
        )
        from repro.exp.resilient import _kill_pool

        _kill_pool(h.pool)
        self._start_pool(h)
        # Deterministic replay from the round checkpoint: re-init the shard
        # then re-run every logged step with its recorded halo input.  All
        # step math is pure given those inputs, so the rebuilt worker's
        # state is exactly the dead worker's.
        self._init_shard(h, record=False)
        for fn_name, args, in_bytes in h.log[1:]:
            fn = globals()[fn_name]
            fut = self._submit(h, fn, args, in_bytes)
            fut.result()

    def _step_all(self, fn, args_per_shard, payloads=None, record: bool = True):
        """Dispatch one step to every shard; collect ``(result, out_bytes)``.

        ``payloads`` are per-shard uint8 arrays (or None).  Output vectors
        are read back from the OUT regions (shm) or the returned bytes.
        """
        from concurrent.futures.process import BrokenProcessPool

        k = len(self._handles)
        payload_bytes = [
            None if payloads is None or payloads[s] is None
            else np.ascontiguousarray(payloads[s], dtype=np.uint8).tobytes()
            for s in range(k)
        ]
        results: List = [None] * k
        if self.inline:
            for s, h in enumerate(self._handles):
                results[s] = self._submit(h, fn, args_per_shard[s], payload_bytes[s])
        else:
            futures = [
                self._submit(h, fn, args_per_shard[s], payload_bytes[s])
                for s, h in enumerate(self._handles)
            ]
            for s, h in enumerate(self._handles):
                try:
                    results[s] = futures[s].result()
                except BrokenProcessPool:
                    self._heal(h)
                    retry = self._submit(h, fn, args_per_shard[s], payload_bytes[s])
                    results[s] = retry.result()
        if record:
            for s, h in enumerate(self._handles):
                h.log.append((fn.__name__, args_per_shard[s], payload_bytes[s]))
        out: List[Tuple[object, Optional[np.ndarray]]] = []
        for s, h in enumerate(self._handles):
            result, outdata = results[s]
            if outdata is not None:
                vec = np.frombuffer(memoryview(outdata), dtype=np.uint8).copy()
            elif h.out_view is not None:
                vec = np.frombuffer(
                    h.out_view, dtype=np.uint8, count=h.out_nbytes
                ).copy()
            else:
                vec = None
            out.append((result, vec))
        return out

    def start_trial(self):
        """Reset the per-trial replay logs (shard arrays stay hot)."""
        for h in self._handles:
            h.log = [("_init", None, None)]

    def inject_worker_failure(self, sid: int = 0):
        """Test hook: the shard's worker will die at its next step (the
        flag is deliberately not logged, so healing replay succeeds)."""
        if self.inline:
            return
        h = self._handles[sid]
        h.pool.submit(_w_set_fail, self._key(sid)).result()

    # -- halo assembly ------------------------------------------------------

    def _assemble_halo(self, boundary_vecs: List[Optional[np.ndarray]]):
        """Per-shard boundary bit vectors -> per-shard halo input vectors."""
        start = time.perf_counter()
        plan = self.plan
        out: List[Optional[np.ndarray]] = []
        for s, sp in enumerate(plan.specs):
            h_len = sp.halo_global.shape[0]
            if h_len == 0:
                out.append(np.zeros(0, dtype=np.uint8))
                continue
            res = np.empty(h_len, dtype=np.uint8)
            src = plan.halo_src_shard[s]
            pos = plan.halo_src_pos[s]
            for t in np.unique(src):
                sel = src == t
                res[sel] = boundary_vecs[t][pos[sel]]
            out.append(res)
        self.halo_seconds += time.perf_counter() - start
        return out

    def _assemble_cut(self, cut_vecs: List[Optional[np.ndarray]]):
        """Per-shard ``(post_set | clear)`` cut vectors -> peer-side inputs."""
        start = time.perf_counter()
        plan = self.plan
        out: List[Optional[np.ndarray]] = []
        for s, sp in enumerate(plan.specs):
            c = sp.cut_slots.shape[0]
            if c == 0:
                out.append(np.zeros(0, dtype=np.uint8))
                continue
            res = np.empty(2 * c, dtype=np.uint8)
            peer = plan.cut_peer_shard[s]
            pos = plan.cut_peer_pos[s]
            for t in np.unique(peer):
                sel = peer == t
                ct = plan.specs[t].cut_slots.shape[0]
                res[:c][sel] = cut_vecs[t][:ct][pos[sel]]
                res[c:][sel] = cut_vecs[t][ct:2 * ct][pos[sel]]
            out.append(res)
        self.halo_seconds += time.perf_counter() - start
        return out

    def _emit_spans(self, algo: str, exchanges: int):
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                "span", name="sharded.partition", algo=algo,
                seconds=self.plan.partition_seconds, shards=len(self.plan),
            )
            tracer.event(
                "span", name="sharded.halo_exchange", algo=algo,
                seconds=self.halo_seconds, exchanges=exchanges,
            )

    # -- gathering ----------------------------------------------------------

    def _gather_nodes(self, pairs: List[Tuple[np.ndarray, np.ndarray]]):
        a = np.concatenate([p[0] for p in pairs]) if pairs else np.zeros(0, bool)
        b = np.concatenate([p[1] for p in pairs]) if pairs else np.zeros(0, bool)
        return a, b


def _bound_of(faults):
    """Accept a DenseFaults, a bound perturbation stack, or None."""
    if faults is None:
        return None
    bound = getattr(faults, "bound", faults)
    return tuple(bound)


def _result_extras(ex: ShardedExecutor):
    return {
        "partition_seconds": ex.plan.partition_seconds,
        "halo_seconds": ex.halo_seconds,
        "shards": len(ex.plan),
    }


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------


def _luby_one_trial(ex: ShardedExecutor, seed: int, max_rounds: int, bound):
    k = len(ex._handles)
    ex.start_trial()
    sh = mix64(int(seed))
    res = ex._step_all(_w_luby_start, [(sh, bound)] * k)
    active_total = sum(r for r, _ in res)
    rounds = 0
    exchanges = 0
    halo_active: Optional[List[Optional[np.ndarray]]] = None
    while active_total:
        if rounds + 1 > max_rounds:
            break
        round1 = rounds + 1
        do_join = rounds + 2 <= max_rounds
        res_a = ex._step_all(
            _w_luby_phase_a,
            [(round1, do_join)] * k,
            payloads=halo_active,
        )
        rounds += 1
        if not do_join:
            active_total = sum(r for r, _ in res_a)
            break
        boundary_join = [
            vec[: ex._handles[s].spec.boundary_local.shape[0]]
            for s, (_, vec) in enumerate(res_a)
        ]
        halo_join = ex._assemble_halo(boundary_join)
        exchanges += 1
        res_b = ex._step_all(_w_luby_phase_b, [(round1,)] * k, payloads=halo_join)
        rounds += 1
        active_total = sum(r for r, _ in res_b)
        boundary_active = [
            vec[: ex._handles[s].spec.boundary_local.shape[0]]
            for s, (_, vec) in enumerate(res_b)
        ]
        halo_active = ex._assemble_halo(boundary_active)
        exchanges += 1
    gathered = ex._step_all(_w_luby_gather, [()] * k, record=False)
    in_mis, crashed = ex._gather_nodes([r for r, _ in gathered])
    ex._emit_spans("luby", exchanges)
    return DenseResult(
        rounds,
        completed=active_total == 0,
        in_mis=in_mis,
        crashed=crashed,
        **_result_extras(ex),
    )


def luby_mis_sharded_batch(
    ex: ShardedExecutor,
    seeds: Sequence[int],
    max_rounds: int = 10_000,
    faults=None,
) -> List[DenseResult]:
    """Luby's MIS for a batch of seeds on a live executor (shards stay hot).

    Each trial is bit-identical to
    ``luby_mis_dense(engine, seed=s, coins="keyed", ...)`` — same MIS
    membership, crash records, round counts and completion flags.
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    bound = _bound_of(faults)
    return [_luby_one_trial(ex, s, max_rounds, bound) for s in seeds]


def luby_mis_sharded(
    engine: CSREngine,
    seed: int = 0,
    shards: Optional[int] = None,
    max_rounds: int = 10_000,
    faults=None,
    workers: Optional[int] = None,
    transport: str = "shm",
    tracer=None,
    executor: Optional[ShardedExecutor] = None,
) -> DenseResult:
    """One sharded Luby MIS trial; see :func:`luby_mis_sharded_batch`.

    Pass ``executor`` (a live :class:`ShardedExecutor` over the same
    engine) to amortize partitioning and worker spin-up across calls;
    otherwise one is built and torn down around the trial.
    """
    if executor is not None:
        return luby_mis_sharded_batch(executor, [seed], max_rounds, faults)[0]
    with ShardedExecutor(
        engine, shards, workers=workers, transport=transport, tracer=tracer
    ) as ex:
        return luby_mis_sharded_batch(ex, [seed], max_rounds, faults)[0]


def sinkless_trial_sharded(
    engine: CSREngine,
    min_degree: int = 1,
    seed: int = 0,
    shards: Optional[int] = None,
    max_rounds: int = 200,
    faults=None,
    strict: bool = True,
    workers: Optional[int] = None,
    transport: str = "shm",
    tracer=None,
    executor: Optional[ShardedExecutor] = None,
) -> DenseResult:
    """Sharded trial-and-fix sinkless orientation.

    Bit-identical per trial to ``sinkless_trial_dense(engine, min_degree,
    seed=s, coins="keyed", ...)``: round-1 proposal coins are keyed by
    global slot index (both endpoints computable shard-locally), and each
    fix round exchanges one ``(post-set out, clear)`` bit pair per cut slot
    — enough for the receiving shard to apply cross-cut flip clears *and*
    reconstruct the partner's final bit for the sink probe.
    """
    require(min_degree >= 1, f"min_degree must be >= 1, got {min_degree}")
    if executor is None:
        with ShardedExecutor(
            engine, shards, workers=workers, transport=transport, tracer=tracer
        ) as ex:
            return sinkless_trial_sharded(
                engine, min_degree, seed, max_rounds=max_rounds, faults=faults,
                strict=strict, executor=ex,
            )
    ex = executor
    require(
        engine.network.simple,
        "sinkless_trial_sharded requires a simple graph (no multi-edges/self-loops)",
    )
    bound = _bound_of(faults)
    k = len(ex._handles)
    ex.start_trial()
    sh = mix64(int(seed))
    ex._step_all(_w_sink_start, [(sh, bound, min_degree)] * k)
    rounds = 1
    exchanges = 0
    completed = False
    for round_no in range(2, max_rounds + 1):
        res_a = ex._step_all(_w_sink_send, [(round_no,)] * k)
        cut_vecs = [
            vec[: 2 * ex._handles[s].spec.cut_slots.shape[0]]
            for s, (_, vec) in enumerate(res_a)
        ]
        peer_vecs = ex._assemble_cut(cut_vecs)
        exchanges += 1
        res_b = ex._step_all(
            _w_sink_settle, [(round_no,)] * k, payloads=peer_vecs
        )
        rounds = round_no
        if not any(r for r, _ in res_b):
            completed = True
            break
    if not completed and strict:
        raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")
    gathered = ex._step_all(_w_sink_gather, [()] * k, record=False)
    out = np.concatenate([r[0] for r, _ in gathered]) if k else np.zeros(0, bool)
    crashed = (
        np.concatenate([r[1] for r, _ in gathered]) if k else np.zeros(0, bool)
    )
    ex._emit_spans("sinkless", exchanges)
    return DenseResult(
        rounds, completed=completed, out=out, crashed=crashed, **_result_extras(ex)
    )


def uniform_splitting_sharded(
    engine: CSREngine,
    spec,
    seed: int = 0,
    shards: Optional[int] = None,
    max_attempts: int = 64,
    red: int = 0,
    blue: int = 1,
    faults=None,
    workers: Optional[int] = None,
    transport: str = "shm",
    tracer=None,
    executor: Optional[ShardedExecutor] = None,
) -> DenseResult:
    """The sharded uniform-splitting Las-Vegas loop.

    Colors are pure per ``(run_hash, node)``, so an attempt needs *zero*
    halo exchange: the driver replays the sequential loop's per-attempt
    ``randrange(2**31)`` seed stream, broadcasts each run hash, and ANDs
    the shard verdicts.  Per attempt this is bit-identical to
    ``uniform_splitting_dense(engine, spec, seed=run_seed, coins="keyed")``.
    Returns the last attempt's colors with ``ok``/``attempts`` fields (the
    pipeline wrapper decides whether a failed final attempt is fatal).
    """
    require(max_attempts >= 1, f"max_attempts must be >= 1, got {max_attempts}")
    if executor is None:
        with ShardedExecutor(
            engine, shards, workers=workers, transport=transport, tracer=tracer
        ) as ex:
            return uniform_splitting_sharded(
                engine, spec, seed, max_attempts=max_attempts, red=red, blue=blue,
                faults=faults, executor=ex,
            )
    ex = executor
    bound = _bound_of(faults)
    k = len(ex._handles)
    ex.start_trial()
    ex._step_all(_w_split_start, [(spec, bound, red, blue)] * k)
    rng = ensure_rng(int(seed))
    ok = False
    attempts = 0
    for attempt_no in range(1, max_attempts + 1):
        run_hash = mix64(rng.randrange(2**31))
        res = ex._step_all(_w_split_attempt, [(run_hash,)] * k)
        attempts = attempt_no
        ok = all(r for r, _ in res)
        if ok:
            break
    gathered = ex._step_all(_w_split_gather, [()] * k, record=False)
    colors = (
        np.concatenate([r[0] for r, _ in gathered])
        if k else np.zeros(0, dtype=np.int64)
    )
    crashed = (
        np.concatenate([r[1] for r, _ in gathered]) if k else np.zeros(0, bool)
    )
    ex._emit_spans("splitting", 0)
    return DenseResult(
        1, completed=True, colors=colors, ok=ok, attempts=attempts,
        crashed=crashed, **_result_extras(ex),
    )
