"""Masked-array view of a perturbation stack for the dense backend.

The dense kernels (:mod:`repro.local.dense`) execute whole rounds as numpy
array ops, so faults reach them as per-round *masks* instead of per-message
hook calls: a boolean crash mask over nodes and boolean delivery masks over
CSR slots.  :class:`DenseFaults` builds those masks from the stack's
vectorized ``crashes_mask`` / ``delivers_mask`` / ``corrupts_mask``
decisions — one keyed hash per node for the (seed, uid, round) prefix plus
one mix per slot for the port, per dropper per round — and nothing else:
a member whose capability flag is set must have the matching mask (the
base methods raise :class:`NotImplementedError`; there is no per-slot
sweep of the scalar decisions).  Each mask agrees with its scalar twin, so
any stack stays exactly equivalent to the hooked reference (property-tested
in ``tests/scenarios/test_hook_equivalence.py`` and
``tests/scenarios/test_mask_kernels.py``).

Two ways to ask for a receiving-side mask:

* the **cached full-round** masks ``delivered_in(r)`` / ``corrupted_in(r)``
  are a **gather** of the outgoing masks through the CSR partner
  permutation (``delivered_in[k] == delivered_out[partner(k)]``: both
  sides of a slot name the same (sender, port) message), so a kernel that
  needs both views pays one O(m) build;
* the **check-range** masks ``delivered_in_range(r, a, b)`` /
  ``corrupted_in_range(r, a, b)`` cover positions ``a:b`` of the engine's
  ascending-degree check order (:meth:`CSREngine.check_order`), the order
  the splitting verification reads slots in.  They equal
  ``delivered_in(r)`` / ``corrupted_in(r)`` gathered through the check
  order's slot permutation, but run the same builders directly on the
  receive-side coordinates ``(check_node[a:b], check_port[a:b])`` — the
  message at check position ``k`` was sent by ``check_node[k]`` on its
  port ``check_port[k]`` — so a kernel that stops early pays only for
  the positions it reads, and no whole-round outgoing mask is built.
  They share the cache, keyed by range, so a faults object reused across
  Las-Vegas attempts builds each range once.

Further savings over the per-slot-loop implementation this replaces:

* rounds past the stack's quiet horizon (``max(quiet_after)``) reuse one
  **steady-state** mask — ``None`` for stacks that heal, the frozen
  deletion mask for :class:`~repro.scenarios.dynamic.DropEdges` — so long
  recovery tails pay zero mask cost and the per-round cache stops growing;
* never-settling stacks (``quiet_after=None``) keep a size-bounded FIFO
  cache instead of one entry per round forever.

Capability flags on the bound perturbations short-circuit the mask builds:
a stack that never crashes returns ``None`` crash masks, one that never
drops returns ``None`` delivery masks, and the kernels skip the masking
entirely — keeping the fault-free dense hot path untouched.
"""

from __future__ import annotations

from typing import Sequence

from repro.local.engine import CSREngine
from repro.scenarios.base import BoundPerturbation, quiet_after

__all__ = ["DenseFaults"]


class DenseFaults:
    """Per-round crash and delivery masks over one engine's CSR layout.

    ``crashed_at(r)`` — nodes crashing at the start of round ``r`` (or
    ``None``); ``delivered_out(r)`` — per-slot mask of the slot as an
    *outgoing* message (sender = slot owner); ``delivered_in(r)`` — per-slot
    mask of the slot as the *receiving* side, computed as the partner-gather
    of ``delivered_out(r)``; ``delivered_in_range(r, a, b)`` — the same
    mask for positions ``a:b`` of the engine's check order only, built
    receive-side (``corrupted_*`` alike).
    ``expired(r)`` tells a kernel the stack can never inject from round
    ``r`` on, so its loop may drop the faults object entirely.

    Whole-round masks are built on the engine's cached slot coordinates
    (:meth:`CSREngine.slot_layout`), so their O(m) set-up is paid once per
    engine, not once per faults object; the check-range masks read only
    :meth:`CSREngine.check_order`.  The fault schedule itself comes from
    ``bound`` (see :func:`~repro.scenarios.base.bind_all`).
    """

    #: FIFO cap on cached per-round masks (never-settling stacks only need
    #: a window of recent rounds: kernels query round r and r+1, plus
    #: retries of the same round).
    CACHE_MAX = 32

    def __init__(self, engine: CSREngine, bound: Sequence[BoundPerturbation]):
        self._engine = engine
        self.bound = tuple(bound)
        self.n = engine.n
        self._crashers = tuple(b for b in self.bound if b.crashes_nodes)
        self._droppers = tuple(b for b in self.bound if b.drops_messages)
        self._corrupters = tuple(b for b in self.bound if b.corrupts_messages)
        #: Last round at which the stack can still change its schedule;
        #: ``None`` for never-settling stacks.
        self.quiet = quiet_after(self.bound)
        # Decisions are pure per round, so repeated queries (retry loops,
        # multi-phase kernels) reuse the mask instead of rebuilding it.
        self._cache: dict = {}

    def expired(self, round_no: int) -> bool:
        """True when no fault can occur at any round >= ``round_no``.

        Requires a settling stack whose steady state is fault-free: past
        the quiet horizon nothing crashes and everything is delivered, so
        kernels may stop consulting the masks entirely.
        """
        if self.quiet is None or round_no <= self.quiet:
            return False
        return (
            self._steady("crash") is None
            and self._steady("out") is None
            and self._steady("cout") is None
        )

    def _steady(self, kind: str):
        """The constant mask for rounds past the quiet horizon.

        Pure decisions + the ``quiet_after`` contract make the schedule
        round-invariant past the horizon, so one build (at ``quiet + 1``)
        serves every later round — all-deliver stacks collapse to ``None``,
        persistent deletions to their frozen mask.
        """
        key = ("steady", kind)
        if key not in self._cache:
            self._cache[key] = self._build(kind, self.quiet + 1)
        return self._cache[key]

    def _lookup(self, kind: str, round_no: int, span=None):
        if self.quiet is not None and round_no > self.quiet:
            if span is None:
                return self._steady(kind)
            round_no = self.quiet + 1
        key = (kind, round_no) if span is None else (kind, round_no, span)
        if key not in self._cache:
            # Build before the eviction check: an "in" build re-enters
            # _lookup for its "out" mask, so evicting first would let the
            # nested insert push the cache one past the cap.
            value = self._build(kind, round_no, span)
            if len(self._cache) >= self.CACHE_MAX:
                # FIFO eviction; steady entries are re-derivable, and
                # rounds mostly advance, so dropping the oldest is safe.
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = value
        return self._cache[key]

    def _build(self, kind: str, round_no: int, span=None):
        if kind == "crash":
            return self._build_crash(round_no)
        if kind == "out":
            return self._build_out(round_no, *self._engine.slot_layout()[:2])
        if kind == "cout":
            return self._build_corrupt(round_no, *self._engine.slot_layout()[:2])
        if span is not None:
            # Receive side of check positions [start, stop): the message at
            # position k was sent by check_node[k] on its port check_port[k].
            start, stop = span
            _, _, check_node = self._engine.check_order()
            coords = (check_node[start:stop], self._engine.check_ports()[start:stop])
            if kind == "cin":
                return self._build_corrupt(round_no, *coords)
            return self._build_out(round_no, *coords)
        out = self._lookup("cout" if kind == "cin" else "out", round_no)
        return None if out is None else out[self._engine.slot_layout()[2]]

    def _build_crash(self, round_no: int):
        """Node crash mask (True = crashes at the start of ``round_no``):
        OR over the crashers."""
        mask = None
        for b in self._crashers:
            part = b.crashes_mask(round_no, self.n)
            if part is None:
                continue
            mask = part if mask is None else (mask | part)
        return mask

    def _build_out(self, round_no: int, senders, ports):
        """Per-message delivery mask (True = delivered) for the messages
        ``(senders[k], ports[k])``: AND over the droppers."""
        mask = None
        for b in self._droppers:
            part = b.delivers_mask(round_no, senders, ports)
            if part is None:
                continue
            mask = part if mask is None else (mask & part)
        return mask

    def _build_corrupt(self, round_no: int, senders, ports):
        """Per-message corruption mask (True = payload rewritten).  OR over
        the corrupters — any one rewrite leaves the payload corrupted for
        the semantic masks the kernels apply."""
        mask = None
        for b in self._corrupters:
            part = b.corrupts_mask(round_no, senders, ports)
            if part is None:
                continue
            mask = part if mask is None else (mask | part)
        return mask

    def crashed_at(self, round_no: int):
        """Bool node mask of crashes scheduled at ``round_no``, or None."""
        if not self._crashers:
            return None
        return self._lookup("crash", round_no)

    def delivered_out(self, round_no: int):
        """Per-slot delivery mask, slot read as an outgoing message."""
        if not self._droppers:
            return None
        return self._lookup("out", round_no)

    def delivered_in(self, round_no: int):
        """Per-slot delivery mask, slot read as the receiving side."""
        if not self._droppers:
            return None
        return self._lookup("in", round_no)

    def corrupted_out(self, round_no: int):
        """Per-slot corruption mask (True = rewritten), outgoing view."""
        if not self._corrupters:
            return None
        return self._lookup("cout", round_no)

    def corrupted_in(self, round_no: int):
        """Per-slot corruption mask, slot read as the receiving side."""
        if not self._corrupters:
            return None
        return self._lookup("cin", round_no)

    def delivered_in_range(self, round_no: int, start: int, stop: int):
        """The receive-side delivery mask of check positions
        ``start:stop`` (:meth:`CSREngine.check_order`): ``delivered_in``
        gathered through the check order's slot permutation, built for just
        those positions (no whole-round mask, no gather)."""
        if not self._droppers:
            return None
        return self._lookup("in", round_no, (start, stop))

    def corrupted_in_range(self, round_no: int, start: int, stop: int):
        """The receive-side corruption mask of check positions
        ``start:stop``, built like :meth:`delivered_in_range`."""
        if not self._corrupters:
            return None
        return self._lookup("cin", round_no, (start, stop))
