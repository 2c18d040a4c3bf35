"""Packed CSR arrays of one :class:`~repro.local.network.Network`, shared
by the dense kernels.

There are two executors: :func:`repro.local.network.run_local`, the
reference transcription of the LOCAL model that runs any
:class:`~repro.local.network.LocalAlgorithm`, and the per-algorithm numpy
round kernels of :mod:`repro.local.dense`.  :class:`CSREngine` is not an
executor; it holds what the kernels index into:

* **CSR packing.**  Adjacency and port tables live in contiguous arrays
  (``offsets``, ``dst_node``, ``dst_port``): the ports of node ``i`` occupy
  slots ``offsets[i]:offsets[i+1]``, and a message sent on slot ``k`` lands
  in the inbox of ``dst_node[k]`` under port ``dst_port[k]``.  The
  :class:`~repro.local.network.Network` packs them with numpy in the same
  sort pass that validates it, so an engine only borrows them and reuses
  them across runs (multi-seed sweeps amortize them to nothing).

* **Derived layouts, built once per engine on first use.**  The slot
  layout (:meth:`CSREngine.slot_layout`: each slot's sender, port and
  partner slot), on which the fault masks and the sinkless kernels work,
  and the ascending-degree check order (:meth:`CSREngine.check_order`)
  that the splitting verification reads slots in.
"""

from __future__ import annotations

import numpy as np

from repro.local.network import Network

__all__ = ["CSREngine"]


class CSREngine:
    """The packed CSR arrays of one :class:`Network` and their derived layouts.

    Construction borrows the network's arrays; the dense kernels of
    :mod:`repro.local.dense` run against them.  Build once, run many
    kernels and seeds.
    """

    def __init__(self, network: Network):
        self.network = network
        self.offsets = network.offsets
        self.dst_node = network.dst_node
        self.dst_port = network.dst_port
        # Ascending-degree check order and slot layout, built on first use
        # (see check_order and slot_layout).
        self._check = None
        self._check_port = None
        self._layout = None

    def dense_arrays(self):
        """The CSR layout as numpy int64 arrays ``(offsets, dst_node, dst_port)``.

        These are the network's own read-only arrays, packed once when the
        :class:`Network` was validated; this is the substrate the vectorized
        round kernels in :mod:`repro.local.dense` index into.
        """
        return self.offsets, self.dst_node, self.dst_port

    def slot_layout(self):
        """Every slot read as an outgoing message: ``(out_sender, out_port, partner)``.

        Slot ``k`` carries the message node ``out_sender[k]`` sends on its
        port ``out_port[k]``; ``partner[k]`` is the slot on the other
        endpoint of the same edge, so a gather through it turns an outgoing
        per-slot mask into the receiving side's view.  The fault masks of
        :class:`~repro.scenarios.masks.DenseFaults` are built on these
        coordinates.  Built once per engine in O(m), like :meth:`check_order`.
        """
        if self._layout is None:
            out_sender = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))
            out_port = np.arange(self.offsets[-1], dtype=np.int64) - self.offsets[:-1][out_sender]
            partner = self.offsets[:-1][self.dst_node] + self.dst_port
            self._layout = (out_sender, out_port, partner)
        return self._layout

    def check_order(self):
        """The slots regrouped by ascending degree: ``(order, check_offsets, check_node)``.

        ``order`` is the stable argsort of the degrees and ``check_offsets``
        the cumulative sum of the sorted degrees: node ``order[i]`` owns
        check positions ``check_offsets[i]:check_offsets[i+1]``, and
        ``check_node`` holds its ``dst_node`` row there, in port order (the
        sender of each message it receives).  The splitting verification
        reads nodes in this order, so the low-degree nodes, which leave
        their window most often, reject an attempt first.  Built once per
        engine in O(m); int64 like the CSR arrays, because narrower index
        arrays make the gathers through them slower.
        """
        if self._check is None:
            degrees = np.diff(self.offsets)
            order = np.argsort(degrees, kind="stable")
            check_offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(degrees[order], out=check_offsets[1:])
            check_node = self.dst_node[self._check_slots(order, check_offsets)]
            self._check = (order, check_offsets, check_node)
        return self._check

    def check_ports(self):
        """``check_port``: the ``dst_port`` twin of :meth:`check_order`'s
        ``check_node`` (the sender's port of each received message).  Only
        the receive-side fault masks read it, so it is built on first use."""
        if self._check_port is None:
            order, check_offsets, _ = self.check_order()
            self._check_port = self.dst_port[self._check_slots(order, check_offsets)]
        return self._check_port

    def _check_slots(self, order, check_offsets):
        """The CSR slot of every check position, in O(m); not kept."""
        slots = np.repeat(self.offsets[order] - check_offsets[:-1], np.diff(check_offsets))
        slots += np.arange(check_offsets[-1], dtype=np.int64)
        return slots

    @property
    def n(self) -> int:
        return self.network.n
