"""Orientations as arc arrays: one ``(tail, head)`` row per edge copy.

Both executors extract an orientation from per-slot ``out`` bits by one
rule (:func:`slot_arcs`), and :class:`ArcCounts` hands the resulting
``(k, 2)`` int64 array out as an arc -> copies mapping.  The verifiers of
:mod:`repro.orientation.sinkless` read the array itself; the ``Counter``
behind the mapping interface is built only when someone first uses it.
This module imports nothing from the executors, so the dense kernels and
the verifiers can both import it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.validation import require

__all__ = ["ArcCounts", "slot_arcs"]

Arc = Tuple[int, int]


def slot_arcs(owner: np.ndarray, dst: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The ``(k, 2)`` int64 arcs that per-slot ``out`` bits orient, one row
    per non-loop edge copy, in slot order.

    Slot ``s`` is the port ``owner[s] -> dst[s]``; the lower-index
    endpoint's slot decides each edge's direction (``out`` True: outward).
    """
    low = np.flatnonzero(owner < dst)
    outward, u, v = out[low], owner[low], dst[low]
    return np.stack((np.where(outward, u, v), np.where(outward, v, u)), axis=1)


class ArcCounts(Mapping):
    """A read-only arc -> copies mapping over a ``(k, 2)`` arc array.

    :attr:`arcs` holds one ``(tail, head)`` row per edge copy.  The mapping
    side — iteration over the distinct arcs as tuples of ints in order of
    first appearance, ``len`` (distinct arcs), lookup, ``dict(...)`` and
    ``==`` against any mapping, a ``Counter`` included — reads a
    ``Counter`` of the rows that is built on first use.  The wrapper takes
    the array over without copying and makes it read-only, so the two
    views never disagree; a pickle round trip keeps it read-only.
    """

    __slots__ = ("_arcs", "_counts")

    def __init__(self, arcs: np.ndarray):
        require(
            isinstance(arcs, np.ndarray) and arcs.shape[1:] == (2,) and arcs.dtype.kind in "iu",
            f"an arc array must be (k, 2) integers, got {getattr(arcs, 'dtype', type(arcs))}"
            f"{getattr(arcs, 'shape', '')}",
        )
        arcs = arcs.astype(np.int64, copy=False).view()
        arcs.flags.writeable = False
        self._arcs = arcs
        self._counts: Optional[Counter] = None

    @property
    def arcs(self) -> np.ndarray:
        """The read-only ``(k, 2)`` int64 arc array, one row per copy."""
        return self._arcs

    def _counter(self) -> Counter:
        if self._counts is None:
            self._counts = Counter(zip(self._arcs[:, 0].tolist(), self._arcs[:, 1].tolist()))
        return self._counts

    def __getitem__(self, arc: Arc) -> int:
        counts = self._counter()
        if arc in counts:
            return counts[arc]
        raise KeyError(arc)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self._counter())

    def __len__(self) -> int:
        return len(self._counter())

    def __eq__(self, other) -> bool:
        if isinstance(other, ArcCounts):
            other = other._counter()
        elif not isinstance(other, Mapping):
            return NotImplemented
        return self._counter() == other

    def __reduce__(self):
        return type(self), (self._arcs,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._arcs!r})"
