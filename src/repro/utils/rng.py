"""Deterministic random-number plumbing.

Every randomized algorithm in this library takes either a seed or a
:class:`random.Random` instance.  Coins that the LOCAL model gives to
nodes, and every fault and repair decision the scenarios make, come from
one keyed law instead of a stream: the uniform

    u(seed, label, c1, c2, ...) = SplitMix64 chain over (seed, label, c1, c2, ...)

is a pure function of its key, so any executor may draw it in any order,
or several times, and get the same value.  A node's private coin is
``u(seed, "node", uid, round, draw)``: it depends only on the seed, the
node's identifier, the round and how many coins the node already drew
in that round, which is the independence structure the analyses rely on.
:func:`keyed_u01` is the scalar form and :func:`keyed_u01_array` the numpy
form; both run the same chain bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

__all__ = [
    "ensure_rng",
    "mix64",
    "NODE_COINS",
    "seed_link",
    "keyed_u01",
    "keyed_hash53",
    "keyed_u01_array",
    "keyed_u01_slots",
    "slot_prefix",
    "CoinClock",
    "NodeCoins",
    "MTStream",
]

SeedLike = Union[None, int, random.Random]

# SplitMix64 mixing chain — the one keyed-coin law (see the module doc).
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_TO_U01 = 2.0**-53


def mix64(z: int) -> int:
    """Pure-python SplitMix64 finalizer (one link of the keyed chain)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold64(np, h, components, owned: bool = False):
    """Fold SplitMix64 links ``h = mix64((h + gamma) ^ c)`` over ``components``.

    The one hash chain behind every keyed coin (:func:`keyed_u01_array`).
    Ints fold as python ints until the first int array, which may broadcast
    ``h``; later links run in place on that fresh array (on ``h`` itself
    when ``owned``) with one temporary buffer — arrays wrap silently where
    numpy uint64 *scalars* would warn on overflow.  Returns an int if every
    input was scalar, else a uint64 array.  Negative ints wrap as two's
    complement.
    """
    t = None
    for c in components:
        if not isinstance(c, int):
            c = np.asarray(c)
            c = int(c) if c.ndim == 0 else c.astype(np.int64, copy=False).view(np.uint64)
        if isinstance(c, int):
            if isinstance(h, int):
                h = mix64((h + _SM_GAMMA) ^ (c & _MASK64))
                continue
            c = np.uint64(c & _MASK64)
        if isinstance(h, int):
            h = np.uint64((h + _SM_GAMMA) & _MASK64) ^ c
        elif owned:
            h += np.uint64(_SM_GAMMA)
            h ^= c
        else:
            h = (h + np.uint64(_SM_GAMMA)) ^ c
        owned = True
        if t is None:
            t = np.empty_like(h)
        for shift, mult in ((30, _SM_M1), (27, _SM_M2)):
            np.right_shift(h, np.uint64(shift), out=t)
            h ^= t
            h *= np.uint64(mult)
        np.right_shift(h, np.uint64(31), out=t)
        h ^= t
    return h


#: Label of the nodes' private coins ``u(seed, NODE_COINS, uid, round, draw)``.
NODE_COINS = "node"

_LABEL_HASHES: dict = {}


def seed_link(seed: int, label: str) -> int:
    """The chain's first link: the seed mixed with a stable 64-bit hash of
    ``label`` (cached — labels are few)."""
    h = _LABEL_HASHES.get(label)
    if h is None:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        h = _LABEL_HASHES[label] = int.from_bytes(digest, "little")
    return mix64((seed & _MASK64) ^ h)


def keyed_u01(seed: int, label: str, *key: int) -> float:
    """The keyed uniform ``u(seed, label, *key)`` in ``[0, 1)``.

    A pure function of its arguments, so callers may evaluate it in any
    order.  Every ``key`` component must be an integer (negative ones wrap
    as two's complement).  :func:`keyed_u01_array` runs the same chain.
    """
    h = seed_link(seed, label)
    for k in key:
        h = mix64((h + _SM_GAMMA) ^ (k & _MASK64))
    return (h >> 11) * _TO_U01


def keyed_hash53(link, *key):
    """The top 53 bits of the chain from ``link`` over ``key`` (uint64 array).

    ``link`` is one :func:`seed_link` or a uint64 array of them, one per
    element (a kernel mixing several seeds in one array).  Comparing these
    hashes is order- and tie-isomorphic to comparing the uniforms
    ``hash * 2**-53`` built from them, so kernels may rank them directly.
    """
    import numpy as np  # lazy: the pure-python paths never need it

    h = _fold64(np, link, key)
    if isinstance(h, int):  # every input was scalar
        return np.uint64(h >> 11)
    h >>= np.uint64(11)
    return h


def keyed_u01_array(seed: int, label: str, *key):
    """:func:`keyed_u01` elementwise over numpy arrays (float64 array).

    Every component may be an int array (elementwise) or an int
    (broadcast); the results equal :func:`keyed_u01` bit for bit.
    """
    return keyed_hash53(seed_link(seed, label), *key) * _TO_U01


def slot_prefix(seed: int, label: str, uids, round_no: int):
    """The per-node ``(seed, label, uid, round)`` prefix of the chain, one
    uint64 per node (see :func:`keyed_u01_slots`)."""
    import numpy as np

    return _fold64(np, seed_link(seed, label), (uids, round_no))


def keyed_u01_slots(seed: int, label: str, uids, round_no: int, nodes, draws,
                    prefix=None):
    """Per-slot uniforms ``u(seed, label, uids[nodes], round_no, draws)``.

    Equals :func:`keyed_u01_array` on those arguments elementwise, but the
    ``(seed, label, uid, round)`` prefix is hashed once per *node* and
    gathered by ``nodes``, so only the last link runs per slot.  A caller
    that asks for one round in several slot ranges passes the
    :func:`slot_prefix` it already holds as ``prefix``.
    """
    import numpy as np

    if prefix is None:
        prefix = slot_prefix(seed, label, uids, round_no)
    h = _fold64(np, prefix[nodes], (draws,), owned=True)
    h >>= np.uint64(11)
    return h * _TO_U01


class CoinClock:
    """The executor's current round, shared by every node's coins.

    An executor sets ``round`` before each round's hook calls; it is 0
    while ``init`` runs.
    """

    __slots__ = ("round",)

    def __init__(self) -> None:
        self.round = 0


class NodeCoins:
    """One node's private coins: its ``k``-th draw in round ``r`` is
    ``u(seed, NODE_COINS, uid, r, k)``.

    Implements the two :class:`random.Random` methods the algorithms use.
    ``randrange(b)`` is ``floor(u * b)``, the same float product the dense
    kernels take, so both backends pick the same port.  Setup is one hash
    per node; there is no stream to seed.
    """

    __slots__ = ("_prefix", "_clock", "_round", "_draw")

    def __init__(self, link: int, uid: int, clock: CoinClock):
        # ``link`` is seed_link(seed, NODE_COINS), hashed once per run.
        self._prefix = mix64((link + _SM_GAMMA) ^ (uid & _MASK64))
        self._clock = clock
        self._round = 0
        self._draw = 0

    @staticmethod
    def for_nodes(seed: int, uids, clock: CoinClock) -> list:
        """One :class:`NodeCoins` per uid, all reading ``clock``."""
        link = seed_link(seed, NODE_COINS)
        return [NodeCoins(link, uid, clock) for uid in uids]

    def random(self) -> float:
        """The node's next coin in ``[0, 1)``."""
        round_no = self._clock.round
        if round_no != self._round:
            self._round = round_no
            self._draw = 0
        draw = self._draw
        self._draw = draw + 1
        h = mix64((self._prefix + _SM_GAMMA) ^ round_no)
        h = mix64((h + _SM_GAMMA) ^ draw)
        return (h >> 11) * _TO_U01

    def randrange(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)``, as ``floor(u * bound)``."""
        if bound < 1:
            raise ValueError(f"empty range for randrange({bound})")
        return int(self.random() * bound)


#: Methods that must be :class:`random.Random`'s own for its 32-bit word
#: stream to be CPython's MT19937 and for ``randrange`` to read it as
#: :class:`MTStream` assumes.
_STREAM_METHODS = ("random", "getrandbits", "_randbelow", "randrange", "getstate", "setstate")
#: Words drawn per ``random_raw`` call: bounds the uint64 temporaries.
_WORD_BLOCK = 1 << 20


def _mt19937_state(np, state) -> dict:
    """numpy ``MT19937`` state at the next word of a ``getstate()`` tuple."""
    internal = state[1]
    key = np.array(internal[:-1], dtype=np.uint32)
    return {"bit_generator": "MT19937", "state": {"key": key, "pos": internal[-1]}}


class MTStream:
    """Vectorized view of a :class:`random.Random`'s MT19937 word stream.

    CPython's ``random.Random`` and numpy's ``MT19937`` run the same
    generator: ``getrandbits(k)`` for ``k <= 32`` is the next 32-bit word
    shifted right by ``32 - k``, so ``randrange(n)`` for ``0 < n < 2**32``
    (``_randbelow_with_getrandbits``) is "take ``word >> (32 - k)`` with
    ``k = n.bit_length()``, reject values ``>= n``".  :meth:`randbelow`
    draws many such values at once from a copy of the generator's state;
    :meth:`commit` then advances the caller's generator by exactly the words
    the first ``draws`` of them consumed, so the caller ends in the state a
    loop of ``draws`` ``randrange(n)`` calls would have left it in, and gets
    the same values.

    Only seeds whose stream *is* that generator are accepted: ``None``, an
    ``int`` (or any other value ``random.Random`` seeds from), or a
    ``random.Random`` whose stream methods are the base class's own.
    Subclasses that replace them — ``random.SystemRandom`` reads the OS and
    has no state — raise ``TypeError``.
    """

    def __init__(self, seed: SeedLike = None):
        import numpy as np  # lazy: the pure-Python paths never need numpy

        rng = ensure_rng(seed)
        cls = type(rng)
        if any(getattr(cls, name) is not getattr(random.Random, name) for name in _STREAM_METHODS):
            raise TypeError(
                "seed must be None, an int or a random.Random whose word stream is "
                f"MT19937; {cls.__name__} overrides the stream methods"
            )
        self._np = np
        self._rng = rng
        self._start = rng.getstate()
        self._bg = np.random.MT19937(0)
        self._bg.state = _mt19937_state(np, self._start)
        self._accepts = []  # per-block masks of the words randbelow accepted

    def randbelow(self, n: int, words: int):
        """``randrange(n)`` values read from the next ``words`` words (uint64).

        Returns the accepted draws in stream order; a word the rejection
        step skips yields nothing, so fewer than ``words`` values come back.
        Successive calls continue the stream.  Requires ``0 < n < 2**32``.
        """
        np = self._np
        shift = np.uint64(32 - n.bit_length())
        parts = []
        while words > 0:
            w = self._bg.random_raw(min(words, _WORD_BLOCK))
            words -= w.shape[0]
            w >>= shift
            ok = w < n
            self._accepts.append(ok)
            parts.append(w[ok])
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def commit(self, draws: int) -> None:
        """Advance the caller's generator past the first ``draws`` values
        :meth:`randbelow` returned, as many ``randrange`` calls would."""
        np = self._np
        used = 0
        for ok in self._accepts:
            if draws == 0:
                break
            hits = int(np.count_nonzero(ok))
            if hits >= draws:
                used += int(np.flatnonzero(ok)[draws - 1]) + 1
                draws = 0
            else:
                draws -= hits
                used += ok.shape[0]
        if draws:
            raise ValueError(f"commit() is {draws} draws past the drawn words")
        bg = self._bg
        bg.state = _mt19937_state(np, self._start)
        bg.random_raw(used, output=False)
        state = bg.state["state"]
        version, _, gauss_next = self._start
        self._rng.setstate(
            (version, tuple(state["key"].tolist()) + (int(state["pos"]),), gauss_next)
        )


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random`.

    ``None`` yields a fresh nondeterministically seeded generator, an ``int``
    a deterministically seeded one, and an existing generator is passed
    through unchanged.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)
