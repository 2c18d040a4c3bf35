"""Deterministic random-number plumbing.

Every randomized algorithm in this library takes either a seed or a
:class:`random.Random` instance.  In the LOCAL model each node flips private
coins; we model this by deriving one child generator per node from a master
seed, which keeps runs reproducible while preserving the independence
structure the analyses rely on (a node's bits are a pure function of the
master seed and its identifier, untouched by other nodes' consumption).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

__all__ = [
    "ensure_rng",
    "spawn",
    "node_rng",
    "CoinTable",
    "as_coin_table",
    "mix64",
    "keyed_hash53",
    "keyed_u01",
    "MTStream",
]

SeedLike = Union[None, int, random.Random]

# SplitMix64 mixing chain — the repo-wide counter-based hash idiom, shared
# with the fault-coin kernels in repro.scenarios.base.
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_TO_U01 = 2.0**-53


def mix64(z: int) -> int:
    """Pure-python SplitMix64 finalizer (master seeds, scalar fault coins)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold64(np, h, components, owned: bool = False):
    """Fold SplitMix64 links ``h = mix64((h + gamma) ^ c)`` over ``components``.

    The one hash chain behind :func:`keyed_hash53` and the fault coins.
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


def keyed_hash53(np, seed_hash, counters, tag: int):
    """53-bit counter-based hash of ``(seed, counter, tag)`` as uint64 array.

    ``seed_hash`` is :func:`mix64` of the master seed — either one python
    int broadcast over every counter (a single trial), or a uint64 array
    aligned with ``counters`` carrying per-element seeds (the trial-batched
    kernels' pooled phases, where one flat array mixes nodes of many
    trials).  ``counters`` is the per-draw key (node index, slot index, or
    call position) and ``tag`` the round number, so every value is a pure
    function of ``(seed, counter, tag)`` — no consumption order anywhere.

    The top 53 bits are returned so that comparing hashes is *order- and
    tie-isomorphic* to comparing the ``(h >> 11) * 2**-53`` uniforms built
    from them: kernels may rank raw hashes and skip the float convert.
    """
    h = _fold64(np, seed_hash, (np.asarray(counters), tag))
    h >>= np.uint64(11)
    return h


def keyed_u01(np, seed_hash, counters, tag: int):
    """Uniforms in [0, 1) keyed by ``(seed, counter, tag)`` (float64 array)."""
    return keyed_hash53(np, seed_hash, counters, tag) * _TO_U01


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


def spawn(rng: random.Random, label: str) -> random.Random:
    """Derive an independent child generator keyed by ``label``."""
    return random.Random(f"{rng.getrandbits(64)}/{label}")


def node_rng(master_seed: int, node_id: int, salt: str = "") -> random.Random:
    """Private coin source for one node, a pure function of seed and id."""
    return random.Random(f"{master_seed}/{node_id}/{salt}")


class CoinTable:
    """Per-node coin supply for the dense (vectorized) execution backend.

    The dense round kernels in :mod:`repro.local.dense` consume randomness
    in bulk — one array of uniforms per phase instead of ``n`` individual
    ``random.Random`` calls.  A :class:`CoinTable` abstracts where those
    arrays come from, with two contracts:

    ``kind="philox"`` (default)
        Coins are drawn from one numpy counter-based Philox stream keyed by
        the master seed.  Setup is O(1) — no per-node generator objects —
        which is the whole point at n >= 10^5, where building ``n``
        sha512-seeded :func:`node_rng` instances (~9 µs each) would dominate
        the run.  Runs are deterministic per seed and *distribution-identical*
        to the engine (same independent-uniform law), but **not bit-identical**
        to it: the values drawn depend on how many nodes are active each
        phase, not on node identity.  Use for performance runs; validity is
        covered by the statistical tests.

    ``kind="replay"``
        Coins are replayed from the exact per-node :func:`node_rng` streams
        the reference simulator and :class:`~repro.local.engine.CSREngine`
        consume, one stream per node keyed by the node's uid.  A dense
        kernel that draws the same number of coins per node per phase as the
        engine's hook calls therefore produces **bit-identical** outputs.
        Setup is O(n) — this mode exists for equivalence testing and exact
        cross-checks, not speed.

    ``kind="keyed"``
        Every value is a pure function of ``(master seed, counter, tag)``
        via the SplitMix64 chain of :func:`keyed_u01` — no stream, no
        consumption order, O(1) setup.  The ``tag`` argument the dense
        kernels pass (the round number) becomes part of the key, so the
        *same* value is produced no matter which call draws it, or whether
        it is drawn at all.  This is the contract that makes a trial-batched
        kernel run **bit-identical** to k independent sequential ``keyed``
        runs: the batched kernels recompute exactly these hashes at
        whatever (trial, node, round) triples are still active.
        Distribution-identical to the other kinds, bit-identical to neither.

    Kernels must route *every* random decision through this table (uniform
    coins via :meth:`uniforms`/:meth:`uniform_runs`, port choices via
    :meth:`randints`) so the replay contract stays exact, and must pass
    their round number as ``tag`` so the keyed contract stays pure (philox
    and replay ignore the tag).
    """

    KINDS = ("philox", "replay", "keyed")

    def __init__(self, seed: int, ids: Sequence[int], kind: str = "philox"):
        import numpy as np  # lazy: the pure-Python paths never need numpy

        if kind not in self.KINDS:
            raise ValueError(f"unknown coin table kind {kind!r}; expected one of {self.KINDS}")
        self._np = np
        self.kind = kind
        self.seed = seed
        self._gen = None
        self._streams = None
        self._seed_hash = None
        if kind == "philox":
            # Counter-based bit generator: O(1) setup regardless of n.
            self._gen = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
        elif kind == "replay":
            self._streams = [node_rng(seed, uid) for uid in ids]
        else:
            self._seed_hash = mix64(seed)

    def uniforms(self, idx, tag: int = 0) -> "object":
        """One uniform in [0, 1) per node index in ``idx`` (float64 array).

        In replay mode the value for node ``i`` is the next ``random()`` of
        that node's own stream; in philox mode values come off the shared
        counter stream in order; in keyed mode the value is the pure hash
        of ``(seed, i, tag)``.
        """
        np = self._np
        idx = np.asarray(idx, dtype=np.int64)
        if self._seed_hash is not None:
            return keyed_u01(np, self._seed_hash, idx, tag)
        if self._gen is not None:
            return self._gen.random(idx.shape[0])
        streams = self._streams
        return np.array([streams[i].random() for i in idx], dtype=np.float64)

    def uniform_runs(self, idx, counts, tag: int = 0) -> "object":
        """``counts[k]`` consecutive uniforms for node ``idx[k]``, concatenated.

        Matches a per-node loop that draws ``counts[k]`` values in a row from
        node ``idx[k]``'s stream (e.g. one coin per port in port order).  In
        keyed mode the counter is the *position within the call* — a kernel
        drawing one coin per CSR slot over all nodes therefore keys each
        value by its slot index, which is what the batched kernels replay.
        """
        np = self._np
        idx = np.asarray(idx, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if self._seed_hash is not None:
            return keyed_u01(np, self._seed_hash, np.arange(total, dtype=np.int64), tag)
        if self._gen is not None:
            return self._gen.random(total)
        out = np.empty(total, dtype=np.float64)
        k = 0
        streams = self._streams
        for i, c in zip(idx, counts):
            s = streams[i]
            for _ in range(c):
                out[k] = s.random()
                k += 1
        return out

    def randints(self, idx, bounds, tag: int = 0) -> "object":
        """One integer in ``[0, bounds[k])`` per node index in ``idx``.

        Replay mode calls each node's ``randrange`` (bit-identical to the
        engine's port choice); philox and keyed modes map uniforms through
        ``floor`` (the float rounding bias at these bound sizes is < 2^-40 —
        far below anything the statistical tests can see).
        """
        np = self._np
        idx = np.asarray(idx, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        if self._seed_hash is not None:
            return (keyed_u01(np, self._seed_hash, idx, tag) * bounds).astype(np.int64)
        if self._gen is not None:
            return (self._gen.random(idx.shape[0]) * bounds).astype(np.int64)
        streams = self._streams
        return np.array(
            [streams[i].randrange(b) for i, b in zip(idx, bounds)], dtype=np.int64
        )


def as_coin_table(coins, seed: int, ids: Sequence[int]) -> CoinTable:
    """Coerce ``coins`` (a kind string or an existing table) to a CoinTable."""
    if isinstance(coins, CoinTable):
        return coins
    return CoinTable(seed, ids, kind=coins)
