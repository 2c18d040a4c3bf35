"""Bit identity of the array-native ``random_sparse_graph`` with the
sequential rejection loop it replaced, kept here verbatim as the oracle.

Both sides must return the same rows of python ints (the generator's
packed into an :class:`~repro.local.network.Adjacency` of tuple rows, the
loop's in lists), leave a ``random.Random`` seed in the same state, and
reject bad arguments with the same ``ValueError``.  Powers of two are the sizes where ``randrange``
rejects almost half of its words, and the dense limit ``m = n(n-1)/2`` is
where most attempts draw an edge already drawn.
"""

import math
import random
from typing import List, Set, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.utils.rng as rng_module
from repro.bipartite import generators
from repro.bipartite.generators import random_sparse_graph
from repro.local import Adjacency
from repro.utils.rng import MTStream, SeedLike, ensure_rng
from repro.utils.validation import require

EXAMPLES = settings(max_examples=200, deadline=None)


def loop_random_sparse_graph(n: int, avg_degree: float, seed: SeedLike = None) -> List[List[int]]:
    require(n >= 0, f"n must be >= 0, got {n}")
    require(avg_degree >= 0, f"avg_degree must be >= 0, got {avg_degree}")
    require(avg_degree < n or n == 0, "avg_degree must be < n")
    rng = ensure_rng(seed)
    m = int(round(n * avg_degree / 2.0))
    require(
        m <= n * (n - 1) // 2,
        f"requested {m} edges but only {n * (n - 1) // 2} simple edges exist",
    )
    adj: List[List[int]] = [[] for _ in range(n)]
    seen: Set[Tuple[int, int]] = set()
    attempts = 0
    max_attempts = 20 * m + 100
    while len(seen) < m and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        adj[key[0]].append(key[1])
        adj[key[1]].append(key[0])
    require(len(seen) == m, "edge sampling failed; graph too dense for rejection")
    for lst in adj:
        lst.sort()
    return adj


def outcome(fn, n, avg_degree, seed):
    try:
        return fn(n, avg_degree, seed)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_identical(n, avg_degree, seed):
    """Same rows (python ints in tuples) and, for a ``Random``, same state."""
    if isinstance(seed, random.Random):
        mine, theirs = type(seed)(), type(seed)()
        mine.setstate(seed.getstate())
        theirs.setstate(seed.getstate())
    else:
        mine = theirs = seed
    got = outcome(random_sparse_graph, n, avg_degree, mine)
    want = outcome(loop_random_sparse_graph, n, avg_degree, theirs)
    if isinstance(want, list):
        want = Adjacency(want)
    assert type(got) is type(want)
    assert got == want
    if isinstance(got, Adjacency):
        assert all(type(row) is tuple for row in got)
        assert all(type(x) is int for row in got for x in row)
    if isinstance(seed, random.Random):
        assert mine.getstate() == theirs.getstate()
        assert mine.random() == theirs.random()


seeds = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**32).map(random.Random),
)


@st.composite
def sparse_cases(draw):
    """n in [0, 300], average degree up to 20 (or the dense limit)."""
    n = draw(st.integers(min_value=0, max_value=300))
    top = max(min(n - 1, 20), 0)
    avg = draw(st.floats(min_value=0, max_value=top) | st.just(float(top)))
    return n, avg


@st.composite
def dense_cases(draw):
    """Small n up to the dense limit ``m = n(n-1)/2``, where rejection is heavy."""
    n = draw(st.integers(min_value=0, max_value=40))
    top = float(max(n - 1, 0))
    avg = draw(st.floats(min_value=0, max_value=top) | st.just(top))
    return n, avg


@EXAMPLES
@given(sparse_cases(), seeds)
def test_sparse_matches_loop(case, seed):
    assert_identical(*case, seed)


@EXAMPLES
@given(dense_cases(), seeds)
def test_dense_limit_matches_loop(case, seed):
    assert_identical(*case, seed)


@EXAMPLES
@given(
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-2, max_value=45) | st.sampled_from([math.nan, math.inf, -0.0]),
    st.integers(min_value=0, max_value=2**32),
)
def test_rejected_arguments_match_loop(n, avg_degree, seed):
    """Bad arguments raise the loop's ValueError; good ones agree as usual."""
    assert_identical(n, avg_degree, seed)


@settings(max_examples=30, deadline=None)
@given(dense_cases(), st.integers(min_value=0, max_value=2**64))
def test_none_seed_draws_a_fresh_generator_like_the_loop(case, entropy):
    """A ``None`` seed is a fresh ``random.Random()``: with the fresh
    generator pinned, both sides read the same stream."""
    fresh = lambda seed: random.Random(entropy) if seed is None else ensure_rng(seed)
    with mock.patch.object(rng_module, "ensure_rng", fresh), mock.patch(
        f"{__name__}.ensure_rng", fresh
    ):
        assert_identical(*case, None)


def test_none_seed_gives_a_valid_graph():
    adj = random_sparse_graph(60, 5.0)
    assert sum(map(len, adj)) == 2 * 150
    assert all(u not in row and list(row) == sorted(set(row)) for u, row in enumerate(adj))


@pytest.mark.parametrize("n", [1, 2, 3, 4096, 4097, 65536])
@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
def test_pinned_sizes_match_loop(n, seed):
    avg = {1: 0.9, 2: 1.0, 3: 2.0}.get(n, 1.0)
    assert_identical(n, avg, seed)
    assert_identical(n, avg, random.Random(seed))


@pytest.mark.parametrize("n", [64, 100])
def test_dense_limit_at_larger_n(n):
    assert_identical(n, float(n - 1), random.Random(n))


def test_numpy_integer_n_matches_loop():
    assert_identical(np.int64(300), 7.0, 5)


def test_plain_subclass_is_accepted():
    class Tagged(random.Random):
        label = "same stream"

    assert_identical(50, 6.0, Tagged(4))


@pytest.mark.parametrize("seed", [random.SystemRandom(), "override"])
def test_seeds_with_another_stream_raise_type_error(seed):
    if seed == "override":

        class Biased(random.Random):
            def getrandbits(self, k):
                return 0

        seed = Biased(1)
    with pytest.raises(TypeError, match=r"None, an int or a random\.Random"):
        random_sparse_graph(20, 3.0, seed=seed)


@pytest.mark.parametrize("avg_degree", [0.0, 1.0])
def test_n_beyond_one_word_per_draw_rejected(avg_degree):
    with pytest.raises(ValueError, match=r"n must be < 2\*\*32"):
        random_sparse_graph(2**32, avg_degree, seed=1)


def budget_loop(rng, n, m, max_attempts):
    """The oracle's sampling loop with the attempt budget as a parameter."""
    seen = set()
    attempts = 0
    while len(seen) < m and attempts < max_attempts:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return sorted(u * n + v for u, v in seen)


@pytest.mark.parametrize("n, m, max_attempts", [(5, 10, 8), (6, 15, 14), (4096, 50, 30)])
@pytest.mark.parametrize("seed", range(4))
def test_exhausted_attempt_budget_matches_loop(n, m, max_attempts, seed):
    """When the budget runs out first, the keys drawn so far come back and
    the generator sits where the loop's last attempt left it."""
    mine, theirs = random.Random(seed), random.Random(seed)
    keys = generators._sample_edge_keys(MTStream(mine), n, m, max_attempts)
    assert keys.tolist() == budget_loop(theirs, n, m, max_attempts)
    assert len(keys) < m
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 2**16, 2**16 + 1, 2**31, 2**32 - 1])
def test_mt_stream_randbelow_is_randrange(n):
    rng, loop = random.Random(n), random.Random(n)
    stream = MTStream(rng)
    first = stream.randbelow(n, 100).tolist()
    more = stream.randbelow(n, 3000).tolist()
    draws = first + more
    assert draws == [loop.randrange(n) for _ in draws]
    stream.commit(len(first) + 7)
    replay = random.Random(n)
    for _ in range(len(first) + 7):
        replay.randrange(n)
    assert rng.getstate() == replay.getstate()
    with pytest.raises(ValueError, match="past the drawn words"):
        stream.commit(len(draws) + 1)
