"""Generators for splitting instances.

The paper's algorithms are parameterized by three quantities of the bipartite
instance ``B = (U ∪ V, E)``: the minimum left degree δ, the maximum left
degree ∆ and the rank r (maximum right degree).  The generators below produce
instances with controlled values of these parameters:

* :func:`regular_bipartite` — deterministic, exactly ``d``-regular on the left
  with right degrees balanced to within one; the workhorse of reproducible
  benchmarks.
* :func:`random_left_regular` — each left node samples ``d`` distinct
  neighbors uniformly; rank concentrates around ``n_left * d / n_right``.
* :func:`random_near_regular` — left degrees drawn uniformly from
  ``[dmin, dmax]``; models the "nearly regular" graphs of Theorem 1.1
  (``∆/δ`` small).
* :func:`random_skewed` — a deliberately irregular instance (power-law-ish
  left degrees) used to exercise trimming (Lemma 2.2) and the virtual-node
  splitting of Section 2.4.
* :func:`random_simple_graph`, :func:`random_sparse_graph`,
  :func:`configuration_model_regular` and :func:`grid_graph` — *general*
  graphs; :func:`repro.bipartite.transforms.double_cover` turns one into an
  instance through the paper's doubling construction.

Of the general-graph samplers, :func:`random_sparse_graph` builds the
engine-scale inputs of the benchmarks and sweeps, so it runs as numpy array
passes that reproduce its sequential ``randrange`` rejection loop bit for
bit (same rows, same caller-generator state) by reading ``random.Random``'s
MT19937 word stream directly (:class:`repro.utils.rng.MTStream`).
:func:`configuration_model_regular` stays a Python loop: ``rng.shuffle``
is most of its time and Fisher–Yates is sequential — an exact vectorized
replay measured only 1.1x — while sampling from a new stream would change
every graph it has produced.
"""

from __future__ import annotations

import math
import operator
from typing import List, Set, Tuple

import numpy as np

from repro.bipartite.instance import BipartiteInstance
from repro.local.network import Adjacency
from repro.utils.rng import MTStream, SeedLike, ensure_rng
from repro.utils.validation import require

__all__ = [
    "regular_bipartite",
    "random_left_regular",
    "random_near_regular",
    "random_skewed",
    "powerlaw_bipartite",
    "random_simple_graph",
    "random_sparse_graph",
    "configuration_model_regular",
    "random_topology",
    "grid_graph",
]


def regular_bipartite(n_left: int, n_right: int, d: int) -> BipartiteInstance:
    """Deterministic left-``d``-regular instance with balanced right degrees.

    Left node ``u`` is joined to right nodes ``(u * d + i) mod n_right`` for
    ``i = 0 .. d-1``.  Requires ``d <= n_right`` so the instance is simple.
    The right degrees differ by at most ``ceil(n_left * d / n_right)`` from
    each other only through rounding; for ``n_right | n_left * d`` the right
    side is exactly regular, so ``rank = n_left * d / n_right``.
    """
    require(0 <= d <= n_right, f"need 0 <= d <= n_right, got d={d}, n_right={n_right}")
    edges = [(u, (u * d + i) % n_right) for u in range(n_left) for i in range(d)]
    return BipartiteInstance(n_left, n_right, edges)


def random_left_regular(
    n_left: int, n_right: int, d: int, seed: SeedLike = None
) -> BipartiteInstance:
    """Each left node independently picks ``d`` distinct right neighbors."""
    require(0 <= d <= n_right, f"need 0 <= d <= n_right, got d={d}, n_right={n_right}")
    rng = ensure_rng(seed)
    population = range(n_right)
    edges: List[Tuple[int, int]] = []
    for u in range(n_left):
        for v in rng.sample(population, d):
            edges.append((u, v))
    return BipartiteInstance(n_left, n_right, edges)


def random_near_regular(
    n_left: int,
    n_right: int,
    dmin: int,
    dmax: int,
    seed: SeedLike = None,
) -> BipartiteInstance:
    """Left degrees drawn uniformly from ``[dmin, dmax]``, neighbors uniform.

    Produces instances in the "nearly regular" regime of Theorem 1.1 when
    ``dmax / dmin`` is small.  The construction guarantees δ >= dmin exactly.
    """
    require(0 <= dmin <= dmax <= n_right, f"need 0 <= dmin <= dmax <= n_right")
    rng = ensure_rng(seed)
    population = range(n_right)
    edges: List[Tuple[int, int]] = []
    for u in range(n_left):
        d = rng.randint(dmin, dmax)
        for v in rng.sample(population, d):
            edges.append((u, v))
    return BipartiteInstance(n_left, n_right, edges)


def random_skewed(
    n_left: int,
    n_right: int,
    dmin: int,
    dmax: int,
    exponent: float = 2.0,
    seed: SeedLike = None,
) -> BipartiteInstance:
    """Heavily irregular instance: left degrees follow a truncated power law.

    Degree ``d`` is sampled with weight ``d**-exponent`` on ``[dmin, dmax]``.
    This produces a few very high-degree constraint nodes among many
    low-degree ones — the situation where Lemma 2.2's trimming and the
    Section 2.4 virtual-node splitting actually matter.
    """
    require(0 < dmin <= dmax <= n_right, "need 0 < dmin <= dmax <= n_right")
    rng = ensure_rng(seed)
    degrees = list(range(dmin, dmax + 1))
    weights = [d ** (-exponent) for d in degrees]
    population = range(n_right)
    edges: List[Tuple[int, int]] = []
    for u in range(n_left):
        d = rng.choices(degrees, weights=weights, k=1)[0]
        for v in rng.sample(population, d):
            edges.append((u, v))
    return BipartiteInstance(n_left, n_right, edges)


def powerlaw_bipartite(
    n_left: int,
    n_right: int,
    dmin: int,
    dmax: int,
    exponent: float = 2.5,
    seed: SeedLike = None,
) -> BipartiteInstance:
    """Power-law degrees on *both* sides of the instance.

    Left degrees follow a truncated power law (weight ``d**-exponent`` on
    ``[dmin, dmax]``) as in :func:`random_skewed`; right endpoints are drawn
    by preferential attachment (weight ``1 + current degree``), so the right
    side develops a heavy-tailed degree profile as well — high-rank hubs
    among many low-rank nodes.  This is the stress case for the paper's
    rank-sensitive machinery (trimming, virtual-node splitting) and for the
    sweep runner's scenario coverage: δ, ∆ *and* r all vary within a single
    instance.
    """
    require(0 < dmin <= dmax <= n_right, "need 0 < dmin <= dmax <= n_right")
    rng = ensure_rng(seed)
    degrees = list(range(dmin, dmax + 1))
    degree_weights = [d ** (-exponent) for d in degrees]
    right_weight = [1.0] * n_right
    right_nodes = list(range(n_right))
    edges: List[Tuple[int, int]] = []
    for u in range(n_left):
        d = rng.choices(degrees, weights=degree_weights, k=1)[0]
        chosen: Set[int] = set()
        # Weighted sampling without replacement; over-draw and dedupe, with
        # a uniform fallback so termination never depends on the weights.
        for _ in range(20):
            if len(chosen) >= d:
                break
            for v in rng.choices(right_nodes, weights=right_weight, k=d - len(chosen)):
                chosen.add(v)
        while len(chosen) < d:
            chosen.add(rng.randrange(n_right))
        for v in sorted(chosen):
            right_weight[v] += 1.0
            edges.append((u, v))
    return BipartiteInstance(n_left, n_right, edges)


# --------------------------------------------------------------------------
# General-graph samplers (inputs to the Section 1.1 / Section 4 reductions).
# Represented as adjacency lists: ``adj[v]`` is the sorted list of neighbors.
# --------------------------------------------------------------------------


def random_simple_graph(n: int, p: float, seed: SeedLike = None) -> List[List[int]]:
    """Erdős–Rényi ``G(n, p)`` as an adjacency list."""
    require(0 <= p <= 1, f"p must be a probability, got {p}")
    rng = ensure_rng(seed)
    adj: List[List[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return adj


def random_sparse_graph(n: int, avg_degree: float, seed: SeedLike = None) -> Adjacency:
    """``G(n, m)``-style sparse graph in O(m) expected time.

    :func:`random_simple_graph` flips a coin per node *pair* — O(n²) — which
    is prohibitive at the scales the dense kernels target (n >= 10^4).
    Here we draw ``m = round(n * avg_degree / 2)`` edges by uniform endpoint
    sampling with rejection of loops and duplicates, giving the same sparse
    Erdős–Rényi regime at a cost linear in the number of edges.

    The sampling rule is sequential: attempt ``i`` draws ``u =
    rng.randrange(n)`` then ``v = rng.randrange(n)``, skips a loop or an
    edge already drawn, and sampling stops at the ``m``-th distinct edge
    (or fails with ``ValueError`` after ``20 m + 100`` attempts).  The
    result is bit-identical to that loop for every seed — the same sorted
    rows of python ints — and a ``random.Random`` passed as ``seed`` is
    left in exactly the state the loop leaves it in, also when sampling
    fails.  The rows are returned as an
    :class:`~repro.local.network.Adjacency` built from the slot arrays
    computed here (``Adjacency.from_csr``), which a ``Network`` adopts.

    Cost: the loop runs as numpy passes over the generator's MT19937 word
    stream (:class:`~repro.utils.rng.MTStream`) — about ``2 m * 2**k / n``
    words for ``k = n.bit_length()``, drawn in chunks sized to the expected
    attempts still needed (one chunk except near the dense limit), one
    unstable argsort of the attempt keys to find each edge's first
    occurrence, and one sort of the ``2 m`` slot keys for the rows:
    O(m log m) array work plus the O(n + m) python rows of the result.  At
    n = 100,000, average degree 20 that takes less time than
    :class:`~repro.local.network.Network` takes to validate the graph.

    ``seed`` is ``None``, an ``int`` or a ``random.Random`` (or any other
    value ``random.Random`` seeds from).  A subclass that replaces the
    stream methods — ``random.SystemRandom``, say — raises ``TypeError``,
    and ``n >= 2**32``, where one 32-bit word no longer makes one draw,
    raises ``ValueError``.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require(avg_degree >= 0, f"avg_degree must be >= 0, got {avg_degree}")
    require(avg_degree < n or n == 0, "avg_degree must be < n")
    require(n < 2**32, f"n must be < 2**32, got {n}")
    n = operator.index(n)
    stream = MTStream(seed)
    m = int(round(n * avg_degree / 2.0))
    pairs = n * (n - 1) // 2
    require(m <= pairs, f"requested {m} edges but only {pairs} simple edges exist")
    keys = _sample_edge_keys(stream, n, m, 20 * m + 100)
    require(keys.shape[0] == m, "edge sampling failed; graph too dense for rejection")
    # Row ``a`` lists ``b`` for every slot key ``a*n + b``: each edge key
    # ``lo*n + hi`` plus its mirror, sorted, is the rows laid end to end.
    width = np.uint64(n)
    lo, hi = np.divmod(keys, width)
    slots = np.concatenate((keys, hi * width + lo))
    del keys
    slots.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(lo.astype(np.intp), minlength=n) + np.bincount(hi.astype(np.intp), minlength=n),
        out=offsets[1:],
    )
    del lo, hi
    slots %= width
    return Adjacency.from_csr(offsets, slots.view(np.int64))


def _sample_edge_keys(stream: MTStream, n: int, m: int, max_attempts: int):
    """Sorted keys ``lo*n + hi`` of the first ``m`` distinct non-loop edges.

    Attempt ``i`` is the randbelow pair ``(2i, 2i+1)`` of ``stream``; at
    most ``max_attempts`` attempts count, and fewer than ``m`` keys come
    back when they run out.  Commits the words the sequential loop would
    have used.  Chunks are sized to the expected attempts still needed, so
    one chunk is the rule and more come only near the dense limit.
    """
    if m == 0:
        return np.empty(0, dtype=np.uint64)
    total = n * (n - 1) // 2
    loop = np.uint64(n * n)  # a loop's key: sorts after every edge key
    accept = n / float(1 << n.bit_length())
    keys = carry = np.empty(0, dtype=np.uint64)
    attempts = distinct = 0
    while distinct < m and attempts < max_attempts:
        # Coupon collector: from ``distinct`` to ``m`` of ``total`` edges at
        # loop-free rate (n-1)/n, plus slack for the spread.
        need = n / (n - 1) * total * math.log1p((m - distinct) / (total - m + 0.5))
        need = min(int(1.05 * need + 4 * math.sqrt(need)) + 16, max_attempts - attempts)
        words = int((2 * need - carry.shape[0]) / accept) + 64
        draws = np.concatenate((carry, stream.randbelow(n, words)))
        take = min(draws.shape[0] // 2, max_attempts - attempts)
        carry = draws[2 * take :]
        if take == 0:
            continue
        u, v = draws[0 : 2 * take : 2], draws[1 : 2 * take : 2]
        lo = np.minimum(u, v)
        chunk = np.maximum(u, v)
        del draws, u, v
        loops = lo == chunk
        chunk += lo * np.uint64(n)
        chunk[loops] = loop
        del lo, loops
        keys = np.concatenate((keys, chunk))
        del chunk
        attempts += take
        # Distinct keys and the attempt that first drew each: an unstable
        # sort, then the least attempt index in every run of equal keys.
        order = np.argsort(keys)
        ranked = keys[order]
        starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        starts = np.concatenate(([0], starts))
        first = np.minimum.reduceat(order, starts)
        edges = ranked[starts]
        del order, ranked, starts
        if edges[-1] == loop:
            edges, first = edges[:-1], first[:-1]
        distinct = edges.shape[0]
    if distinct >= m:
        # The m-th new edge stops the loop: drop the keys first drawn later.
        attempts = int(np.partition(first, m - 1)[m - 1]) + 1
        edges = edges[first < attempts]
    stream.commit(2 * attempts)
    return edges


def grid_graph(rows: int, cols: int, periodic: bool = False) -> List[List[int]]:
    """2-D grid (``periodic=False``) or torus (``periodic=True``) graph.

    Node ``(i, j)`` is index ``i * cols + j``.  The torus is 4-regular —
    the canonical bounded-degree, high-girth-free benchmark topology where
    frontier-tracking simulation shines (constant work per node).  Periodic
    wrap requires each dimension >= 3 so the graph stays simple.
    """
    require(rows >= 1 and cols >= 1, "grid dimensions must be >= 1")
    if periodic:
        require(rows >= 3 and cols >= 3, "torus needs rows, cols >= 3 to stay simple")
    adj: List[List[int]] = [[] for _ in range(rows * cols)]
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            nbrs = []
            if periodic:
                nbrs = [
                    ((i - 1) % rows) * cols + j,
                    ((i + 1) % rows) * cols + j,
                    i * cols + (j - 1) % cols,
                    i * cols + (j + 1) % cols,
                ]
            else:
                if i > 0:
                    nbrs.append((i - 1) * cols + j)
                if i + 1 < rows:
                    nbrs.append((i + 1) * cols + j)
                if j > 0:
                    nbrs.append(i * cols + j - 1)
                if j + 1 < cols:
                    nbrs.append(i * cols + j + 1)
            adj[v] = sorted(set(nbrs))
    return adj


def configuration_model_regular(n: int, d: int, seed: SeedLike = None) -> Adjacency:
    """Random ``d``-regular simple graph via the configuration model.

    Pure-python pairing model: each node gets ``d`` stubs, the stub list is
    shuffled and paired consecutively; pairs forming a self-loop or parallel
    edge are thrown back and re-shuffled among themselves until every stub
    is matched (with a full restart if a re-shuffle makes no progress).
    It runs in O(n·d) expected time at sparse degrees, so it comfortably
    generates the n >= 10^4 instances the engine benchmarks and sweeps
    use; at dense degrees (d near n/2) restarts make single seeds several
    times slower than the median.  Unlike
    :func:`random_sparse_graph` it is not vectorized: ``rng.shuffle`` is
    most of its time and is sequential (see the module docstring).  The
    sorted rows are packed once into an :class:`~repro.local.network.Adjacency`.
    """
    require(n * d % 2 == 0, f"n*d must be even, got n={n}, d={d}")
    require(
        0 <= d < n or (n == 0 and d == 0),
        f"need 0 <= d < n, got d={d}, n={n}",
    )
    if n == 0:
        return Adjacency()
    rng = ensure_rng(seed)
    for _ in range(100):
        edges: Set[Tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            rng.shuffle(stubs)
            leftover: List[int] = []
            progressed = False
            for k in range(0, len(stubs), 2):
                u, v = stubs[k], stubs[k + 1]
                key = (u, v) if u < v else (v, u)
                if u == v or key in edges:
                    leftover.append(u)
                    leftover.append(v)
                else:
                    edges.add(key)
                    progressed = True
            stubs = leftover
            if stubs and not progressed:
                break  # stuck (e.g. two stubs of the same node left): restart
        if not stubs:
            adj: List[List[int]] = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            return Adjacency(adj)
    raise RuntimeError(
        f"configuration model failed to produce a simple {d}-regular graph "
        f"on {n} nodes after 100 attempts; lower d"
    )


def random_topology(topology: str, n: int, degree: int, seed: SeedLike = None) -> Adjacency:
    """The random graph families of the sweeps and the scenarios, by name.

    ``sparse`` is :func:`random_sparse_graph` with average degree
    ``degree``; ``regular`` is :func:`configuration_model_regular`, on
    ``n + 1`` nodes when ``n * degree`` is odd.  Both return an
    :class:`~repro.local.network.Adjacency`.
    """
    if topology == "regular":
        if n * degree % 2:
            n += 1
        return configuration_model_regular(n, degree, seed=seed)
    require(topology == "sparse", f"unknown random topology {topology!r}")
    return random_sparse_graph(n, float(degree), seed=seed)
