"""``edge_key_triples`` against the per-slot loop it replaced.

The loop walks every node's ports in order and counts the occurrences of
each ``(node, neighbor)`` pair, so the k-th ``j`` in ``adjacency[i]`` gets
``k`` and the triple ``(min uid, max uid, k)``.  The array version must
give the same triples on any looped multigraph with any unique ids.
"""

import random

import numpy as np

from repro.local import Network
from repro.scenarios import edge_key_triples


def loop_triples(network):
    ids = network.ids
    offsets, lo, hi, ks = [0], [], [], []
    occurrence = {}
    for i, nbrs in enumerate(network.adjacency):
        offsets.append(offsets[-1] + len(nbrs))
        for j in nbrs:
            k = occurrence.get((i, j), 0)
            occurrence[(i, j)] = k + 1
            lo.append(min(ids[i], ids[j]))
            hi.append(max(ids[i], ids[j]))
            ks.append(k)
    return offsets, lo, hi, ks


def random_looped_multigraph(rng, n):
    adj = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        adj[i].append(j)
        if i != j:  # a self-loop slot is its own pair
            adj[j].append(i)
    for row in adj:
        rng.shuffle(row)
    return adj


def test_triples_match_the_loop():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 30)
        net = Network(random_looped_multigraph(rng, n), ids=rng.sample(range(10**6), n))
        got = edge_key_triples(net)
        assert all(col.dtype == np.int64 for col in got)
        assert [col.tolist() for col in got] == list(loop_triples(net))


def test_empty_graph():
    assert [col.tolist() for col in edge_key_triples(Network([]))] == [[0], [], [], []]
