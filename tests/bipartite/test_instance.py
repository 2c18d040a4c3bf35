"""Unit and property tests for BipartiteInstance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite import BipartiteInstance


def tiny():
    #  u0 - v0, v1 ;  u1 - v1, v2
    return BipartiteInstance(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])


@st.composite
def instances(draw, max_left=8, max_right=8, max_edges=24):
    n_left = draw(st.integers(min_value=1, max_value=max_left))
    n_right = draw(st.integers(min_value=1, max_value=max_right))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n_left - 1),
        st.integers(min_value=0, max_value=n_right - 1),
    )
    edges = draw(st.lists(pairs, max_size=max_edges, unique=True))
    return BipartiteInstance(n_left, n_right, edges)


class TestConstruction:
    def test_counts(self):
        inst = tiny()
        assert inst.n_left == 2 and inst.n_right == 3 and inst.n_edges == 4
        assert inst.n == 5

    def test_rejects_out_of_range_left(self):
        with pytest.raises(ValueError):
            BipartiteInstance(1, 1, [(1, 0)])

    def test_rejects_out_of_range_right(self):
        with pytest.raises(ValueError):
            BipartiteInstance(1, 1, [(0, 1)])

    def test_rejects_parallel_edges_by_default(self):
        with pytest.raises(ValueError):
            BipartiteInstance(1, 1, [(0, 0), (0, 0)])

    def test_allows_parallel_edges_when_asked(self):
        inst = BipartiteInstance(1, 1, [(0, 0), (0, 0)], allow_multi=True)
        assert inst.left_degree(0) == 2
        assert not inst.is_simple()

    def test_empty_instance(self):
        inst = BipartiteInstance(0, 0, [])
        assert inst.stats().delta == 0 and inst.stats().rank == 0


class TestDegreesAndStats:
    def test_left_degrees(self):
        inst = tiny()
        assert [inst.left_degree(u) for u in range(2)] == [2, 2]

    def test_right_degrees(self):
        inst = tiny()
        assert [inst.right_degree(v) for v in range(3)] == [1, 2, 1]

    def test_stats_fields(self):
        s = tiny().stats()
        assert (s.delta, s.Delta, s.rank, s.min_rank) == (2, 2, 2, 1)

    def test_stats_cached_identity(self):
        inst = tiny()
        assert inst.stats() is inst.stats()

    def test_isolated_left_node_gives_delta_zero(self):
        inst = BipartiteInstance(2, 1, [(0, 0)])
        assert inst.delta == 0

    def test_degree_histograms(self):
        inst = tiny()
        assert inst.degree_histogram_left() == {2: 2}
        assert inst.degree_histogram_right() == {1: 2, 2: 1}


class TestNeighbors:
    def test_left_neighbors_order(self):
        assert tiny().left_neighbors(0) == [0, 1]

    def test_right_neighbors(self):
        assert tiny().right_neighbors(1) == [0, 1]

    def test_neighbor_sets_dedupe(self):
        inst = BipartiteInstance(1, 1, [(0, 0), (0, 0)], allow_multi=True)
        assert inst.left_neighbor_set(0) == {0}
        assert len(inst.left_neighbors(0)) == 2


class TestSubgraph:
    def test_subgraph_keeps_node_sets(self):
        sub, emap = tiny().subgraph([0, 3])
        assert sub.n_left == 2 and sub.n_right == 3
        assert sub.n_edges == 2 and emap == [0, 3]

    def test_subgraph_edge_map_points_to_originals(self):
        inst = tiny()
        sub, emap = inst.subgraph([1, 2])
        for new_id, old_id in enumerate(emap):
            assert sub.edges[new_id] == inst.edges[old_id]

    def test_without_edges_complements_subgraph(self):
        inst = tiny()
        sub, emap = inst.without_edges([0])
        assert emap == [1, 2, 3]

    def test_subgraph_rejects_bad_edge_id(self):
        with pytest.raises(ValueError):
            tiny().subgraph([99])

    def test_subgraph_dedupes_edge_ids(self):
        sub, emap = tiny().subgraph([1, 1, 1])
        assert sub.n_edges == 1


class TestComponents:
    def test_single_component(self):
        comps = tiny().connected_components()
        assert len(comps) == 1
        lefts, rights, eids = comps[0]
        assert lefts == [0, 1] and rights == [0, 1, 2] and eids == [0, 1, 2, 3]

    def test_disconnected_components(self):
        inst = BipartiteInstance(2, 2, [(0, 0), (1, 1)])
        comps = inst.connected_components()
        assert len(comps) == 2

    def test_isolated_right_node_is_own_component(self):
        inst = BipartiteInstance(1, 2, [(0, 0)])
        comps = inst.connected_components()
        assert ([], [1], []) in comps

    def test_isolated_left_node_is_own_component(self):
        inst = BipartiteInstance(2, 1, [(0, 0)])
        comps = inst.connected_components()
        assert ([1], [], []) in comps

    def test_induced_component_roundtrip(self):
        inst = BipartiteInstance(2, 2, [(0, 0), (1, 1)])
        lefts, rights, eids = inst.connected_components()[0]
        sub, lmap, rmap = inst.induced_component(lefts, rights, eids)
        assert sub.n_left == 1 and sub.n_right == 1 and sub.n_edges == 1

    @given(instances())
    @settings(max_examples=50)
    def test_components_partition_everything(self, inst):
        comps = inst.connected_components()
        all_lefts = sorted(u for lefts, _, _ in comps for u in lefts)
        all_rights = sorted(v for _, rights, _ in comps for v in rights)
        all_edges = sorted(e for _, _, eids in comps for e in eids)
        assert all_lefts == list(range(inst.n_left))
        assert all_rights == list(range(inst.n_right))
        assert all_edges == list(range(inst.n_edges))


class TestExports:
    def test_adjacency_rows_follow_edge_ids(self):
        inst = BipartiteInstance(2, 3, [(1, 2), (0, 1), (0, 0), (1, 1)])
        assert inst.adjacency() == [[3, 2], [4, 3], [0], [0, 1], [1]]

    def test_repr_mentions_parameters(self):
        assert "delta=2" in repr(tiny())


class TestProperties:
    @given(instances())
    @settings(max_examples=50)
    def test_edge_degree_consistency(self, inst):
        assert sum(inst.left_degree(u) for u in range(inst.n_left)) == inst.n_edges
        assert sum(inst.right_degree(v) for v in range(inst.n_right)) == inst.n_edges

    @given(instances())
    @settings(max_examples=50)
    def test_stats_bounds(self, inst):
        s = inst.stats()
        assert s.delta <= s.Delta
        assert s.min_rank <= s.rank

    @given(instances(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=50)
    def test_subgraph_degrees_never_grow(self, inst, salt):
        keep = [e for e in range(inst.n_edges) if (e + salt) % 3 != 0]
        sub, _ = inst.subgraph(keep)
        for u in range(inst.n_left):
            assert sub.left_degree(u) <= inst.left_degree(u)
        for v in range(inst.n_right):
            assert sub.right_degree(v) <= inst.right_degree(v)
