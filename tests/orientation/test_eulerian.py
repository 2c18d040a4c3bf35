"""Tests for the Eulerian orientation engine (discrepancy <= 1)."""

from hypothesis import given, settings, strategies as st

from repro.orientation import Multigraph, eulerian_orientation


@st.composite
def multigraphs(draw, max_nodes=12, max_edges=40):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=max_edges))
    return Multigraph(n, edges)


class TestEulerianOrientation:
    def test_even_cycle_balanced(self):
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ori = eulerian_orientation(g)
        assert ori.max_discrepancy() == 0

    def test_path_has_discrepancy_one_at_ends(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        ori = eulerian_orientation(g)
        assert ori.discrepancy(0) == 1 and ori.discrepancy(2) == 1
        assert ori.discrepancy(1) == 0

    def test_star_odd_center(self):
        g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        ori = eulerian_orientation(g)
        assert ori.discrepancy(0) <= 1

    def test_every_edge_oriented(self):
        g = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        ori = eulerian_orientation(g)
        assert len(ori.direction) == g.n_edges
        assert all(d in (1, -1) for d in ori.direction)

    def test_parallel_edges(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        ori = eulerian_orientation(g)
        # Even degrees: perfectly balanced means one each way.
        assert ori.max_discrepancy() == 0

    def test_self_loops_handled(self):
        g = Multigraph(2, [(0, 0), (0, 1)])
        ori = eulerian_orientation(g)
        assert ori.max_discrepancy() <= 1

    def test_disconnected_components(self):
        g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
        ori = eulerian_orientation(g)
        assert ori.max_discrepancy() <= 1

    def test_empty_graph(self):
        ori = eulerian_orientation(Multigraph(3, []))
        assert ori.max_discrepancy() == 0

    @given(multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_discrepancy_at_most_one_always(self, g):
        """The engine's core guarantee, on arbitrary multigraphs."""
        ori = eulerian_orientation(g)
        for v in range(g.n):
            bound = 1 if g.degree(v) % 2 == 1 else 0
            # even-degree nodes are perfectly balanced; odd off by one
            assert ori.discrepancy(v) <= 1
            if g.degree(v) % 2 == 0:
                assert ori.discrepancy(v) == 0

    @given(multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_randomized_comparison_weaker(self, g):
        """Sanity: a random orientation can violate what Eulerian guarantees."""
        ori = eulerian_orientation(g)
        assert ori.max_discrepancy() <= 1
