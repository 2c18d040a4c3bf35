"""Bipartite splitting instances, generators, transforms and girth tools."""

from repro.bipartite.instance import BLUE, RED, BipartiteInstance, Coloring, InstanceStats
from repro.bipartite.generators import (
    configuration_model_regular,
    grid_graph,
    powerlaw_bipartite,
    random_left_regular,
    random_near_regular,
    random_simple_graph,
    random_skewed,
    random_sparse_graph,
    regular_bipartite,
)
from repro.bipartite.transforms import (
    coloring_to_vertex_partition,
    double_cover,
    split_high_degree_left,
    trim_left_degrees,
)
from repro.bipartite.hypergraph import Hypergraph
from repro.bipartite.girth import (
    bipartite_girth,
    graph_girth,
    high_girth_instance,
    incidence_instance,
    tree_instance,
    peel_short_cycles,
)

__all__ = [
    "RED",
    "BLUE",
    "BipartiteInstance",
    "Coloring",
    "InstanceStats",
    "regular_bipartite",
    "random_left_regular",
    "random_near_regular",
    "random_skewed",
    "powerlaw_bipartite",
    "random_simple_graph",
    "random_sparse_graph",
    "configuration_model_regular",
    "grid_graph",
    "double_cover",
    "coloring_to_vertex_partition",
    "split_high_degree_left",
    "trim_left_degrees",
    "bipartite_girth",
    "graph_girth",
    "incidence_instance",
    "peel_short_cycles",
    "high_girth_instance",
    "tree_instance",
    "Hypergraph",
]
