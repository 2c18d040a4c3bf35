"""repro — a reproduction of "On the Complexity of Distributed Splitting
Problems" (Bamberger, Ghaffari, Kuhn, Maus, Uitto; PODC 2019).

The package implements the paper's weak splitting algorithms and every
substrate they stand on — a LOCAL-model round simulator, the SLOCAL model
and its conversion, conditional-expectation derandomization, the directed
degree-splitting substrate, and the Section 4 applications (coloring, MIS).

Quickstart::

    from repro import random_left_regular, solve_weak_splitting, is_weak_splitting
    inst = random_left_regular(n_left=500, n_right=500, d=24, seed=0)
    coloring = solve_weak_splitting(inst)
    assert is_weak_splitting(inst, coloring)
"""

from repro.bipartite import (
    BLUE,
    RED,
    BipartiteInstance,
    bipartite_girth,
    double_cover,
    high_girth_instance,
    incidence_instance,
    random_left_regular,
    random_near_regular,
    random_simple_graph,
    random_skewed,
    regular_bipartite,
    split_high_degree_left,
    trim_left_degrees,
)
from repro.core import (
    NoKnownAlgorithmError,
    basic_weak_splitting,
    boost_multicolor_splitting,
    degree_rank_reduction_one,
    degree_rank_reduction_two,
    deterministic_weak_splitting,
    high_girth_weak_splitting,
    is_multicolor_splitting,
    is_uniform_splitting,
    is_weak_multicolor_splitting,
    is_weak_splitting,
    low_rank_weak_splitting,
    multicolor_splitting,
    orientation_from_weak_splitting,
    randomized_weak_splitting,
    shatter,
    solve_weak_splitting,
    trimmed_weak_splitting,
    weak_multicolor_splitting,
    weak_splitting_from_multicolor,
    weak_splitting_instance_from_graph,
    weak_splitting_violations,
    UniformSplittingSpec,
)
from repro.apps import (
    attach_clique_gadgets,
    coloring_via_splitting,
    mis_via_splitting,
    uniform_splitting,
)
from repro.local import RoundLedger

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # instances
    "RED",
    "BLUE",
    "BipartiteInstance",
    "regular_bipartite",
    "random_left_regular",
    "random_near_regular",
    "random_skewed",
    "random_simple_graph",
    "double_cover",
    "split_high_degree_left",
    "trim_left_degrees",
    "incidence_instance",
    "high_girth_instance",
    "bipartite_girth",
    # core algorithms
    "solve_weak_splitting",
    "basic_weak_splitting",
    "trimmed_weak_splitting",
    "deterministic_weak_splitting",
    "low_rank_weak_splitting",
    "randomized_weak_splitting",
    "high_girth_weak_splitting",
    "shatter",
    "degree_rank_reduction_one",
    "degree_rank_reduction_two",
    "NoKnownAlgorithmError",
    # verifiers
    "is_weak_splitting",
    "weak_splitting_violations",
    "is_weak_multicolor_splitting",
    "is_multicolor_splitting",
    "is_uniform_splitting",
    "UniformSplittingSpec",
    # multicolor
    "weak_multicolor_splitting",
    "multicolor_splitting",
    "weak_splitting_from_multicolor",
    "boost_multicolor_splitting",
    # lower bound
    "weak_splitting_instance_from_graph",
    "orientation_from_weak_splitting",
    # applications
    "uniform_splitting",
    "coloring_via_splitting",
    "mis_via_splitting",
    "attach_clique_gadgets",
    # accounting
    "RoundLedger",
]
