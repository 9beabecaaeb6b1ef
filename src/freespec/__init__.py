"""Exact moment engine for distance-k graphs of free powers of rooted graphs."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    RootedGraph,
    bfs_distances,
    builtin_graph,
    complete_graph,
    count_k_cycles,
    cycle_graph,
    decompose_square,
    distance_k_graph,
    format_graph_text,
    from_edge_list,
    parse_graph_text,
    path_graph,
    trace_moment,
    trace_moments,
    vacuum_moment,
)
from .freeprod import (  # noqa: F401
    BallGraph,
    FreePowerSpec,
    ball,
    decomposition_check,
    distance_k_neighbors,
    edge_copy_is_top,
    free_power,
    regular_tree_ball,
    tree_recurrence_check,
    vacuum_moments_distance_k,
    word_distance,
)
from .polymoments import (  # noqa: F401
    JacobiParams,
    MomentSequence,
    Poly,
    chebyshev_classical,
    chebyshev_monic,
    jacobi_moments,
    kesten_mckay_moments,
    km_density,
    pushforward_moments,
    semicircle_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
