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
    from_edge_list,
    parse_graph_text,
    path_graph,
    square_check,
    trace_moments,
)
from .freeprod import (  # noqa: F401
    FreePowerSpec,
    decomposition_check,
    free_power,
    tree_recurrence_check,
    vacuum_moments_distance_k,
)
from .polymoments import (  # noqa: F401
    JacobiParams,
    chebyshev_monic,
    jacobi_moments,
    kesten_mckay_moments,
    km_density,
    semicircle_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
