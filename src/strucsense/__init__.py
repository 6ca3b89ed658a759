"""Sensor placement with strong structural observability guarantees.

Pattern matrices over {zero, star, unknown} model networks whose parameters
are uncertain; sensor placements computed from a spanning tree of the state
graph come with a graph-coloring certificate that every numeric realization
of the pattern is observable, cross-checked by a sampling rank-test oracle.
"""

from .forcing import Certificate, certify_sso
from .netgraph import (
    NodeClassification,
    StateGraph,
    check_preconditions,
    classify_nodes,
    connected_components_star,
    cycle_count,
    from_pattern,
    to_pattern,
)
from .oracle import (
    MinimalPlacementResult,
    OracleReport,
    exhaustive_min_sensors,
    find_unobservable_realization,
    observability_rank_test,
    sample_and_check,
)
from .pattern import Entry, PatternMatrix, is_member, make_abar
from .placement import (
    PipelineRun,
    SensorPlacement,
    build_output_pattern,
    count_bounds_ok,
    place_cyclic,
    place_tree,
    sensor_count_report,
)
from .spanning import SpanningTree, removed_chords, spanning_tree_dfs
from .wdn import (
    ParseError,
    WdnNetwork,
    parse_edge_list,
    parse_inp,
    state_graph,
    structured_state_labels,
)

__version__ = "0.1.0"
