"""crossfam: exact analysis of crossing families in planar point sets.

A k-crossing family of a point set is a set of k spanned segments that
pairwise cross in their interiors. The package computes maximum crossing
families exactly, replicates point sets to certify upper bounds, checks the
thrackle structure behind the replication argument, generates signotope CNF
instances for SAT solvers, and searches for extremal configurations by
simulated annealing. All geometric predicates use exact rational arithmetic.
"""

from .errors import (
    CrossfamError,
    DegenerateEpsilonError,
    EpsilonSearchError,
    InvalidSegmentError,
    NotGeneralPositionError,
    ParseError,
    RetryExhaustedError,
    SameSourceSegmentError,
    SignotopeViolationError,
    SizeLimitError,
)
from .geometry import (
    Coord,
    Orientation,
    Point,
    PointSet,
    Segment,
    all_segments,
    convex_position_points,
    has_distinct_coordinates,
    integer_coordinates,
    is_general_position,
    normalize_coordinates,
    orientation,
    segments_cross,
    to_integer_coordinates,
)
from .crossing import (
    CrossingFamily,
    CrossingGraph,
    brute_force_cf,
    build_crossing_graph,
    count_k_families,
    has_k_family,
    is_crossing_family,
    max_crossing_family,
)
from .replication import (
    CopyMap,
    ReplicationCertificate,
    choose_epsilon,
    contract_family,
    replicate_certified,
    verify_cluster_isolation,
    verify_copy_order,
)
from .thrackle import (
    GeometricGraph,
    has_even_cycle,
    is_forest,
    is_geometric_thrackle,
    star_polygon,
)
from .sat import (
    Assignment,
    Cnf,
    VarMap,
    assignment_from_pointset,
    decode_order_type,
    emit_dimacs,
    encode_no_k_family,
    parse_dimacs,
    parse_model,
    verify_assignment,
)
from .search import (
    SearchConfig,
    SearchState,
    anneal,
    perturb,
    random_general_position,
    seed_by_doubling,
)
from .known import KNOWN_VALUES, KnownValue, best_known_upper_bound, bound_details, known_bounds
from .store import bundled_names, load_bundled

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "DEFAULT_EXTREMAL_LIBRARY":  # read from the bundled files on first use
        from .known import DEFAULT_EXTREMAL_LIBRARY
        return DEFAULT_EXTREMAL_LIBRARY
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
