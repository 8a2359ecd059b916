"""crossfam: exact analysis of crossing families in planar point sets.

A k-crossing family of a point set is a set of k spanned segments that
pairwise cross in their interiors. The package computes maximum crossing
families exactly, replicates point sets to certify upper bounds, checks the
thrackle structure behind the replication argument, generates signotope CNF
instances for SAT solvers, and searches for extremal configurations by
simulated annealing. All geometric predicates use exact rational arithmetic.

``import crossfam`` runs no submodule: each public name below is imported
from its submodule on first access and then kept in the package namespace.
"""

import sys as _sys

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "CrossfamError",
        "DegenerateEpsilonError",
        "EpsilonSearchError",
        "InvalidSegmentError",
        "NotGeneralPositionError",
        "ParseError",
        "RetryExhaustedError",
        "SameSourceSegmentError",
        "SignotopeViolationError",
        "SizeLimitError",
    ),
    "geometry": (
        "Coord",
        "Orientation",
        "Point",
        "PointSet",
        "Segment",
        "all_segments",
        "convex_position_points",
        "has_distinct_coordinates",
        "integer_coordinates",
        "is_general_position",
        "normalize_coordinates",
        "orientation",
        "segments_cross",
        "to_integer_coordinates",
    ),
    "crossing": (
        "CrossingFamily",
        "CrossingGraph",
        "brute_force_cf",
        "build_crossing_graph",
        "count_k_families",
        "has_k_family",
        "is_crossing_family",
        "max_crossing_family",
    ),
    "replication": (
        "CopyMap",
        "ReplicationCertificate",
        "choose_epsilon",
        "contract_family",
        "replicate_certified",
        "verify_cluster_isolation",
        "verify_copy_order",
    ),
    "thrackle": (
        "GeometricGraph",
        "has_even_cycle",
        "is_forest",
        "is_geometric_thrackle",
        "star_polygon",
    ),
    "sat": (
        "Assignment",
        "Cnf",
        "VarMap",
        "assignment_from_pointset",
        "decode_order_type",
        "emit_dimacs",
        "encode_no_k_family",
        "parse_dimacs",
        "parse_model",
        "verify_assignment",
    ),
    "search": (
        "SearchConfig",
        "SearchState",
        "anneal",
        "perturb",
        "random_general_position",
        "seed_by_doubling",
    ),
    "known": ("DEFAULT_EXTREMAL_LIBRARY", "KNOWN_VALUES", "KnownValue",
              "best_known_upper_bound", "bound_details", "known_bounds"),
    "store": ("bundled_names", "load_bundled"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset(_EXPORTS) | {"chirotope", "formats"}


def _submodule(name: str):
    # the import statement's own path, so that -X importtime reports the module
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_SOURCES[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES, *_SUBMODULES})
