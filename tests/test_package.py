"""The package namespace: ``import crossfam`` is cheap, names load on first use."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crossfam

# the public names and the submodule that defines each
PUBLIC = {
    "errors": [
        "CrossfamError", "DegenerateEpsilonError", "EpsilonSearchError",
        "InvalidSegmentError", "NotGeneralPositionError", "ParseError",
        "RetryExhaustedError", "SameSourceSegmentError", "SignotopeViolationError",
        "SizeLimitError",
    ],
    "geometry": [
        "Coord", "Orientation", "Point", "PointSet", "Segment", "all_segments",
        "convex_position_points", "has_distinct_coordinates", "integer_coordinates",
        "is_general_position", "normalize_coordinates", "orientation", "segments_cross",
        "to_integer_coordinates",
    ],
    "crossing": [
        "CrossingFamily", "CrossingGraph", "brute_force_cf", "build_crossing_graph",
        "count_k_families", "has_k_family", "is_crossing_family", "max_crossing_family",
    ],
    "replication": [
        "CopyMap", "ReplicationCertificate", "choose_epsilon", "contract_family",
        "replicate_certified", "verify_cluster_isolation", "verify_copy_order",
    ],
    "thrackle": [
        "GeometricGraph", "has_even_cycle", "is_forest", "is_geometric_thrackle",
        "star_polygon",
    ],
    "sat": [
        "Assignment", "Cnf", "VarMap", "assignment_from_pointset", "decode_order_type",
        "emit_dimacs", "encode_no_k_family", "parse_dimacs", "parse_model",
        "verify_assignment",
    ],
    "search": [
        "SearchConfig", "SearchState", "anneal", "perturb", "random_general_position",
        "seed_by_doubling",
    ],
    "known": [
        "DEFAULT_EXTREMAL_LIBRARY", "KNOWN_VALUES", "KnownValue", "best_known_upper_bound",
        "bound_details", "known_bounds",
    ],
    "store": ["bundled_names", "load_bundled"],
}

SUBMODULES = ("chirotope", "crossing", "errors", "formats", "geometry", "known",
              "replication", "sat", "search", "store", "thrackle")


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that sees only the package."""
    env = {**os.environ, "PYTHONPATH": str(Path(crossfam.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_import_runs_no_submodule_and_reads_no_bundled_file():
    data = Path(crossfam.__file__).resolve().parent / "data"
    code = ("import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
            "import crossfam\n"
            "print([m for m in sys.modules if m.startswith('crossfam.')])\n"
            f"print([p for p in opened if p.startswith({str(data)!r})])\n")
    assert fresh(code) == "[]\n[]\n"


def test_all_is_the_pinned_public_names():
    assert len(crossfam.__all__) == 68
    assert sorted(crossfam.__all__) == sorted(n for names in PUBLIC.values() for n in names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_name_is_the_submodule_object(module, name):
    assert getattr(crossfam, name) is getattr(importlib.import_module(f"crossfam.{module}"), name)


def test_library_is_derived_from_the_bundled_files():
    from crossfam.known import DEFAULT_EXTREMAL_LIBRARY

    assert crossfam.DEFAULT_EXTREMAL_LIBRARY == DEFAULT_EXTREMAL_LIBRARY
    assert "DEFAULT_EXTREMAL_LIBRARY" in crossfam.__all__


def test_star_import_binds_all():
    namespace = {}
    exec("from crossfam import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(crossfam.__all__)


def test_dir_lists_names_library_and_submodules():
    listed = set(dir(crossfam))
    assert {*crossfam.__all__, "DEFAULT_EXTREMAL_LIBRARY", *SUBMODULES} <= listed


def test_submodule_attributes_in_a_fresh_interpreter():
    code = ("import importlib, crossfam\n"
            f"for m in {SUBMODULES!r}:\n"
            "    assert getattr(crossfam, m) is importlib.import_module('crossfam.' + m), m\n"
            "print('ok')\n")
    assert fresh(code) == "ok\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=re.escape("module 'crossfam' has no attribute 'NO_SUCH_NAME'")):
        crossfam.NO_SUCH_NAME
