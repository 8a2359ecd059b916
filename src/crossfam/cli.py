"""Command-line interface.

Exit codes: 0 success, 1 domain errors (and failed verifications), 2 usage
errors, 130 when interrupted. All output is deterministic for fixed inputs
and flags; query subcommands accept --json for machine-readable results.
Every command needs formats and geometry; each subcommand imports the other
layers it uses itself, so a command loads only its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .errors import CrossfamError
from .formats import load_pointset
from .geometry import is_general_position, normalize_coordinates

SCHEMA = "crossfam/1"


def _emit_json(payload: dict) -> None:
    import json

    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True))


def _load_checked(path: str):
    S = load_pointset(path)
    if not is_general_position(S):
        print(f"warning: {path} is not in general position", file=sys.stderr)
    return S


def _cmd_cf(args) -> int:
    from .crossing import CliqueSearch, build_crossing_graph

    S = load_pointset(args.pointset)
    graph = build_crossing_graph(S)
    solver = CliqueSearch(graph.adjacency)
    status = 0
    try:
        size, vertices = solver.run()
    except KeyboardInterrupt:
        size, vertices = solver.best_size, solver.best
        print(f"interrupted; best found so far: {size}", file=sys.stderr)
        status = 130
    family = [graph.segments[v] for v in vertices]
    if args.json:
        _emit_json({"command": "cf", "n": len(S), "k": size,
                    "witness": [[s.a, s.b] for s in family]})
    else:
        sys.stdout.write(formats.format_witness(size, family))
    return status


def _cmd_decide(args) -> int:
    from .crossing import has_k_family

    S = load_pointset(args.pointset)
    family = has_k_family(S, args.k)
    if args.json:
        _emit_json({"command": "decide", "n": len(S), "k": args.k,
                    "found": family is not None,
                    "witness": [[s.a, s.b] for s in family] if family else None})
        return 0
    if family is None:
        print("none")
    else:
        sys.stdout.write(formats.format_witness(args.k, family))
    return 0


def _cmd_count(args) -> int:
    from .crossing import count_k_families

    S = load_pointset(args.pointset)
    count = count_k_families(S, args.k)
    if args.json:
        _emit_json({"command": "count", "n": len(S), "k": args.k, "count": count})
    else:
        print(count)
    return 0


def _cmd_double(args) -> int:
    from .replication import replicate_certified

    S = load_pointset(args.pointset)
    S0 = normalize_coordinates(S)
    S2, _, cert = replicate_certified(S0, args.m, args.epsilon)
    out = Path(args.output)
    formats.save_pointset(S2, out, comment=f"{args.m} copies of {len(S)} source points")
    cert_path = out.with_name(out.name + ".cert")
    formats.save_text(cert_path, formats.format_certificate(cert))
    if not cert.certified:
        print("warning: spacing failed certification; see certificate", file=sys.stderr)
    print(f"wrote {len(S2)} points to {out} (certificate: {cert_path})")
    return 0


def _cmd_bound(args) -> int:
    from .known import bound_details, entry_source

    bound, entry = bound_details(args.n)
    if args.json:
        _emit_json({"command": "bound", "n": args.n, "bound": bound,
                    "entry": list(entry) if entry else None, "source": entry_source(entry)})
        return 0
    if entry is None:
        print(f"cf({args.n}) <= {bound}  [floor(n/2) endpoint cap]")
    else:
        k, size = entry
        print(f"cf({args.n}) <= {bound}  [library entry: {size} points with no "
              f"{k + 1}-crossing family]")
    return 0


def _cmd_known(args) -> int:
    from .known import known_bounds, known_provenance

    lower, upper, _ = known_bounds(args.n)
    if args.json:
        _emit_json({"command": "known", "n": args.n, "lower": lower, "upper": upper,
                    "exact": lower == upper, "provenance": known_provenance(args.n)})
        return 0
    if lower == upper:
        print(f"cf({args.n}) = {lower}")
    else:
        print(f"{lower} <= cf({args.n}) <= {upper}")
    if args.verbose:
        print(f"provenance: {known_provenance(args.n)}")
    return 0


def _cmd_encode(args) -> int:
    from . import sat

    cnf, vm = sat.encode_no_k_family(args.n, args.k)
    sat.emit_dimacs(cnf, args.output, comments=sat.default_dimacs_comments(vm, args.k))
    print(f"p cnf {cnf.num_vars} {cnf.num_clauses} -> {args.output}", file=sys.stderr)
    return 0


def _cmd_verify_model(args) -> int:
    from . import sat

    cnf = sat.parse_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    asg = sat.parse_model(Path(args.model).read_text(encoding="utf-8"), cnf.num_vars)
    violated = sat.verify_assignment(cnf, asg)
    if args.json:
        _emit_json({"command": "verify-model", "satisfied": violated is None,
                    "violated_clause": violated})
        return 0 if violated is None else 1
    if violated is None:
        print("satisfied")
        return 0
    print(f"violated clause {violated}")
    return 1


def _cmd_from_points(args) -> int:
    from . import sat

    S = load_pointset(args.pointset)
    S = normalize_coordinates(S)
    cnf, vm = sat.encode_no_k_family(len(S), args.k)
    asg = sat.assignment_from_pointset(S, vm)
    violated = sat.verify_assignment(cnf, asg)
    if args.json:
        _emit_json({"command": "from-points", "n": len(S), "k": args.k,
                    "satisfied": violated is None, "violated_clause": violated})
        return 0 if violated is None else 1
    if violated is None:
        print("satisfied")
        return 0
    print(f"violated clause {violated}")
    return 1


def _cmd_thrackle(args) -> int:
    from .thrackle import GeometricGraph, has_even_cycle, is_forest, is_geometric_thrackle

    S, edges = formats.parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    G = GeometricGraph(S, frozenset(edges))
    thrackle = is_geometric_thrackle(G)
    even = has_even_cycle(G)
    forest = is_forest(G)
    if args.json:
        _emit_json({"command": "thrackle", "thrackle": thrackle,
                    "even_cycle": even, "forest": forest})
        return 0
    print(f"thrackle: {'yes' if thrackle else 'no'}")
    print(f"even_cycle: {'yes' if even else 'no'}")
    print(f"forest: {'yes' if forest else 'no'}")
    return 0


def _cmd_search(args) -> int:
    import random

    from .search import anneal, random_general_position

    cfg, initial_path = formats.parse_search_config(
        Path(args.config).read_text(encoding="utf-8")
    )
    if initial_path:
        # relative to the config file; an absolute path replaces the parent
        initial = load_pointset(Path(args.config).parent / initial_path)
    else:
        initial = random_general_position(cfg.n, random.Random(cfg.seed), cfg.grid_bound)

    def report(iteration: int, best: int) -> None:
        print(f"iteration {iteration}: best objective {best}", file=sys.stderr)

    state = anneal(cfg, initial, on_improve=report)
    prefix = Path(args.output) if args.output else Path(args.config).with_suffix("")
    best_path = prefix.with_name(prefix.name + ".best.txt")
    trace_path = prefix.with_name(prefix.name + ".trace.csv")
    formats.save_pointset(
        state.best, best_path,
        comment=f"best of seed {cfg.seed}: {state.best_objective} families of size {cfg.k}",
    )
    formats.save_text(trace_path, formats.format_trace_csv(state.trace))
    print(f"best objective {state.best_objective} "
          f"({len(state.trace) - 1} iterations) -> {best_path}")
    return 0


def _cmd_plot(args) -> int:
    from . import svgplot
    from .crossing import is_crossing_family

    S = _load_checked(args.pointset)
    family = ()
    if args.witness:
        k, family = formats.parse_witness(Path(args.witness).read_text(encoding="utf-8"))
        if len(family) != k or not is_crossing_family(S, family):
            print("warning: witness file is not a valid crossing family here",
                  file=sys.stderr)
    out = args.output or str(Path(args.pointset).with_suffix(".svg"))
    formats.save_text(out, svgplot.render_svg(S, family))
    print(f"wrote {out}")
    return 0


def _positive_spacing(text: str):
    try:
        value = formats.parse_coord(text)
    except (ValueError, ZeroDivisionError):
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"spacing must be a positive integer or p/q, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfam",
        description="Exact analysis of crossing families in planar point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("cf", _cmd_cf, "maximum crossing family of a point set")
    p.add_argument("pointset")
    p.add_argument("--json", action="store_true")

    p = add("decide", _cmd_decide, "find a crossing family of a given size")
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("count", _cmd_count, "count crossing families of a given size")
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("double", _cmd_double, "replicate each point with a certified spacing")
    p.add_argument("pointset")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=_positive_spacing,
                   help="spacing as integer or p/q (default: certified search)")
    p.add_argument("-o", "--output", required=True)

    p = add("bound", _cmd_bound, "best known upper bound for cf(n)")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")

    p = add("known", _cmd_known, "proven value or bounds for cf(n)")
    p.add_argument("n", type=int)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("encode", _cmd_encode, "emit a DIMACS instance excluding k-crossing families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("verify-model", _cmd_verify_model, "check a solver model against an instance")
    p.add_argument("cnf")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    p = add("from-points", _cmd_from_points,
            "derive an assignment from points and verify it against encode(n, k)")
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("thrackle", _cmd_thrackle, "thrackle / even-cycle / forest checks on a graph file")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")

    p = add("search", _cmd_search, "run annealing from a config file")
    p.add_argument("config")
    p.add_argument("-o", "--output", help="checkpoint path prefix (default: config stem)")

    p = add("plot", _cmd_plot, "render a point set (and optional witness) as SVG")
    p.add_argument("pointset")
    p.add_argument("-o", "--output")
    p.add_argument("--witness", help="witness file to highlight")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (CrossfamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
