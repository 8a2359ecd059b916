"""Command-line interface.

Exit codes: 0 success, 1 domain errors (and failed verifications), 2 usage
errors, 130 when interrupted. All output is deterministic for fixed inputs
and flags. Each subcommand returns its exit status, its record (None for
the commands that write files) and its text; only ``main`` writes stdout:
the text, or with --json the record as one versioned JSON object.
Every command needs formats and geometry; each subcommand imports the other
layers it uses itself, so a command loads only its own.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import formats
from .errors import CrossfamError
from .formats import load_pointset
from .geometry import is_general_position, normalize_coordinates

SCHEMA = "crossfam/1"


def _cmd_cf(args):
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
    record = {"n": len(S), "k": size, "witness": [[s.a, s.b] for s in family]}
    return status, record, formats.format_witness(size, family)


def _cmd_decide(args):
    from .crossing import has_k_family

    S = load_pointset(args.pointset)
    family = has_k_family(S, args.k)
    record = {"n": len(S), "k": args.k, "found": family is not None,
              "witness": [[s.a, s.b] for s in family] if family else None}
    return 0, record, formats.format_witness(args.k, family) if family else "none\n"


def _cmd_count(args):
    from .crossing import count_k_families

    S = load_pointset(args.pointset)
    count = count_k_families(S, args.k)
    return 0, {"n": len(S), "k": args.k, "count": count}, f"{count}\n"


def _cmd_double(args):
    from .replication import replicate_certified

    S = load_pointset(args.pointset)
    S2, _, cert = replicate_certified(normalize_coordinates(S), args.m, args.epsilon)
    out = Path(args.output)
    formats.save_pointset(S2, out, comment=f"{args.m} copies of {len(S)} source points")
    cert_path = out.with_name(out.name + ".cert")
    formats.save_text(cert_path, formats.format_certificate(cert))
    if not cert.certified:
        print("warning: spacing failed certification; see certificate", file=sys.stderr)
    return 0, None, f"wrote {len(S2)} points to {out} (certificate: {cert_path})\n"


def _cmd_bound(args):
    from .known import bound_details, entry_source

    bound, entry = bound_details(args.n)
    record = {"n": args.n, "bound": bound, "entry": list(entry) if entry else None,
              "source": entry_source(entry)}
    if entry is None:
        return 0, record, f"cf({args.n}) <= {bound}  [floor(n/2) endpoint cap]\n"
    k, size = entry
    return 0, record, (f"cf({args.n}) <= {bound}  [library entry: {size} points with no "
                       f"{k + 1}-crossing family]\n")


def _cmd_known(args):
    from .known import known_bounds, known_provenance

    lower, upper, _ = known_bounds(args.n)
    record = {"n": args.n, "lower": lower, "upper": upper, "exact": lower == upper,
              "provenance": known_provenance(args.n)}
    text = f"cf({args.n}) = {lower}" if lower == upper else f"{lower} <= cf({args.n}) <= {upper}"
    if args.verbose:
        text += f"\nprovenance: {record['provenance']}"
    return 0, record, text + "\n"


def _cmd_encode(args):
    from . import sat

    cnf, vm = sat.encode_no_k_family(args.n, args.k)
    sat.emit_dimacs(cnf, args.output, comments=sat.default_dimacs_comments(vm, args.k))
    print(f"p cnf {cnf.num_vars} {cnf.num_clauses} -> {args.output}", file=sys.stderr)
    return 0, None, ""


def _verdict(record: dict, violated):
    """A model check's exit status, record and text: status 1 names the violated clause."""
    record.update(satisfied=violated is None, violated_clause=violated)
    if violated is None:
        return 0, record, "satisfied\n"
    return 1, record, f"violated clause {violated}\n"


def _cmd_verify_model(args):
    from . import sat

    cnf = sat.read_dimacs(args.cnf)
    asg = sat.parse_model(Path(args.model).read_text(encoding="utf-8"), cnf.num_vars)
    return _verdict({}, sat.verify_assignment(cnf, asg))


def _cmd_from_points(args):
    from . import sat

    S = normalize_coordinates(load_pointset(args.pointset))
    cnf, vm = sat.encode_no_k_family(len(S), args.k)
    asg = sat.assignment_from_pointset(S, vm)
    return _verdict({"n": len(S), "k": args.k}, sat.verify_assignment(cnf, asg))


def _cmd_thrackle(args):
    from .thrackle import GeometricGraph, has_even_cycle, is_forest, is_geometric_thrackle

    S, edges = formats.parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    G = GeometricGraph(S, frozenset(edges))
    record = {"thrackle": is_geometric_thrackle(G), "even_cycle": has_even_cycle(G),
              "forest": is_forest(G)}
    return 0, record, "".join(f"{key}: {'yes' if value else 'no'}\n"
                              for key, value in record.items())


def _cmd_search(args):
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

    prefix = Path(args.output) if args.output else Path(args.config).with_suffix("")
    if not prefix.parent.is_dir():
        # checked first: the files are written only after the whole search
        raise FileNotFoundError(f"output directory {str(prefix.parent)!r} does not exist")
    state = anneal(cfg, initial, on_improve=report)
    best_path = prefix.with_name(prefix.name + ".best.txt")
    trace_path = prefix.with_name(prefix.name + ".trace.csv")
    formats.save_pointset(
        state.best, best_path,
        comment=f"best of seed {cfg.seed}: {state.best_objective} families of size {cfg.k}",
    )
    formats.save_text(trace_path, formats.format_trace_csv(state.trace))
    status = 0
    # anneal returns its state on Ctrl-C, and stops early only at objective 0
    if len(state.trace) <= cfg.iterations and state.best_objective > 0:
        print(f"interrupted; best objective so far: {state.best_objective}", file=sys.stderr)
        status = 130
    return status, None, (f"best objective {state.best_objective} "
                          f"({len(state.trace) - 1} iterations) -> {best_path}\n")


def _cmd_plot(args):
    from . import svgplot
    from .crossing import is_crossing_family

    S = load_pointset(args.pointset)
    if not is_general_position(S):
        print(f"warning: {args.pointset} is not in general position", file=sys.stderr)
    family = ()
    if args.witness:
        k, family = formats.parse_witness(Path(args.witness).read_text(encoding="utf-8"))
        # is_crossing_family first: it rejects an index out of range even when k disagrees
        if not is_crossing_family(S, family) or len(family) != k:
            print("warning: witness file is not a valid crossing family here",
                  file=sys.stderr)
    out = args.output or str(Path(args.pointset).with_suffix(".svg"))
    formats.save_text(out, svgplot.render_svg(S, family))
    return 0, None, f"wrote {out}\n"


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
    queries = []

    def add(name, func, help_text, query=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if query:
            queries.append(p)
        return p

    p = add("cf", _cmd_cf, "maximum crossing family of a point set", query=True)
    p.add_argument("pointset")

    p = add("decide", _cmd_decide, "find a crossing family of a given size", query=True)
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)

    p = add("count", _cmd_count, "count crossing families of a given size", query=True)
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)

    p = add("double", _cmd_double, "replicate each point with a certified spacing")
    p.add_argument("pointset")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=_positive_spacing,
                   help="spacing as integer or p/q (default: certified search)")
    p.add_argument("-o", "--output", required=True)

    p = add("bound", _cmd_bound, "best known upper bound for cf(n)", query=True)
    p.add_argument("n", type=int)

    p = add("known", _cmd_known, "proven value or bounds for cf(n)", query=True)
    p.add_argument("n", type=int)
    p.add_argument("--verbose", action="store_true")

    p = add("encode", _cmd_encode, "emit a DIMACS instance excluding k-crossing families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("verify-model", _cmd_verify_model, "check a solver model against an instance",
            query=True)
    p.add_argument("cnf")
    p.add_argument("model")

    p = add("from-points", _cmd_from_points,
            "derive an assignment from points and verify it against encode(n, k)", query=True)
    p.add_argument("pointset")
    p.add_argument("--k", type=int, required=True)

    p = add("thrackle", _cmd_thrackle, "thrackle / even-cycle / forest checks on a graph file",
            query=True)
    p.add_argument("graph")

    p = add("search", _cmd_search, "run annealing from a config file")
    p.add_argument("config")
    p.add_argument("-o", "--output", help="checkpoint path prefix (default: config stem)")

    p = add("plot", _cmd_plot, "render a point set (and optional witness) as SVG")
    p.add_argument("pointset")
    p.add_argument("-o", "--output")
    p.add_argument("--witness", help="witness file to highlight")

    # declared last, so usage and help list it after each query's own arguments
    for p in queries:
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only writer of stdout, as text or as one JSON record."""
    args = build_parser().parse_args(argv)
    try:
        status, record, text = args.func(args)
        if getattr(args, "json", False):
            import json

            record = {"schema": SCHEMA, "command": args.command, **record}
            text = json.dumps(record, sort_keys=True) + "\n"
        sys.stdout.write(text)
        sys.stdout.flush()
        return status
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (CrossfamError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: route what stdout still buffers to devnull,
            # so the flush at exit cannot fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
