"""The benchmark's four workloads.

Each workload has three parts:

* ``inputs(seed)`` builds the pool of job inputs from the seed alone, before
  the timed phase, as a list of rounds. Every round has the same make-up
  (sizes, copy counts, instance kinds); the seed picks the points, labels
  and trims, so runs with different seeds do comparable work.
* ``run(inp, tracer)`` is one job: the public calls the matching CLI
  subcommand makes, each wrapped in a span named after its layer.
* ``check(inp, result, tracer)`` returns ``None`` when every answer check
  holds, else a one-line reason. Checks use code paths independent of the
  ones under test where the package has them (``segments_cross`` behind
  ``is_crossing_family``, a fresh recount, a second solver call).

``key(result)`` is the canonical answer text hashed into the run's
determinism digest.
"""

from __future__ import annotations

import hashlib
import io
import random
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

from crossfam import (
    GeometricGraph,
    PointSet,
    SearchConfig,
    anneal,
    assignment_from_pointset,
    build_crossing_graph,
    choose_epsilon,
    contract_family,
    count_k_families,
    emit_dimacs,
    encode_no_k_family,
    has_even_cycle,
    has_k_family,
    is_crossing_family,
    is_forest,
    is_geometric_thrackle,
    load_bundled,
    normalize_coordinates,
    parse_dimacs,
    parse_model,
    random_general_position,
    replicate_certified,
    verify_assignment,
)
from crossfam.crossing import CliqueSearch
from crossfam.formats import parse_pointset
from crossfam.sat import default_dimacs_comments


class Workload(NamedTuple):
    inputs: Callable
    run: Callable
    check: Callable
    key: Callable


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _pairs(family) -> tuple[tuple[int, int], ...]:
    return tuple((s.a, s.b) for s in family)


def uniform_general_position(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n distinct uniform points on the [0, n^2)^2 grid, no three collinear.

    Written here rather than taken from the package so that the inputs do
    not depend on the code under test.
    """
    side = n * n
    points: list[tuple[int, int]] = []
    while len(points) < n:
        x, y = rng.randrange(side), rng.randrange(side)
        if (x, y) in points or any(
            (bx - ax) * (y - ay) == (by - ay) * (x - ax)
            for (ax, ay), (bx, by) in combinations(points, 2)
        ):
            continue
        points.append((x, y))
    return points


def _max_clique(adjacency):
    return CliqueSearch(adjacency).run()


# --- random: parse -> cf -> decide --k cf+1 -> count --k 3 -------------------

RANDOM_SIZES = range(20, 29)
RANDOM_ROUNDS = 20


class RandomInput(NamedTuple):
    text: str
    points: PointSet


def _random_input(rng: random.Random, n: int) -> RandomInput:
    coords = uniform_general_position(rng, n)
    text = "\n".join([str(n)] + [f"{x} {y}" for x, y in coords]) + "\n"
    return RandomInput(text, PointSet.from_coords(coords))


def random_inputs(seed: int) -> list[list[RandomInput]]:
    rng = random.Random(f"random/{seed}")
    return [[_random_input(rng, n) for n in RANDOM_SIZES] for _ in range(RANDOM_ROUNDS)]


class RandomResult(NamedTuple):
    points: PointSet
    cf: int
    witness: tuple
    above_cf: object
    triples: int


def random_run(inp: RandomInput, tr) -> RandomResult:
    S = tr.call("formats.parse", parse_pointset, inp.text)
    graph = tr.call("crossing.build", build_crossing_graph, S)
    size, vertices = tr.call("crossing.search", _max_clique, graph.adjacency)
    witness = tuple(graph.segments[v] for v in vertices)
    above = tr.call("crossing.decide", has_k_family, S, size + 1)
    triples = tr.call("crossing.count", count_k_families, S, 3)
    if tr.enabled:
        tr.count("crossing.build_calls")
        tr.count("crossing.segments", len(graph))
        tr.count("crossing.edges", graph.edge_count)
        tr.count("crossing.search_calls")
        tr.count("crossing.families", triples)
    return RandomResult(S, size, witness, above, triples)


def random_check(inp: RandomInput, res: RandomResult, tr) -> str | None:
    if res.points != inp.points:
        return "parsed points differ from the generated ones"
    if len(res.witness) != res.cf:
        return f"witness has {len(res.witness)} segments, cf is {res.cf}"
    if not is_crossing_family(inp.points, res.witness):
        return "witness is not a crossing family"
    if res.above_cf is not None:
        return f"decide found a family of size cf+1 = {res.cf + 1}"
    if res.triples < comb(res.cf, 3):
        return f"{res.triples} 3-families, fewer than the witness alone holds"
    return None


def random_key(res: RandomResult) -> str:
    return repr((len(res.points), res.cf, _pairs(res.witness), res.above_cf, res.triples))


# --- extremal: certified replication of the bundled witnesses ---------------

#: (bundled set, copy counts); each round replicates every pair at
#: EXTREMAL_STRATA seeded totals, one from each equal slice of [n(m-1)+1, nm].
EXTREMAL_PLAN = (("n9_cf2", (2, 3, 4)), ("n14_cf3", (2, 3)))
EXTREMAL_STRATA = 6
EXTREMAL_ROUNDS = 6


class ExtremalInput(NamedTuple):
    name: str
    source_cf: int
    points: PointSet
    m: int
    total: int


def extremal_inputs(seed: int) -> list[list[ExtremalInput]]:
    rng = random.Random(f"extremal/{seed}")
    sources = [(name, copies, *load_bundled(name)) for name, copies in EXTREMAL_PLAN]
    rounds = []
    for _ in range(EXTREMAL_ROUNDS):
        cells = []
        for name, copies, source, cf in sources:
            n = len(source)
            for m in copies:
                low = n * (m - 1) + 1
                width = n * m - low + 1
                for stratum in range(EXTREMAL_STRATA):
                    first = low + stratum * width // EXTREMAL_STRATA
                    last = low + (stratum + 1) * width // EXTREMAL_STRATA - 1
                    labels = rng.sample(range(n), n)
                    relabeled = PointSet(tuple(source[i] for i in labels))
                    cells.append(ExtremalInput(name, cf, relabeled, m,
                                               rng.randint(first, last)))
        rounds.append(cells)
    return rounds


class ExtremalResult(NamedTuple):
    epsilon: object
    certificate: object
    replica: PointSet
    cf: int
    family: tuple
    contracted: tuple
    thrackle: bool
    even_cycle: bool
    forest: bool


def _cycle_checks(G: GeometricGraph) -> tuple[bool, bool, bool]:
    return is_geometric_thrackle(G), has_even_cycle(G), is_forest(G)


def extremal_run(inp: ExtremalInput, tr) -> ExtremalResult:
    S0 = tr.call("geometry.normalize", normalize_coordinates, inp.points)
    eps = tr.call("replication.epsilon", choose_epsilon, S0, inp.m)
    S2, cmap, cert = tr.call(
        "replication.certify", replicate_certified, S0, inp.m, eps, inp.total
    )
    graph = tr.call("crossing.build", build_crossing_graph, S2)
    size, vertices = tr.call("crossing.search", _max_clique, graph.adjacency)
    family = tuple(graph.segments[v] for v in vertices)
    contracted = contract_family(S2, cmap, family)
    G = GeometricGraph(S0, frozenset(contracted))
    thrackle, even, forest = tr.call("thrackle.check", _cycle_checks, G)
    if tr.enabled:
        tr.count("replication.points", len(S2))
        tr.count("crossing.build_calls")
        tr.count("crossing.segments", len(graph))
        tr.count("crossing.edges", graph.edge_count)
        tr.count("crossing.search_calls")
    return ExtremalResult(eps, cert, S2, size, family, contracted, thrackle, even, forest)


def extremal_check(inp: ExtremalInput, res: ExtremalResult, tr) -> str | None:
    cert = res.certificate
    if not cert.certified:
        return "replication certificate failed"
    if (cert.m, cert.source_n, cert.epsilon) != (inp.m, len(inp.points), res.epsilon):
        return "certificate does not describe this replication"
    if len(res.replica) != inp.total:
        return f"replica has {len(res.replica)} points, asked for {inp.total}"
    # The replica keeps copy 0 of every source point, so cf(S) <= cf(S').
    if not inp.source_cf <= res.cf <= inp.m * inp.source_cf:
        return f"cf(S') = {res.cf} outside [{inp.source_cf}, {inp.m * inp.source_cf}]"
    if len(res.family) != res.cf:
        return f"witness has {len(res.family)} segments, cf is {res.cf}"
    if not is_crossing_family(res.replica, res.family):
        return "witness is not a crossing family"
    if inp.m == 2 and len(res.family) > 2 and not (res.thrackle and res.forest):
        return "contracted family of a doubling is not a thrackle forest"
    if res.thrackle and res.even_cycle:
        return "a geometric thrackle with an even cycle"
    return None


def extremal_key(res: ExtremalResult) -> str:
    cert = res.certificate
    return repr((
        str(res.epsilon), cert.cluster_isolation_ok, cert.copy_order_ok,
        _sha(repr(res.replica)), res.cf, _pairs(res.family), _pairs(res.contracted),
        res.thrackle, res.even_cycle, res.forest,
    ))


# --- anneal: the search subcommand at n=16, k=4 -----------------------------

# cf(n) = 4 for 15 <= n <= 20, so the objective (number of 4-families) never
# reaches 0 and every job runs all of its iterations.
ANNEAL_N = 16
ANNEAL_K = 4
ANNEAL_ITERATIONS = 40
ANNEAL_ROUNDS = 12
ANNEAL_ROUND_SIZE = 8


class AnnealInput(NamedTuple):
    start_seed: int
    search_seed: int


def anneal_inputs(seed: int) -> list[list[AnnealInput]]:
    rng = random.Random(f"anneal/{seed}")
    return [[AnnealInput(rng.getrandbits(32), rng.getrandbits(32))
             for _ in range(ANNEAL_ROUND_SIZE)] for _ in range(ANNEAL_ROUNDS)]


class AnnealResult(NamedTuple):
    state: object
    improvements: tuple


def anneal_run(inp: AnnealInput, tr) -> AnnealResult:
    cfg = SearchConfig(n=ANNEAL_N, k=ANNEAL_K, seed=inp.search_seed,
                       iterations=ANNEAL_ITERATIONS)
    initial = tr.call("search.start", random_general_position,
                      cfg.n, random.Random(inp.start_seed), cfg.grid_bound)
    improvements = []
    state = tr.call("search.anneal", anneal, cfg, initial,
                    on_improve=lambda iteration, best: improvements.append((iteration, best)))
    if tr.enabled:
        tr.count("search.iterations", len(state.trace) - 1)
        tr.count("search.improvements", len(improvements))
    return AnnealResult(state, tuple(improvements))


def anneal_check(inp: AnnealInput, res: AnnealResult, tr) -> str | None:
    state = res.state
    if state.best_objective < 1:
        return "objective 0, yet every 16-point set has a 4-crossing family"
    if len(state.trace) != ANNEAL_ITERATIONS + 1:
        return f"{len(state.trace) - 1} iterations ran, {ANNEAL_ITERATIONS} asked"
    if state.trace[-1][3] != state.best_objective:
        return "trace ends on another best objective"
    recount = tr.call("crossing.count", count_k_families, state.best, ANNEAL_K)
    if tr.enabled:
        tr.count("crossing.families", recount)
    if recount != state.best_objective:
        return f"best set has {recount} 4-families, reported {state.best_objective}"
    return None


def anneal_key(res: AnnealResult) -> str:
    state = res.state
    return repr((state.best_objective, _sha(repr(state.trace)),
                 _sha(repr(state.best)), res.improvements))


# --- sat: encode -> emit -> parse -> from-points -> verify-model ------------

#: Jobs per round for each (n, k). Kinds alternate between a subset of a
#: bundled witness and a random set, from a seeded start. Job times grow
#: with (n, k) in the order below, so the counts put p50 in the middle of the
#: (11, 3) jobs and p90 among the (12, 4) jobs rather than between two sizes,
#: and keep a round near five seconds on two cores.
SAT_PLAN = {
    (9, 3): 2, (9, 4): 2, (10, 3): 2, (10, 4): 2, (11, 3): 4,
    (12, 3): 1, (11, 4): 2, (13, 3): 1, (12, 4): 3, (13, 4): 1,
}
SAT_SOURCES = ("n9_cf2", "n14_cf3")
SAT_ROUNDS = 2


class SatInput(NamedTuple):
    n: int
    k: int
    points: PointSet


def sat_inputs(seed: int) -> list[list[SatInput]]:
    rng = random.Random(f"sat/{seed}")
    witnesses = [load_bundled(name)[0] for name in SAT_SOURCES]
    rounds = []
    for _ in range(SAT_ROUNDS):
        cells = []
        for (n, k), count in SAT_PLAN.items():
            offset = rng.randrange(2)
            for j in range(count):
                if (j + offset) % 2:
                    source = rng.choice([W for W in witnesses if len(W) >= n])
                    S = PointSet(tuple(rng.sample(source.points, n)))
                else:
                    S = PointSet.from_coords(uniform_general_position(rng, n))
                cells.append(SatInput(n, k, S))
        rounds.append(cells)
    return rounds


class SatResult(NamedTuple):
    cnf: object
    dimacs: bytes
    parsed: object
    assignment: list
    model: list
    violated: object


def _model_text(asg) -> str:
    """The assignment as a solver would print it: 'v' lines ending in 0."""
    lits = [str(v if asg[v] else -v) for v in range(1, len(asg))]
    return "s SATISFIABLE\nv " + " ".join(lits) + " 0\n"


def _emit(cnf, vm, k) -> bytes:
    sink = io.BytesIO()
    emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, k))
    return sink.getvalue()


def sat_run(inp: SatInput, tr) -> SatResult:
    cnf, vm = tr.call("sat.encode", encode_no_k_family, inp.n, inp.k)
    dimacs = tr.call("sat.emit", _emit, cnf, vm, inp.k)
    parsed = tr.call("sat.parse", parse_dimacs, dimacs.decode("ascii"))
    S0 = tr.call("geometry.normalize", normalize_coordinates, inp.points)
    asg = tr.call("sat.assign", assignment_from_pointset, S0, vm)
    model = tr.call("sat.parse", parse_model, _model_text(asg), parsed.num_vars)
    violated = tr.call("sat.verify", verify_assignment, parsed, model)
    if tr.enabled:
        tr.count("sat.clauses", cnf.num_clauses)
        tr.count("sat.dimacs_bytes", len(dimacs))
    return SatResult(cnf, dimacs, parsed, asg, model, violated)


def sat_check(inp: SatInput, res: SatResult, tr) -> str | None:
    cnf, parsed = res.cnf, res.parsed
    if (parsed.num_vars, parsed.clauses) != (cnf.num_vars, cnf.clauses):
        return "parsed DIMACS differs from the encoded CNF"
    if res.model != res.assignment:
        return "parsed model differs from the assignment"
    # Points in general position satisfy the axiom and crossing groups.
    if res.violated is not None and res.violated < cnf.sections[0] + cnf.sections[1]:
        return f"realizable points violate axiom or crossing clause {res.violated}"
    family = tr.call("crossing.decide", has_k_family, inp.points, inp.k)
    if (res.violated is None) != (family is None):
        return (f"model {'satisfied' if res.violated is None else 'violated'} but "
                f"a {inp.k}-family {'exists' if family else 'does not exist'}")
    return None


def sat_key(res: SatResult) -> str:
    return repr((res.cnf.num_vars, res.cnf.num_clauses, _sha(res.dimacs), res.violated))


WORKLOADS = {
    "random": Workload(random_inputs, random_run, random_check, random_key),
    "extremal": Workload(extremal_inputs, extremal_run, extremal_check, extremal_key),
    "anneal": Workload(anneal_inputs, anneal_run, anneal_check, anneal_key),
    "sat": Workload(sat_inputs, sat_run, sat_check, sat_key),
}
