"""crossfam benchmark: one workload, one closed-loop client, every answer checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload {random,extremal,anneal,sat} \\
        --seed N --seconds S --trace {0,1}

crossfam is a batch toolkit, so each run is a closed loop: one client in
this process runs jobs back to back over a pool of inputs built from the
seed before timing starts. The pool is a list of rounds of equal make-up;
the loop stops between rounds once ``--seconds`` have passed, at least
``MIN_JOBS`` jobs ran and every pool input ran once. A job is the sequence
of public calls a CLI subcommand makes, followed by its answer check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every input
twice in a row, traced and untraced (which goes first alternates), and
reports per-layer self times per traced job, their shares of job time, layer
counters per traced job, the import-time split of set-up, and the tracing
overhead: traced over untraced time on the same inputs, minus one.

Times are reported in reference seconds: a short pure-Python probe runs
after every job, and wall times are scaled by how fast the probe ran in this
run (see ``speed``), so that the host's drifting speed does not read as a
change of the program. The readable report gives the wall times beside them.

The package is imported from ``src/`` next to this directory; the run fails
without printing a result when it is not there. Before the result line the
run prints a readable report with the determinism digest (a hash of every
answer in the first pass over the pool, equal for equal seeds) and the
environment stamp. Spans and the report also go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("random", "extremal", "anneal", "sat")
MIN_JOBS = 100  # ten samples beyond p90
MAX_SECONDS = 120.0  # keeps a much slower program inside the 180 s limit
SETUP_RUNS = 7  # warm imports timed, after one discarded cold import
SETUP_PROBES = 10  # speed probes before and after each timed import

IMPORT_PROBE = (
    "import time, speed; "
    f"p = [speed.probe() for _ in range({SETUP_PROBES})]; "
    "t = time.perf_counter(); import crossfam; d = time.perf_counter() - t; "
    f"p += [speed.probe() for _ in range({SETUP_PROBES})]; "
    "print(d, speed.scale(p))"
)

#: spans whose self time per traced job, and share of job time, are reported
LAYER_TIMINGS = (
    "formats.parse", "geometry.normalize", "crossing.build", "crossing.search",
    "crossing.decide", "crossing.count", "replication.epsilon", "replication.certify",
    "thrackle.check", "search.start", "search.anneal", "sat.encode", "sat.emit",
    "sat.parse", "sat.assign", "sat.verify",
)

LAYER_COUNTERS = (
    "crossing.build_calls", "crossing.segments", "crossing.edges",
    "crossing.search_calls", "crossing.families", "replication.points",
    "search.iterations", "search.improvements", "sat.clauses", "sat.dimacs_bytes",
)


class NoProgram(Exception):
    """The crossfam sources are not where the benchmark expects them."""


def check_sources() -> None:
    if not (SRC / "crossfam" / "__init__.py").is_file():
        raise NoProgram(f"no crossfam package under {SRC}")


def import_program():
    sys.path.insert(0, str(SRC))
    import crossfam

    if Path(crossfam.__file__).resolve().parent != (SRC / "crossfam").resolve():
        raise NoProgram(f"crossfam imported from {crossfam.__file__}, not {SRC}")
    import workloads

    return workloads


def _fresh_imports(flags: tuple[str, ...] = ()) -> list[subprocess.CompletedProcess]:
    """``import crossfam`` in SETUP_RUNS fresh interpreters, after a discarded cold one.

    Each prints the import's wall seconds and its factor to reference seconds,
    from speed probes run in the same interpreter just before and after it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    runs = []
    for _ in range(SETUP_RUNS + 1):
        runs.append(subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        ))
    return runs[1:]


def _import_scales(runs: list[subprocess.CompletedProcess]) -> list[tuple[float, float]]:
    """(wall seconds, factor to reference seconds) of each import."""
    return [tuple(float(x) for x in r.stdout.split()) for r in runs]


def setup_seconds() -> tuple[float, float]:
    """Median import time of crossfam, in reference and in wall seconds."""
    imports = _import_scales(_fresh_imports())
    return (statistics.median(wall * factor for wall, factor in imports),
            statistics.median(wall for wall, _ in imports))


def split_import_time(stderr: str) -> tuple[float, float]:
    """(networkx, rest of crossfam) seconds from ``python -X importtime`` output.

    networkx is its cumulative import time; the rest is crossfam's cumulative
    time minus networkx, i.e. the package's own modules and what else they pull.
    """
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    if "crossfam" not in cumulative:
        raise ValueError("no crossfam line in the import-time report")
    networkx = cumulative.get("networkx", 0.0)
    return networkx, cumulative["crossfam"] - networkx


def setup_split() -> tuple[float, float]:
    """Median (networkx, rest of crossfam) import times, in reference seconds."""
    runs = _fresh_imports(("-X", "importtime"))
    splits = [[t * factor for t in split_import_time(r.stderr)]
              for r, (_, factor) in zip(runs, _import_scales(runs))]
    return (statistics.median(s[0] for s in splits),
            statistics.median(s[1] for s in splits))


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Loop:
    """Outcome of one closed-loop timed phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.elapsed = 0.0
        self.times: list[float] = []
        self.probes: list[float] = []
        self.traced_jobs = 0
        self.traced_time = 0.0
        self.untraced_time = 0.0
        self.answers: list = []

    def digest(self) -> str:
        h = hashlib.sha256()
        for answer in self.answers:
            h.update(b"failed" if answer is None else answer.encode())
            h.update(b"\n")
        return h.hexdigest()

    def reference_times(self) -> list[float]:
        """Job times in reference seconds (see ``speed``)."""
        return speed.reference_times(self.times, self.probes)

    def scale(self) -> float:
        """This run's mean factor from wall seconds to reference seconds."""
        return sum(self.reference_times()) / sum(self.times)


def run_job(workload, inp, tr: Tracer):
    """One job and its check; returns (answer key, problem or None)."""
    result = workload.run(inp, tr)
    return workload.key(result), tr.call("check", workload.check, inp, result, tr)


def closed_loop(workload, rounds: list[list], seconds: float, tr: Tracer, trace: bool) -> Loop:
    """Run the pool's rounds in order, again and again, and stop between rounds.

    Every round has the same make-up, so stopping only between rounds keeps
    the mix of job sizes equal across runs and seeds.
    """
    pool = [inp for rnd in rounds for inp in rnd]
    round_size = len(rounds[0])
    loop = Loop()
    loop.answers = [None] * len(pool)
    loop.probes.append(speed.probe())
    start = time.perf_counter()
    passes = 0
    while True:
        for index, inp in enumerate(pool):
            elapsed = time.perf_counter() - start
            if passes and index % round_size == 0 and (
                    (elapsed >= seconds and loop.attempted >= MIN_JOBS)
                    or elapsed >= MAX_SECONDS):
                loop.elapsed = elapsed
                return loop
            modes = ((False, True) if index % 2 else (True, False)) if trace else (False,)
            for traced in modes:
                tr.enabled = traced
                t = _timed_job(loop, workload, index, inp, tr)
                if traced:
                    loop.traced_jobs += 1
                    loop.traced_time += t
                elif trace:
                    loop.untraced_time += t
        passes += 1


def _timed_job(loop: Loop, workload, index: int, inp, tr: Tracer) -> float:
    tr.job = loop.attempted
    loop.attempted += 1
    t0 = time.perf_counter()
    try:
        answer, problem = tr.call("job", run_job, workload, inp, tr)
    except Exception as exc:  # a raising job is a failed job; keep running
        answer, problem = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    t = time.perf_counter() - t0
    if problem is None:
        if loop.answers[index] is None:
            loop.answers[index] = answer
        elif loop.answers[index] != answer:
            problem = "answer changed when the input was repeated"
    if problem is not None:
        loop.failed += 1
        loop.problems.append(f"job {loop.attempted - 1} (input {index}): {problem}")
    loop.times.append(t)
    loop.probes.append(speed.probe())
    return t


def end_to_end(loop: Loop, times: list[float], setup_s: float) -> dict:
    """End-to-end metrics from the given job times and set-up time."""
    deciles = statistics.quantiles(times, n=10)
    return {
        "jobs_per_s": ((loop.attempted - loop.failed) / sum(times), "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (deciles[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(loop: Loop, tr: Tracer, networkx_s: float, crossfam_s: float) -> dict:
    jobs = loop.traced_jobs
    scale = loop.scale()
    self_times = tr.self_times()
    metrics = {
        "setup.networkx_s": (networkx_s, "s"),
        "setup.crossfam_s": (crossfam_s, "s"),
    }
    for name in LAYER_TIMINGS:
        total = self_times.get(name, 0.0)
        metrics[f"{name}_s"] = (total * scale / jobs, "s/job")
        metrics[f"{name}_share"] = (total / loop.traced_time, "1")
    for name in LAYER_COUNTERS:
        metrics[name] = (tr.counters[name] / jobs, "count/job")
    metrics["trace.overhead"] = (loop.traced_time / loop.untraced_time - 1, "1")
    metrics["trace.jobs"] = (jobs, "count")
    return metrics


def report(args, loop: Loop, metrics: dict, wall: dict, pool_size: int, started: str) -> dict:
    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_per_run": loop.attempted,
        "pool": pool_size,
        "started": started,
        "speed_scale": round(loop.scale(), 4),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"digest: {loop.digest()}")
    print(f"jobs: {loop.attempted} attempted, {loop.failed} failed, "
          f"{loop.elapsed:.2f} s timed")
    for problem in loop.problems[:10]:
        print(f"FAILED {problem}")
    rows = dict(metrics)
    if not args.trace:
        rows["fail_ratio"] = (loop.failed / loop.attempted, "1")
        p90 = metrics["job_p90_s"][0]
        print(f"samples: {len(loop.times)} jobs, "
              f"{sum(t > p90 for t in loop.reference_times())} beyond p90")
    print(f"metrics (times in reference seconds; wall seconds beside them, "
          f"speed scale {loop.scale():.4f}):")
    for name, (value, unit) in rows.items():
        beside = f"  wall {wall[name][0]:.6g}" if name in wall else ""
        print(f"  {name:28s} {value:14.6g} {unit}{beside}")
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    try:
        check_sources()
        if args.trace:
            networkx_s, crossfam_s = setup_split()
        else:
            setup_s, setup_wall_s = setup_seconds()
        workloads = import_program()
    except (NoProgram, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.inputs(args.seed)
    tr = Tracer()
    loop = closed_loop(workload, rounds, args.seconds, tr, bool(args.trace))
    if args.trace:
        metrics, wall = per_layer(loop, tr, networkx_s, crossfam_s), {}
    else:
        metrics = end_to_end(loop, loop.reference_times(), setup_s)
        wall = end_to_end(loop, loop.times, setup_wall_s)
    stamp = report(args, loop, metrics, wall, len(loop.answers), started)

    OUT.mkdir(exist_ok=True)
    record = {
        "stamp": stamp, "digest": loop.digest(),
        "attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "job_times": loop.times, "probe_times": loop.probes,
        "spans": tr.records() if args.trace else [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
