"""Tests of the benchmark itself: its checks, digest, import-time parser and CLI.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

from crossfam import Segment  # noqa: E402


def cheap_inputs(name: str, seed: int = 7) -> list:
    """A few fast inputs of the workload's first round."""
    first = W.WORKLOADS[name].inputs(seed)[0]
    if name == "extremal":
        return [i for i in first if i.total <= 24]
    if name == "sat":
        return [i for i in first if i.n <= 11][:6]
    return first[:3]


def swap_one_segment(family):
    """The family with its first segment swapped for one touching the second.

    Two segments of a crossing family have four distinct endpoints, and
    segments sharing an endpoint never cross, so the result is no longer a
    crossing family.
    """
    first, second = family[0], family[1]
    return (Segment(second.a, first.a),) + tuple(family[1:])


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_smoke_every_check_passes_and_answers_repeat(name):
    workload = W.WORKLOADS[name]
    tr = Tracer()
    keys = []
    for inp in cheap_inputs(name):
        result = workload.run(inp, tr)
        assert workload.check(inp, result, tr) is None
        keys.append(workload.key(result))
    again = [workload.key(workload.run(inp, tr)) for inp in cheap_inputs(name)]
    assert keys == again


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_inputs_depend_on_the_seed_only(name):
    inputs = W.WORKLOADS[name].inputs
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    sizes = {len(r) for r in inputs(5)}
    assert len(sizes) == 1


def test_random_check_catches_a_swapped_witness_segment():
    tr = Tracer()
    inp = cheap_inputs("random")[0]
    res = W.random_run(inp, tr)
    assert W.random_check(inp, res, tr) is None
    bad = res._replace(witness=swap_one_segment(res.witness))
    assert W.random_check(inp, bad, tr) == "witness is not a crossing family"
    assert W.random_check(inp, res._replace(above_cf=res.witness), tr) is not None
    assert W.random_check(inp, res._replace(triples=0), tr) is not None


def test_extremal_check_catches_corrupted_answers():
    tr = Tracer()
    inp = next(i for i in cheap_inputs("extremal") if i.m == 2)
    res = W.extremal_run(inp, tr)
    assert W.extremal_check(inp, res, tr) is None
    bad = res._replace(family=swap_one_segment(res.family))
    assert W.extremal_check(inp, bad, tr) == "witness is not a crossing family"
    uncertified = dataclasses.replace(res.certificate, copy_order_ok=False)
    assert W.extremal_check(inp, res._replace(certificate=uncertified), tr) is not None
    assert W.extremal_check(inp, res._replace(cf=inp.m * inp.source_cf + 1), tr) is not None
    assert W.extremal_check(inp, res._replace(forest=False), tr) is not None


def test_anneal_check_catches_a_wrong_objective():
    tr = Tracer()
    inp = W.anneal_inputs(7)[0][0]
    res = W.anneal_run(inp, tr)
    assert W.anneal_check(inp, res, tr) is None
    state = res.state
    trace = state.trace[:-1] + (state.trace[-1][:3] + (state.best_objective + 1,),)
    off = dataclasses.replace(state, best_objective=state.best_objective + 1, trace=trace)
    assert "4-families" in W.anneal_check(inp, res._replace(state=off), tr)
    short = dataclasses.replace(state, trace=state.trace[:-1])
    assert W.anneal_check(inp, res._replace(state=short), tr) is not None


def test_sat_check_catches_corrupted_answers():
    tr = Tracer()
    inp = cheap_inputs("sat")[0]
    res = W.sat_run(inp, tr)
    assert W.sat_check(inp, res, tr) is None
    flipped = None if res.violated is not None else len(res.cnf.clauses) - 1
    assert W.sat_check(inp, res._replace(violated=flipped), tr) is not None
    clauses = list(res.parsed.clauses)
    clauses[-1] = tuple(-lit for lit in clauses[-1])
    parsed = type(res.parsed)(res.parsed.num_vars, clauses)
    assert W.sat_check(inp, res._replace(parsed=parsed), tr) is not None


def test_loop_digest_repeats_and_corruption_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    workload = W.WORKLOADS["random"]
    rounds = [cheap_inputs("random")[:2]]
    first = run.closed_loop(workload, rounds, 0, Tracer(), False)
    second = run.closed_loop(workload, rounds, 0, Tracer(), True)
    assert (first.attempted, first.failed) == (2, 0)
    assert (second.attempted, second.traced_jobs, second.failed) == (4, 2, 0)
    assert first.digest() == second.digest()
    assert len(first.probes) == first.attempted + 1

    def corrupted_run(inp, tr):
        res = W.random_run(inp, tr)
        return res._replace(witness=swap_one_segment(res.witness))

    broken = workload._replace(run=corrupted_run)
    loop = run.closed_loop(broken, rounds, 0, Tracer(), False)
    assert loop.failed == loop.attempted == 2
    assert loop.digest() != first.digest()


def test_reference_times_follow_the_probe_and_ignore_one_stretched_probe():
    ref = speed.REFERENCE_S
    # host at half speed for the first three jobs, full speed for the last three
    probes = [2 * ref] * 3 + [ref] * 4
    times = [0.2] * 3 + [0.1] * 3
    scaled = speed.reference_times(times, probes)
    assert scaled[0] == pytest.approx(0.1) and scaled[-1] == pytest.approx(0.1)
    stretched = [ref] * 7
    stretched[3] = 50 * ref
    assert speed.reference_times([0.1] * 6, stretched) == pytest.approx([0.1] * 6)
    with pytest.raises(ValueError):
        speed.reference_times(times, probes[:-1])


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    tr.enabled = True
    tr.call("job", lambda: tr.call("inner", sum, range(100000)))
    spans = {s.name: s for s in tr.spans}
    assert spans["inner"].parent == 0
    times = tr.self_times()
    inner = spans["inner"].end - spans["inner"].start
    outer = spans["job"].end - spans["job"].start
    assert times["job"] == pytest.approx(outer - inner)


def test_split_import_time():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       900 |        900 |   fractions",
        "import time:       300 |     160000 |     networkx",
        "import time:      1000 |     161000 |   crossfam.thrackle",
        "import time:       500 |     200000 | crossfam",
    ])
    assert run.split_import_time(stderr) == pytest.approx((0.16, 0.04))
    with pytest.raises(ValueError):
        run.split_import_time("import time: self [us] | cumulative | imported package")


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_cli_result_line_matches_benchmark_json(trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(W, "ANNEAL_ROUNDS", 1)
    monkeypatch.setattr(W, "ANNEAL_ROUND_SIZE", 2)
    assert run.main(["--workload", "anneal", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
