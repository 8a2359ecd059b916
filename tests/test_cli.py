import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossfam
from crossfam.cli import main
from crossfam.crossing import CliqueSearch
from crossfam.formats import (
    format_graph,
    format_pointset,
    format_search_config,
    format_witness,
    load_pointset,
    parse_certificate,
    parse_witness,
)
from crossfam.geometry import PointSet, Segment, convex_position_points, normalize_coordinates
from crossfam.search import SearchConfig
from crossfam.sat import (
    assignment_from_pointset,
    emit_dimacs,
    encode_no_k_family,
    parse_dimacs,
    verify_assignment,
)
from conftest import NINE_POINT_CF2, format_texts


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(format_pointset(convex_position_points(5)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCf:
    def test_pentagon(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "cf", pentagon_file)
        assert code == 0
        k, family = parse_witness(out)
        assert k == 2 and len(family) == 2

    def test_json(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "cf", pentagon_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "crossfam/1"
        assert payload["k"] == 2

    def test_not_general_position_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 0\n1 1\n2 2\n")
        code, _, err = run(capsys, "cf", str(bad))
        assert code == 1 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cf", "/nonexistent/file.txt")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_python_only_integer_syntax_is_a_parse_error(self, capsys, tmp_path, token):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"3\n0 0\n{token} 1\n2 5\n", encoding="utf-8")
        code, out, err = run(capsys, "cf", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: line 3: bad coordinate: invalid integer {token!r}\n"

    @pytest.fixture
    def interrupted_cf(self, monkeypatch):
        """``cf`` on n14_cf3, interrupted at its first branch, so that it holds
        only its greedy incumbent, a two-segment family."""
        real = CliqueSearch._expand

        def expand(self, clique, cand):
            if clique:
                raise KeyboardInterrupt
            real(self, clique, cand)

        monkeypatch.setattr(CliqueSearch, "_expand", expand)
        return str(Path(crossfam.__file__).parent / "data" / "n14_cf3.txt")

    def test_interrupt_prints_best_witness(self, capsys, interrupted_cf):
        code, out, err = run(capsys, "cf", interrupted_cf)
        assert code == 130
        assert err == "interrupted; best found so far: 2\n"
        assert out == format_witness(2, [Segment(0, 9), Segment(5, 8)])

    def test_interrupt_with_json_prints_json(self, capsys, interrupted_cf):
        code, out, err = run(capsys, "cf", interrupted_cf, "--json")
        assert code == 130
        assert err == "interrupted; best found so far: 2\n"
        assert json.loads(out) == {"schema": "crossfam/1", "command": "cf", "n": 14,
                                   "k": 2, "witness": [[0, 9], [5, 8]]}


class TestDecideCount:
    def test_decide_found(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "decide", pentagon_file, "--k", "2")
        assert code == 0
        k, family = parse_witness(out)
        assert k == 2 and len(family) == 2

    def test_decide_none(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "decide", pentagon_file, "--k", "3")
        assert code == 0 and out.strip() == "none"

    def test_count(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "count", pentagon_file, "--k", "2")
        assert code == 0 and out.strip() == "5"

    def test_count_json(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "count", pentagon_file, "--k", "2", "--json")
        assert json.loads(out)["count"] == 5


class TestDouble:
    def test_writes_pointset_and_certificate(self, capsys, pentagon_file, tmp_path):
        out_path = tmp_path / "doubled.txt"
        code, out, err = run(capsys, "double", pentagon_file, "--m", "2",
                             "-o", str(out_path))
        assert code == 0
        doubled = load_pointset(out_path)
        assert len(doubled) == 10
        cert = parse_certificate((tmp_path / "doubled.txt.cert").read_text())
        assert cert.certified and cert.m == 2 and cert.source_n == 5

    def test_explicit_uncertified_epsilon_warns(self, capsys, tmp_path):
        src = tmp_path / "two.txt"
        src.write_text("2\n0 0\n10 10\n")
        out_path = tmp_path / "out.txt"
        code, _, err = run(capsys, "double", str(src), "--m", "2",
                           "--epsilon", "9/8", "-o", str(out_path))
        assert code == 0
        assert "warning" in err
        cert = parse_certificate((tmp_path / "out.txt.cert").read_text())
        assert not cert.certified

    @pytest.mark.parametrize("epsilon", ["1/0", "0", "-1/2", "x"])
    def test_bad_epsilon_is_usage_error(self, capsys, pentagon_file, tmp_path, epsilon):
        with pytest.raises(SystemExit) as exc:
            main(["double", pentagon_file, "--m", "2", f"--epsilon={epsilon}",
                  "-o", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert "error: argument --epsilon: spacing must be a positive" in err
        assert not (tmp_path / "out.txt").exists()


class TestBoundKnown:
    def test_bound_41(self, capsys):
        code, out, _ = run(capsys, "bound", "41")
        assert code == 0 and "<= 8" in out

    def test_bound_100_reports_winner(self, capsys):
        code, out, _ = run(capsys, "bound", "100")
        assert code == 0 and "<= 20" in out and "20 points" in out

    def test_bound_json(self, capsys):
        code, out, _ = run(capsys, "bound", "24", "--json")
        payload = json.loads(out)
        assert payload["bound"] == 5

    @pytest.mark.parametrize("n, entry, source", [
        (1, None, None),
        (9, [2, 9], "bundled set n9_cf2"),
        (24, [5, 25], "no source recorded in this repository"),
        (41, [8, 41], "arXiv:2109.10705"),
    ])
    def test_bound_json_names_the_source(self, capsys, n, entry, source):
        code, out, _ = run(capsys, "bound", str(n), "--json")
        payload = json.loads(out)
        assert code == 0 and payload["entry"] == entry and payload["source"] == source

    def test_known_exact(self, capsys):
        code, out, _ = run(capsys, "known", "12")
        assert code == 0 and out.strip() == "cf(12) = 3"

    def test_known_seven(self, capsys):
        code, out, _ = run(capsys, "known", "7")
        assert code == 0 and out.strip() == "cf(7) = 2"

    def test_known_bounds_beyond_table(self, capsys):
        code, out, _ = run(capsys, "known", "21")
        assert code == 0 and out.strip() == "4 <= cf(21) <= 5"

    def test_known_verbose_provenance(self, capsys):
        code, out, _ = run(capsys, "known", "15", "--verbose")
        assert code == 0 and "provenance:" in out

    def test_known_json(self, capsys):
        code, out, _ = run(capsys, "known", "15", "--json")
        payload = json.loads(out)
        assert payload["exact"] and payload["lower"] == 4


class TestEncodeVerify:
    def test_missing_output_directory_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "missing" / "e.cnf"
        code, _, err = run(capsys, "encode", "--n", "4", "--k", "2", "-o", str(target))
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_encode_and_verify_model(self, capsys, tmp_path):
        cnf_path = tmp_path / "n9k3.cnf"
        code, out, _ = run(capsys, "encode", "--n", "9", "--k", "3",
                           "-o", str(cnf_path))
        assert code == 0 and cnf_path.exists()

        from crossfam.sat import VarMap, assignment_from_pointset
        from crossfam.geometry import PointSet

        vm = VarMap(9)
        asg = assignment_from_pointset(PointSet.from_coords(NINE_POINT_CF2), vm)
        model = tmp_path / "model.txt"
        model.write_text(
            "v " + " ".join(str(i if asg[i] else -i) for i in range(1, vm.num_vars + 1)) + " 0\n"
        )
        code, out, _ = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 0 and out.strip() == "satisfied"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_encode_to_stdout_is_pure_dimacs(self):
        # the package has no runtime dependencies, so its own directory suffices
        env = {**os.environ, "PYTHONPATH": str(Path(crossfam.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "crossfam", "encode", "--n", "6", "--k", "3", "-o", "/dev/stdout"],
            capture_output=True, text=True, env=env, check=True,
        )
        cnf, _ = encode_no_k_family(6, 3)
        assert [line for line in proc.stdout.splitlines() if line.startswith("p")] == ["p cnf 65 495"]
        assert parse_dimacs(proc.stdout).clauses == cnf.clauses
        assert proc.stderr == "p cnf 65 495 -> /dev/stdout\n"

    def test_verify_model_violation(self, capsys, tmp_path):
        cnf_path = tmp_path / "tiny.cnf"
        cnf, _ = encode_no_k_family(4, 2)
        emit_dimacs(cnf, cnf_path)
        model = tmp_path / "all_true.txt"
        model.write_text(" ".join(str(i) for i in range(1, cnf.num_vars + 1)))
        code, out, _ = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out.startswith("violated clause")

    @pytest.mark.parametrize("text,message", [
        ("p cnf 3 1\n1 x 0\n", "error: line 2: bad literal 'x'"),
        ("p cnf x 1\n1 0\n", "error: line 1: bad variable count 'x'"),
        ("p cnf 3 y\n1 0\n", "error: line 1: bad clause count 'y'"),
        ("p cnf 3 1\n1_0 0\n", "error: line 2: bad literal '1_0'"),
        ("p cnf \u0663 1\n1 0\n", "error: line 1: bad variable count '\u0663'"),
    ])
    def test_verify_model_non_integer_dimacs_token(self, capsys, tmp_path, text, message):
        cnf_path = tmp_path / "bad.cnf"
        cnf_path.write_text(text)
        model = tmp_path / "model.txt"
        model.write_text("1 2 3 0\n")
        code, out, err = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("status", ["UNSATISFIABLE", "UNKNOWN"])
    def test_verify_model_names_a_status_without_a_model(self, capsys, tmp_path, status):
        cnf_path = tmp_path / "tiny.cnf"
        emit_dimacs(encode_no_k_family(4, 2)[0], cnf_path)
        model = tmp_path / "out.txt"
        model.write_text(f"c solver banner\ns {status}\n")
        code, out, err = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out == ""
        assert err == f"error: line 2: solver reports {status}, not a model\n"

    def test_verify_model_huge_variable_count(self, capsys, tmp_path):
        cnf_path = tmp_path / "huge.cnf"
        cnf_path.write_text("p cnf 1000000000000000000000000000000 1\n1 0\n")
        model = tmp_path / "model.txt"
        model.write_text("v 1 0\n")
        code, out, err = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out == ""
        assert err == "error: model does not assign variable 2\n"

    @pytest.mark.parametrize("at", [12, 20_012, 70_000])
    def test_verify_model_names_an_invalid_byte_by_its_file_position(self, capsys, tmp_path, at):
        # the CNF is read a slice at a time; the position is still the file's
        comment = b"c " + b"." * 97 + b"\n"
        data = (b"p cnf 3 0\n" + comment * (at // len(comment)))[:at] + b"\xe2\x28\n"
        cnf_path = tmp_path / "bad.cnf"
        cnf_path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        model = tmp_path / "model.txt"
        model.write_text("1 2 3 0\n")
        code, out, err = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out == ""
        assert err == f"error: {whole.value}\n"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_verify_model_error_line_past_the_first_slice(self, capsys, tmp_path, eol):
        cnf, _ = encode_no_k_family(9, 3)
        sink = io.BytesIO()
        emit_dimacs(cnf, sink)
        lines = sink.getvalue().decode("ascii").splitlines()
        lines[3000] = lines[3000].replace(" ", " x ", 1)
        cnf_path = tmp_path / "bad.cnf"
        cnf_path.write_bytes(eol.join(lines).encode("ascii"))
        model = tmp_path / "model.txt"
        model.write_text("1 0\n")
        code, out, err = run(capsys, "verify-model", str(cnf_path), str(model))
        assert code == 1 and out == ""
        assert err == "error: line 3001: bad literal 'x'\n"

    def test_from_points_satisfied(self, capsys, tmp_path):
        pts = tmp_path / "nine.txt"
        from crossfam.geometry import PointSet

        pts.write_text(format_pointset(PointSet.from_coords(NINE_POINT_CF2)))
        code, out, _ = run(capsys, "from-points", str(pts), "--k", "3")
        assert code == 0 and out.strip() == "satisfied"

    def test_from_points_violated(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "from-points", pentagon_file, "--k", "2")
        assert code == 1 and out.startswith("violated clause")


class TestThrackleCommand:
    def test_pentagram(self, capsys, tmp_path):
        from crossfam.thrackle import star_polygon

        G = star_polygon(5)
        path = tmp_path / "pentagram.txt"
        path.write_text(format_graph(G.pointset, sorted(G.edges)))
        code, out, _ = run(capsys, "thrackle", str(path))
        assert code == 0
        assert "thrackle: yes" in out
        assert "even_cycle: no" in out
        assert "forest: no" in out


class TestSearchCommand:
    def test_runs_and_writes_checkpoints(self, capsys, tmp_path):
        cfg = SearchConfig(n=7, k=3, seed=1, iterations=5000)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_search_config(cfg))
        code, out, err = run(capsys, "search", str(cfg_path))
        assert code == 0
        best = load_pointset(tmp_path / "run.best.txt")
        assert len(best) == 7
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0].startswith("iteration,")

    def test_initial_file_respected(self, capsys, tmp_path):
        from crossfam.geometry import PointSet

        init = tmp_path / "init.txt"
        init.write_text(format_pointset(PointSet.from_coords(NINE_POINT_CF2[:6])))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "n = 6\nk = 3\nseed = 4\niterations = 50\n"
            f"initial = {init}\n"
        )
        code, out, _ = run(capsys, "search", str(cfg_path))
        assert code == 0 and "best objective 0" in out

    def test_missing_output_directory_ends_before_the_search(self, capsys, monkeypatch,
                                                             tmp_path):
        def no_search(*args, **kwargs):
            pytest.fail("the search ran although its files could not be written")

        monkeypatch.setattr("crossfam.search.anneal", no_search)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_search_config(SearchConfig(n=8, k=3, seed=0, iterations=3000)))
        missing = tmp_path / "missing" / "dir"
        assert run(capsys, "search", str(cfg_path), "-o", str(missing / "run")) == (
            1, "", f"error: output directory {str(missing)!r} does not exist\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_step_sigma_wider_than_the_grid_is_one_line_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 10\nk = 2\nseed = 0\niterations = 10\nstep_sigma = 1e200\n")
        assert run(capsys, "search", str(cfg_path)) == (
            1, "", "error: step sigma must not exceed the grid bound 100\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_step_sigma_above_the_draw_cap_is_one_line_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 10\nk = 2\nseed = 0\niterations = 10\n"
                            "step_sigma = 50000\ngrid_bound = 1000000\n")
        assert run(capsys, "search", str(cfg_path)) == (
            1, "", "error: step sigma must not exceed 10000\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_relative_initial_resolved_against_config(self, capsys, tmp_path, monkeypatch):
        from crossfam.geometry import PointSet

        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        (run_dir / "start.txt").write_text(
            format_pointset(PointSet.from_coords(NINE_POINT_CF2[:6])))
        cfg_path = run_dir / "run.cfg"
        cfg_path.write_text("n = 6\nk = 3\nseed = 4\niterations = 50\ninitial = start.txt\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "search", "runs/run.cfg")
        assert code == 0 and "best objective 0" in out

    def test_interrupt_writes_files_and_exits_130(self, capsys, tmp_path, monkeypatch):
        import crossfam.search

        # every 10-point set has a 2-crossing family, so the objective stays above 0
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 10\nk = 2\nseed = 0\niterations = 1000\n")
        real, calls = crossfam.search.refresh_point_rows, []

        def refresh(*args):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(crossfam.search, "refresh_point_rows", refresh)
        code, out, err = run(capsys, "search", str(cfg_path))
        best = tmp_path / "run.best.txt"
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        objective = int(trace[-1].split(",")[-1])
        assert code == 130 and objective > 0
        assert err.splitlines()[-1] == f"interrupted; best objective so far: {objective}"
        assert out == f"best objective {objective} ({len(trace) - 2} iterations) -> {best}\n"
        assert len(load_pointset(best)) == 10 and 1 < len(trace) - 1 < 1001


class TestPlot:
    def test_writes_svg(self, capsys, pentagon_file, tmp_path):
        out_path = tmp_path / "plot.svg"
        code, out, _ = run(capsys, "plot", pentagon_file, "-o", str(out_path))
        assert code == 0
        content = out_path.read_text()
        assert content.startswith("<svg") and content.count("<circle") == 5

    def test_with_witness(self, capsys, pentagon_file, tmp_path):
        witness = tmp_path / "w.txt"
        witness.write_text(format_witness(2, (Segment(0, 2), Segment(1, 3))))
        out_path = tmp_path / "plot.svg"
        code, _, err = run(capsys, "plot", pentagon_file, "-o", str(out_path),
                           "--witness", str(witness))
        assert code == 0 and err == ""
        assert out_path.read_text().count("<line") == 2

    def test_witness_index_out_of_range_is_one_line_error(self, pentagon_file, tmp_path):
        witness = tmp_path / "w.txt"
        witness.write_text("k = 1\n0 7\n")
        out_path = tmp_path / "plot.svg"
        env = {**os.environ, "PYTHONPATH": str(Path(crossfam.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "crossfam", "plot", pentagon_file, "-o", str(out_path),
             "--witness", str(witness)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: point index 7 out of range for 5 points\n"
        assert not out_path.exists()

    def test_witness_out_of_range_with_wrong_size_is_one_line_error(
        self, capsys, pentagon_file, tmp_path
    ):
        # the size disagrees with the one segment listed; the range is checked all the same
        witness = tmp_path / "w.txt"
        witness.write_text("k = 2\n0 7\n")
        out_path = tmp_path / "plot.svg"
        code, out, err = run(capsys, "plot", pentagon_file, "-o", str(out_path),
                             "--witness", str(witness))
        assert (code, out) == (1, "")
        assert err == "error: point index 7 out of range for 5 points\n"
        assert not out_path.exists()

    def test_coordinate_beyond_float_range(self, capsys, tmp_path):
        # laid out exactly: a float of 10**400 would overflow
        path = tmp_path / "far.txt"
        path.write_text(f"3\n0 0\n{10**400} 1\n1 -{10**400}\n")
        out_path = tmp_path / "far.svg"
        assert run(capsys, "plot", str(path), "-o", str(out_path)) == (
            0, f"wrote {out_path}\n", "")
        circles = [line for line in out_path.read_text().splitlines() if "<circle" in line]
        assert circles == [
            '<circle cx="30.00" cy="30.00" r="3.5" fill="#2c3e50"/>',
            '<circle cx="610.00" cy="30.00" r="3.5" fill="#2c3e50"/>',
            '<circle cx="30.00" cy="610.00" r="3.5" fill="#2c3e50"/>',
        ]


class TestInterruptedOutputs:
    """An interrupt while an output is written leaves that file as it was."""

    @pytest.fixture
    def interrupt_at(self, monkeypatch):
        def install(call):
            calls = []
            real = os.fsync

            def fsync(fd):
                calls.append(fd)
                if len(calls) == call:
                    raise KeyboardInterrupt
                real(fd)

            monkeypatch.setattr("crossfam.formats.os.fsync", fsync)
        return install

    def _check(self, tmp_path, argv, outputs, call, interrupt_at):
        for path in outputs:
            path.write_text("previous\n")
        interrupt_at(call)
        assert main(argv) == 130
        # outputs before the interrupted one are complete, the rest untouched
        assert [path.read_text() != "previous\n" for path in outputs] == [
            i < call - 1 for i in range(len(outputs))]
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("call", [1, 2])
    def test_double(self, tmp_path, pentagon_file, interrupt_at, call):
        out = tmp_path / "doubled.txt"
        self._check(tmp_path, ["double", pentagon_file, "--m", "2", "-o", str(out)],
                    [out, tmp_path / "doubled.txt.cert"], call, interrupt_at)

    @pytest.mark.parametrize("call", [1, 2])
    def test_search(self, tmp_path, interrupt_at, call):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_search_config(SearchConfig(n=6, k=3, seed=1, iterations=20)))
        self._check(tmp_path, ["search", str(cfg_path)],
                    [tmp_path / "run.best.txt", tmp_path / "run.trace.csv"], call, interrupt_at)

    def test_plot(self, tmp_path, pentagon_file, interrupt_at):
        out = tmp_path / "plot.svg"
        self._check(tmp_path, ["plot", pentagon_file, "-o", str(out)], [out], 1, interrupt_at)


class TestInterruptedCommands:
    """Ctrl-C in a subcommand ends in one stderr line and exit code 130."""

    @pytest.mark.parametrize("target,argv", [
        # the initial count of a large search, e.g. n = 40 and k = 6
        ("crossfam.search.count_k_families", ["search", "{config}"]),
        ("crossfam.crossing.count_k_families", ["count", "{pentagon}", "--k", "2"]),
        ("crossfam.crossing.has_k_family", ["decide", "{pentagon}", "--k", "2"]),
        ("crossfam.sat.encode_no_k_family", ["encode", "--n", "6", "--k", "3", "-o", "{cnf}"]),
    ])
    def test_one_line_and_exit_130(self, capsys, monkeypatch, tmp_path, pentagon_file,
                                   target, argv):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(target, interrupt)
        config = tmp_path / "run.cfg"
        config.write_text(format_search_config(SearchConfig(n=6, k=3, seed=1, iterations=20)))
        argv = [a.format(config=config, pentagon=pentagon_file, cnf=tmp_path / "e.cnf")
                for a in argv]
        assert run(capsys, *argv) == (130, "", "interrupted\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pentagon.txt", "run.cfg"]


class TestClosedStdout:
    """A query whose reader has gone ends in one stderr line and exit code 1."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["known", "12"], ["known", "12", "--json"]])
    def test_broken_pipe_is_one_line_error(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(crossfam.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "crossfam", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


class TestSubcommandImports:
    """Each subcommand loads only the package modules it uses."""

    @pytest.mark.parametrize("argv,unloaded", [
        (["known", "12"], {"crossing", "sat", "search", "replication", "thrackle"}),
        (["bound", "100"], {"crossing", "sat", "search", "replication", "thrackle"}),
        (["cf", "{n9}"], {"sat", "search", "replication", "thrackle", "known"}),
        (["cf", "{n9}", "--json"], {"sat", "search", "replication", "thrackle", "known"}),
        (["encode", "--n", "6", "--k", "3", "-o", "{cnf}"], {"crossing", "search", "replication"}),
    ])
    def test_unused_modules_stay_unloaded(self, tmp_path, argv, unloaded):
        package = Path(crossfam.__file__).resolve().parent
        argv = [a.format(n9=package / "data" / "n9_cf2.txt", cnf=tmp_path / "e.cnf")
                for a in argv]
        code = ("import json, sys\n"
                "from crossfam.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "loaded = [m for m in sys.modules if m.startswith('crossfam.')]\n"
                "print(json.dumps(loaded), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(package.parent)}, check=True)
        loaded = {m.removeprefix("crossfam.") for m in json.loads(proc.stderr.splitlines()[-1])}
        assert "cli" in loaded and not loaded & unloaded


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["decide", "somefile"])  # missing required --k
    assert exc.value.code == 2


def test_byte_stable_output(capsys, pentagon_file):
    first = run(capsys, "cf", pentagon_file)
    second = run(capsys, "cf", pentagon_file)
    assert first == second


def _fuzz_sat_texts() -> tuple[str, str]:
    """The DIMACS text of encode(6, 3) and a model of it, ten literals a line."""
    cnf, vm = encode_no_k_family(6, 3)
    S = normalize_coordinates(PointSet.from_coords(NINE_POINT_CF2[:6]))
    asg = assignment_from_pointset(S, vm)
    assert verify_assignment(cnf, asg) is None
    out = io.BytesIO()
    emit_dimacs(cnf, out)
    lits = [str(v if asg[v] else -v) for v in range(1, vm.num_vars + 1)] + ["0"]
    model = "".join("v " + " ".join(lits[i:i + 10]) + "\n" for i in range(0, len(lits), 10))
    return out.getvalue().decode("ascii"), model


# Well-formed inputs of the file-reading subcommands, which format_texts mutates.
_FUZZ_POINTSET = "5\n0 0\n4 1\n5 4\n2 6\n-1 3\n"
_FUZZ_WITNESS = "k = 2\n0 2\n1 3\n"
_FUZZ_GRAPH = "4\n0 0\n2 0\n1/2 1\n-1 3/4\nedges\n0 1\n2 3\n"
_FUZZ_CNF, _FUZZ_MODEL = _fuzz_sat_texts()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# search is left out: its parser is fuzzed in test_formats, and a drawn n or
# iteration count could run without end
@pytest.mark.parametrize("argv, templates", [
    (["cf", "{pointset}"], {"pointset": _FUZZ_POINTSET}),
    (["decide", "{pointset}", "--k", "3"], {"pointset": _FUZZ_POINTSET}),
    (["count", "{pointset}", "--k", "3"], {"pointset": _FUZZ_POINTSET}),
    (["thrackle", "{graph}"], {"graph": _FUZZ_GRAPH}),
    (["verify-model", "{cnf}", "{model}"], {"cnf": _FUZZ_CNF, "model": _FUZZ_MODEL}),
    (["from-points", "{pointset}", "--k", "3"], {"pointset": _FUZZ_POINTSET}),
    (["double", "{pointset}", "--m", "2", "-o", "{out}"], {"pointset": _FUZZ_POINTSET}),
    (["plot", "{pointset}", "--witness", "{witness}", "-o", "{out}"],
     {"pointset": _FUZZ_POINTSET, "witness": _FUZZ_WITNESS}),
], ids=["cf", "decide", "count", "thrackle", "verify-model", "from-points", "double", "plot"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subcommand_on_malformed_files_exits_0_1_or_2(fuzz_dir, argv, templates, data):
    # one file changed per run, so that each parser is reached with the others' files valid
    changed = data.draw(st.sampled_from(sorted(templates)), label="changed")
    paths = {"out": fuzz_dir / "out.txt"}
    for name, template in templates.items():
        text = data.draw(format_texts(template), label=name) if name == changed else template
        paths[name] = fuzz_dir / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            status = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert status in (0, 1)


def _with_coordinate(text: str, index: int, value: str) -> str:
    """``text`` with its ``index``-th coordinate, counted row by row, set to ``value``."""
    lines = text.splitlines()
    row, column = divmod(index, 2)
    coords = lines[1 + row].split()
    coords[column] = value
    lines[1 + row] = " ".join(coords)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, name", [
    (["cf", "{pointset}"], "pointset"),
    (["decide", "{pointset}", "--k", "3"], "pointset"),
    (["count", "{pointset}", "--k", "3"], "pointset"),
    (["double", "{pointset}", "--m", "2", "-o", "{out}"], "pointset"),
    (["from-points", "{pointset}", "--k", "3"], "pointset"),
    (["thrackle", "{graph}"], "graph"),
    (["plot", "{pointset}", "--witness", "{witness}", "-o", "{out}"], "pointset"),
], ids=["cf", "decide", "count", "double", "from-points", "thrackle", "plot"])
@pytest.mark.parametrize("form", ["{}", "-{}", "1/{}"])
def test_subcommand_on_extreme_coordinates_exits_0_1_or_2(tmp_path, argv, name, form):
    # 10**308 is about the largest power of ten a float holds
    templates = {"pointset": _FUZZ_POINTSET, "graph": _FUZZ_GRAPH, "witness": _FUZZ_WITNESS}
    for k in (0, 1, 16, 308, 309, 400):
        index = k % 8  # the eight coordinates of the first four points
        paths = {"out": tmp_path / "out.txt"}
        for key, template in templates.items():
            text = _with_coordinate(template, index, form.format(10**k)) if key == name else template
            paths[key] = tmp_path / f"{key}.txt"
            paths[key].write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                status = main([arg.format(**paths) for arg in argv])
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 1, 2), (k, index)
