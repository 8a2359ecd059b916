"""Golden outputs of every CLI subcommand, pinned byte for byte.

Each case runs ``crossfam.cli.main`` on small inputs in a fresh temporary
directory and compares its exit code, stdout, stderr and the SHA-256 of every
file it writes with the table below. In the table ``{tmp}`` stands for that
directory and ``{data}`` for the bundled data directory.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import crossfam
from crossfam.cli import main
from crossfam.crossing import CliqueSearch
from crossfam.formats import format_pointset, format_search_config, format_witness, load_pointset
from crossfam.geometry import Segment, convex_position_points, normalize_coordinates
from crossfam.sat import assignment_from_pointset, emit_dimacs, encode_no_k_family
from crossfam.search import SearchConfig

DATA = Path(crossfam.__file__).resolve().parent / "data"


def write_inputs(tmp: Path) -> None:
    """The input files the golden command lines name."""
    (tmp / "pentagon.txt").write_text(format_pointset(convex_position_points(5)))
    (tmp / "collinear.txt").write_text("3\n0 0\n1 1\n2 2\n")
    (tmp / "coincident.txt").write_text("2\n3 4\n3 4\n")
    (tmp / "star.txt").write_text("5\n0 0\n1 1\n2 4\n3 9\n4 16\nedges\n0 2\n2 4\n1 4\n1 3\n0 3\n")
    config = SearchConfig(n=7, k=3, seed=1, iterations=40)
    (tmp / "run.cfg").write_text(format_search_config(config))
    (tmp / "witness.txt").write_text(format_witness(2, (Segment(0, 2), Segment(1, 3))))
    (tmp / "sides.txt").write_text(format_witness(2, (Segment(0, 1), Segment(2, 3))))
    cnf, vm = encode_no_k_family(4, 2)
    emit_dimacs(cnf, tmp / "n4k2.cnf")
    asg = assignment_from_pointset(normalize_coordinates(load_pointset(DATA / "n4_cf1.txt")), vm)
    literals = (i if asg[i] else -i for i in range(1, vm.num_vars + 1))
    (tmp / "good.model").write_text("v " + " ".join(map(str, literals)) + " 0\n")
    (tmp / "bad.model").write_text(" ".join(map(str, range(1, vm.num_vars + 1))) + "\n")


def run_case(command: str, tmp: Path) -> tuple:
    """(exit code, stdout, stderr, {written file: SHA-256}) of one command line."""
    write_inputs(tmp)
    before = set(tmp.iterdir())
    argv = [a.replace("{tmp}", str(tmp)).replace("{data}", str(DATA)) for a in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code

    def placeholders(text):
        return text.replace(str(tmp), "{tmp}").replace(str(DATA), "{data}")

    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(set(tmp.iterdir()) - before)}
    return code, placeholders(out.getvalue()), placeholders(err.getvalue()), written


def interrupt_cf_search(monkeypatch) -> None:
    """Interrupt ``cf`` at the search's first branch, when it holds only its
    greedy incumbent."""
    real = CliqueSearch._expand

    def expand(self, clique, cand):
        if clique:
            raise KeyboardInterrupt
        real(self, clique, cand)

    monkeypatch.setattr(CliqueSearch, "_expand", expand)


GOLDEN = {
    'cf {tmp}/pentagon.txt': (
        0,
        'k = 2\n'
        '0 2\n'
        '1 3\n',
        '',
        {},
    ),
    'cf {tmp}/pentagon.txt --json': (
        0,
        '{"command": "cf", "k": 2, "n": 5, "schema": "crossfam/1", "witness": '
        '[[0, 2], [1, 3]]}\n',
        '',
        {},
    ),
    'cf {data}/n9_cf2.txt': (
        0,
        'k = 2\n'
        '0 8\n'
        '3 4\n',
        '',
        {},
    ),
    'cf {data}/n9_cf2.txt --json': (
        0,
        '{"command": "cf", "k": 2, "n": 9, "schema": "crossfam/1", "witness": '
        '[[0, 8], [3, 4]]}\n',
        '',
        {},
    ),
    'cf {tmp}/missing.txt': (
        1,
        '',
        "error: [Errno 2] No such file or directory: '{tmp}/missing.txt'\n",
        {},
    ),
    'cf {tmp}/missing.txt --json': (
        1,
        '',
        "error: [Errno 2] No such file or directory: '{tmp}/missing.txt'\n",
        {},
    ),
    'cf {tmp}/collinear.txt': (
        1,
        '',
        'error: points (0, 1, 2) are collinear\n',
        {},
    ),
    'cf {tmp}/coincident.txt': (
        1,
        '',
        'error: points 0 and 1 coincide\n',
        {},
    ),
    'decide {tmp}/pentagon.txt --k 2': (
        0,
        'k = 2\n'
        '0 2\n'
        '1 3\n',
        '',
        {},
    ),
    'decide {tmp}/pentagon.txt --k 2 --json': (
        0,
        '{"command": "decide", "found": true, "k": 2, "n": 5, "schema": '
        '"crossfam/1", "witness": [[0, 2], [1, 3]]}\n',
        '',
        {},
    ),
    'decide {tmp}/pentagon.txt --k 3': (
        0,
        'none\n',
        '',
        {},
    ),
    'decide {tmp}/pentagon.txt --k 3 --json': (
        0,
        '{"command": "decide", "found": false, "k": 3, "n": 5, "schema": '
        '"crossfam/1", "witness": null}\n',
        '',
        {},
    ),
    'decide {tmp}/pentagon.txt': (
        2,
        '',
        'usage: crossfam decide [-h] --k K [--json] pointset\n'
        'crossfam decide: error: the following arguments are required: --k\n',
        {},
    ),
    'count {tmp}/pentagon.txt --k 2': (
        0,
        '5\n',
        '',
        {},
    ),
    'count {tmp}/pentagon.txt --k 2 --json': (
        0,
        '{"command": "count", "count": 5, "k": 2, "n": 5, "schema": '
        '"crossfam/1"}\n',
        '',
        {},
    ),
    'double {tmp}/pentagon.txt --m 2 -o {tmp}/doubled.txt': (
        0,
        'wrote 10 points to {tmp}/doubled.txt (certificate: '
        '{tmp}/doubled.txt.cert)\n',
        '',
        {
            'doubled.txt':
                '26b5336be8ea5aa4112942f10f46ceff998bbb94237739c1f013be9882b0ea9e',
            'doubled.txt.cert':
                'af4d69171d989afea58fbebec9f3e855be0c31953ee8746ae97512bfd3de9365',
        },
    ),
    'double {data}/n4_cf1.txt --m 2 --epsilon 1/2 -o {tmp}/doubled.txt': (
        0,
        'wrote 8 points to {tmp}/doubled.txt (certificate: '
        '{tmp}/doubled.txt.cert)\n',
        'warning: spacing failed certification; see certificate\n',
        {
            'doubled.txt':
                '34afc17c47313e06ef74a2e84071a6e0349cb66b6379924b2b31ef768e7bb189',
            'doubled.txt.cert':
                '2c8fa252b504d57853e720191671a582fd119cec7292ebdd3f1461a5a8630c73',
        },
    ),
    'bound 1': (
        0,
        'cf(1) <= 0  [floor(n/2) endpoint cap]\n',
        '',
        {},
    ),
    'bound 41': (
        0,
        'cf(41) <= 8  [library entry: 41 points with no 9-crossing family]\n',
        '',
        {},
    ),
    'bound 100': (
        0,
        'cf(100) <= 20  [library entry: 20 points with no 5-crossing family]\n',
        '',
        {},
    ),
    'bound 1 --json': (
        0,
        '{"bound": 0, "command": "bound", "entry": null, "n": 1, "schema": '
        '"crossfam/1", "source": null}\n',
        '',
        {},
    ),
    'bound 24 --json': (
        0,
        '{"bound": 5, "command": "bound", "entry": [5, 25], "n": 24, "schema": '
        '"crossfam/1", "source": "no source recorded in this repository"}\n',
        '',
        {},
    ),
    'bound 100 --json': (
        0,
        '{"bound": 20, "command": "bound", "entry": [4, 20], "n": 100, "schema": '
        '"crossfam/1", "source": "bundled set n20_cf4"}\n',
        '',
        {},
    ),
    'known 1': (
        1,
        '',
        'error: cf(n) is defined for n >= 2\n',
        {},
    ),
    'known 1 --json': (
        1,
        '',
        'error: cf(n) is defined for n >= 2\n',
        {},
    ),
    'known 12': (
        0,
        'cf(12) = 3\n',
        '',
        {},
    ),
    'known 21': (
        0,
        '4 <= cf(21) <= 5\n',
        '',
        {},
    ),
    'known 15 --verbose': (
        0,
        'cf(15) = 4\n'
        'provenance: computer-assisted exhaustive extension forces a 4-crossing '
        'family on 15 points (arXiv:2109.10705); upper bound 4 from 4 copies of '
        'a 4-point set with no 2-crossing family (bundled set n4_cf1)\n',
        '',
        {},
    ),
    'known 15 --json': (
        0,
        '{"command": "known", "exact": true, "lower": 4, "n": 15, "provenance": '
        '"computer-assisted exhaustive extension forces a 4-crossing family on '
        '15 points (arXiv:2109.10705); upper bound 4 from 4 copies of a 4-point '
        'set with no 2-crossing family (bundled set n4_cf1)", "schema": '
        '"crossfam/1", "upper": 4}\n',
        '',
        {},
    ),
    'known 21 --json': (
        0,
        '{"command": "known", "exact": false, "lower": 4, "n": 21, "provenance": '
        '"computer-assisted exhaustive extension forces a 4-crossing family on '
        '15 points (arXiv:2109.10705); upper bound 5 from a 25-point set with no '
        '6-crossing family (no source recorded in this repository)", "schema": '
        '"crossfam/1", "upper": 5}\n',
        '',
        {},
    ),
    'known --help': (
        0,
        'usage: crossfam known [-h] [--verbose] [--json] n\n'
        '\n'
        'positional arguments:\n'
        '  n\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --verbose\n'
        '  --json\n',
        '',
        {},
    ),
    'encode --n 6 --k 3 -o {tmp}/e.cnf': (
        0,
        '',
        'p cnf 65 495 -> {tmp}/e.cnf\n',
        {
            'e.cnf':
                '886c24fd8661bd9c65449f97fad90ff1757bf6acc95a1e672f94e0ce8e3a2b2b',
        },
    ),
    'encode --n 4 --k 2 -o {tmp}/missing/e.cnf': (
        1,
        '',
        "error: [Errno 2] No such file or directory: '{tmp}/missing/e.cnf'\n",
        {},
    ),
    'verify-model {tmp}/n4k2.cnf {tmp}/good.model': (
        0,
        'satisfied\n',
        '',
        {},
    ),
    'verify-model {tmp}/n4k2.cnf {tmp}/good.model --json': (
        0,
        '{"command": "verify-model", "satisfied": true, "schema": "crossfam/1", '
        '"violated_clause": null}\n',
        '',
        {},
    ),
    'verify-model {tmp}/n4k2.cnf {tmp}/bad.model': (
        1,
        'violated clause 9\n',
        '',
        {},
    ),
    'verify-model {tmp}/n4k2.cnf {tmp}/bad.model --json': (
        1,
        '{"command": "verify-model", "satisfied": false, "schema": "crossfam/1", '
        '"violated_clause": 9}\n',
        '',
        {},
    ),
    'verify-model {tmp}/n4k2.cnf {tmp}/missing.model': (
        1,
        '',
        "error: [Errno 2] No such file or directory: '{tmp}/missing.model'\n",
        {},
    ),
    'from-points {data}/n9_cf2.txt --k 3': (
        0,
        'satisfied\n',
        '',
        {},
    ),
    'from-points {data}/n9_cf2.txt --k 3 --json': (
        0,
        '{"command": "from-points", "k": 3, "n": 9, "satisfied": true, "schema": '
        '"crossfam/1", "violated_clause": null}\n',
        '',
        {},
    ),
    'from-points {tmp}/pentagon.txt --k 2': (
        1,
        'violated clause 161\n',
        '',
        {},
    ),
    'from-points {tmp}/pentagon.txt --k 2 --json': (
        1,
        '{"command": "from-points", "k": 2, "n": 5, "satisfied": false, '
        '"schema": "crossfam/1", "violated_clause": 161}\n',
        '',
        {},
    ),
    'thrackle {tmp}/star.txt': (
        0,
        'thrackle: yes\n'
        'even_cycle: no\n'
        'forest: no\n',
        '',
        {},
    ),
    'thrackle {tmp}/star.txt --json': (
        0,
        '{"command": "thrackle", "even_cycle": false, "forest": false, "schema": '
        '"crossfam/1", "thrackle": true}\n',
        '',
        {},
    ),
    'thrackle {tmp}/pentagon.txt': (
        1,
        '',
        "error: expected an 'edges' line after the point block\n",
        {},
    ),
    'search {tmp}/run.cfg': (
        0,
        'best objective 2 (40 iterations) -> {tmp}/run.best.txt\n',
        'iteration 2: best objective 2\n',
        {
            'run.best.txt':
                '6732dcebafc67a1c621642be94f37ddc4b45145aaccfde34826eb82138fdb093',
            'run.trace.csv':
                '1790f2ddf9b098741397bbf13851759ef507e9ac005f068db090dfc61ade9052',
        },
    ),
    'search {tmp}/run.cfg -o {tmp}/out': (
        0,
        'best objective 2 (40 iterations) -> {tmp}/out.best.txt\n',
        'iteration 2: best objective 2\n',
        {
            'out.best.txt':
                '6732dcebafc67a1c621642be94f37ddc4b45145aaccfde34826eb82138fdb093',
            'out.trace.csv':
                '1790f2ddf9b098741397bbf13851759ef507e9ac005f068db090dfc61ade9052',
        },
    ),
    'plot {tmp}/pentagon.txt': (
        0,
        'wrote {tmp}/pentagon.svg\n',
        '',
        {
            'pentagon.svg':
                '9c7b765ee2b9a907a7a639b5bbea14b1aef76caa31d85e31a320378bf01acbd2',
        },
    ),
    'plot {tmp}/pentagon.txt -o {tmp}/plot.svg --witness {tmp}/witness.txt': (
        0,
        'wrote {tmp}/plot.svg\n',
        '',
        {
            'plot.svg':
                'ce50645a48961c5757e03dd9c0ac37ee9e3982e526530bb18ae6d74be8c62416',
        },
    ),
    'plot {tmp}/pentagon.txt -o {tmp}/plot.svg --witness {tmp}/sides.txt': (
        0,
        'wrote {tmp}/plot.svg\n',
        'warning: witness file is not a valid crossing family here\n',
        {
            'plot.svg':
                'cb3b1a966bc871d7595b8cf252851d2f36c32767ab7d60f1adaf398a83c92d81',
        },
    ),
    'plot {tmp}/collinear.txt -o {tmp}/plot.svg': (
        0,
        'wrote {tmp}/plot.svg\n',
        'warning: {tmp}/collinear.txt is not in general position\n',
        {
            'plot.svg':
                '03171b7347789f3d5ffa3b0cdc22f1ebc16d557c32834a99df7f1f9f636718f2',
        },
    ),
}

INTERRUPTED = {
    'cf {data}/n14_cf3.txt': (
        130,
        'k = 2\n'
        '0 9\n'
        '5 8\n',
        'interrupted; best found so far: 2\n',
        {},
    ),
    'cf {data}/n14_cf3.txt --json': (
        130,
        '{"command": "cf", "k": 2, "n": 14, "schema": "crossfam/1", "witness": '
        '[[0, 9], [5, 8]]}\n',
        'interrupted; best found so far: 2\n',
        {},
    ),
}


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden(tmp_path, command):
    assert run_case(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(INTERRUPTED))
def test_golden_interrupted_cf(tmp_path, monkeypatch, command):
    interrupt_cf_search(monkeypatch)
    assert run_case(command, tmp_path) == INTERRUPTED[command]
