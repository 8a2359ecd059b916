from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.errors import ParseError
from crossfam.formats import (
    _parse_int,
    format_certificate,
    format_graph,
    format_pointset,
    format_search_config,
    format_trace_csv,
    format_witness,
    load_pointset,
    parse_certificate,
    parse_coord,
    parse_graph,
    parse_pointset,
    parse_search_config,
    parse_witness,
    save_pointset,
    save_text,
    write_atomic,
)
from crossfam.geometry import PointSet, Segment
from crossfam.replication import ReplicationCertificate
from crossfam import search
from crossfam.search import SearchConfig
from conftest import format_texts, random_pointset


class TestWriteAtomic:
    def test_interrupt_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")

        def chunks():
            yield b"first chunk\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_replaces_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n" * 100)
        write_atomic(path, [b"a", b"b\n"])
        assert path.read_bytes() == b"ab\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        save_text(link, "caf\u00e9\n")
        assert link.is_symlink()
        assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")

    def test_device_written_directly(self):
        write_atomic("/dev/null", [b"discarded\n"])

    def test_missing_directory_fails_without_a_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            save_text(tmp_path / "missing" / "out.txt", "x")
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_error_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as exc:
            write_atomic(target, [b"x"])
        assert exc.value.filename == str(target)
        assert str(target) in str(exc.value) and ".tmp" not in str(exc.value)


class TestPointsetFormat:
    def test_round_trip_integers(self):
        S = PointSet.from_coords([(0, 0), (-3, 7), (12, -5)])
        assert parse_pointset(format_pointset(S)) == S

    def test_round_trip_rationals(self, rng):
        S = random_pointset(rng, 8)
        shifted = PointSet.from_coords(
            (p.x + Fraction(1, 3), p.y - Fraction(7, 11)) for p in S
        )
        assert parse_pointset(format_pointset(shifted)) == shifted

    def test_file_round_trip(self, tmp_path, rng):
        S = random_pointset(rng, 6)
        path = tmp_path / "pts.txt"
        save_pointset(S, path, comment="fixture")
        assert load_pointset(path) == S
        assert path.read_text().startswith("# fixture\n")

    def test_comments_ignored(self):
        text = "# heading\n2\n# interior comment\n0 0\n1 1/2\n"
        S = parse_pointset(text)
        assert S[1].y == Fraction(1, 2)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_pointset("2\n0 0\n1 2 3\n")
        assert err.value.line == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_pointset("1\n0 0\n5 5\n")

    def test_missing_points_rejected(self):
        with pytest.raises(ParseError):
            parse_pointset("3\n0 0\n1 1\n")

    def test_float_coordinate_rejected(self):
        with pytest.raises(ParseError):
            parse_pointset("1\n0.5 1\n")

    def test_reduced_rational_output(self):
        S = PointSet.from_coords([(Fraction(2, 4), Fraction(-6, 3))])
        assert format_pointset(S) == "1\n1/2 -2\n"


class TestWitnessFormat:
    def test_round_trip(self):
        fam = (Segment(0, 4), Segment(1, 5), Segment(2, 6))
        k, segs = parse_witness(format_witness(3, fam))
        assert k == 3 and segs == fam

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_witness("3\n0 4\n")


class TestGraphFormat:
    def test_round_trip(self, rng):
        S = random_pointset(rng, 5)
        edges = (Segment(0, 2), Segment(1, 3), Segment(2, 4))
        S2, edges2 = parse_graph(format_graph(S, edges))
        assert S2 == S and edges2 == edges

    def test_edges_line_required(self):
        with pytest.raises(ParseError):
            parse_graph("2\n0 0\n1 1\n0 1\n")

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError):
            parse_graph("2\n0 0\n1 1\nedges\n0 5\n")


class TestCertificateFormat:
    def test_round_trip(self):
        cert = ReplicationCertificate(
            epsilon=Fraction(3, 16), m=2, source_n=5,
            cluster_isolation_ok=True, copy_order_ok=False,
        )
        assert parse_certificate(format_certificate(cert)) == cert

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_certificate("epsilon: 1/2\nm: 2\n")

    @pytest.mark.parametrize("key, value", [
        ("epsilon", "1/0"),
        ("epsilon", "x"),
        ("epsilon", "-1"),
        ("epsilon", "0"),
        ("m", "two"),
        ("m", "0"),
        ("source_n", "5/2"),
        ("cluster_isolation", "maybe"),
        ("copy_order", "True"),
    ])
    def test_bad_field_names_it(self, key, value):
        fields = {"epsilon": "3/16", "m": "2", "source_n": "5",
                  "cluster_isolation": "true", "copy_order": "false"}
        fields[key] = value
        text = "".join(f"{k}: {v}\n" for k, v in fields.items())
        with pytest.raises(ParseError, match=f"bad certificate field '{key}'"):
            parse_certificate(text)

    _VALID = "epsilon: 1/4\nm: 2\nsource_n: 5\ncluster_isolation: true\ncopy_order: true\n"

    def test_duplicate_field_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_certificate(self._VALID + "epsilon: 1/8\n")
        assert str(err.value) == "line 6: duplicate certificate field 'epsilon'"

    def test_unknown_field_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_certificate("# note\n" + self._VALID + "bogus: 1\n")
        assert str(err.value) == "line 7: unknown certificate field 'bogus'"

    @pytest.mark.parametrize("count", ["-3", "-1"])
    def test_negative_source_count(self, count):
        with pytest.raises(ParseError) as err:
            parse_certificate(self._VALID.replace("source_n: 5", f"source_n: {count}"))
        assert str(err.value) == f"bad certificate field 'source_n': '{count}'"

    def test_zero_source_count_round_trips(self):
        cert = parse_certificate(self._VALID.replace("source_n: 5", "source_n: 0"))
        assert cert.source_n == 0
        assert parse_certificate(format_certificate(cert)) == cert


class TestSearchConfigFormat:
    @pytest.mark.parametrize("cfg", [
        SearchConfig(n=9, k=3, seed=17, iterations=5000, initial_temperature=1.5,
                     cooling_rate=0.995, step_sigma=2.5, grid_bound=200),
        # str(float) writes 1e-05 in exponent notation
        SearchConfig(n=9, k=3, seed=0, iterations=10, initial_temperature=1e-05,
                     cooling_rate=0.99996),
    ], ids=["decimals", "exponent"])
    def test_round_trip(self, cfg):
        parsed, initial = parse_search_config(format_search_config(cfg))
        assert parsed == cfg and initial is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_accepted_config_round_trips(self, data):
        # every field over its valid range; an int is drawn for each float field too
        n = data.draw(st.integers(2, 60))
        grid_bound = data.draw(st.one_of(st.just(0), st.integers(n * n, 10 ** 12)))
        sigma_cap = min(grid_bound or n * n, 10_000)
        cfg = SearchConfig(
            n=n,
            k=data.draw(st.integers(1, n // 2)),
            seed=data.draw(st.integers()),
            iterations=data.draw(st.integers(1, 10 ** 30)),
            initial_temperature=data.draw(st.one_of(
                st.floats(0, exclude_min=True, allow_infinity=False), st.integers(1, 2 ** 53))),
            cooling_rate=data.draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
            step_sigma=data.draw(st.one_of(st.floats(0, sigma_cap, exclude_min=True),
                                           st.integers(1, sigma_cap))),
            grid_bound=grid_bound,
        )
        parsed, initial = parse_search_config(format_search_config(cfg))
        assert parsed == cfg and initial is None

    def test_initial_key_round_trips(self):
        cfg = SearchConfig(n=7, k=3, seed=1, iterations=10)
        assert parse_search_config(format_search_config(cfg, "start.txt")) == (cfg, "start.txt")

    def test_initial_key(self):
        text = "n = 7\nk = 3\nseed = 1\niterations = 10\ninitial = start.txt\n"
        cfg, initial = parse_search_config(text)
        assert cfg.n == 7 and initial == "start.txt"

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_search_config("n = 7\nk = 3\nseed = 1\niterations = 10\nwat = 1\n")

    def test_incomplete_config_rejected(self):
        with pytest.raises(ParseError):
            parse_search_config("n = 7\nk = 3\n")

    def test_missing_key_is_named(self):
        with pytest.raises(ParseError) as excinfo:
            parse_search_config("n = 7\nk = 3\nseed = 1\n")
        assert str(excinfo.value) == "missing config key 'iterations'"

    @pytest.mark.parametrize("key, token", [
        ("n", "1_0"), ("k", "\u0663"), ("iterations", "1.0"), ("step_sigma", "1_0.5"),
        ("step_sigma", "\u0663.5"), ("initial_temperature", "nan"), ("initial_temperature", "inf"),
        ("cooling_rate", "-inf"), ("cooling_rate", "0x1p-1"), ("step_sigma", "."),
    ])
    def test_python_only_number_syntax_rejected(self, key, token):
        lines = [line for line in _CONFIG.splitlines() if not line.startswith(f"{key} ")]
        with pytest.raises(ParseError) as excinfo:
            parse_search_config("\n".join(lines + [f"{key} = {token}"]))
        assert str(excinfo.value) == f"bad value for {key!r}: {token!r}"


def test_trace_csv_header_and_rows():
    text = format_trace_csv([(0, 1.0, 5, 5), (1, 0.9, 4, 4)])
    lines = text.splitlines()
    assert lines[0] == "iteration,temperature,current_objective,best_objective"
    assert lines[1] == "0,1.0,5,5"


def test_parse_coord_forms():
    assert parse_coord("-12") == -12
    assert parse_coord("3/9") == Fraction(1, 3)
    assert parse_coord("-3/9") == Fraction(-1, 3)
    with pytest.raises(ValueError):
        parse_coord("a/b")


@pytest.mark.parametrize("token, value", [("0", 0), ("-12", -12), ("+3", 3), ("007", 7), ("-0", 0)])
def test_parse_int_reads_signed_ascii_digits(token, value):
    assert _parse_int(token) == value


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "\u00b2", " 1", "1\n", "", "+", "-",
                                   "--1", "+-1", "1.0", "0x10", "1e3"])
def test_parse_int_rejects_other_integer_syntax(token):
    with pytest.raises(ValueError, match="invalid integer"):
        _parse_int(token)


# A well-formed text of each format, which format_texts mutates line by line.
_POINTSET = "3\n0 0\n1 0\n0 1\n"
_WITNESS = "k = 2\n0 1\n2 3\n"
_GRAPH = "4\n0 0\n2 0\n1/2 1\n-1 3/4\nedges\n0 1\n2 3\n"
_CERTIFICATE = "epsilon: 1/8\nm: 2\nsource_n: 5\ncluster_isolation: true\ncopy_order: false\n"
_CONFIG = "n = 8\nk = 3\nseed = 0\niterations = 10\nstep_sigma = 2.5\ngrid_bound = 64\n"


# Each integer field of each format, with {} where the token goes.
@pytest.mark.parametrize("parse, text, message", [
    (parse_pointset, "{}\n0 0\n1 0\n0 1\n", "line 1: invalid point count"),
    (parse_pointset, "3\n0 {}\n1 0\n0 1\n", "line 2: bad coordinate"),
    (parse_pointset, "3\n0 0\n1/{} 0\n0 1\n", "line 3: bad coordinate"),
    (parse_witness, "k = {}\n0 1\n", "line 1: bad family size"),
    (parse_witness, "k = 1\n0 {}\n", "line 2: bad point index"),
    (parse_graph, "2\n0 0\n1 0\nedges\n{} 1\n", "line 5: bad point index"),
    (parse_certificate, _CERTIFICATE.replace("1/8", "1/{}"), "bad certificate field 'epsilon'"),
    (parse_certificate, _CERTIFICATE.replace("m: 2", "m: {}"), "bad certificate field 'm'"),
    (parse_certificate, _CERTIFICATE.replace("_n: 5", "_n: {}"), "bad certificate field 'source_n'"),
], ids=["count", "coordinate", "denominator", "k", "index", "edge", "epsilon", "m", "source_n"])
@pytest.mark.parametrize("token", ["1_0", "\u0663"], ids=["underscore", "arabic-indic"])
def test_parsers_reject_python_only_integer_syntax(parse, text, message, token):
    with pytest.raises(ParseError) as excinfo:
        parse(text.format(token))
    error = str(excinfo.value)
    assert error.startswith(message) and token in error and "\n" not in error


class TestParserProperties:
    @pytest.mark.parametrize("parse, template", [
        (parse_pointset, _POINTSET),
        (parse_witness, _WITNESS),
        (parse_graph, _GRAPH),
        (parse_certificate, _CERTIFICATE),
    ], ids=["pointset", "witness", "graph", "certificate"])
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_malformed_texts_end_in_parse_error(self, parse, template, data):
        try:
            parse(data.draw(format_texts(template)))
        except ParseError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(text=format_texts(_CONFIG))
    def test_malformed_configs_end_in_parse_error_or_config_error(self, text):
        try:
            parse_search_config(text)
        except ParseError:
            pass
        except ValueError as exc:
            # only the checks of SearchConfig itself may raise a ValueError
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            assert tb.tb_frame.f_code.co_filename == search.__file__, exc
