import pytest

from crossfam import store
from crossfam.crossing import brute_force_cf, max_crossing_family
from crossfam.errors import ParseError
from crossfam.geometry import is_general_position
from crossfam.known import known_bounds
from crossfam.store import bundled_names, load_bundled


def test_expected_bundles_present():
    names = bundled_names()
    assert "n4_cf1" in names
    assert "n9_cf2" in names
    assert "n14_cf3" in names
    assert "n20_cf4" in names


@pytest.mark.parametrize("name", bundled_names())
class TestBundledSets:
    def test_general_position(self, name):
        S, _ = load_bundled(name)
        assert is_general_position(S)

    def test_claimed_cf_matches_exact_solver(self, name):
        S, claimed = load_bundled(name)
        assert max_crossing_family(S)[0] == claimed

    def test_oracle_agrees_when_in_range(self, name):
        S, claimed = load_bundled(name)
        if len(S) <= 10:
            assert brute_force_cf(S) == claimed

    def test_consistent_with_known_table(self, name):
        # a candidate's cf can never undercut the proven minimum for its size
        S, claimed = load_bundled(name)
        lower, upper, _ = known_bounds(len(S))
        assert claimed >= lower
        assert claimed <= upper  # extremal candidates witness the upper bound


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        load_bundled("n999_cf0")


def test_missing_cf_header_rejected(monkeypatch, tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "bare.txt").write_text("0 0\n1 0\n0 1\n")
    monkeypatch.setattr(store.resources, "files", lambda package: tmp_path)
    with pytest.raises(ParseError, match="bundled set 'bare' lacks a '# cf = <value>' header"):
        load_bundled("bare")
