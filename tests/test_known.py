import hashlib

import pytest

import crossfam
from crossfam import known
from crossfam.known import (
    DEFAULT_EXTREMAL_LIBRARY,
    KNOWN_VALUES,
    best_known_upper_bound,
    bound_details,
    known_bounds,
    known_provenance,
    known_range,
)
from crossfam.store import bundled_names, load_bundled


class TestKnownTable:
    @pytest.mark.parametrize("n,value", [
        (2, 1), (3, 1), (4, 1),
        (5, 2), (7, 2), (9, 2),
        (10, 3), (12, 3), (14, 3),
        (15, 4), (18, 4), (20, 4),
    ])
    def test_exact_values(self, n, value):
        lower, upper, _ = known_bounds(n)
        assert lower == upper == value

    def test_beyond_20_uses_calculator(self):
        lower, upper, entry = known_bounds(21)
        assert lower == 4
        assert upper == best_known_upper_bound(21) == 5
        assert entry == KNOWN_VALUES[-1]

    def test_n41(self):
        lower, upper, _ = known_bounds(41)
        assert (lower, upper) == (4, 8)

    def test_bound_needs_a_positive_count(self):
        with pytest.raises(ValueError, match="point count must be positive"):
            bound_details(0)

    def test_bound_rejects_a_bad_library_entry(self):
        with pytest.raises(ValueError, match=r"bad library entry \(0, 3\)"):
            bound_details(10, [(0, 3)])

    def test_intervals_cover_and_do_not_overlap(self):
        # Each threshold holds from its n_lo up to the next threshold's n_lo - 1,
        # and the last one is open, so every n >= 2 lies in exactly one interval.
        assert KNOWN_VALUES[0].n_lo == 2
        for before, after in zip(KNOWN_VALUES, KNOWN_VALUES[1:]):
            assert before.n_lo < after.n_lo
            assert before.lower < after.lower
        ends = [entry.n_lo for entry in KNOWN_VALUES[1:]] + [10**9]
        for n in range(2, 100):
            holding = [entry for entry, end in zip(KNOWN_VALUES, ends)
                       if entry.n_lo <= n < end]
            assert holding == [known_range(n)]

    def test_no_inverted_intervals_against_calculator(self):
        for n in range(5, 100):
            lower, upper, _ = known_bounds(n)
            assert lower <= upper
            assert best_known_upper_bound(n) >= lower

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            known_range(1)

    def test_provenance_populated(self):
        for entry in KNOWN_VALUES:
            assert entry.provenance


class TestDerivedTables:
    # SHA-256 of repr([(n, known_bounds(n)[:2], bound_details(n)) for n in 2..1000]),
    # recorded while the library and the known values were still typed by hand
    GOLDEN = "7e46c3f43b83199648d1738f798f140c6abdc22d577502ba59e34f22b34c346a"

    def test_bounds_match_hand_typed_tables(self):
        rows = [(n, known_bounds(n)[:2], bound_details(n)) for n in range(2, 1001)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.GOLDEN

    def test_library_matches_hand_typed_library(self):
        assert DEFAULT_EXTREMAL_LIBRARY == (
            (1, 4), (2, 9), (3, 14), (4, 20), (5, 25),
            (6, 29), (7, 34), (8, 41), (9, 45), (10, 50),
        )

    @pytest.mark.parametrize("name", bundled_names())
    def test_every_bundled_set_is_a_library_entry(self, name):
        S, cf = load_bundled(name)
        assert known._LIBRARY_SOURCES[cf, len(S)] == f"bundled set {name}"

    def test_cited_entries_do_not_restate_bundled_sets(self):
        bundled_k = {load_bundled(name)[1] for name in bundled_names()}
        assert bundled_k.isdisjoint(k for k, _ in known._CITED)

    def test_every_entry_has_a_source(self):
        sources = known._LIBRARY_SOURCES
        assert tuple(sources) == DEFAULT_EXTREMAL_LIBRARY
        assert all(sources.values())
        assert sources[8, 41] == "arXiv:2109.10705"

    def test_package_exports_the_library(self):
        assert crossfam.DEFAULT_EXTREMAL_LIBRARY == DEFAULT_EXTREMAL_LIBRARY
        for module in (crossfam, known):
            with pytest.raises(AttributeError):
                module.NO_SUCH_TABLE

    @pytest.mark.parametrize("n,source", [
        (3, "upper bound 1 from a 4-point set with no 2-crossing family (bundled set n4_cf1)"),
        (12, "upper bound 3 from 3 copies of a 4-point set with no 2-crossing family "
             "(bundled set n4_cf1)"),
        (20, "upper bound 4 from a 20-point set with no 5-crossing family "
             "(bundled set n20_cf4)"),
        (41, "upper bound 8 from a 41-point set with no 9-crossing family (arXiv:2109.10705)"),
    ])
    def test_provenance_names_both_sources(self, n, source):
        assert known_provenance(n) == f"{known_range(n).provenance}; {source}"
