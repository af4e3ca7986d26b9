"""HLA system: mismatch counting, vPRA, favorable-match probabilities."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkasim.hla import (AntigenTable, BloodGroupFrequencies,
                         DonorPanel, FrequencyTable, HlaTyping,
                         UnknownAntigenError, compute_hmpp_fraction)

from etkasim.io import data_path

from oracle.hla import (MmpInputs, compute_mmp, compute_vpra,
                        count_mismatches, homozygosity_level, mmp_points,
                        p_leq1mm_analytic, p_leq1mm_empirical)


def full_table() -> AntigenTable:
    return AntigenTable.from_file(data_path("antigens.csv"))


@pytest.fixture(scope="module")
def table():
    return full_table()


def typing(a, b, dr):
    return HlaTyping({"A": tuple(a), "B": tuple(b), "DR": tuple(dr)})


class TestMismatchCounting:
    def test_identical_typings_have_zero_mismatches(self, table):
        t = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        assert count_mismatches(table, t, t).as_tuple() == (0, 0, 0)

    def test_homozygous_donor_counts_once(self, table):
        donor = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        cand = typing(["A1"], ["B5", "B7"], ["DR1", "DR4"])
        assert count_mismatches(table, donor, cand).as_tuple() == (1, 0, 0)
        # and the reverse: a homozygous donor contributes one antigen
        donor2 = typing(["A1"], ["B5", "B7"], ["DR1", "DR4"])
        cand2 = typing(["A2", "A3"], ["B5", "B7"], ["DR1", "DR4"])
        assert count_mismatches(table, donor2, cand2).as_tuple() == (1, 0, 0)

    def test_broad_level_counting_on_a_and_b(self, table):
        # A23 and A24 are both splits of A9: no mismatch at broad level
        donor = typing(["A23", "A2"], ["B51", "B7"], ["DR1", "DR4"])
        cand = typing(["A24", "A2"], ["B52", "B7"], ["DR1", "DR4"])
        assert count_mismatches(table, donor, cand).as_tuple() == (0, 0, 0)

    def test_dr_counts_at_split_level(self, table):
        # DR15 and DR16 share the broad DR2 but differ as splits
        donor = typing(["A1", "A2"], ["B5", "B7"], ["DR15", "DR1"])
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR16", "DR1"])
        assert count_mismatches(table, donor, cand).as_tuple() == (0, 0, 1)

    def test_unknown_antigen_is_named(self, table):
        bad = typing(["A1", "ZZ9"], ["B5"], ["DR1"])
        with pytest.raises(UnknownAntigenError, match="ZZ9"):
            count_mismatches(table, bad, bad)

    def test_brute_force_oracle_on_random_pairs(self, table):
        rng = np.random.default_rng(11)
        a = ["A1", "A2", "A3", "A9", "A23", "A24"]
        b = ["B5", "B7", "B8", "B51", "B52", "B12"]
        dr = ["DR1", "DR4", "DR15", "DR16", "DR7", "DR11"]

        def norm(code, locus):
            return table.normalize(code)

        for _ in range(200):
            d = typing(rng.choice(a, 2), rng.choice(b, 2), rng.choice(dr, 2))
            c = typing(rng.choice(a, 2), rng.choice(b, 2), rng.choice(dr, 2))
            got = count_mismatches(table, d, c)
            for locus, count in zip(("A", "B", "DR"), got.as_tuple()):
                donor_set = {norm(x, locus) for x in d.antigens[locus]}
                cand_set = {norm(x, locus) for x in c.antigens[locus]}
                assert count == len(donor_set - cand_set)

    def test_typing_rejects_more_than_two_antigens(self):
        with pytest.raises(ValueError):
            typing(["A1", "A2", "A3"], ["B5"], ["DR1"])


class TestHomozygosity:
    def test_fully_heterozygous(self):
        assert homozygosity_level(
            typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"]))[0] == 0

    def test_fully_homozygous(self):
        level, flags = homozygosity_level(typing(["A1"], ["B5"], ["DR1"]))
        assert level == 3
        assert flags == {"A": True, "B": True, "DR": True}

    def test_dr_only(self):
        level, flags = homozygosity_level(
            typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR1"]))
        assert level == 1
        assert flags["DR"] and not flags["A"] and not flags["B"]


class TestVpra:
    def test_empty_set_is_zero(self, table):
        panel = DonorPanel([typing(["A1"], ["B5"], ["DR1"])] * 5, path=None)
        assert compute_vpra(frozenset(), panel, table) == 0.0

    def test_saturation_is_one(self, table):
        panel = DonorPanel([typing(["A1"], ["B5"], ["DR1"]),
                            typing(["A2"], ["B7"], ["DR4"])], path=None)
        assert compute_vpra(frozenset({"A1", "A2"}), panel, table) == 1.0

    def test_toy_panel_fraction(self, table):
        rows = [typing(["A1", "A2"], ["B5"], ["DR1"])] * 37
        rows += [typing(["A3", "A9"], ["B5"], ["DR1"])] * 63
        panel = DonorPanel(rows, path=None)
        assert compute_vpra(frozenset({"A1"}), panel,
                            table) == pytest.approx(0.37)

    def test_broad_unacceptable_blocks_split_typed_donor(self, table):
        panel = DonorPanel([typing(["A23", "A2"], ["B5"], ["DR1"])], path=None)
        assert compute_vpra(frozenset({"A9"}), panel, table) == 1.0

    def test_brute_force_equality_on_random_panels(self, table):
        rng = np.random.default_rng(5)
        codes = {
            "A": ["A1", "A2", "A3", "A9", "A23"],
            "B": ["B5", "B7", "B8", "B51"],
            "DR": ["DR1", "DR4", "DR15", "DR7"],
        }
        all_codes = [c for v in codes.values() for c in v]
        for trial in range(20):
            rows = [typing(rng.choice(codes["A"], 2), rng.choice(codes["B"], 2),
                           rng.choice(codes["DR"], 2)) for _ in range(200)]
            panel = DonorPanel(rows, path=None)
            for _ in range(50):
                n = int(rng.integers(0, 6))
                unacc = frozenset(
                    str(c) for c in rng.choice(all_codes, n, replace=False))
                # oracle: plain loop over raw codes plus their broads
                hits = 0
                for t in rows:
                    carried = {c for cs in t.antigens.values() for c in cs}
                    carried |= {table.resolve(c).broad for c in carried}
                    if carried & unacc:
                        hits += 1
                assert compute_vpra(unacc, panel, table) == hits / 200

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(
        ["A1", "A2", "A3", "B5", "B7", "DR1", "DR4"]), max_size=5),
        st.sampled_from(["A9", "B8", "DR7"]))
    def test_vpra_monotone_in_unacceptables(self, base, extra):
        table = full_table()
        rng = np.random.default_rng(7)
        rows = [typing(rng.choice(["A1", "A2", "A3", "A9"], 2),
                       rng.choice(["B5", "B7", "B8"], 2),
                       rng.choice(["DR1", "DR4", "DR7"], 2))
                for _ in range(60)]
        panel = DonorPanel(rows, path=None)
        smaller = compute_vpra(frozenset(base), panel, table)
        larger = compute_vpra(frozenset(base) | {extra}, panel, table)
        assert larger >= smaller


class TestPLeq1mm:
    def test_panel_of_clones_gives_one(self, table):
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        panel = DonorPanel([cand] * 40, path=None)
        assert p_leq1mm_empirical(table, cand, frozenset(), panel) == 1.0

    def test_all_far_panel_gives_zero(self, table):
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        far = typing(["A3", "A9"], ["B8", "B12"], ["DR7", "DR8"])
        panel = DonorPanel([far] * 40, path=None)
        assert p_leq1mm_empirical(table, cand, frozenset(), panel) == 0.0

    def test_fifty_donor_recount_oracle(self, table):
        rng = np.random.default_rng(13)
        codes = {
            "A": ["A1", "A2", "A3"],
            "B": ["B5", "B7", "B8"],
            "DR": ["DR1", "DR4", "DR7"],
        }
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        rows = [typing(rng.choice(codes["A"], 2), rng.choice(codes["B"], 2),
                       rng.choice(codes["DR"], 2)) for _ in range(50)]
        panel = DonorPanel(rows, path=None)
        expected = sum(
            1 for t in rows
            if count_mismatches(table, t, cand).total <= 1) / 50
        assert p_leq1mm_empirical(table, cand, frozenset(), panel) == expected

    def test_exclusion_variant_never_larger(self, table):
        rng = np.random.default_rng(17)
        codes = ["A1", "A2", "A3", "B5", "B7", "B8", "DR1", "DR4", "DR7"]
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        rows = [typing(rng.choice(["A1", "A2", "A3"], 2),
                       rng.choice(["B5", "B7", "B8"], 2),
                       rng.choice(["DR1", "DR4", "DR7"], 2))
                for _ in range(80)]
        panel = DonorPanel(rows, path=None)
        for _ in range(20):
            unacc = frozenset(
                str(c) for c in rng.choice(codes, int(rng.integers(0, 4)),
                                           replace=False))
            with_excl = p_leq1mm_empirical(table, cand, unacc, panel,
                                           exclude_unacceptable_carriers=True)
            without = p_leq1mm_empirical(table, cand, unacc, panel)
            assert with_excl <= without


class TestPAnalytic:
    def test_degenerate_table_gives_one(self, table):
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        freq = FrequencyTable({
            "A": {"A1": 0.5, "A2": 0.5},
            "B": {"B5": 0.5, "B7": 0.5},
            "DR": {"DR1": 0.5, "DR4": 0.5},
        }, path=None)
        assert p_leq1mm_analytic(table, cand, freq) == pytest.approx(1.0)

    def _enumeration_oracle(self, table, cand, freq):
        """Exhaustive genotype enumeration per locus, then convolution."""
        locus_dists = []
        for locus in ("A", "B", "DR"):
            dist = freq.locus(locus)
            cand_set = cand.normalized(table, locus)
            pmf = {0: 0.0, 1: 0.0, 2: 0.0}
            for x, fx in dist.items():
                for y, fy in dist.items():
                    mm = len({x, y} - cand_set)
                    pmf[mm] += fx * fy
            locus_dists.append(pmf)
        total = 0.0
        for ma, mb, mdr in itertools.product(range(3), repeat=3):
            if ma + mb + mdr <= 1:
                total += (locus_dists[0][ma] * locus_dists[1][mb]
                          * locus_dists[2][mdr])
        return total

    def test_matches_enumeration_on_toy_tables(self, table):
        rng = np.random.default_rng(23)
        codes = {
            "A": ["A1", "A2", "A3", "A9"],
            "B": ["B5", "B7", "B8", "B12"],
            "DR": ["DR1", "DR4", "DR7", "DR8"],
        }
        for _ in range(25):
            freq = FrequencyTable({
                locus: {c: float(w) for c, w in
                        zip(cs, rng.dirichlet(np.ones(len(cs))))}
                for locus, cs in codes.items()}, path=None)
            cand = typing(rng.choice(codes["A"], 2), rng.choice(codes["B"], 2),
                          rng.choice(codes["DR"], 2))
            got = p_leq1mm_analytic(table, cand, freq)
            want = self._enumeration_oracle(table, cand, freq)
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_frequency_antigens_give_near_zero(self, table):
        cand = typing(["A1", "A1"], ["B5", "B5"], ["DR1", "DR1"])
        freq = FrequencyTable({
            "A": {"A1": 0.0, "A2": 0.5, "A3": 0.5},
            "B": {"B5": 0.0, "B7": 0.5, "B8": 0.5},
            "DR": {"DR1": 0.0, "DR4": 0.5, "DR7": 0.5},
        }, path=None)
        got = p_leq1mm_analytic(table, cand, freq)
        want = self._enumeration_oracle(table, cand, freq)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_missing_antigen_is_an_error(self, table):
        cand = typing(["A1", "A2"], ["B5", "B7"], ["DR1", "DR4"])
        freq = FrequencyTable({
            "A": {"A1": 1.0},
            "B": {"B5": 0.5, "B7": 0.5},
            "DR": {"DR1": 0.5, "DR4": 0.5},
        }, path=None)
        with pytest.raises(Exception, match="A2"):
            p_leq1mm_analytic(table, cand, freq)


class TestMmp:
    def test_vpra_one_gives_one(self):
        assert compute_mmp(MmpInputs(f_bg=0.5, vpra=1.0, p_leq1mm=0.5)) == 1.0

    def test_certain_favorable_donor_gives_zero(self):
        assert compute_mmp(MmpInputs(f_bg=1.0, vpra=0.0, p_leq1mm=1.0)) == 0.0

    def test_known_value(self):
        # (1 - 0.43 * 0.01)^1000, cross-checked in the log domain below
        got = compute_mmp(MmpInputs(f_bg=0.43, vpra=0.0, p_leq1mm=0.01))
        oracle = float(np.exp(np.longdouble(1000)
                              * np.log1p(np.longdouble(-0.0043))))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.013444, abs=5e-6)

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            MmpInputs(f_bg=1.2, vpra=0.0, p_leq1mm=0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 1.0), st.floats(0.0, 0.99), st.floats(0.001, 0.5),
           st.floats(0.001, 0.01))
    def test_monotonicity(self, f_bg, vpra, p, eps):
        base = compute_mmp(MmpInputs(f_bg=f_bg, vpra=vpra, p_leq1mm=p))
        assert compute_mmp(MmpInputs(f_bg=f_bg, vpra=min(1.0, vpra + eps),
                                     p_leq1mm=p)) >= base
        assert compute_mmp(MmpInputs(f_bg=max(0.0, f_bg - eps), vpra=vpra,
                                     p_leq1mm=p)) >= base
        assert compute_mmp(MmpInputs(f_bg=f_bg, vpra=vpra,
                                     p_leq1mm=max(0.0, p - eps))) >= base

    def test_points_rounding_half_up(self):
        assert mmp_points(0.245, 100.0) == 25
        assert mmp_points(0.2449, 100.0) == 24
        assert mmp_points(1.0, 100.0) == 100


class TestHmpp:
    def test_endpoints(self):
        assert compute_hmpp_fraction(1.0) == 0.0
        assert compute_hmpp_fraction(0.0) == 1.0

    def test_known_value(self):
        oracle = float(np.exp(np.longdouble(1000)
                              * np.log1p(np.longdouble(-0.002))))
        assert compute_hmpp_fraction(0.002) == pytest.approx(oracle, rel=1e-12)
        assert compute_hmpp_fraction(0.002) == pytest.approx(0.13506, abs=1e-4)


class TestBloodGroups:
    def test_lookup_and_missing(self):
        bg = BloodGroupFrequencies({"A": 0.4, "O": 0.43})
        assert bg.freq_of("A") == 0.4
        with pytest.raises(Exception, match="AB"):
            bg.freq_of("AB")
