"""Summaries, percentile bands, paired comparisons, reconciliation."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etkasim.reporting import (DeltaRow, age_diff_band, compare_policies,
                               homozygosity_class, match_quality_level,
                               summarize, vpra_band)

from engine_fixture import summary_row


class TestBands:
    @pytest.mark.parametrize("vpra,band", [
        (0.0, "zero"), (0.001, "low"), (0.849, "low"), (0.85, "mid"),
        (0.949, "mid"), (0.95, "high"), (1.0, "high")])
    def test_vpra_bands(self, vpra, band):
        assert vpra_band(vpra) == band

    @pytest.mark.parametrize("mm,level", [
        ((0, 0, 0), 1), ((2, 0, 0), 2), ((1, 1, 0), 2), ((1, 0, 1), 2),
        ((0, 2, 0), 3), ((0, 1, 1), 3), ((2, 2, 0), 3), ((0, 0, 2), 4),
        ((0, 1, 2), 4), ((1, 2, 1), 4), ((2, 2, 2), 4)])
    def test_match_quality_levels(self, mm, level):
        a, b, dr = mm
        assert match_quality_level(b, dr, a + b + dr) == level

    @pytest.mark.parametrize("cand,donor,band", [
        (85, 50, "cand_35p_older"), (70, 50, "cand_15_34_older"),
        (60, 50, "cand_6_14_older"), (52, 50, "within_5"),
        (45, 50, "within_5"), (42, 50, "cand_6_14_younger"),
        (30, 50, "cand_15_34_younger"), (10, 50, "cand_35p_younger")])
    def test_age_diff_bands(self, cand, donor, band):
        assert age_diff_band(cand, donor) == band

    def test_homozygosity_classes(self):
        assert homozygosity_class(True, True) == "b_and_dr"
        assert homozygosity_class(False, True) == "dr"
        assert homozygosity_class(True, False) == "b"
        assert homozygosity_class(False, False) == "none"


class TestSummarize:
    def test_single_run_collapses_to_point(self):
        table = summarize([{"a": 5.0, "b": 2.0}], actual=None)
        row = summary_row(table, "a")
        assert (row.mean, row.lo, row.hi) == (5.0, 5.0, 5.0)

    def test_constant_statistic_has_degenerate_band(self):
        runs = [{"a": 3.0} for _ in range(50)]
        row = summary_row(summarize(runs, actual=None), "a")
        assert (row.lo, row.hi) == (3.0, 3.0)

    def test_percentiles_match_sort_based_oracle(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(100, 15, size=200))
        runs = [{"x": v} for v in values]
        row = summary_row(summarize(runs, actual=None), "x")

        def sort_percentile(vals, q):
            # linear interpolation between order statistics
            s = sorted(vals)
            pos = (len(s) - 1) * q / 100.0
            lo = math.floor(pos)
            hi = math.ceil(pos)
            frac = pos - lo
            return s[lo] * (1 - frac) + s[hi] * frac

        assert row.lo == pytest.approx(sort_percentile(values, 2.5))
        assert row.hi == pytest.approx(sort_percentile(values, 97.5))
        assert row.mean == pytest.approx(float(np.mean(values)))

    def test_calibration_flag(self):
        runs = [{"a": float(v)} for v in range(100)]
        table = summarize(runs, actual={"a": 50.0})
        assert summary_row(table, "a").calibrated is True
        table = summarize(runs, actual={"a": 1000.0})
        assert summary_row(table, "a").calibrated is False

    def test_missing_keys_read_as_zero(self):
        table = summarize([{"a": 2.0}, {}], actual=None)
        assert summary_row(table, "a").mean == 1.0

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            summarize([], actual=None)


def _runs(n: int):
    """n runs' values of one statistic: real-valued, integer-valued (counts),
    constant, or within a few ulps of one value."""
    value = st.floats(-1e4, 1e4, allow_subnormal=False)
    return st.one_of(
        st.lists(value, min_size=n, max_size=n),
        st.lists(st.integers(0, 500).map(float), min_size=n, max_size=n),
        value.map(lambda v: [v] * n),
        st.tuples(value, st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n)).map(
            lambda t: [t[0] * (1.0 + k * 2.0 ** -52) for k in t[1]]))


class TestComparePolicies:
    def test_identical_runs_give_zero_deltas_no_stars(self):
        runs = [{"a": float(i), "b": 2.0} for i in range(10)]
        rows = compare_policies(runs, runs, paired=True)
        for row in rows:
            assert row.delta == 0.0
            assert row.stars == ""
            assert row.p_value == 1.0

    def test_paired_t_matches_textbook_formula(self):
        base = [{"x": v} for v in (10.0, 12.0, 9.0, 11.0, 13.0)]
        var = [{"x": v} for v in (12.0, 15.0, 9.5, 13.0, 14.0)]
        rows = {r.name: r for r in compare_policies(base, var, paired=True)}
        diffs = np.array([2.0, 3.0, 0.5, 2.0, 1.0])
        t = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(5))
        assert rows["x"].t_stat == pytest.approx(float(t))
        from scipy import stats as sps
        assert rows["x"].p_value == pytest.approx(
            float(2 * sps.t.sf(abs(t), df=4)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_p_values_equal_scipy_stats(self, data):
        from scipy import stats as sps
        paired = data.draw(st.booleans())
        n_base = data.draw(st.integers(2, 60))
        n_var = n_base if paired else data.draw(st.integers(2, 60))
        base = np.array(data.draw(_runs(n_base)))
        var = np.array(data.draw(_runs(n_var)))
        with warnings.catch_warnings():
            # scipy warns of cancellation on near-constant samples
            warnings.simplefilter("ignore", RuntimeWarning)
            row, = compare_policies([{"x": v} for v in base],
                                    [{"x": v} for v in var], paired=paired)
        if paired:
            diffs = var - base
            sd = diffs.std(ddof=1)
            assume(sd > 0)
            t = float(diffs.mean() / (sd / math.sqrt(n_base)))
            assert row.t_stat == t
            assert row.p_value == float(2 * sps.t.sf(abs(t), df=n_base - 1))
        else:
            assume(base.std() > 0 or var.std() > 0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = sps.ttest_ind(var, base, equal_var=False)
            # equal, NaN included: two constant samples whose float std is
            # not 0 give NaN on both sides
            np.testing.assert_equal(
                (row.t_stat, row.p_value),
                (float(res.statistic), float(res.pvalue)))

    def test_star_thresholds(self):
        assert DeltaRow("s", 0, 0, 0, 0, 0.04, "").p_value < 0.05
        from etkasim.reporting import _stars
        assert _stars(0.04) == "*"
        assert _stars(0.009) == "**"
        assert _stars(0.0009) == "***"
        assert _stars(0.2) == ""
        assert _stars(None) == ""

    def test_what_pairing_bought_by_hand(self):
        # diffs 2, 3, 0.5, 2, 1: mean 1.7, variance 0.95; the baseline's
        # variance is 2.5 and the variant's 4.45
        base = [{"x": v} for v in (10.0, 12.0, 9.0, 11.0, 13.0)]
        var = [{"x": v} for v in (12.0, 15.0, 9.5, 13.0, 14.0)]
        row, = compare_policies(base, var, paired=True)
        assert row.sd_ratio == pytest.approx(math.sqrt(0.95 / 6.95))
        # t = 1.7 sqrt(n) / sqrt(0.95): 3.02 at n = 3 is below t(2)'s
        # 97.5% quantile 4.30; 3.49 at n = 4 is above t(3)'s 3.18
        assert row.runs_needed == 4
        unpaired, = compare_policies(base, var, paired=False)
        assert (unpaired.sd_ratio, unpaired.runs_needed) == (None, None)

    def test_what_pairing_bought_at_zero_variance(self):
        same = [{"x": v} for v in (1.0, 2.0, 3.0)]
        shifted = [{"x": v} for v in (2.0, 3.0, 4.0)]
        constant = [{"x": 5.0}] * 3
        # pairs that move together: no variance left in the differences,
        # and the test is undefined
        row, = compare_policies(same, shifted, paired=True)
        assert (row.sd_ratio, row.t_stat, row.runs_needed) == (0.0, None,
                                                                None)
        # no spread on either side
        for variant in (constant, [{"x": 6.0}] * 3):
            row, = compare_policies(constant, variant, paired=True)
            assert (row.sd_ratio, row.runs_needed) == (None, None)
        # pairs that move against each other (diffs 2, 0, -2): pairing
        # doubles the variance; a zero mean difference needs no count
        row, = compare_policies(same, same[::-1], paired=True)
        assert row.sd_ratio == pytest.approx(math.sqrt(2.0))
        assert row.runs_needed is None

    def test_a_round_off_delta_needs_no_count(self):
        # diffs 0.1, 0.2, -0.3 cancel to a mean of ~1.85e-17 against an SD
        # of ~0.26, which would take ~1e33 runs: more than the count
        # reports, and more than a float can step through one by one
        base = [{"x": 0.0}] * 3
        var = [{"x": v} for v in (0.1, 0.2, -0.3)]
        row, = compare_policies(base, var, paired=True)
        assert 0 < abs(row.delta) < 1e-16
        assert row.runs_needed is None

    def test_runs_needed_stops_at_its_cap(self):
        from etkasim.reporting import MAX_RUNS_NEEDED, _runs_needed
        z = 1.959963984540054
        sd = math.sqrt(MAX_RUNS_NEEDED) / z
        # a delta needing just over (z sd / mean)^2 = 0.98^2 * cap runs
        n = _runs_needed(1.0, 0.98 * sd)
        assert 0.98 ** 2 * MAX_RUNS_NEEDED < n <= MAX_RUNS_NEEDED
        assert _runs_needed(1.0, 1.001 * sd) is None
        assert _runs_needed(0.0, 1.0) is None

    def test_delta_outputs_carry_what_pairing_bought(self, tmp_path):
        import csv as _csv
        from etkasim.reporting import render_delta_text, write_delta_csv
        base = [{"x": v} for v in (10.0, 12.0, 9.0, 11.0, 13.0)]
        var = [{"x": v} for v in (12.0, 15.0, 9.5, 13.0, 14.0)]
        rows = compare_policies(base, var, paired=True)
        write_delta_csv(tmp_path / "delta.csv", rows)
        with open(tmp_path / "delta.csv") as fh:
            row, = _csv.DictReader(fh)
        assert (row["sd_ratio"], row["runs_needed"]) == ("0.3697", "4")
        header, line, note = render_delta_text(rows).splitlines()
        assert header.split()[-2:] == ["sd_ratio", "runs"]
        assert line.split()[-3:] == ["0.370", "4", "*"]
        assert note.startswith("runs: ")

    def test_paired_requires_equal_counts(self):
        with pytest.raises(ValueError):
            compare_policies([{"a": 1.0}], [{"a": 1.0}, {"a": 2.0}],
                             paired=True)

    def test_welch_fallback_for_unpaired(self):
        rng = np.random.default_rng(2)
        base = [{"x": float(v)} for v in rng.normal(10, 1, 30)]
        var = [{"x": float(v)} for v in rng.normal(12, 1, 25)]
        rows = {r.name: r for r in compare_policies(base, var, paired=False)}
        assert rows["x"].p_value < 0.001
        assert rows["x"].delta == pytest.approx(
            float(np.mean([r["x"] for r in var])
                  - np.mean([r["x"] for r in base])))


class TestMatchListExport:
    def test_etkas_and_esp_layouts(self, tmp_path):
        import csv as _csv
        from etkasim.reporting import write_match_list_csv
        from fixtures_tables import (build_engine_list, build_esp_fixture,
                                     build_etkas_fixture)
        store, arrays = build_engine_list(build_etkas_fixture())
        path = tmp_path / "etkas.csv"
        write_match_list_csv(path, arrays, store)
        with open(path) as fh:
            rows = list(_csv.DictReader(fh))
        assert len(rows) == 14
        assert rows[0]["tier"] == "0MM"
        assert rows[0]["total"] == "722"
        assert rows[0]["match_quality"] == "000"
        assert rows[1]["tier"] == ">0MM"

        store2, arrays2 = build_engine_list(build_esp_fixture())
        path2 = tmp_path / "esp.csv"
        write_match_list_csv(path2, arrays2, store2)
        with open(path2) as fh:
            rows2 = list(_csv.DictReader(fh))
        assert [int(r["points"]) for r in rows2] == [
            1143, 964, 890, 871, 867, 855, 715, 714, 596, 423, 419]
