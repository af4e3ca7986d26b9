"""Failure-time sampling, re-listing curves, pool matching, immunization."""

from __future__ import annotations

import itertools
import math
from datetime import date

import numpy as np
import pytest

from etkasim.common import InputError, to_days
from etkasim.engine import Draws
from etkasim.entities import AllocationProfile, CandidateRegistration
from etkasim.hla import HlaTyping
from etkasim.io import data_path
from etkasim.offering import donor_features, linear_predictor
from etkasim.posttransplant import (AGE_BUCKETS, TIME_BUCKETS,
                                    TRANSPLANT_FEATURES, InvalidScaleError,
                                    PoolEntry, RecipientProfile, RelistCurveSet,
                                    RelistingPool, StepCurve, WeibullModel,
                                    age_bucket, build_synthetic_relisting,
                                    check_scale_bound, mahalanobis_top_m,
                                    sample_failure_time, sample_relist_time,
                                    select_pool_match,
                                    simulate_de_novo_immunization, time_bucket)
from etkasim.posttransplant import _candidate_matches

from engine_fixture import donor
from fake_draws import FixedDraws
from fixtures_tables import TYPING_BY_MM, build_antigen_table


class TestWeibull:
    def _model(self, shape=1.5):
        return WeibullModel(coefficients={"x": 100.0}, intercept=2000.0,
                            shape_by_country={"DE": shape},
                            default_shape=1.0)

    def test_u_exp_minus_one_gives_scale(self):
        m = self._model()
        t = sample_failure_time({"x": 0.0}, "DE", m, math.exp(-1.0))
        assert t == pytest.approx(2000.0, rel=1e-12)

    def test_u_near_one_gives_near_zero(self):
        m = self._model()
        t = sample_failure_time({"x": 0.0}, "DE", m, 1.0 - 1e-12)
        assert t < 1.0

    def test_non_positive_scale_rejected(self):
        m = self._model()
        with pytest.raises(InvalidScaleError):
            sample_failure_time({"x": -20.0}, "DE", m, 0.5)

    def test_missing_feature_rejected(self):
        m = self._model()
        with pytest.raises(Exception, match="x"):
            sample_failure_time({}, "DE", m, 0.5)

    def test_scale_bound_is_the_lowest_corner_of_the_box(self):
        model = WeibullModel.from_file(
            data_path("weibull_post_transplant.csv"))
        box = dict(zip(TRANSPLANT_FEATURES, [(0.0, 90.0), (0.0, 12.0),
                                             (0.0, 1.0), (0.0, 6.0),
                                             (0.0, 2.0), (0.0, 1.0),
                                             (0.0, 1.0), (0.0, 3.0)]))
        donors = [donor(f"D{i}", 0, age=age, last_creatinine=creatinine)
                  for i, (age, creatinine) in enumerate(
                      [(40, 1.0), (75, 30.0), (60, 120.0), (70, 400.0)])]

        def lowest(d):
            return min(linear_predictor(
                model.intercept, model.coefficients,
                {**donor_features(d), **dict(zip(box, corner))},
                model.model_id) for corner in itertools.product(*box.values()))

        assert [lowest(d) > 0 for d in donors] == [True, True, False, False]
        check_scale_bound(model, donors[:2], box)
        with pytest.raises(InputError) as caught:
            check_scale_bound(model, donors, box)
        assert str(caught.value).startswith(
            f"donor 'D2': non-positive Weibull scale possible, down to "
            f"{lowest(donors[2]):.1f} days, driven by donor_creatinine = 120 "
            "(term -6000.0); ")

    def test_ks_distance_against_closed_form(self):
        # 10k draws with k = 1.5, lambda = 2000 days
        m = self._model(shape=1.5)
        rng = np.random.default_rng(31)
        draws = np.array([sample_failure_time({"x": 0.0}, "DE", m,
                                              rng.random())
                          for _ in range(10_000)])
        ts = np.sort(draws)
        emp = np.arange(1, len(ts) + 1) / len(ts)
        theo = 1.0 - np.exp(-(ts / 2000.0) ** 1.5)
        ks = float(np.max(np.abs(emp - theo)))
        assert ks < 0.02

    def test_country_shape_quantile_ratio(self):
        # same u, swapped country: t scales by (-log u)^(1/k1 - 1/k2)
        m = WeibullModel(coefficients={}, intercept=1000.0,
                         shape_by_country={"DE": 1.0, "NL": 2.0})
        u = 0.2
        t_de = sample_failure_time({}, "DE", m, u)
        t_nl = sample_failure_time({}, "NL", m, u)
        expected = (-math.log(u)) ** (1.0 - 0.5)
        assert t_de / t_nl == pytest.approx(expected, rel=1e-12)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "weibull.csv"
        path.write_text("#model_id=wb\nkind,name,value\n"
                        "coef,(Intercept),5000\ncoef,cand_age,-20\n"
                        "shape,default,1.2\nshape,DE,1.1\n")
        m = WeibullModel.from_file(path)
        assert m.intercept == 5000
        assert m.coefficients == {"cand_age": -20}
        assert m.shape("DE") == 1.1
        assert m.shape("XX") == 1.2


class TestBuckets:
    @pytest.mark.parametrize("days,bucket", [
        (0, "lt180d"), (179, "lt180d"), (180, "180d_1y"), (365, "180d_1y"),
        (366, "1y_2y"), (700, "1y_2y"), (731, "2y_5y"), (1825, "2y_5y"),
        (1827, "ge5y"), (9000, "ge5y"),
    ])
    def test_time_buckets(self, days, bucket):
        assert time_bucket(days) == bucket

    @pytest.mark.parametrize("age,bucket", [
        (5, "0-17"), (17.9, "0-17"), (18, "18-39"), (39, "18-39"),
        (45, "40-49"), (52, "50-54"), (57, "55-59"), (62, "60-64"),
        (67, "65-69"), (72, "70-74"), (75, "75+"), (90, "75+"),
    ])
    def test_age_buckets(self, age, bucket):
        assert age_bucket(age) == bucket


def curve_set_with(curve: StepCurve) -> RelistCurveSet:
    return RelistCurveSet({(tb, ab): curve for tb in TIME_BUCKETS
                           for ab in AGE_BUCKETS})


class TestRelistSampling:
    def test_hand_built_crossings(self):
        # jumps at 0.2 (to 0.7), 0.5 (to 0.3), 0.8 (to 0.1); plateau 0.1
        curve = StepCurve(grid=(0.2, 0.5, 0.8), survival=(0.7, 0.3, 0.1))
        curves = curve_set_with(curve)
        t = 1000.0
        # u within the first jump's mass -> s = 0.2
        assert sample_relist_time(t, 50, curves, 0.10) == 200.0
        assert sample_relist_time(t, 50, curves, 0.30) == 200.0
        # u in (0.3, 0.7] -> s = 0.5
        assert sample_relist_time(t, 50, curves, 0.50) == 500.0
        assert sample_relist_time(t, 50, curves, 0.70) == 500.0
        # u in (0.7, 0.9] -> s = 0.8
        assert sample_relist_time(t, 50, curves, 0.85) == 800.0
        # u beyond the curve's total mass -> death without re-listing
        assert sample_relist_time(t, 50, curves, 0.95) is None

    def test_step_to_zero_at_half(self):
        curve = StepCurve(grid=(0.5,), survival=(0.0,))
        curves = curve_set_with(curve)
        assert sample_relist_time(800.0, 50, curves,
                                  0.3) == pytest.approx(400.0)

    def test_plateau_means_no_relisting(self):
        curve = StepCurve(grid=(0.4,), survival=(0.9,))
        curves = curve_set_with(curve)
        assert sample_relist_time(1000.0, 50, curves, 0.95) is None
        assert sample_relist_time(1000.0, 50, curves,
                                  0.05) == pytest.approx(400.0)

    def test_relist_time_always_below_failure_time(self):
        curve = StepCurve(grid=(0.1, 0.5, 0.9), survival=(0.6, 0.3, 0.2))
        curves = curve_set_with(curve)
        rng = np.random.default_rng(3)
        for _ in range(500):
            t = float(rng.uniform(10, 5000))
            r = sample_relist_time(t, 40, curves, rng.random())
            if r is not None:
                assert r < t

    def test_near_flat_curve_for_the_very_old(self):
        # 75+ stratum with a 0.97 plateau relists alm never
        flat = StepCurve(grid=(0.5,), survival=(0.97,))
        steep = StepCurve(grid=(0.5,), survival=(0.05,))
        curves = RelistCurveSet({
            (tb, ab): (flat if ab == "75+" else steep)
            for tb in TIME_BUCKETS for ab in AGE_BUCKETS})
        rng = np.random.default_rng(4)
        relists = sum(
            1 for _ in range(10_000)
            if sample_relist_time(1000.0, 80, curves,
                                  rng.random()) is not None)
        assert relists / 10_000 == pytest.approx(0.03, abs=0.01)

    def test_missing_stratum_is_an_error(self):
        curves = RelistCurveSet({("lt180d", "0-17"):
                                 StepCurve(grid=(0.5,), survival=(0.5,))})
        with pytest.raises(Exception, match="stratum"):
            sample_relist_time(5000.0, 50, curves, 0.5)

    def test_invalid_failure_time(self):
        curves = curve_set_with(StepCurve(grid=(0.5,), survival=(0.5,)))
        with pytest.raises(ValueError):
            sample_relist_time(0.0, 50, curves, 0.5)


@pytest.fixture(scope="module")
def table():
    return build_antigen_table()


class TestDeNovoImmunization:

    def _pair(self):
        donor = HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                           "DR": ("DR1", "DR4")})
        cand = HlaTyping({"A": ("A1", "A3"), "B": ("B8", "B12"),
                          "DR": ("DR7", "DR8")})
        return donor, cand  # mismatched: A2, B5, B7, DR1, DR4

    def test_no_mismatches_no_additions(self, table):
        t = HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                       "DR": ("DR1", "DR4")})
        got = simulate_de_novo_immunization(table, t, t, 1.0,
                                            FixedDraws([0.5]))
        assert got == frozenset()

    def test_probability_one_adds_every_mismatch(self, table):
        donor, cand = self._pair()
        got = simulate_de_novo_immunization(table, donor, cand, 1.0,
                                            FixedDraws([0.5]))
        assert got == frozenset({"A2", "B5", "B7", "DR1", "DR4"})

    def test_binomial_mean_at_default_probability(self, table):
        donor, cand = self._pair()
        draws = Draws(8)
        total = sum(len(simulate_de_novo_immunization(table, donor, cand,
                                                      0.2, draws))
                    for _ in range(10_000))
        assert total / 10_000 == pytest.approx(1.0, abs=0.03)

    def test_invalid_probability(self, table):
        donor, cand = self._pair()
        with pytest.raises(ValueError):
            simulate_de_novo_immunization(table, donor, cand, 1.2,
                                          FixedDraws([0.5]))


def entry(eid, country="DE", age=55.0, dial=800, r=400.0, t=1200.0,
          within=None):
    within = (r <= 365.25) if within is None else within
    return PoolEntry(id=eid, country=country, age_at_relist=age,
                     dialysis_days_at_relist=dial, relisted_within_1y=within,
                     r_days=r, t_days=t,
                     status_updates=((0, "T"), (900, "R")))


def profile(country="DE", age=55.0, dial=800, r=400.0, t=1200.0):
    return RecipientProfile(country=country, age_at_relist=age,
                            dialysis_days_at_relist=dial, r_days=r, t_days=t)


class TestPoolMatching:
    def test_single_in_caliper_entry_always_chosen(self):
        pool = RelistingPool([entry("P1")])
        got = select_pool_match(profile(), pool, FixedDraws([0.0]))
        assert got is not None and got.id == "P1"

    def test_no_match_after_full_relaxation(self):
        pool = RelistingPool([entry("P1", r=300.0, t=900.0)])
        got = select_pool_match(profile(r=3000.0, t=9000.0), pool,
                                FixedDraws([0.0]))
        assert got is None

    def test_caliper_bounds(self):
        base = profile()
        in_cal = entry("IN")
        out_age = entry("AGE", age=90.0)
        out_r = entry("R", r=400.0 + 2 * 365.25 + 1)
        out_t = entry("T", t=1200.0 + 366.0)
        out_dial = entry("DIAL", dial=800 + int(3 * 365.25) + 1)
        pool = RelistingPool([in_cal, out_age, out_r, out_t, out_dial])
        draws = Draws(0)
        for _ in range(10):
            got = select_pool_match(base, pool, draws)
            assert got.id == "IN"

    def test_country_relaxed_before_flag(self):
        # no German entries in caliper: the matcher must fall back to other
        # countries while still requiring the within-1-year flag
        pool = RelistingPool([
            entry("NL1", country="NL"), entry("NL2", country="NL"),
            entry("NL3", country="NL"), entry("NL4", country="NL"),
            entry("NL5", country="NL"),
            entry("NLX", country="NL", r=200.0, within=True),
        ])
        got = select_pool_match(profile(country="DE", r=400.0), pool,
                                Draws(1))
        assert got.id.startswith("NL")
        assert got.relisted_within_1y is False

    def test_column_matching_equals_entry_loop(self):
        # oracle: the entry-at-a-time caliper test and relaxation ladder
        def within(prof, e):
            return (abs(e.age_at_relist - prof.age_at_relist) <= 20.0
                    and abs(e.r_days - prof.r_days) <= 2 * 365.25
                    and abs(e.t_days - prof.t_days) <= 1 * 365.25
                    and abs(e.dialysis_days_at_relist
                            - prof.dialysis_days_at_relist) <= 3 * 365.25)

        def oracle(prof, pool):
            for need_country, need_flag in ((True, True), (False, True),
                                            (False, False)):
                got = [e for e in pool.entries
                       if (not need_country or e.country == prof.country)
                       and (not need_flag or e.relisted_within_1y
                            == prof.relisted_within_1y)
                       and within(prof, e)]
                if len(got) >= 5:
                    return got
            return got

        rng = np.random.default_rng(11)
        country_relaxed = set()
        for trial in range(200):
            pool = RelistingPool([
                entry(f"P{i}", country=str(rng.choice(["DE", "NL", "BE"])),
                      age=float(rng.uniform(20, 80)),
                      dial=int(rng.integers(0, 3000)),
                      r=float(rng.uniform(30, 1500)),
                      t=float(rng.uniform(300, 3000)))
                for i in range(int(rng.integers(0, 60)))])
            # near a pool entry, so every step of the ladder gets used
            e = pool.entries[0] if len(pool) else entry("X")
            prof = profile(country=str(rng.choice(["DE", "NL", "AT"])),
                           age=e.age_at_relist + float(rng.uniform(-25, 25)),
                           dial=e.dialysis_days_at_relist
                           + int(rng.integers(-1200, 1200)),
                           r=e.r_days + float(rng.uniform(-800, 800)),
                           t=e.t_days + float(rng.uniform(-400, 400)))
            # caliper edges exactly on the bound stay in
            if trial % 3 == 0:
                prof = profile(country=e.country, age=e.age_at_relist + 20.0,
                               dial=e.dialysis_days_at_relist, r=e.r_days,
                               t=e.t_days + 365.25)
            got = _candidate_matches(prof, pool)
            assert [e.id for e in got] == [e.id for e in oracle(prof, pool)]
            country_relaxed.add(any(e.country != prof.country for e in got))
        assert country_relaxed == {True, False}

    def test_mahalanobis_top_selection_matches_oracle(self):
        entries = [entry(f"P{i}", r=float(r), t=float(t))
                   for i, (r, t) in enumerate(
                       [(300, 1000), (320, 1050), (500, 1400), (450, 1100),
                        (380, 1300), (340, 980), (410, 1210)])]
        prof = profile(r=360.0, t=1120.0)
        top = mahalanobis_top_m(prof, entries)
        # oracle: explicit covariance and distance computation
        pts = np.array([[e.r_days, e.t_days] for e in entries])
        cov = np.cov(pts.T)
        inv = np.linalg.inv(cov)
        target = np.array([360.0, 1120.0])
        d2 = [((p - target) @ inv @ (p - target), e.id)
              for p, e in zip(pts, entries)]
        want = [eid for _, eid in sorted(d2)][:5]
        assert [e.id for e in top] == want

    def test_fewer_than_two_matches_uses_standardized_euclidean(self):
        top = mahalanobis_top_m(profile(), [entry("ONLY")])
        assert [e.id for e in top] == ["ONLY"]

    def test_pool_entry_requires_terminal_status(self):
        with pytest.raises(ValueError, match="end"):
            PoolEntry(id="BAD", country="DE", age_at_relist=50.0,
                      dialysis_days_at_relist=0, relisted_within_1y=True,
                      r_days=100.0, t_days=300.0,
                      status_updates=((0, "T"),))

    def test_uniform_choice_among_top_five(self):
        entries = [entry(f"P{i}", r=300.0 + i, t=1000.0 + i)
                   for i in range(8)]
        pool = RelistingPool(entries)
        draws = Draws(7)
        seen = {select_pool_match(profile(r=300.0, t=1000.0), pool, draws).id
                for _ in range(200)}
        assert len(seen) == 5


class TestBuildSyntheticRelisting:
    def _recipient(self):
        return CandidateRegistration(
            id="C9", patient_id="C9", country="DE", center="DEBE1",
            blood_group="A", birth_day=to_days(date(1966, 3, 1)),
            registration_day=to_days(date(2018, 1, 1)),
            hla=HlaTyping(TYPING_BY_MM[(1, 1, 1)]),
            unacceptables=frozenset({"AX1"}),
            dialysis_start_day=to_days(date(2017, 6, 1)),
            profile=AllocationProfile(max_donor_age=60),
            mm_criteria=frozenset({(2, 2, 2)}),
        )

    def _donor_hla(self):
        return HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                          "DR": ("DR1", "DR4")})

    def test_combines_recipient_statics_with_match_dialysis(self, table):
        recipient = self._recipient()
        pool = RelistingPool([entry("M1", country="DE", age=56.0, dial=700,
                                    r=400.0, t=1200.0)])
        tx_day = to_days(date(2021, 6, 1))
        built = build_synthetic_relisting(
            recipient, recipient.unacceptables, tx_day,
            tx_day - recipient.dialysis_start_day, t_days=1200.0,
            relist_day=tx_day + 400, donor_hla=self._donor_hla(), pool=pool,
            table=table, immunization_p=1.0, draws=FixedDraws([0.5]),
            new_id="C9.r1")
        assert built is not None
        synthetic, match = built
        assert match.id == "M1"
        assert synthetic.id == "C9.r1"
        assert synthetic.patient_id == "C9"
        # statics copied from the recipient
        assert synthetic.hla == recipient.hla
        assert synthetic.blood_group == "A"
        assert synthetic.country == "DE"
        assert synthetic.prior_transplant
        # profiles, mismatch criteria, and screenings are NOT copied
        assert synthetic.profile is None
        assert synthetic.mm_criteria == frozenset()
        assert synthetic.last_screening_day is None
        # dialysis time at re-listing comes from the matched entry
        assert synthetic.birth_day == recipient.birth_day
        assert synthetic.registration_day == tx_day + 400
        assert synthetic.registration_day - synthetic.dialysis_start_day == 700
        # de novo immunization at p=1 adds every mismatched donor antigen
        assert synthetic.unacceptables == frozenset(
            {"AX1", "A2", "B7", "DR4"})

    def test_returns_none_when_pool_exhausted(self, table):
        recipient = self._recipient()
        pool = RelistingPool([entry("M1", r=300.0, t=900.0)])
        tx_day = to_days(date(2021, 6, 1))
        built = build_synthetic_relisting(
            recipient, frozenset(), tx_day, 1461, t_days=9000.0,
            relist_day=tx_day + 8000, donor_hla=self._donor_hla(), pool=pool,
            table=table, immunization_p=0.2, draws=FixedDraws([0.5]),
            new_id="C9.r1")
        assert built is None
