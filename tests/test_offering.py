"""Offering cascade: max-offer sampling, acceptance decisions, fallback."""

from __future__ import annotations

from dataclasses import replace
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest

from etkasim.common import InputError, to_days
from etkasim.entities import DonorArrival
from etkasim.hla import HlaTyping
from etkasim import offering
from etkasim.offering import (DONOR_FEATURES, PATIENT_FEATURES,
                              AcceptanceModels, CoxSampler, LogisticModel,
                              EXP_LIMIT, MissingFeatureError,
                              PredictorOverflowError, StepSurvival,
                              UnknownStratumError, center_vocabulary,
                              donor_features, dual_features)

from fake_draws import FixedDraws
from oracle.offering import (OfferContext, OfferRecord, SequenceOffers,
                             patient_offer_features)


def make_donor(kidneys=2, age=45):
    return DonorArrival(
        id="D1", report_day=to_days(date(2021, 6, 1)), age=age,
        blood_group="A",
        country="BE", center="BEC01",
        hla=HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                       "DR": ("DR1", "DR4")}),
        kidneys_available=kidneys)


def constant_model(p: float, model_id="const") -> LogisticModel:
    # intercept = logit(p)
    import math
    if p <= 0.0:
        intercept = -745.0
    elif p >= 1.0:
        intercept = 745.0
    else:
        intercept = math.log(p / (1 - p))
    return LogisticModel(model_id=model_id, intercept=intercept,
                         coefficients={})


def models(center_p=1.0, patient_p=1.0, dual=constant_model(0.5, "dual")):
    return AcceptanceModels(center=constant_model(center_p, "center"),
                            patient=constant_model(patient_p, "patient"),
                            dual=dual)


class Offer(NamedTuple):
    """One row of the offer trace."""
    donor_id: str
    candidate_id: str
    center: str
    stage: str
    decision: str
    probability: float | None


class Walk(NamedTuple):
    acceptances: list
    unplaced: int
    trace: list[Offer]


def run_allocation(records, donor, k_max, models, draws,
                   unplaced_mode="discard") -> Walk:
    """``offering.run_allocation`` over a list of OfferRecord, with
    intercept-only center models, and the offer trace it writes."""
    trace: list[tuple] = []
    feats = donor_features(donor)
    outcome = offering.run_allocation(
        SequenceOffers(records, models.patient), donor, k_max, draws,
        unplaced_mode, lambda center: models.center.predict({}),
        lambda age, rescue: models.dual.predict(
            dual_features(feats, age, rescue)), trace)
    return Walk(outcome.acceptances, outcome.unplaced,
                [Offer(*entry) for entry in trace])


def record(i, center="C1", filtered=True, same_region=True,
           same_country=True, prob=None):
    return OfferRecord(candidate_id=f"K{i:02d}", center=center,
                       filtered_visible=filtered, rank=i,
                       same_region=same_region, same_country=same_country,
                       patient_features={}, candidate_age=50.0,
                       patient_probability=prob)


class TestLogisticModel:
    def test_lp_zero_gives_half(self):
        m = LogisticModel("m", 0.0, {})
        assert m.predict({}) == 0.5

    def test_intercept_two(self):
        m = LogisticModel("m", 2.0, {})
        assert m.predict({}) == pytest.approx(0.88079707797788, rel=1e-12)

    def test_monotone_in_positive_coefficient(self):
        m = LogisticModel("m", 0.0, {"x": 1.5})
        assert m.predict({"x": 2.0}) > m.predict({"x": 1.0})

    def test_missing_feature_is_named(self):
        m = LogisticModel("mymodel", 0.0, {"donor_age": 0.1})
        with pytest.raises(MissingFeatureError, match="donor_age"):
            m.predict({})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.csv"
        # header lines other than #model_id are ignored
        path.write_text("#model_id=test_model\n#feature_schema=2\n"
                        "name,value\n(Intercept),0.5\ndonor_age,-0.01\n")
        m = LogisticModel.from_file(path, DONOR_FEATURES)
        assert m.model_id == "test_model"
        assert m.intercept == 0.5
        assert m.coefficients == {"donor_age": -0.01}


class TestCoefficientReader:
    def test_center_models_take_registry_countries(self, tmp_path):
        path = tmp_path / "center.csv"
        path.write_text("name,value\n(Intercept),1.0\n"
                        "center_country_DE,0.2\n")
        m = LogisticModel.from_file(path, center_vocabulary(["DE", "NL"]))
        assert (m.model_id, m.intercept) == ("center", 1.0)
        assert m.coefficients == {"center_country_DE": 0.2}
        with pytest.raises(InputError, match=r"center\.csv:3: model 'center' "
                           r"has no feature 'center_country_DE'"):
            LogisticModel.from_file(path, center_vocabulary(["NL"]))

    def test_patient_models_take_the_column_table(self, tmp_path):
        path = tmp_path / "patient.csv"
        path.write_text("name,value\nmm_dr,-0.1\ncand_pediatric,0.3\n"
                        "donor_hcv,-1\n")
        m = LogisticModel.from_file(path, PATIENT_FEATURES)
        assert list(m.coefficients) == ["mm_dr", "cand_pediatric",
                                        "donor_hcv"]
        with pytest.raises(InputError, match="no feature 'mm_dr'"):
            LogisticModel.from_file(path, DONOR_FEATURES)

    def test_cox_coefficients_have_no_intercept(self, tmp_path):
        coefs = tmp_path / "cox.csv"
        coefs.write_text("name,value\n(Intercept),0.5\n")
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("stratum,k,s0\nESP,1,0.5\nETKAS:default,1,0.5\n")
        with pytest.raises(InputError, match=r"cox\.csv:2: .*'\(Intercept\)'"):
            CoxSampler.from_files(coefs, baselines, ["BE"])
        coefs.write_text("name,value\ndonor_hcv,0.5\n")
        sampler = CoxSampler.from_files(coefs, baselines, ["BE"])
        assert sampler.baseline("ETKAS", "BE") == sampler.baselines[
            "ETKAS:default"]

    def test_baselines_cover_every_country(self, tmp_path):
        coefs = tmp_path / "cox.csv"
        coefs.write_text("name,value\n")
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("stratum,k,s0\nESP,1,0.5\nETKAS:BE,1,0.5\n")
        CoxSampler.from_files(coefs, baselines, ["BE"])
        with pytest.raises(InputError, match=r"baselines\.csv: no baseline "
                           r"survival for stratum 'ETKAS:NL'"):
            CoxSampler.from_files(coefs, baselines, ["BE", "NL"])


class TestCoxSampler:
    def _sampler(self, s0=None, coefs=None):
        s0 = s0 or StepSurvival(ks=tuple(range(1, 41)),
                                s0=tuple(np.exp(-0.1 * k)
                                         for k in range(1, 41)))
        return CoxSampler(coefs or {}, {"ETKAS:BE": s0, "ESP": s0},
                          model_id="max_offers")

    def test_unknown_stratum(self):
        sampler = self._sampler()
        with pytest.raises(UnknownStratumError):
            sampler.sample("ETKAS", "XX", {}, 0.5)

    def test_immediate_crossing_for_u_near_one(self):
        sampler = self._sampler()
        assert sampler.sample("ETKAS", "BE", {}, 0.999999) == 1

    def test_step_walk_oracle(self):
        s0 = StepSurvival(ks=(1, 2, 3), s0=(0.8, 0.5, 0.2))
        sampler = CoxSampler({}, {"ETKAS:BE": s0}, model_id="max_offers")
        # u above S(1): k=1; between S(2) and S(1): k=2; below S(3): None
        assert sampler.sample("ETKAS", "BE", {}, 0.9) == 1
        assert sampler.sample("ETKAS", "BE", {}, 0.8) == 1
        assert sampler.sample("ETKAS", "BE", {}, 0.7) == 2
        assert sampler.sample("ETKAS", "BE", {}, 0.3) == 3
        assert sampler.sample("ETKAS", "BE", {}, 0.1) is None

    def test_lp_zero_matches_baseline_distribution(self):
        ks = tuple(range(1, 61))
        s0 = tuple(float(np.exp(-0.08 * k)) for k in ks)
        sampler = CoxSampler({}, {"ESP": StepSurvival(ks=ks, s0=s0)},
                             model_id="max_offers")
        rng = np.random.default_rng(99)
        draws = []
        for _ in range(10_000):
            k = sampler.sample("ESP", "", {}, rng.random())
            draws.append(k if k is not None else ks[-1] + 1)
        draws = np.array(draws)
        # KS distance between the empirical CDF and 1 - S0
        max_diff = 0.0
        for k, s in zip(ks, s0):
            emp = float((draws <= k).mean())
            max_diff = max(max_diff, abs(emp - (1.0 - s)))
        assert max_diff < 0.02

    def test_linear_predictor_shifts_distribution(self):
        ks = tuple(range(1, 61))
        s0 = tuple(float(np.exp(-0.08 * k)) for k in ks)
        sampler = CoxSampler({"donor_extended": 1.0},
                             {"ESP": StepSurvival(ks=ks, s0=s0)},
                             model_id="max_offers")
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        base = [sampler.sample("ESP", "", {"donor_extended": 0.0},
                               rng1.random())
                or 99 for _ in range(2000)]
        fast = [sampler.sample("ESP", "", {"donor_extended": 1.0},
                               rng2.random())
                or 99 for _ in range(2000)]
        assert np.mean(fast) < np.mean(base)

    def test_overflow_bound_is_exact(self):
        # math.exp overflows just above EXP_LIMIT and nowhere below it
        at = self._sampler(coefs={"donor_dcd": EXP_LIMIT})
        assert at.relative_risk({"donor_dcd": 1.0}) < float("inf")
        above = self._sampler(coefs={"donor_dcd": np.nextafter(EXP_LIMIT,
                                                               np.inf)})
        with pytest.raises(PredictorOverflowError):
            above.relative_risk({"donor_dcd": 1.0})

    def test_overflow_names_the_donor_and_its_largest_term(self):
        # donor_age_dec is the age in decades: at 200 a decade, a donor of
        # 35 stays below EXP_LIMIT and one of 80 does not
        sampler = self._sampler(coefs={"donor_age_dec": 200.0,
                                       "donor_extended": 5.0})
        young = make_donor(age=35)
        old = replace(make_donor(age=80), id="D2", extended_criteria=True)
        sampler.check_bound([young])
        assert sampler.sample("ETKAS", "BE", donor_features(young), 0.5) == 1
        with pytest.raises(PredictorOverflowError) as caught:
            sampler.check_bound([young, old])
        message = ("max-offer Cox predictor 1605.0 overflows exp above "
                   "709.8, driven by donor_age_dec = 8 (term 1600.0)")
        assert str(caught.value) == f"donor 'D2': {message}"
        # the engine's own draw meets the same bound, with the same words
        with pytest.raises(PredictorOverflowError) as caught:
            sampler.sample("ETKAS", "BE", donor_features(old), 0.5)
        assert str(caught.value) == message


class TestRunAllocation:
    def test_all_accepting_takes_the_top(self):
        recs = [record(i) for i in range(1, 6)]
        out = run_allocation(recs, make_donor(2), k_max=10,
                             models=models(1.0, 1.0), draws=FixedDraws([0.5]))
        assert [a.candidate_id for a in out.acceptances] == ["K01", "K02"]
        assert all(a.mechanism == "standard" for a in out.acceptances)
        assert out.unplaced == 0

    def test_all_declining_discard_mode(self):
        recs = [record(i) for i in range(1, 6)]
        out = run_allocation(recs, make_donor(2), k_max=100,
                             models=models(1.0, 0.0), draws=FixedDraws([0.5]),
                             unplaced_mode="discard")
        assert out.acceptances == []
        assert out.unplaced == 2

    def test_force_accept_picks_argmax_probability(self):
        # distinct per-record probabilities, all too small to accept at
        # u = 0.999, so the walk declines everyone and the force step must
        # pick the exhaustive argmax
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.0, 0.9, size=12)
        recs = [record(i + 1, prob=float(p)) for i, p in enumerate(probs)]
        out = run_allocation(recs, make_donor(1), k_max=None,
                             models=models(1.0, 0.5),
                             draws=FixedDraws([0.999]),
                             unplaced_mode="force")
        assert len(out.acceptances) == 1
        acc = out.acceptances[0]
        assert acc.forced and acc.mechanism == "non_standard"
        assert acc.candidate_id == recs[int(np.argmax(probs))].candidate_id
        assert out.unplaced == 0

    def test_force_accept_tie_breaks_by_rank(self):
        recs = [record(i, prob=0.0) for i in range(1, 5)]
        out = run_allocation(recs, make_donor(1), k_max=None,
                             models=models(1.0, 0.5),
                             draws=FixedDraws([0.999]),
                             unplaced_mode="force")
        assert out.acceptances[0].candidate_id == "K01"

    def test_center_decline_skips_whole_center(self):
        recs = [record(1, center="C1"), record(2, center="C1"),
                record(3, center="C2")]
        # center draw for C1 fails (u=0.9 >= p=0.5), C2 succeeds (u=0.1),
        # then its patient accepts (u=0.1 < 1.0)
        draws = FixedDraws([0.9, 0.1, 0.1])
        out = run_allocation(recs, make_donor(1), k_max=10,
                             models=models(0.5, 1.0), draws=draws)
        assert [a.candidate_id for a in out.acceptances] == ["K03"]
        decisions = [(t.candidate_id, t.decision) for t in out.trace]
        assert decisions == [("K01", "center_decline"), ("K02", "center_skip"),
                             ("K03", "accept")]

    def test_center_decline_counts_once_toward_k_max(self):
        recs = [record(1, center="C1"), record(2, center="C1"),
                record(3, center="C1"), record(4, center="C2")]
        # k_max=1: the single center-level decline exhausts standard
        # allocation; K04 is then reached in the non-standard phase
        draws = FixedDraws([0.9, 0.1, 0.1])
        out = run_allocation(recs, make_donor(1), k_max=1,
                             models=models(0.5, 1.0), draws=draws)
        assert out.acceptances[0].candidate_id == "K04"
        assert out.acceptances[0].mechanism == "non_standard"

    def test_k_max_triggers_non_standard_with_vicinity_priority(self):
        recs = [
            record(1, center="C1", same_region=False, same_country=False),
            record(2, center="C2", same_region=False, same_country=False),
            record(3, center="C3", same_region=False, same_country=True),
            record(4, center="C4", same_region=True, same_country=True),
        ]
        # patient model p=0.4: first two offers decline (u=0.5), k_max=2
        # reached; then the walk re-orders remaining records by vicinity so
        # K04 (same region) is offered before K03, accepting at u=0.1
        draws = FixedDraws([0.1, 0.5, 0.1, 0.5, 0.1, 0.1])
        out = run_allocation(recs, make_donor(1), k_max=2,
                             models=models(1.0, 0.4), draws=draws)
        assert [a.candidate_id for a in out.acceptances] == ["K04"]
        assert out.acceptances[0].mechanism == "non_standard"

    def test_unfiltered_only_candidates_reached_in_non_standard(self):
        recs = [record(1, filtered=False, prob=1.0), record(2, prob=0.0),
                record(3, prob=0.0)]
        out = run_allocation(recs, make_donor(1), k_max=5,
                             models=models(1.0, 0.5), draws=FixedDraws([0.5]))
        assert [a.candidate_id for a in out.acceptances] == ["K01"]
        assert out.acceptances[0].mechanism == "non_standard"
        # standard-phase trace entries only reference filtered records
        standard = [t for t in out.trace if t.stage == "standard"]
        assert all(t.candidate_id in ("K02", "K03") for t in standard)

    def test_standard_trace_is_prefix_of_filtered_list(self):
        rng = np.random.default_rng(12)
        recs = [record(i, center=f"C{i % 4}", filtered=bool(i % 3))
                for i in range(1, 15)]
        out = run_allocation(recs, make_donor(2), k_max=6,
                             models=models(0.7, 0.3),
                             draws=FixedDraws(
                                 np.random.default_rng(5).random(1000)))
        filtered_ids = [r.candidate_id for r in recs if r.filtered_visible]
        standard_ids = [t.candidate_id for t in out.trace
                        if t.stage == "standard"]
        assert standard_ids == filtered_ids[:len(standard_ids)]

    def test_acceptances_never_exceed_kidneys(self):
        for seed in range(20):
            draws = FixedDraws(np.random.default_rng(seed).random(1000))
            recs = [record(i, center=f"C{i % 3}") for i in range(1, 10)]
            donor = make_donor(2 if seed % 2 else 1)
            out = run_allocation(recs, donor, k_max=4,
                                 models=models(0.6, 0.4), draws=draws,
                                 unplaced_mode="force")
            placed = sum(a.kidneys for a in out.acceptances)
            assert placed + out.unplaced == donor.kidneys_available
            ids = [a.candidate_id for a in out.acceptances]
            assert len(ids) == len(set(ids))


class TestDual:
    def test_dual_consumes_both_kidneys(self):
        recs = [record(1), record(2)]
        out = run_allocation(recs, make_donor(2), k_max=5,
                             models=models(1.0, 1.0,
                                           dual=constant_model(1.0, "dual")),
                             draws=FixedDraws([0.5], dual=0.5))
        assert len(out.acceptances) == 1
        assert out.acceptances[0].kidneys == 2
        assert out.unplaced == 0

    def test_no_dual_draw_for_single_kidney(self):
        # a dual model that would always fire cannot touch a 1-kidney donor
        recs = [record(1), record(2)]
        out = run_allocation(recs, make_donor(1), k_max=5,
                             models=models(1.0, 1.0,
                                           dual=constant_model(1.0, "dual")),
                             draws=FixedDraws([0.5], dual=0.5))
        assert [a.kidneys for a in out.acceptances] == [1]

    def test_dual_fires_when_its_uniform_is_below_p(self):
        recs = [record(1), record(2)]
        for p, u, kidneys in ((1.0, 0.99, [2]), (0.0, 0.5, [1, 1])):
            out = run_allocation(recs, make_donor(2), k_max=5,
                                 models=models(1.0, 1.0, dual=constant_model(
                                     p, "dual")),
                                 draws=FixedDraws([0.5], dual=u))
            assert [a.kidneys for a in out.acceptances] == kidneys


class TestFeatureExtraction:
    def test_donor_features_cover_models(self):
        feats = donor_features(make_donor())
        assert feats["donor_age"] == 45.0
        assert feats["donor_bg_A"] == 1.0
        assert feats["donor_death_other"] == 1.0

    def test_patient_features_match_context(self):
        ctx = OfferContext(candidate_age=60.0, pediatric=False, hu=True,
                           vpra=0.4, dialysis_years=3.0,
                           prior_transplant=True, mm_total=3, mm_dr=1,
                           geography="national", rank=7)
        feats = patient_offer_features(make_donor(), ctx)
        assert feats["cand_hu"] == 1.0
        assert feats["age_diff_abs"] == 15.0
        assert feats["match_national"] == 1.0
        assert feats["offer_rank"] == 7.0
