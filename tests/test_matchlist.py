"""Eligibility, filtering, tiers and points of the reference rules, and
the engine's agreement with them on random populations."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from etkasim.balances import BalanceEvent, BalanceLedger
from etkasim.common import to_days
from etkasim.entities import (AllocationProfile, CandidateRegistration,
                              Center, CenterRegistry, StatusUpdate,
                              expand_mm_patterns)
from etkasim.fastmatch import (POINT_COMPONENTS, CandidateStore, HlaIndex,
                               build_match_arrays)
from etkasim.hla import HlaTyping
from etkasim.policy import AgeFilterConfig

from fixtures_tables import (MATCH_DAY, TYPING_BY_MM, build_etkas_fixture,
                             build_esp_fixture)
from oracle.hla import compute_vpra, count_mismatches
from oracle.matchlist import (AGE_NOT_ELIGIBLE, AM_ACTIVE, BLOOD_GROUP,
                              GERMAN_CHOICE, HLA_UNKNOWN, NOT_OFFERABLE,
                              SCREENING_STALE, UNACCEPTABLE, CandidateState,
                              MatchPointContext, build_match_list,
                              esp_eligible, esp_filtered, esp_tier,
                              etkas_eligible, etkas_filtered, etkas_points,
                              etkas_tier)


@pytest.fixture(scope="module")
def fx():
    return build_etkas_fixture()


def base_state(fx, **overrides) -> CandidateState:
    reg = CandidateRegistration(
        id="X01", patient_id="X01", country="BE", center="BEC01",
        blood_group="A",
        birth_day=MATCH_DAY - int(50 * 365.25),
        registration_day=to_days(date(2018, 1, 1)),
        hla=HlaTyping(TYPING_BY_MM[(1, 1, 1)]),
        last_screening_day=MATCH_DAY - 10,
        initial_urgency="T",
    )
    reg_overrides = {k: v for k, v in overrides.items()
                     if k in CandidateRegistration.__dataclass_fields__}
    state_overrides = {k: v for k, v in overrides.items()
                       if k not in CandidateRegistration.__dataclass_fields__}
    if reg_overrides:
        reg = replace(reg, **reg_overrides)
    state = CandidateState.initial(reg)
    if state_overrides:
        state = replace(state, **state_overrides)
    return state


class TestEtkasEligibility:
    def test_clean_candidate_is_eligible(self, fx):
        ok, reasons = etkas_eligible(base_state(fx), fx["donor"], MATCH_DAY,
                                     fx["policy"], fx["table"])
        assert ok and reasons == []

    def test_blood_group_must_be_identical(self, fx):
        ok, reasons = etkas_eligible(base_state(fx, blood_group="O"),
                                     fx["donor"], MATCH_DAY, fx["policy"],
                                     fx["table"])
        assert not ok and BLOOD_GROUP in reasons

    def test_nt_candidates_never_offered(self, fx):
        ok, reasons = etkas_eligible(base_state(fx, urgency="NT"),
                                     fx["donor"], MATCH_DAY, fx["policy"],
                                     fx["table"])
        assert not ok and NOT_OFFERABLE in reasons

    def test_unknown_hla_blocks(self, fx):
        ok, reasons = etkas_eligible(base_state(fx, hla=None), fx["donor"],
                                     MATCH_DAY, fx["policy"], fx["table"])
        assert not ok and HLA_UNKNOWN in reasons

    def test_unacceptable_antigen_blocks(self, fx):
        state = base_state(fx, unacceptables=frozenset({"A1"}))
        ok, reasons = etkas_eligible(state, fx["donor"], MATCH_DAY,
                                     fx["policy"], fx["table"])
        assert not ok and reasons == [UNACCEPTABLE]

    def test_screening_boundary_at_180_days(self, fx):
        fresh = base_state(
            fx, last_screening_day=MATCH_DAY - 180)
        stale = base_state(
            fx, last_screening_day=MATCH_DAY - 181)
        ok_fresh, _ = etkas_eligible(fresh, fx["donor"], MATCH_DAY,
                                     fx["policy"], fx["table"])
        ok_stale, reasons = etkas_eligible(stale, fx["donor"], MATCH_DAY,
                                           fx["policy"], fx["table"])
        assert ok_fresh
        assert not ok_stale and reasons == [SCREENING_STALE]

    def test_never_screened_is_stale(self, fx):
        ok, reasons = etkas_eligible(base_state(fx, last_screening_day=None),
                                     fx["donor"], MATCH_DAY, fx["policy"],
                                     fx["table"])
        assert not ok and SCREENING_STALE in reasons

    def test_german_over_65_needs_etkas_choice(self, fx):
        old_dob = MATCH_DAY - int(70 * 365.25)
        undecided = base_state(fx, country="DE", center="DEC01",
                               birth_day=old_dob)
        ok, reasons = etkas_eligible(undecided, fx["donor"], MATCH_DAY,
                                     fx["policy"], fx["table"])
        assert not ok and GERMAN_CHOICE in reasons
        chooser = base_state(fx, country="DE", center="DEC01",
                             birth_day=old_dob,
                             german_program_choice="ETKAS")
        ok, _ = etkas_eligible(chooser, fx["donor"], MATCH_DAY,
                               fx["policy"], fx["table"])
        assert ok
        # non-German 70-year-olds stay eligible without any choice
        foreign = base_state(fx, birth_day=old_dob)
        ok, _ = etkas_eligible(foreign, fx["donor"], MATCH_DAY,
                               fx["policy"], fx["table"])
        assert ok

    def test_am_program_blocks(self, fx):
        ok, reasons = etkas_eligible(base_state(fx, am_program=True),
                                     fx["donor"], MATCH_DAY, fx["policy"],
                                     fx["table"])
        assert not ok and AM_ACTIVE in reasons
        ok, reasons = etkas_eligible(base_state(fx, urgency="I"), fx["donor"],
                                     MATCH_DAY, fx["policy"], fx["table"])
        assert not ok and AM_ACTIVE in reasons and NOT_OFFERABLE in reasons


class TestEtkasFiltering:
    def test_profile_donor_age_window(self, fx):
        donor = fx["donor"]  # age 45
        state = base_state(fx, profile=AllocationProfile(max_donor_age=40))
        mm = count_mismatches(fx["table"], donor.hla,
                              state.registration.hla)
        assert not etkas_filtered(state, donor, mm, fx["policy"])
        state = base_state(fx, profile=AllocationProfile(max_donor_age=50))
        assert etkas_filtered(state, donor, mm, fx["policy"])

    def test_mm_pattern_criteria(self, fx):
        donor = fx["donor"]
        state = base_state(fx, mm_criteria=expand_mm_patterns("**2"),
                           hla=HlaTyping(TYPING_BY_MM[(1, 0, 2)]))
        mm = count_mismatches(fx["table"], donor.hla, state.registration.hla)
        assert mm.mm_dr == 2
        assert not etkas_filtered(state, donor, mm, fx["policy"])
        # the same criteria leave a 1-DR-mismatch candidate visible
        state2 = base_state(fx, mm_criteria=expand_mm_patterns("**2"))
        mm2 = count_mismatches(fx["table"], donor.hla,
                               state2.registration.hla)
        assert etkas_filtered(state2, donor, mm2, fx["policy"])

    def test_filter_toggles(self, fx):
        donor = fx["donor"]
        cfg = replace(fx["policy"], filtering=replace(
            fx["policy"].filtering, apply_allocation_profiles=False))
        state = base_state(fx, profile=AllocationProfile(max_donor_age=40))
        mm = count_mismatches(fx["table"], donor.hla, state.registration.hla)
        assert etkas_filtered(state, donor, mm, cfg)


class TestTiers:
    def test_zero_mismatch_tier(self, fx):
        state = base_state(fx, hla=HlaTyping(TYPING_BY_MM[(0, 0, 0)]))
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        assert etkas_tier(state, fx["donor"], mm, MATCH_DAY,
                          fx["policy"]) == (3, 0)

    def test_pediatric_tier_needs_pediatric_donor(self, fx):
        young_dob = MATCH_DAY - int(10 * 365.25)
        state = base_state(fx, birth_day=young_dob)
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        adult_donor = fx["donor"]  # 45
        assert etkas_tier(state, adult_donor, mm, MATCH_DAY,
                          fx["policy"]) == (1, 0)
        ped_donor = replace(adult_donor, age=10)
        assert etkas_tier(state, ped_donor, mm, MATCH_DAY,
                          fx["policy"]) == (2, 0)

    def test_homozygosity_subtier_only_for_homozygous_donor(self, fx):
        homo_donor = replace(fx["donor"],
                             hla=HlaTyping({"A": ("A1",), "B": ("B5",),
                                            "DR": ("DR1",)}))
        state = base_state(fx, hla=HlaTyping({"A": ("A1", "A2"),
                                              "B": ("B5",),
                                              "DR": ("DR1",)}))
        mm = count_mismatches(fx["table"], homo_donor.hla,
                              state.registration.hla)
        assert mm.total == 0
        assert etkas_tier(state, homo_donor, mm, MATCH_DAY,
                          fx["policy"]) == (3, 2)


class TestEtkasPoints:
    def test_hla_points_floor_at_zero(self, fx):
        # 4 B+DR mismatches under 100-point B/DR weights: exactly zero
        cfg = fx["policy"].with_hla_betas(0.0, -100.0, -100.0)
        state = base_state(fx, hla=HlaTyping(TYPING_BY_MM[(0, 2, 2)]))
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        pts = etkas_points(state, fx["donor"], mm, fx["ledger"], cfg,
                           fx["ctx"], MATCH_DAY)
        assert pts.hla == 0.0
        # and never negative even when the raw sum would be
        cfg2 = fx["policy"].with_hla_betas(-100.0, -100.0, -100.0)
        state2 = base_state(fx, hla=HlaTyping(TYPING_BY_MM[(2, 2, 2)]))
        mm2 = count_mismatches(fx["table"], fx["donor"].hla,
                               state2.registration.hla)
        pts2 = etkas_points(state2, fx["donor"], mm2, fx["ledger"], cfg2,
                            fx["ctx"], MATCH_DAY)
        assert pts2.hla == 0.0

    def test_beta_a_zero_makes_points_invariant_to_mma(self, fx):
        cfg = fx["policy"].with_hla_betas(0.0, -66.7, -133.3)
        s1 = base_state(fx, hla=HlaTyping(TYPING_BY_MM[(0, 0, 1)]))
        s2 = base_state(fx, hla=HlaTyping(TYPING_BY_MM[(1, 0, 1)]))
        mm1 = count_mismatches(fx["table"], fx["donor"].hla,
                               s1.registration.hla)
        mm2 = count_mismatches(fx["table"], fx["donor"].hla,
                               s2.registration.hla)
        assert (mm1.mm_a, mm2.mm_a) == (0, 1)
        p1 = etkas_points(s1, fx["donor"], mm1, fx["ledger"], cfg, fx["ctx"],
                          MATCH_DAY)
        p2 = etkas_points(s2, fx["donor"], mm2, fx["ledger"], cfg, fx["ctx"],
                          MATCH_DAY)
        assert p1.hla == p2.hla

    def test_hu_points(self, fx):
        state = base_state(fx, urgency="HU")
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        pts = etkas_points(state, fx["donor"], mm, fx["ledger"], fx["policy"],
                           fx["ctx"], MATCH_DAY)
        assert pts.hu == 500.0

    def test_dialysis_time_clamped_at_zero(self, fx):
        state = base_state(fx, dialysis_start_day=MATCH_DAY + 30)
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        pts = etkas_points(state, fx["donor"], mm, fx["ledger"], fx["policy"],
                           fx["ctx"], MATCH_DAY)
        assert pts.dialysis == 0.0

    def test_age_filter_scales_total_not_components(self, fx):
        curve = ((-90.0, 0.5), (-5.0, 1.0), (5.0, 1.0), (20.0, 0.0),
                 (90.0, 0.0))
        cfg = replace(fx["policy"],
                      age_filter=AgeFilterConfig(enabled=True, curve=curve))
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"], cfg,
                              fx["ctx"], MATCH_DAY)
        for rec in ml.records:
            assert rec.total == pytest.approx(
                rec.age_filter_fraction * rec.points.raw_total)

    def test_without_age_filter_total_is_raw(self, fx):
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        for rec in ml.records:
            assert rec.age_filter_fraction == 1.0
            assert rec.total == pytest.approx(rec.points.raw_total)


class TestEspRules:
    def test_under_65_needs_opt_in(self):
        fx = build_esp_fixture()
        young_dob = MATCH_DAY - int(50 * 365.25)
        state = base_state(fx, birth_day=young_dob, blood_group="O")
        ok, reasons = esp_eligible(state, fx["donor"], MATCH_DAY,
                                   fx["policy"], fx["table"])
        assert not ok and reasons == [AGE_NOT_ELIGIBLE]
        opted = base_state(fx, birth_day=young_dob, blood_group="O",
                           esp_extended_opt_in=True)
        ok, _ = esp_eligible(opted, fx["donor"], MATCH_DAY, fx["policy"],
                             fx["table"])
        assert ok
        # eligible but filtered out of standard offers
        assert not esp_filtered(opted, fx["donor"], MATCH_DAY, fx["policy"])

    def test_german_etkas_chooser_filtered_not_ineligible(self):
        fx = build_esp_fixture()
        old_dob = MATCH_DAY - int(70 * 365.25)
        state = base_state(fx, country="DE", center="DEST1",
                           birth_day=old_dob, blood_group="O",
                           german_program_choice="ETKAS")
        ok, _ = esp_eligible(state, fx["donor"], MATCH_DAY, fx["policy"],
                             fx["table"])
        assert ok
        assert not esp_filtered(state, fx["donor"], MATCH_DAY, fx["policy"])

    def test_hla_mismatch_criteria_not_applied_in_esp(self):
        fx = build_esp_fixture()
        old_dob = MATCH_DAY - int(70 * 365.25)
        state = base_state(fx, country="DE", center="DEST1",
                           birth_day=old_dob, blood_group="O",
                           mm_criteria=expand_mm_patterns("***"))
        assert esp_filtered(state, fx["donor"], MATCH_DAY, fx["policy"])

    def test_tier_geography_order(self):
        fx = build_esp_fixture()
        old_dob = MATCH_DAY - int(70 * 365.25)
        subregion = base_state(fx, country="DE", center="DETU1",
                               birth_day=old_dob, blood_group="O")
        national = base_state(fx, country="DE", center="DEBE1",
                              birth_day=old_dob, blood_group="O")
        international = base_state(fx, country="NL", center="NLC01",
                                   birth_day=old_dob, blood_group="O")
        tiers = [esp_tier(s, fx["donor"], MATCH_DAY, fx["policy"],
                          fx["centers"])
                 for s in (subregion, national, international)]
        assert tiers[0] > tiers[1] > tiers[2]

    def test_hu_and_kaoo_subtiers(self):
        fx = build_esp_fixture()
        old_dob = MATCH_DAY - int(70 * 365.25)
        plain = base_state(fx, country="DE", center="DETU1",
                           birth_day=old_dob, blood_group="O")
        kaoo = base_state(fx, country="DE", center="DETU1", kaoo=True,
                          birth_day=old_dob, blood_group="O")
        hu = base_state(fx, country="DE", center="DETU1", urgency="HU",
                        birth_day=old_dob, blood_group="O")
        t_plain, t_kaoo, t_hu = (
            esp_tier(s, fx["donor"], MATCH_DAY, fx["policy"], fx["centers"])
            for s in (plain, kaoo, hu))
        assert t_hu > t_kaoo > t_plain


class TestPointInvariances:
    def test_points_independent_of_donor_age_without_filter(self, fx):
        # zero balances so the donor age group cannot leak in
        from etkasim.balances import BalanceLedger
        empty = BalanceLedger(fx["centers"].countries)
        state = base_state(fx)
        mm = count_mismatches(fx["table"], fx["donor"].hla,
                              state.registration.hla)
        young = etkas_points(state, replace(fx["donor"], age=25), mm, empty,
                             fx["policy"], fx["ctx"], MATCH_DAY)
        old = etkas_points(state, replace(fx["donor"], age=60), mm, empty,
                           fx["policy"], fx["ctx"], MATCH_DAY)
        assert young == old

    def test_scaling_all_weights_preserves_ordering(self, fx):
        import dataclasses
        rng = np.random.default_rng(21)
        regs = _random_population(fx, 100, rng, MATCH_DAY)
        states = [CandidateState.initial(
            reg, vpra=compute_vpra(reg.unacceptables, fx["panel"],
                                   fx["table"]))
            for reg in regs]
        cfg = fx["policy"]
        for lam in (2.0, 0.5):
            scaled = dataclasses.replace(
                cfg,
                hla_base_points=cfg.hla_base_points * lam,
                hla_mm_beta_a=cfg.hla_mm_beta_a * lam,
                hla_mm_beta_b=cfg.hla_mm_beta_b * lam,
                hla_mm_beta_dr=cfg.hla_mm_beta_dr * lam,
                dialysis_points_per_year=cfg.dialysis_points_per_year * lam,
                pediatric_bonus=cfg.pediatric_bonus * lam,
                hu_points=cfg.hu_points * lam,
                mmp_weight=cfg.mmp_weight * lam,
                balance_weight_default=cfg.balance_weight_default * lam,
                distance_points={
                    c: {g: p * lam for g, p in sched.items()}
                    for c, sched in cfg.distance_points.items()})
            base_order = [r.candidate_id for r in build_match_list(
                fx["donor"], states, fx["ledger"], cfg, fx["ctx"],
                MATCH_DAY).records]
            scaled_order = [r.candidate_id for r in build_match_list(
                fx["donor"], states, fx["ledger"], scaled, fx["ctx"],
                MATCH_DAY).records]
            assert base_order == scaled_order, lam

    def test_balance_weight_scaling_keeps_relative_order(self, fx):
        # two candidates identical except for their country's balance
        a = base_state(fx, country="BE", center="BEC02")   # balance 550
        b = base_state(fx, id="X02", patient_id="X02", country="HU",
                       center="HUC01")                      # balance 370
        for lam in (1.0, 2.0, 10.0):
            cfg = replace(fx["policy"],
                          balance_weight_default=BALANCE_WEIGHT_TIMES * lam)
            ml = build_match_list(fx["donor"], [a, b], fx["ledger"], cfg,
                                  fx["ctx"], MATCH_DAY)
            ordered = [r.candidate_id for r in ml.records]
            assert ordered == ["X01", "X02"], lam


BALANCE_WEIGHT_TIMES = 10.0


class TestOrderingProperties:
    def test_tier_one_beats_any_points(self, fx):
        rng = np.random.default_rng(2)
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        tiers = [r.tier for r in ml.records]
        totals = [r.total for r in ml.records]
        for i in range(len(ml.records) - 1):
            assert tiers[i] >= tiers[i + 1]
            if tiers[i] == tiers[i + 1]:
                assert totals[i] >= totals[i + 1]

    def test_tie_break_by_registration_date_then_id(self, fx):
        reg_a = base_state(fx).registration
        twin_regs = [
            replace(reg_a, id="T02", patient_id="T02",
                    registration_day=to_days(date(2019, 1, 1))),
            replace(reg_a, id="T01", patient_id="T01",
                    registration_day=to_days(date(2019, 1, 1))),
            replace(reg_a, id="T03", patient_id="T03",
                    registration_day=to_days(date(2018, 1, 1))),
        ]
        states = [CandidateState.initial(r) for r in twin_regs]
        ml = build_match_list(fx["donor"], states, fx["ledger"], fx["policy"],
                              fx["ctx"], MATCH_DAY)
        assert [r.candidate_id for r in ml.records] == ["T03", "T01", "T02"]


def _random_population(fx, n, rng, now_day):
    """Random registrations over the fixture's antigen/center universe."""
    mm_keys = list(TYPING_BY_MM)
    countries_centers = [("BE", "BEC01"), ("BE", "BEC02"), ("DE", "DEC01"),
                         ("DE", "DEST1"), ("DE", "DETU1"), ("HR", "HRC01"),
                         ("HU", "HUC01"), ("AT", "ATC01"), ("NL", "NLC01")]
    stripe_codes = [f"AX{i}" for i in range(10)]
    regs = []
    for i in range(n):
        country, center = countries_centers[int(rng.integers(0, len(countries_centers)))]
        age = float(rng.uniform(3, 80))
        dial_days = int(rng.integers(0, 4000)) if rng.random() < 0.9 else 0
        unacc = frozenset(
            str(c) for c in rng.choice(stripe_codes,
                                       int(rng.integers(0, 3)),
                                       replace=False))
        urgency = "T" if rng.random() < 0.9 else ("HU" if rng.random() < 0.5
                                                  else "NT")
        profile = None
        if rng.random() < 0.4:
            profile = AllocationProfile(
                max_donor_age=int(rng.integers(40, 90)),
                accept_extended_criteria=bool(rng.random() < 0.8))
        mm_criteria = frozenset()
        if rng.random() < 0.5:
            mm_criteria = expand_mm_patterns("222")
        regs.append(CandidateRegistration(
            id=f"P{i:03d}", patient_id=f"P{i:03d}", country=country,
            center=center,
            blood_group=("A" if rng.random() < 0.8 else "O"),
            birth_day=now_day - int(age * 365.25),
            registration_day=now_day - int(rng.integers(10, 3000)),
            hla=HlaTyping(TYPING_BY_MM[mm_keys[int(rng.integers(0, len(mm_keys)))]]),
            unacceptables=unacc,
            dialysis_start_day=now_day - dial_days if dial_days else None,
            last_screening_day=(now_day - int(rng.integers(0, 250))
                                if rng.random() < 0.95 else None),
            initial_urgency=urgency,
            profile=profile,
            mm_criteria=mm_criteria,
            esp_extended_opt_in=bool(rng.random() < 0.1),
            german_program_choice=("ETKAS" if rng.random() < 0.3 else None),
            kaoo=bool(rng.random() < 0.05),
        ))
    return regs


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("donor_age,seed", [(45, 1), (45, 2), (70, 3),
                                                (70, 4), (12, 5)])
    def test_paths_agree_on_random_populations(self, fx, donor_age, seed):
        rng = np.random.default_rng(seed)
        regs = _random_population(fx, 120, rng, MATCH_DAY)
        donor = replace(fx["donor"], age=donor_age)

        states = [CandidateState.initial(
            reg, vpra=compute_vpra(reg.unacceptables, fx["panel"],
                                   fx["table"]))
            for reg in regs]
        ml = build_match_list(donor, states, fx["ledger"], fx["policy"],
                              fx["ctx"], MATCH_DAY)

        index = HlaIndex(fx["table"])
        store = CandidateStore(index, fx["centers"], fx["panel"], fx["freq"],
                               fx["bg"], fx["policy"])
        for reg in regs:
            store.extend([reg], [None])
        arrays = build_match_arrays(store, donor,
                                    store.hla_index.donor_hla(donor.hla),
                                    fx["ledger"], fx["policy"], MATCH_DAY)

        assert arrays.program == ml.program
        assert tuple(arrays.comp) == POINT_COMPONENTS
        vec_ids = [store.ids[int(r)] for r in arrays.rows]
        assert vec_ids == [r.candidate_id for r in ml.records]
        for i, rec in enumerate(ml.records):
            assert bool(arrays.filtered[i]) == rec.filtered_visible, rec
            assert float(arrays.total[i]) == pytest.approx(rec.total)
            assert (int(arrays.mm_a[i]), int(arrays.mm_b[i]),
                    int(arrays.mm_dr[i])) == rec.mm.as_tuple()
            for name, col in arrays.comp.items():
                assert float(col[i]) == pytest.approx(
                    getattr(rec.points, name)), (name, rec.candidate_id)

    def test_paths_agree_under_age_filter_and_sliding_scale(self, fx):
        from etkasim.policy import SlidingScaleConfig
        rng = np.random.default_rng(9)
        regs = _random_population(fx, 80, rng, MATCH_DAY)
        cfg = replace(
            fx["policy"],
            age_filter=AgeFilterConfig(enabled=True),
            sliding_scale=SlidingScaleConfig(enabled=True, max_points=133.0,
                                             base=5.0,
                                             hmpp_replaces_mmp=True))
        states = [CandidateState.initial(
            reg, vpra=compute_vpra(reg.unacceptables, fx["panel"],
                                   fx["table"]))
            for reg in regs]
        ctx = fx["ctx"]
        # scalar path needs the empirical 1-mismatch frequency per candidate
        from oracle.hla import p_leq1mm_empirical
        for reg in regs:
            ctx.set_f_leq1mm_empirical(
                reg.id, p_leq1mm_empirical(fx["table"], reg.hla, frozenset(),
                                           fx["panel"]))
        ml = build_match_list(fx["donor"], states, fx["ledger"], cfg, ctx,
                              MATCH_DAY)
        index = HlaIndex(fx["table"])
        store = CandidateStore(index, fx["centers"], fx["panel"], fx["freq"],
                               fx["bg"], cfg)
        for reg in regs:
            store.extend([reg], [None])
        arrays = build_match_arrays(
            store, fx["donor"], store.hla_index.donor_hla(fx["donor"].hla),
            fx["ledger"], cfg, MATCH_DAY)
        vec_ids = [store.ids[int(r)] for r in arrays.rows]
        assert vec_ids == [r.candidate_id for r in ml.records]
        for i, rec in enumerate(ml.records):
            assert float(arrays.total[i]) == pytest.approx(rec.total)
            assert float(arrays.comp["mmp"][i]) == pytest.approx(
                rec.points.mmp)

    @pytest.mark.parametrize("donor_age", [45, 70])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_paths_agree_under_heavy_ties(self, fx, donor_age, seed):
        """Few distinct HLA typings, dialysis starts and registration dates
        make (tier, total) ties common; two Austrian regions with different
        non-zero regional balances make the regional key decide some of
        them, and registration date and id decide the rest."""
        centers = CenterRegistry(list(fx["centers"].centers())
                                 + [Center("ATC02", "AT", "AT-R2")])
        ledger = BalanceLedger(centers.countries, ["AT-R1", "AT-R2"])
        day = MATCH_DAY - 30
        for _ in range(3):
            ledger.record_transfer(BalanceEvent(day, "AT", "DE", 30, "AM",
                                                donor_region="AT-R1"))
        for _ in range(2):
            ledger.record_transfer(BalanceEvent(day, "DE", "AT", 30, "AM",
                                                recipient_region="AT-R2"))
        ctx = MatchPointContext(fx["table"], centers, fx["bg"], fx["freq"])

        rng = np.random.default_rng(seed)
        places = [("AT", "ATC01"), ("AT", "ATC02"), ("AT", "ATC01"),
                  ("AT", "ATC02"), ("BE", "BEC01"), ("BE", "BEC02"),
                  ("DE", "DEC01"), ("NL", "NLC01")]
        typings = [TYPING_BY_MM[(1, 1, 1)], TYPING_BY_MM[(2, 0, 2)]]
        reg_days = [to_days(date(year, 3, 1)) for year in (2016, 2017, 2018)]
        dial_starts = [None, to_days(date(2018, 1, 1)),
                       to_days(date(2019, 1, 1))]
        n = 200
        # ids run against registration order, so neither date nor id order
        # matches the order rows enter the store
        ids = rng.permutation(n)
        regs = []
        for i in range(n):
            country, center = places[int(rng.integers(0, len(places)))]
            age = 40.0 if rng.random() < 0.5 else 70.0
            regs.append(CandidateRegistration(
                id=f"Q{ids[i]:03d}", patient_id=f"Q{ids[i]:03d}",
                country=country, center=center, blood_group="A",
                birth_day=MATCH_DAY - int(age * 365.25),
                registration_day=reg_days[-1 - (i * 3) // n],
                hla=HlaTyping(typings[int(rng.integers(0, 2))]),
                dialysis_start_day=dial_starts[int(rng.integers(0, 3))],
                last_screening_day=MATCH_DAY - 10,
                initial_urgency="T",
                kaoo=bool(rng.random() < 0.1)))
        donor = replace(fx["donor"], age=donor_age)

        states = [CandidateState.initial(
            reg, vpra=compute_vpra(reg.unacceptables, fx["panel"],
                                   fx["table"]))
            for reg in regs]
        ml = build_match_list(donor, states, ledger, fx["policy"], ctx,
                              MATCH_DAY)
        store = CandidateStore(HlaIndex(fx["table"]), centers, fx["panel"],
                               fx["freq"], fx["bg"], fx["policy"])
        for reg in regs:
            store.extend([reg], [None])
        arrays = build_match_arrays(store, donor,
                                    store.hla_index.donor_hla(donor.hla),
                                    ledger, fx["policy"], MATCH_DAY)

        assert arrays.program == ml.program == (
            "ETKAS" if donor_age < 65 else "ESP")
        keys = list(zip(arrays.tier.tolist(), arrays.total.tolist()))
        assert len(set(keys)) * 4 < len(keys)
        if ml.program == "ETKAS":
            # the regional key separates rows tied on tier and total
            tied_regions = {}
            for key, row in zip(keys, arrays.rows):
                if store.country_idx[row] == store.country_of["AT"]:
                    tied_regions.setdefault(key, set()).add(
                        store.regions[int(store.region_idx[row])])
            assert any(len(r) == 2 for r in tied_regions.values())
        assert ([store.ids[int(r)] for r in arrays.rows]
                == [r.candidate_id for r in ml.records])


class TestRuntimeDerivedValues:
    """Rows added or given new unacceptables during a run derive exactly the
    vPRA, p<=1mm and immunization points a freshly loaded store gives them."""

    @pytest.fixture(params=["mmp", "sliding_scale"])
    def cfg(self, request, fx):
        from etkasim.policy import SlidingScaleConfig
        if request.param == "mmp":
            return fx["policy"]
        return replace(fx["policy"], sliding_scale=SlidingScaleConfig(
            enabled=True, max_points=133.0, base=5.0, hmpp_replaces_mmp=True))

    @staticmethod
    def _store(fx, regs, cfg):
        store = CandidateStore(HlaIndex(fx["table"]), fx["centers"],
                               fx["panel"], fx["freq"], fx["bg"], cfg)
        for reg in regs:
            store.extend([reg], [None])
        store.finalize_derived_values()
        return store

    @staticmethod
    def _assert_same_derived(store, fresh):
        n = fresh.n
        assert store.n == n
        for name in ("vpra", "p1mm", "immun_pts"):
            np.testing.assert_array_equal(getattr(store, name)[:n],
                                          getattr(fresh, name)[:n],
                                          err_msg=name)

    @pytest.mark.parametrize("unacceptables",
                             [frozenset({"AX3", "AX7"}), frozenset()])
    def test_unacceptables_update(self, fx, cfg, unacceptables):
        regs = _random_population(fx, 60, np.random.default_rng(4),
                                  MATCH_DAY)
        store = self._store(fx, regs, cfg)
        row = int(np.flatnonzero(store.vpra[:store.n] > 0)[0])
        before = float(store.vpra[row])
        store.apply_update(row, StatusUpdate(regs[row].id,
                                             MATCH_DAY, "UNA",
                                             unacceptables))
        build_match_arrays(
            store, fx["donor"], store.hla_index.donor_hla(fx["donor"].hla),
            fx["ledger"], cfg, MATCH_DAY)
        regs[row] = replace(regs[row], unacceptables=unacceptables)
        fresh = self._store(fx, regs, cfg)
        self._assert_same_derived(store, fresh)
        assert float(store.vpra[row]) != before
        if not unacceptables:
            assert store.vpra[row] == 0.0

    def test_runtime_add(self, fx, cfg):
        regs = _random_population(fx, 60, np.random.default_rng(5),
                                  MATCH_DAY)
        regs.append(replace(regs[0], id="LATE", patient_id="LATE",
                            unacceptables=frozenset({"AX1", "AX4"})))
        store = self._store(fx, regs[:-1], cfg)
        store.extend([regs[-1]], [None])
        build_match_arrays(
            store, fx["donor"], store.hla_index.donor_hla(fx["donor"].hla),
            fx["ledger"], cfg, MATCH_DAY)
        fresh = self._store(fx, regs, cfg)
        self._assert_same_derived(store, fresh)
        assert store.vpra[store.row_of["LATE"]] > 0.0


def test_integer_age_equals_float_floor_division():
    from etkasim.common import DAYS_PER_YEAR, age_years
    dob = np.arange(-80000, 40000, dtype=np.int32)
    now = MATCH_DAY
    expected = ((now - dob) // DAYS_PER_YEAR).astype(np.int32)
    # the match list's int32 ages
    np.testing.assert_array_equal(age_years(now, dob), expected)
    # a transplant's candidate age and a re-listing's age, from Python ints;
    # the re-listing age was int(days / 365.25), equal for days >= 0
    ages = [age_years(now, day) for day in dob.tolist()]
    assert ages == expected.tolist()
    assert [int((now - day) / 365.25) for day in dob.tolist()
            if day <= now] == [a for a, day in zip(ages, dob.tolist())
                               if day <= now]
