"""Match lists one candidate at a time: eligibility, filtering, tiers, points.

ETKAS ranks candidates in three tiers (zero ABDR mismatch, pediatric donor
to pediatric candidate, everyone else) and within tiers by points.  ESP
ranks by a per-country geography tier table with high-urgency and
kidney-after-other-organ subtiers, and within tiers by accrued dialysis
days.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from etkasim.balances import (AUSTRIA, BalanceEvent, BalanceLedger,
                              donor_age_group)
from etkasim.common import DAYS_PER_YEAR, round_half_up
from etkasim.entities import (ESP, ETKAS, GERMANY, AllocationProfile,
                              CandidateRegistration, CenterRegistry,
                              DonorArrival, geography_class)
from etkasim.hla import (AntigenTable, BloodGroupFrequencies, FrequencyTable,
                         compute_hmpp_fraction)
from etkasim.policy import PolicyConfig, sliding_scale_points

from .hla import (MismatchCount, MmpInputs, carried_codes, compute_mmp,
                  count_mismatches, homozygosity_level, is_homozygous,
                  p_leq1mm_analytic)

OFFERABLE_CODES = ("T", "HU")


@dataclass(frozen=True)
class CandidateState:
    """Snapshot of one registration's dynamic state.

    The engine keeps the same information in the columns of a
    ``CandidateStore``.  Like the registration it holds day numbers (days
    since 1970-01-01), or None when unknown.
    """

    registration: CandidateRegistration
    urgency: str
    unacceptables: frozenset[str]
    profile: AllocationProfile | None
    mm_criteria: frozenset[tuple[int, int, int]]
    last_screening_day: int | None
    dialysis_start_day: int | None
    esp_extended_opt_in: bool
    german_program_choice: str | None
    vpra: float = 0.0

    @classmethod
    def initial(cls, reg: CandidateRegistration, vpra: float = 0.0) -> "CandidateState":
        return cls(
            registration=reg,
            urgency=reg.initial_urgency,
            unacceptables=reg.unacceptables,
            profile=reg.profile,
            mm_criteria=reg.mm_criteria,
            last_screening_day=reg.last_screening_day,
            dialysis_start_day=reg.dialysis_start_day,
            esp_extended_opt_in=reg.esp_extended_opt_in,
            german_program_choice=reg.german_program_choice,
            vpra=vpra,
        )

    def dialysis_days(self, now_day: int) -> int:
        if self.dialysis_start_day is None:
            return 0
        return max(0, now_day - self.dialysis_start_day)


def profile_accepts(profile: AllocationProfile, donor: DonorArrival) -> bool:
    """Whether a center's allocation profile admits the donor."""
    if not profile.min_donor_age <= donor.age <= profile.max_donor_age:
        return False
    if donor.dcd and not profile.accept_dcd:
        return False
    if donor.extended_criteria and not profile.accept_extended_criteria:
        return False
    if donor.hcv_positive and not profile.accept_hcv_positive:
        return False
    if donor.hbsag_positive and not profile.accept_hbsag_positive:
        return False
    return True


def init_ledger(history: Sequence[BalanceEvent], start_day: int,
                countries: Iterable[str],
                austrian_regions: Iterable[str] = ()) -> BalanceLedger:
    """Fold all events up to ``start_day`` into a fresh ledger."""
    ledger = BalanceLedger(countries, austrian_regions)
    for event in history:
        if event.day <= start_day:
            ledger.record_transfer(event)
    return ledger


def balance_points(ledger: BalanceLedger, candidate_country: str,
                   donor_age: int, weight: float) -> float:
    """(own export - largest importer's export) * weight; never negative."""
    group = donor_age_group(donor_age)
    own = ledger.net_export(candidate_country, group)
    floor = min(ledger.net_export(c, group) for c in ledger.countries)
    return (own - floor) * weight


def age_filter_fraction(candidate_age: float, donor_age: float,
                        curve: Sequence[tuple[float, float]]) -> float:
    """Piecewise-linear fraction of total points kept at this age difference.

    The curve is interpolated at candidate_age - donor_age and clamped to its
    end values outside the configured range.
    """
    diff = candidate_age - donor_age
    points = sorted(curve)
    if diff <= points[0][0]:
        return points[0][1]
    if diff >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= diff <= x1:
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (diff - x0) / (x1 - x0)
    raise AssertionError("unreachable")


# eligibility reason codes
BLOOD_GROUP = "BLOOD_GROUP"
NOT_OFFERABLE = "NOT_OFFERABLE"
HLA_UNKNOWN = "HLA_UNKNOWN"
UNACCEPTABLE = "UNACCEPTABLE"
SCREENING_STALE = "SCREENING_STALE"
GERMAN_CHOICE = "GERMAN_CHOICE"
AM_ACTIVE = "AM_ACTIVE"
AGE_NOT_ELIGIBLE = "AGE_NOT_ELIGIBLE"


def candidate_age(state: CandidateState, now_day: int) -> int:
    return int((now_day - state.registration.birth_day) // DAYS_PER_YEAR)


def program_for_donor(donor: DonorArrival, cfg: PolicyConfig) -> str:
    return ESP if donor.age >= cfg.esp_donor_age_from else ETKAS


def screening_fresh(state: CandidateState, now_day: int,
                    cfg: PolicyConfig) -> bool:
    if state.last_screening_day is None:
        return False
    return now_day - state.last_screening_day <= cfg.screening_max_age_days


def etkas_eligible(state: CandidateState, donor: DonorArrival, now_day: int,
                   cfg: PolicyConfig, table: AntigenTable) -> tuple[bool, list[str]]:
    """ETKAS eligibility with a reason code per failed clause."""
    reasons: list[str] = []
    reg = state.registration
    if reg.blood_group != donor.blood_group:
        reasons.append(BLOOD_GROUP)
    if state.urgency not in OFFERABLE_CODES:
        reasons.append(NOT_OFFERABLE)
    if reg.hla is None:
        reasons.append(HLA_UNKNOWN)
    elif state.unacceptables and (state.unacceptables
                                  & carried_codes(table, donor.hla)):
        reasons.append(UNACCEPTABLE)
    if not screening_fresh(state, now_day, cfg):
        reasons.append(SCREENING_STALE)
    if (reg.country == GERMANY
            and candidate_age(state, now_day) >= cfg.esp_candidate_age_from
            and state.german_program_choice != ETKAS):
        reasons.append(GERMAN_CHOICE)
    if reg.am_program or state.urgency == "I":
        reasons.append(AM_ACTIVE)
    return (not reasons), reasons


def etkas_filtered(state: CandidateState, donor: DonorArrival,
                   mm: MismatchCount, cfg: PolicyConfig) -> bool:
    """True when the candidate remains visible after center filtering."""
    filt = cfg.filtering
    if filt.apply_allocation_profiles and state.profile is not None:
        if not profile_accepts(state.profile, donor):
            return False
    if filt.apply_hla_mismatch_criteria and state.mm_criteria:
        if mm.as_tuple() in state.mm_criteria:
            return False
    return True


def etkas_tier(state: CandidateState, donor: DonorArrival, mm: MismatchCount,
               now_day: int, cfg: PolicyConfig) -> tuple[int, int]:
    """Tier key, higher sorts first.

    (3, homozygosity subtier) for zero-mismatch candidates (the subtier only
    differentiates when the donor is fully homozygous), (2, 0) for pediatric
    donor to pediatric candidate, (1, 0) otherwise.
    """
    if mm.total == 0:
        subtier = 0
        if all(is_homozygous(donor.hla, loc) for loc in ("A", "B", "DR")):
            level, _ = homozygosity_level(state.registration.hla)
            subtier = level
        return (3, subtier)
    cand_ped = candidate_age(state, now_day) < cfg.pediatric_candidate_age_below
    donor_ped = donor.age < cfg.pediatric_donor_age_below
    if cand_ped and donor_ped:
        return (2, 0)
    return (1, 0)


@dataclass(frozen=True)
class PointBreakdown:
    """Unrounded ETKAS point components; ranking uses the float total and
    reports show components rounded half-up."""

    dialysis: float = 0.0
    hla: float = 0.0
    pediatric: float = 0.0
    hu: float = 0.0
    mmp: float = 0.0  # mismatch probability points, or HMPP + sliding scale
    balance: float = 0.0
    distance: float = 0.0

    @property
    def raw_total(self) -> float:
        return (self.dialysis + self.hla + self.pediatric + self.hu
                + self.mmp + self.balance + self.distance)

    def rounded(self) -> dict[str, int]:
        return {name: round_half_up(getattr(self, name))
                for name in ("dialysis", "hla", "pediatric", "hu", "mmp",
                             "balance", "distance")}

    @property
    def display_total(self) -> int:
        return sum(self.rounded().values())


@dataclass(frozen=True)
class MatchRecord:
    candidate_id: str
    program: str
    tier: tuple[int, ...]
    points: PointBreakdown
    total: float  # ranking total, after the age filter when active
    mm: MismatchCount
    geography: str
    filtered_visible: bool
    rank_keys: tuple = field(repr=False, default=())
    dialysis_days: int = 0
    age_filter_fraction: float = 1.0


class MatchPointContext:
    """Shared lookups for point computation: antigen table, frequencies,
    panel-derived per-candidate values, centers, and the balance ledger."""

    def __init__(self, table: AntigenTable, centers: CenterRegistry,
                 bg_freqs: BloodGroupFrequencies,
                 freq_table: FrequencyTable | None = None):
        self.table = table
        self.centers = centers
        self.bg_freqs = bg_freqs
        self.freq_table = freq_table
        self._p_leq1mm: dict[str, float] = {}
        self._f_leq1mm_emp: dict[str, float] = {}

    def set_f_leq1mm_empirical(self, candidate_id: str, value: float) -> None:
        self._f_leq1mm_emp[candidate_id] = value

    def p_leq1mm(self, state: CandidateState) -> float:
        reg = state.registration
        if self.freq_table is None or reg.hla is None:
            return 0.0
        if reg.id not in self._p_leq1mm:
            self._p_leq1mm[reg.id] = p_leq1mm_analytic(self.table, reg.hla,
                                                       self.freq_table)
        return self._p_leq1mm[reg.id]

    def f_leq1mm_empirical(self, state: CandidateState) -> float:
        return self._f_leq1mm_emp.get(state.registration.id, 0.0)


def immunization_points(state: CandidateState, ctx: MatchPointContext,
                        cfg: PolicyConfig) -> float:
    """Mismatch probability points; under a sliding-scale policy these are
    HLA-only mismatch probability points plus direct vPRA points.

    Kept unrounded here so that scaling every point weight scales totals
    exactly; reports round each component to whole points.
    """
    if cfg.sliding_scale.enabled:
        pts = sliding_scale_points(state.vpra, cfg)
        if cfg.sliding_scale.hmpp_replaces_mmp:
            hmpp = compute_hmpp_fraction(ctx.f_leq1mm_empirical(state))
            pts += cfg.mmp_weight * hmpp
        return pts
    mmp = compute_mmp(MmpInputs(
        f_bg=ctx.bg_freqs.freq_of(state.registration.blood_group),
        vpra=state.vpra,
        p_leq1mm=ctx.p_leq1mm(state)))
    return cfg.mmp_weight * mmp


def etkas_points(state: CandidateState, donor: DonorArrival, mm: MismatchCount,
                 ledger: BalanceLedger, cfg: PolicyConfig,
                 ctx: MatchPointContext, now_day: int) -> PointBreakdown:
    reg = state.registration
    dial = (cfg.dialysis_points_per_year * state.dialysis_days(now_day)
            / DAYS_PER_YEAR)

    hla = (cfg.hla_base_points
           + mm.mm_a * cfg.hla_mm_beta_a
           + mm.mm_b * cfg.hla_mm_beta_b
           + mm.mm_dr * cfg.hla_mm_beta_dr)
    hla = max(0.0, hla)
    pediatric = 0.0
    if candidate_age(state, now_day) < cfg.pediatric_candidate_age_below:
        if cfg.pediatric_hla_double:
            hla *= 2.0
        pediatric = cfg.pediatric_bonus

    hu = cfg.hu_points if state.urgency == "HU" else 0.0

    immun = immunization_points(state, ctx, cfg)

    balance = balance_points(ledger, reg.country, donor.age,
                             cfg.balance_weight(reg.country))

    geo = geography_class(ctx.centers.get(donor.center),
                          ctx.centers.get(reg.center))
    distance = 0.0
    if reg.country == donor.country:
        distance = float(cfg.distance_schedule(reg.country).get(geo, 0.0))

    return PointBreakdown(dialysis=dial, hla=hla, pediatric=pediatric, hu=hu,
                          mmp=immun, balance=balance, distance=distance)


def esp_eligible(state: CandidateState, donor: DonorArrival, now_day: int,
                 cfg: PolicyConfig, table: AntigenTable) -> tuple[bool, list[str]]:
    """ESP eligibility (donor aged 65+): active status, 65+ or extended
    opt-in, identical blood group, known typing with fresh screening, no
    unacceptable antigen in the donor, no active AM status."""
    reasons: list[str] = []
    reg = state.registration
    if state.urgency not in OFFERABLE_CODES:
        reasons.append(NOT_OFFERABLE)
    age = candidate_age(state, now_day)
    if age < cfg.esp_candidate_age_from and not state.esp_extended_opt_in:
        reasons.append(AGE_NOT_ELIGIBLE)
    if reg.blood_group != donor.blood_group:
        reasons.append(BLOOD_GROUP)
    if reg.hla is None:
        reasons.append(HLA_UNKNOWN)
    elif state.unacceptables and (state.unacceptables
                                  & carried_codes(table, donor.hla)):
        reasons.append(UNACCEPTABLE)
    if not screening_fresh(state, now_day, cfg):
        reasons.append(SCREENING_STALE)
    if reg.am_program or state.urgency == "I":
        reasons.append(AM_ACTIVE)
    return (not reasons), reasons


def esp_filtered(state: CandidateState, donor: DonorArrival, now_day: int,
                 cfg: PolicyConfig) -> bool:
    """ESP filtering removes under-65 candidates, German candidates who chose
    ETKAS, and profile-incompatible donors.  HLA mismatch criteria are not
    applied in ESP."""
    if candidate_age(state, now_day) < cfg.esp_candidate_age_from:
        return False
    reg = state.registration
    if reg.country == GERMANY and state.german_program_choice == ETKAS:
        return False
    if cfg.filtering.apply_allocation_profiles and state.profile is not None:
        if not profile_accepts(state.profile, donor):
            return False
    return True


def esp_tier(state: CandidateState, donor: DonorArrival, now_day: int,
             cfg: PolicyConfig, centers: CenterRegistry) -> tuple[int, ...]:
    """Tier key (higher first): position in the per-country geography table,
    with HU before KAOO before other candidates inside each tier."""
    donor_center = centers.get(donor.center)
    cand_center = centers.get(state.registration.center)
    age_class = ("65plus"
                 if candidate_age(state, now_day) >= cfg.esp_candidate_age_from
                 else "under65")
    table = cfg.esp_tier_table(donor_center.country)

    def scope_matches(scope: str) -> bool:
        if scope == "subregion":
            return (donor_center.esp_subregion is not None
                    and donor_center.esp_subregion == cand_center.esp_subregion)
        if scope == "region":
            return (donor_center.country == cand_center.country
                    and donor_center.region == cand_center.region)
        if scope == "national":
            return donor_center.country == cand_center.country
        return True  # international

    tier_rank = None
    for index, (scope, klass) in enumerate(table):
        if klass == age_class and scope_matches(scope):
            tier_rank = index
            break
    if tier_rank is None:
        tier_rank = len(table)
    if state.urgency == "HU":
        subtier = 2
    elif state.registration.kaoo:
        subtier = 1
    else:
        subtier = 0
    return (-tier_rank, subtier)


@dataclass
class MatchList:
    donor: DonorArrival
    program: str
    records: list[MatchRecord]

    def filtered(self) -> list[MatchRecord]:
        return [r for r in self.records if r.filtered_visible]


def _etkas_record(state: CandidateState, donor: DonorArrival,
                  ledger: BalanceLedger, cfg: PolicyConfig,
                  ctx: MatchPointContext, now_day: int) -> MatchRecord:
    mm = count_mismatches(ctx.table, donor.hla, state.registration.hla)
    tier = etkas_tier(state, donor, mm, now_day, cfg)
    points = etkas_points(state, donor, mm, ledger, cfg, ctx, now_day)
    fraction = 1.0
    if cfg.age_filter.enabled:
        fraction = age_filter_fraction(candidate_age(state, now_day),
                                       donor.age, cfg.age_filter.curve)
    total = fraction * points.raw_total
    geo = geography_class(ctx.centers.get(donor.center),
                          ctx.centers.get(state.registration.center))
    visible = etkas_filtered(state, donor, mm, cfg)
    # Austrian candidates with a more negative regional balance go first on
    # point ties; everyone else carries a neutral key.
    regional = 0
    if state.registration.country == AUSTRIA:
        regional = ledger.regional_net_export(
            ctx.centers.get(state.registration.center).region,
            donor_age_group(donor.age))
    return MatchRecord(
        candidate_id=state.registration.id,
        program=ETKAS, tier=tier, points=points, total=total, mm=mm,
        geography=geo, filtered_visible=visible,
        rank_keys=(tier, total, -regional,
                   -state.registration.registration_day,
                   state.registration.id),
        dialysis_days=state.dialysis_days(now_day),
        age_filter_fraction=fraction)


def _esp_record(state: CandidateState, donor: DonorArrival, cfg: PolicyConfig,
                ctx: MatchPointContext, now_day: int) -> MatchRecord:
    mm = count_mismatches(ctx.table, donor.hla, state.registration.hla)
    tier = esp_tier(state, donor, now_day, cfg, ctx.centers)
    days = state.dialysis_days(now_day)
    geo = geography_class(ctx.centers.get(donor.center),
                          ctx.centers.get(state.registration.center))
    visible = esp_filtered(state, donor, now_day, cfg)
    return MatchRecord(
        candidate_id=state.registration.id,
        program=ESP, tier=tier, points=PointBreakdown(dialysis=float(days)),
        total=float(days), mm=mm, geography=geo, filtered_visible=visible,
        rank_keys=(tier, float(days),
                   0,
                   -state.registration.registration_day,
                   state.registration.id),
        dialysis_days=days)


def _sort_records(records: list[MatchRecord]) -> list[MatchRecord]:
    # tier desc, points desc, Austrian regional key, registration date asc
    # (older first via negated days), id asc. The id ascends while all other
    # components descend, so sort on the composite key with id inverted by
    # sorting twice: a stable sort on id ascending, then on the numeric keys
    # descending.
    records = sorted(records, key=lambda r: r.candidate_id)
    records.sort(key=lambda r: r.rank_keys[:4], reverse=True)
    return records


def build_match_list(donor: DonorArrival, states: Iterable[CandidateState],
                     ledger: BalanceLedger, cfg: PolicyConfig,
                     ctx: MatchPointContext, now_day: int,
                     program: str | None = None) -> MatchList:
    """Ordered match list for one donor: every eligible candidate, sorted by
    (tier, points, tie-breaks), with filtering visibility flags set."""
    if program is None:
        program = program_for_donor(donor, cfg)
    records: list[MatchRecord] = []
    for state in states:
        if program == ETKAS:
            ok, _ = etkas_eligible(state, donor, now_day, cfg, ctx.table)
            if ok:
                records.append(_etkas_record(state, donor, ledger, cfg, ctx,
                                             now_day))
        else:
            ok, _ = esp_eligible(state, donor, now_day, cfg, ctx.table)
            if ok:
                records.append(_esp_record(state, donor, cfg, ctx, now_day))
    return MatchList(donor=donor, program=program,
                     records=_sort_records(records))
