"""The offering cascade: max-offer sampling, two-stage acceptance,
non-standard fallback, dual-kidney decisions, and discard/force-accept.

Standard allocation walks the filtered match list.  Each center gets one
willingness decision per donor (cached for the whole allocation); for
willing centers, per-candidate decisions follow.  After the sampled maximum
number of declines, or when the filtered list runs out with kidneys left,
the remaining records - now including unfiltered-only candidates - are
re-ordered with absolute priority for the donor's vicinity and offering
continues until the kidneys are placed or the list is exhausted.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .common import DAYS_PER_YEAR, InputError, read_coefficients, read_table
from .entities import (DEATH_CAUSE_GROUPS, ESP, ETKAS, GEOGRAPHY_CLASSES,
                       CenterRegistry, DonorArrival, geography_class)
from .fastmatch import HU
from .hla import BLOOD_GROUPS


class MissingFeatureError(InputError):
    def __init__(self, name: str, model_id: str):
        super().__init__(f"model {model_id!r} needs feature {name!r} "
                         "which the extractor did not provide")


class UnknownStratumError(InputError):
    pass


class PredictorOverflowError(InputError):
    """A Cox linear predictor above EXP_LIMIT: its relative risk is not a
    finite float."""


# the largest x whose math.exp(x) is finite
EXP_LIMIT = math.log(sys.float_info.max)


def linear_predictor(start, coefficients: Mapping[str, float],
                     features: Mapping, model_id: str):
    """``start`` plus each coefficient times its feature, summed in the
    coefficients' order; MissingFeatureError names an absent feature.  Every
    fitted model is evaluated here, on scalars or on numpy columns."""
    lp = start
    for name, beta in coefficients.items():
        if name not in features:
            raise MissingFeatureError(name, model_id)
        lp += beta * features[name]
    return lp


@dataclass(frozen=True)
class LogisticModel:
    """Named-coefficient logistic model; prediction is sigmoid(lp)."""

    model_id: str
    intercept: float
    coefficients: Mapping[str, float]

    def predict(self, features: Mapping[str, float]) -> float:
        lp = linear_predictor(self.intercept, self.coefficients, features,
                              self.model_id)
        if lp >= 0:
            return 1.0 / (1.0 + math.exp(-lp))
        z = math.exp(lp)
        return z / (1.0 + z)

    @classmethod
    def from_file(cls, path: str | Path,
                  vocabulary: Collection[str]) -> "LogisticModel":
        model_id, intercept, coefs, _ = read_coefficients(path, vocabulary)
        return cls(model_id, intercept, coefs)


@dataclass(frozen=True)
class StepSurvival:
    """Non-increasing baseline survival over offer counts, S0(0) = 1; a
    baseline file breaking that raises InputError."""

    ks: tuple[int, ...]
    s0: tuple[float, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.s0) or not self.ks:
            raise InputError("baseline survival needs matching k / S0 arrays")
        if any(b > a for a, b in zip(self.ks[1:], self.ks)):
            raise InputError("offer counts must be increasing")
        if any(b > a + 1e-12 for a, b in zip(self.s0, self.s0[1:])):
            raise InputError("S0 must be non-increasing")
        if self.s0[0] > 1.0 + 1e-12:
            raise InputError("S0 must start at or below 1")


class CoxSampler:
    """Samples the maximum number of standard-allocation offers.

    S(k) = S0(k) ** exp(lp) with per-stratum baselines (program, and donor
    country within ETKAS) and shared coefficients.  Sampling inverts the
    step function at a uniform u: the smallest k with S(k) <= u, or None
    when the curve never crosses (no switch to non-standard before list
    exhaustion).
    """

    def __init__(self, coefficients: Mapping[str, float],
                 baselines: Mapping[str, StepSurvival], model_id: str):
        self.coefficients = dict(coefficients)
        self.baselines = dict(baselines)
        self.model_id = model_id

    def baseline(self, program: str, donor_country: str) -> StepSurvival:
        """The stratum's baseline: ``ESP``, else ``ETKAS:<country>`` or
        ``ETKAS:default``."""
        key = "ESP" if program == ESP else f"ETKAS:{donor_country}"
        base = self.baselines.get(key)
        if base is None and program != ESP:
            base = self.baselines.get("ETKAS:default")
        if base is None:
            raise UnknownStratumError(f"no baseline survival for stratum "
                                      f"{key!r}")
        return base

    def relative_risk(self, features: Mapping[str, float]) -> float:
        """exp of the linear predictor; PredictorOverflowError, naming the
        feature with the largest term, when the predictor is above
        EXP_LIMIT."""
        lp = linear_predictor(0.0, self.coefficients, features, self.model_id)
        if lp > EXP_LIMIT:
            terms = {name: beta * features[name]
                     for name, beta in self.coefficients.items()}
            worst = max(terms, key=terms.__getitem__)
            raise PredictorOverflowError(
                f"max-offer Cox predictor {lp:.1f} overflows exp above "
                f"{EXP_LIMIT:.1f}, driven by {worst} = {features[worst]:g} "
                f"(term {terms[worst]:.1f})")
        return math.exp(lp)

    def check_bound(self, donors: Sequence[DonorArrival]) -> None:
        """Raise PredictorOverflowError naming the first of ``donors`` whose
        relative risk overflows.  The predictor reads donor features only,
        so the check is exact: a donor passes iff ``sample`` can take it."""
        for donor in donors:
            try:
                self.relative_risk(donor_features(donor))
            except PredictorOverflowError as exc:
                raise PredictorOverflowError(
                    f"donor {donor.id!r}: {exc}") from None

    def sample(self, program: str, donor_country: str,
               features: Mapping[str, float], u: float) -> int | None:
        base = self.baseline(program, donor_country)
        rel_risk = self.relative_risk(features)
        # S0 is non-increasing, so S0**rr is too; find the first index with
        # S(k) <= u by bisecting the negated curve, evaluated where probed
        idx = bisect_left(base.s0, -u, key=lambda s: -(s ** rel_risk))
        if idx >= len(base.s0):
            return None
        return base.ks[idx]

    @classmethod
    def from_files(cls, coef_path: str | Path, baseline_path: str | Path,
                   countries: Sequence[str]) -> "CoxSampler":
        """Donor-feature coefficients, and ``stratum,k,s0`` baselines with
        every stratum a donor of one of ``countries`` can ask for."""
        model_id, _, coefs, _ = read_coefficients(coef_path, DONOR_FEATURES,
                                                  intercept=False)
        by_stratum: dict[str, list[tuple[int, float]]] = {}
        for stratum, k, s0 in read_table(
                baseline_path, (("stratum", None, str.strip), ("k", None, int),
                                ("s0", None, float)), "baseline row"):
            by_stratum.setdefault(stratum, []).append((k, s0))
        baselines = {}
        for stratum, pairs in by_stratum.items():
            pairs.sort()
            baselines[stratum] = StepSurvival(
                ks=tuple(k for k, _ in pairs), s0=tuple(s for _, s in pairs))
        sampler = cls(coefs, baselines, model_id=model_id)
        try:
            for country in countries:
                for program in (ETKAS, ESP):
                    sampler.baseline(program, country)
        except UnknownStratumError as exc:
            raise InputError(str(exc), baseline_path) from None
        return sampler


# ---------------------------------------------------------------------------
# Feature extraction.  Each acceptance model's vocabulary, the feature names
# its coefficient file may use, is written once here, as the names of the
# features built below; the graft-failure model's is in ``posttransplant``.

# each donor feature and its value for a donor
_DONOR_VALUES: dict[str, Callable[[DonorArrival], float]] = {
    "donor_age": lambda d: float(d.age),
    "donor_age_dec": lambda d: d.age / 10.0,
    "donor_dcd": lambda d: float(d.dcd),
    "donor_extended": lambda d: float(d.extended_criteria),
    "donor_creatinine": lambda d: float(d.last_creatinine),
    "donor_diabetes": lambda d: float(d.diabetes),
    "donor_smoking": lambda d: float(d.smoking),
    "donor_proteinuria": lambda d: float(d.proteinuria),
    "donor_hypertension": lambda d: float(d.hypertension),
    "donor_malignancy": lambda d: float(d.malignancy),
    "donor_hcv": lambda d: float(d.hcv_positive),
    **{f"donor_death_{cause}": (lambda d, c=cause: float(d.death_cause == c))
       for cause in DEATH_CAUSE_GROUPS},
    **{f"donor_bg_{bg}": (lambda d, g=bg: float(d.blood_group == g))
       for bg in BLOOD_GROUPS},
}
DONOR_FEATURES = tuple(_DONOR_VALUES)  # also the max-offer model's


def donor_features(donor: DonorArrival) -> dict[str, float]:
    return {name: value(donor) for name, value in _DONOR_VALUES.items()}


# the acceptance models' indicator of each of GEOGRAPHY_CLASSES, and their
# values for each class
GEOGRAPHY_FEATURES = ("match_local", "match_national", "match_international")
_INDICATORS = {klass: {name: float(klass == other) for name, other
                       in zip(GEOGRAPHY_FEATURES, GEOGRAPHY_CLASSES)}
               for klass in GEOGRAPHY_CLASSES}
# a center's country indicator is this prefix plus the country code
CENTER_COUNTRY = "center_country_"


def center_vocabulary(countries: Sequence[str]) -> tuple[str, ...]:
    """The center models' features in a registry of ``countries``."""
    return (*DONOR_FEATURES, *GEOGRAPHY_FEATURES,
            *(CENTER_COUNTRY + country for country in countries))


def center_offer_features(donor: DonorArrival,
                          donor_feats: Mapping[str, float], center_code: str,
                          centers: CenterRegistry,
                          countries: Sequence[str]) -> dict[str, float]:
    """``donor_feats`` (the donor's ``donor_features``) plus the center's
    geography and country indicators, in a new dict."""
    feats = dict(donor_feats)
    center = centers.get(center_code)
    feats.update(_INDICATORS[geography_class(centers.get(donor.center),
                                             center)])
    for country in countries:
        feats[CENTER_COUNTRY + country] = float(center.country == country)
    return feats


# the patient models' features beyond the donor's, each a column over a
# donor's match list: name -> f(MatchArrays, CandidateStore, PolicyConfig)
PATIENT_COLUMNS = {
    "cand_age": lambda a, store, cfg: a.age.astype(np.float64),
    "cand_age_dec": lambda a, store, cfg: a.age / 10.0,
    "cand_pediatric": lambda a, store, cfg: (
        a.age < cfg.pediatric_candidate_age_below).astype(float),
    "cand_hu": lambda a, store, cfg: (store.status[a.rows] == HU).astype(float),
    "cand_vpra": lambda a, store, cfg: store.vpra[a.rows],
    "cand_dialysis_years": lambda a, store, cfg: a.dial_days / DAYS_PER_YEAR,
    "cand_prior_tx": lambda a, store, cfg: store.prior_tx[a.rows].astype(float),
    "mm_total": lambda a, store, cfg: (a.mm_a + a.mm_b + a.mm_dr).astype(float),
    "mm_dr": lambda a, store, cfg: a.mm_dr.astype(float),
    "age_diff_abs": lambda a, store, cfg: np.abs(a.age - a.donor.age).astype(
        float),
    **{name: (lambda a, store, cfg, k=k: (a.geo_idx == k).astype(float))
       for k, name in enumerate(GEOGRAPHY_FEATURES)},
    "offer_rank": lambda a, store, cfg: np.arange(1, len(a.rows) + 1,
                                                  dtype=np.float64),
}
PATIENT_FEATURES = (*DONOR_FEATURES, *PATIENT_COLUMNS)

# the dual-kidney model's features beyond the donor's
_DUAL_EXTRA = ("cand_age", "rescue")
DUAL_FEATURES = (*DONOR_FEATURES, *_DUAL_EXTRA)


def dual_features(donor_feats: Mapping[str, float], candidate_age: float,
                  non_standard: bool) -> dict[str, float]:
    return {**donor_feats, **dict(zip(
        _DUAL_EXTRA, (candidate_age, float(non_standard)), strict=True))}


# ---------------------------------------------------------------------------
# The allocation walk

STANDARD = "standard"
NON_STANDARD = "non_standard"

DECISION_CENTER_DECLINE = "center_decline"
DECISION_CENTER_SKIP = "center_skip"
DECISION_DECLINE = "decline"
DECISION_ACCEPT = "accept"
DECISION_FORCED = "forced_accept"

# what becomes of kidneys the walk leaves unplaced
UNPLACED_MODES = ("discard", "force")


@dataclass(frozen=True)
class Acceptance:
    candidate_id: str
    kidneys: int  # 1, or 2 for dual
    mechanism: str
    forced: bool = False
    rank: int = 0  # 1-based position on the unfiltered list

    @property
    def index(self) -> int:
        return self.rank - 1


@dataclass
class AllocationOutcome:
    acceptances: list[Acceptance] = field(default_factory=list)
    unplaced: int = 0


@dataclass(frozen=True)
class AcceptanceModels:
    center: LogisticModel
    patient: LogisticModel
    dual: LogisticModel


def run_allocation(offers, donor: DonorArrival, k_max: int | None, draws,
                   unplaced_mode: str,
                   center_probability: Callable[[str], float],
                   dual_probability: Callable[[float, bool], float],
                   trace: list[tuple] | None) -> AllocationOutcome:
    """Walk the match list per the offering rules and return who accepted.

    ``offers`` reads the list in unfiltered match-list order: its length,
    and per index ``candidate_id``, ``center``, ``filtered``, ``age`` and
    the patient-level acceptance ``probability``, plus ``vicinity_order``
    for the non-standard phase.  The engine passes ``engine.ArrayOffers``;
    the tests' record-at-a-time accessor is in ``tests/oracle/offering.py``.
    ``draws`` is the run's ``engine.Draws``; a center, patient or dual
    decision fires when its uniform falls below its probability.  The walk
    evaluates no model: ``center_probability(center)`` gives the
    center-level acceptance probability of a center code for this donor,
    and ``dual_probability(age, rescue)`` the probability that a candidate
    of that age takes both kidneys, ``rescue`` being whether the offer is
    made outside the standard phase.  ``unplaced_mode`` is 'discard' or
    'force'.  Each offer decision is appended to ``trace``, unless it is
    None, as (donor id, candidate id, center, stage, decision, probability).
    """
    n = len(offers)
    outcome = AllocationOutcome()
    kidneys_left = donor.kidneys_available
    center_willing: dict[str, bool] = {}
    touched: set[int] = set()   # indices given an individual decision
    accepted: set[int] = set()

    def center_decision(center: str) -> bool:
        if center not in center_willing:
            p = center_probability(center)
            center_willing[center] = draws.center() < p
        return center_willing[center]

    def kidneys_for(i: int, non_standard: bool) -> int:
        """2 when both kidneys are left and the dual model places them
        together with candidate ``i``, else 1."""
        if kidneys_left == 2 and draws.dual() < dual_probability(
                offers.age(i), non_standard):
            return 2
        return 1

    def note(i: int, stage: str, decision: str,
             probability: float | None = None) -> None:
        if trace is not None:
            trace.append((donor.id, offers.candidate_id(i), offers.center(i),
                          stage, decision, probability))

    def try_candidate(i: int, stage: str) -> str:
        """Returns 'accept', 'decline', 'center', or 'center_known'."""
        nonlocal kidneys_left
        center = offers.center(i)
        known = center in center_willing
        if not center_decision(center):
            note(i, stage, DECISION_CENTER_SKIP if known
                 else DECISION_CENTER_DECLINE)
            return "center_known" if known else "center"
        p = offers.probability(i)
        if draws.patient() >= p:
            note(i, stage, DECISION_DECLINE, p)
            touched.add(i)
            return "decline"
        kidneys = kidneys_for(i, stage == NON_STANDARD)
        note(i, stage, DECISION_ACCEPT, p)
        touched.add(i)
        accepted.add(i)
        kidneys_left -= kidneys
        outcome.acceptances.append(Acceptance(
            offers.candidate_id(i), kidneys, mechanism=stage, rank=i + 1))
        return "accept"

    # standard phase: filtered records in rank order until k_max declines
    declines = 0
    for i in range(n):
        if kidneys_left == 0:
            break
        if k_max is not None and declines >= k_max:
            break
        if not offers.filtered(i):
            continue
        result = try_candidate(i, STANDARD)
        if result in ("decline", "center"):
            # a center-level decline counts once, at the moment it is drawn
            declines += 1

    # non-standard phase: remaining records (now including unfiltered-only
    # candidates), vicinity first, then original rank
    if kidneys_left > 0:
        for i in offers.vicinity_order(touched):
            if kidneys_left == 0:
                break
            try_candidate(i, NON_STANDARD)

    # leftovers: discard, or force the most likely acceptor
    if kidneys_left > 0:
        if unplaced_mode == "discard":
            outcome.unplaced = kidneys_left
        else:
            order = sorted(
                (i for i in range(n) if i not in accepted),
                key=lambda i: (-offers.probability(i), i))
            for i in order:
                if kidneys_left == 0:
                    break
                p = offers.probability(i)
                kidneys = kidneys_for(i, True)
                note(i, NON_STANDARD, DECISION_FORCED, p)
                accepted.add(i)
                kidneys_left -= kidneys
                outcome.acceptances.append(Acceptance(
                    offers.candidate_id(i), kidneys, mechanism=NON_STANDARD,
                    forced=True, rank=i + 1))
            outcome.unplaced = kidneys_left
    return outcome
