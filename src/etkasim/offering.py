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
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .common import read_csv_header_meta, read_csv_rows
from .entities import (DEATH_CAUSE_GROUPS, ESP, GEOGRAPHY_CLASSES,
                       CenterRegistry, DonorArrival, geography_class)
from .hla import BLOOD_GROUPS


class MissingFeatureError(KeyError):
    def __init__(self, name: str, model_id: str):
        super().__init__(f"model {model_id!r} needs feature {name!r} "
                         "which the extractor did not provide")


class UnknownStratumError(KeyError):
    pass


def linear_predictor(start: float, coefficients: Mapping[str, float],
                     features: Mapping[str, float], model_id: str) -> float:
    """``start`` plus each coefficient times its feature, summed in the
    coefficients' order; MissingFeatureError names an absent feature."""
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
    feature_schema: str = "1"

    def predict(self, features: Mapping[str, float]) -> float:
        lp = linear_predictor(self.intercept, self.coefficients, features,
                              self.model_id)
        if lp >= 0:
            return 1.0 / (1.0 + math.exp(-lp))
        z = math.exp(lp)
        return z / (1.0 + z)

    @classmethod
    def from_file(cls, path: str | Path) -> "LogisticModel":
        meta = read_csv_header_meta(path)
        intercept = 0.0
        coefs: dict[str, float] = {}
        for line, row in read_csv_rows(path):
            name = row["name"].strip()
            value = float(row["value"])
            if name in ("(Intercept)", "intercept"):
                intercept = value
            else:
                coefs[name] = value
        return cls(model_id=meta.get("model_id", Path(path).stem),
                   intercept=intercept, coefficients=coefs,
                   feature_schema=meta.get("feature_schema", "1"))


@dataclass(frozen=True)
class StepSurvival:
    """Non-increasing baseline survival over offer counts, S0(0) = 1."""

    ks: tuple[int, ...]
    s0: tuple[float, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.s0) or not self.ks:
            raise ValueError("baseline survival needs matching k / S0 arrays")
        if any(b > a for a, b in zip(self.ks[1:], self.ks)):
            raise ValueError("offer counts must be increasing")
        if any(b > a + 1e-12 for a, b in zip(self.s0, self.s0[1:])):
            raise ValueError("S0 must be non-increasing")
        if self.s0[0] > 1.0 + 1e-12:
            raise ValueError("S0 must start at or below 1")


class CoxSampler:
    """Samples the maximum number of standard-allocation offers.

    S(k) = S0(k) ** exp(lp) with per-stratum baselines (program, and donor
    country within ETKAS) and shared coefficients.  Sampling inverts the
    step function: the smallest k with S(k) <= u, or None when the curve
    never crosses (no switch to non-standard before list exhaustion).
    """

    def __init__(self, coefficients: Mapping[str, float],
                 baselines: Mapping[str, StepSurvival],
                 model_id: str = "max_offers"):
        self.coefficients = dict(coefficients)
        self.baselines = dict(baselines)
        self.model_id = model_id

    def stratum_key(self, program: str, donor_country: str) -> str:
        return "ESP" if program == ESP else f"ETKAS:{donor_country}"

    def sample(self, program: str, donor_country: str,
               features: Mapping[str, float], rng) -> int | None:
        key = self.stratum_key(program, donor_country)
        base = self.baselines.get(key)
        if base is None and program != ESP:
            base = self.baselines.get("ETKAS:default")
        if base is None:
            raise UnknownStratumError(key)
        rel_risk = math.exp(linear_predictor(0.0, self.coefficients, features,
                                             self.model_id))
        u = float(rng.random())
        # S0 is non-increasing, so S0**rr is too; find first index with
        # S(k) <= u via bisect over the negated values.
        survival = [s ** rel_risk for s in base.s0]
        idx = bisect_left([-s for s in survival], -u)
        if idx >= len(survival):
            return None
        return base.ks[idx]

    @classmethod
    def from_files(cls, coef_path: str | Path,
                   baseline_path: str | Path) -> "CoxSampler":
        meta = read_csv_header_meta(coef_path)
        coefs: dict[str, float] = {}
        for line, row in read_csv_rows(coef_path):
            coefs[row["name"].strip()] = float(row["value"])
        by_stratum: dict[str, list[tuple[int, float]]] = {}
        for line, row in read_csv_rows(baseline_path):
            by_stratum.setdefault(row["stratum"].strip(), []).append(
                (int(row["k"]), float(row["s0"])))
        baselines = {}
        for stratum, pairs in by_stratum.items():
            pairs.sort()
            baselines[stratum] = StepSurvival(
                ks=tuple(k for k, _ in pairs), s0=tuple(s for _, s in pairs))
        return cls(coefs, baselines, model_id=meta.get("model_id", "max_offers"))


# ---------------------------------------------------------------------------
# Feature extraction

# the acceptance models' indicator of each of GEOGRAPHY_CLASSES, and their
# values for each class
GEOGRAPHY_FEATURES = ("match_local", "match_national", "match_international")
_INDICATORS = {klass: {name: float(klass == other) for name, other
                       in zip(GEOGRAPHY_FEATURES, GEOGRAPHY_CLASSES)}
               for klass in GEOGRAPHY_CLASSES}


def donor_features(donor: DonorArrival) -> dict[str, float]:
    feats = {
        "donor_age": float(donor.age),
        "donor_age_dec": donor.age / 10.0,
        "donor_dcd": float(donor.dcd),
        "donor_extended": float(donor.extended_criteria),
        "donor_creatinine": float(donor.last_creatinine),
        "donor_diabetes": float(donor.diabetes),
        "donor_smoking": float(donor.smoking),
        "donor_proteinuria": float(donor.proteinuria),
        "donor_hypertension": float(donor.hypertension),
        "donor_malignancy": float(donor.malignancy),
        "donor_hcv": float(donor.hcv_positive),
    }
    for cause in DEATH_CAUSE_GROUPS:
        feats[f"donor_death_{cause}"] = float(donor.death_cause == cause)
    for bg in BLOOD_GROUPS:
        feats[f"donor_bg_{bg}"] = float(donor.blood_group == bg)
    return feats


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
        feats[f"center_country_{country}"] = float(center.country == country)
    return feats


def dual_features(donor: DonorArrival, candidate_age: float,
                  non_standard: bool) -> dict[str, float]:
    feats = donor_features(donor)
    feats["cand_age"] = candidate_age
    feats["rescue"] = float(non_standard)
    return feats


def simulate_dual(features: Mapping[str, float], model: LogisticModel,
                  rng) -> bool:
    """Bernoulli draw for transplanting both kidneys into one candidate."""
    return float(rng.random()) < model.predict(features)


# ---------------------------------------------------------------------------
# The allocation walk

STANDARD = "standard"
NON_STANDARD = "non_standard"

DECISION_CENTER_DECLINE = "center_decline"
DECISION_CENTER_SKIP = "center_skip"
DECISION_DECLINE = "decline"
DECISION_ACCEPT = "accept"
DECISION_FORCED = "forced_accept"


@dataclass(frozen=True)
class TraceEntry:
    candidate_id: str
    center: str
    stage: str
    decision: str
    probability: float | None = None


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
    trace: list[TraceEntry] = field(default_factory=list)


@dataclass(frozen=True)
class AcceptanceModels:
    center: LogisticModel
    patient: LogisticModel
    dual: LogisticModel | None = None


def run_allocation(offers, donor: DonorArrival,
                   k_max: int | None, models: AcceptanceModels,
                   rng, unplaced_mode: str = "discard",
                   center_features: Callable[[str], Mapping[str, float]] | None = None,
                   collect_trace: bool = True) -> AllocationOutcome:
    """Walk the match list per the offering rules and return who accepted.

    ``offers`` reads the list in unfiltered match-list order: its length,
    and per index ``candidate_id``, ``center``, ``filtered``, ``age`` and
    the patient-level acceptance ``probability``, plus ``vicinity_order``
    for the non-standard phase.  The engine passes ``engine.ArrayOffers``;
    the tests' record-at-a-time accessor is in ``tests/oracle/offering.py``.
    ``center_features`` supplies the feature mapping for a center code
    (defaults to empty, for intercept-only models).  ``unplaced_mode`` is
    'discard' or 'force'.
    """
    if unplaced_mode not in ("discard", "force"):
        raise ValueError(f"unplaced_mode must be 'discard' or 'force', "
                         f"got {unplaced_mode!r}")
    n = len(offers)
    outcome = AllocationOutcome()
    kidneys_left = donor.kidneys_available
    center_willing: dict[str, bool] = {}
    touched: set[int] = set()   # indices given an individual decision
    accepted: set[int] = set()

    def center_decision(center: str) -> bool:
        if center not in center_willing:
            feats = center_features(center) if center_features else {}
            p = models.center.predict(feats)
            center_willing[center] = float(rng.random()) < p
        return center_willing[center]

    def note(i: int, stage: str, decision: str,
             probability: float | None = None) -> None:
        if collect_trace:
            outcome.trace.append(TraceEntry(offers.candidate_id(i),
                                            offers.center(i), stage,
                                            decision, probability))

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
        if float(rng.random()) >= p:
            note(i, stage, DECISION_DECLINE, p)
            touched.add(i)
            return "decline"
        kidneys = 1
        if kidneys_left == 2 and models.dual is not None:
            if simulate_dual(dual_features(donor, offers.age(i),
                                           stage == NON_STANDARD),
                             models.dual, rng):
                kidneys = 2
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
                kidneys = kidneys_left if (
                    kidneys_left == 2 and models.dual is not None
                    and simulate_dual(dual_features(donor, offers.age(i), True),
                                      models.dual, rng)) else 1
                note(i, NON_STANDARD, DECISION_FORCED, p)
                accepted.add(i)
                kidneys_left -= kidneys
                outcome.acceptances.append(Acceptance(
                    offers.candidate_id(i), kidneys, mechanism=NON_STANDARD,
                    forced=True, rank=i + 1))
            outcome.unplaced = kidneys_left
    return outcome
