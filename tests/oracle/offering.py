"""Offer records one object per match-list row, and the patient-level
features the engine computes as arrays (``engine._patient_prob_vector``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from etkasim.entities import (INTERNATIONAL, LOCAL_REGIONAL, NATIONAL,
                              DonorArrival)
from etkasim.offering import LogisticModel, donor_features


@dataclass(frozen=True)
class OfferContext:
    """Per-candidate offer facts the patient-level model can draw on."""

    candidate_age: float
    pediatric: bool
    hu: bool
    vpra: float
    dialysis_years: float
    prior_transplant: bool
    mm_total: int
    mm_dr: int
    geography: str
    rank: int


def patient_offer_features(donor: DonorArrival, ctx: OfferContext) -> dict[str, float]:
    feats = donor_features(donor)
    feats.update({
        "cand_age": ctx.candidate_age,
        "cand_age_dec": ctx.candidate_age / 10.0,
        "cand_pediatric": float(ctx.pediatric),
        "cand_hu": float(ctx.hu),
        "cand_vpra": ctx.vpra,
        "cand_dialysis_years": ctx.dialysis_years,
        "cand_prior_tx": float(ctx.prior_transplant),
        "mm_total": float(ctx.mm_total),
        "mm_dr": float(ctx.mm_dr),
        "age_diff_abs": abs(ctx.candidate_age - donor.age),
        "match_local": float(ctx.geography == LOCAL_REGIONAL),
        "match_national": float(ctx.geography == NATIONAL),
        "match_international": float(ctx.geography == INTERNATIONAL),
        "offer_rank": float(ctx.rank),
    })
    return feats


@dataclass(frozen=True)
class OfferRecord:
    """One row the allocation walk can offer to; without a precomputed
    ``patient_probability`` the patient model scores ``patient_features``."""

    candidate_id: str
    center: str
    filtered_visible: bool
    rank: int  # 1-based position on the unfiltered list
    same_region: bool
    same_country: bool
    patient_features: Mapping[str, float] | None = None
    candidate_age: float = 0.0
    patient_probability: float | None = None


class SequenceOffers:
    """The offer accessor ``offering.run_allocation`` reads, over a list of
    OfferRecord in unfiltered match-list order; the engine's is
    ``engine.ArrayOffers``."""

    def __init__(self, records: Sequence[OfferRecord],
                 patient_model: LogisticModel):
        self.records = list(records)
        self.patient_model = patient_model

    def __len__(self) -> int:
        return len(self.records)

    def candidate_id(self, i: int) -> str:
        return self.records[i].candidate_id

    def center(self, i: int) -> str:
        return self.records[i].center

    def filtered(self, i: int) -> bool:
        return self.records[i].filtered_visible

    def age(self, i: int) -> float:
        return self.records[i].candidate_age

    def probability(self, i: int) -> float:
        record = self.records[i]
        if record.patient_probability is not None:
            return record.patient_probability
        return self.patient_model.predict(record.patient_features or {})

    def vicinity_order(self, touched: set[int]) -> list[int]:
        """Every index not in ``touched``: vicinity first (same region, then
        same country), original rank as the final key."""
        remaining = (i for i in range(len(self.records)) if i not in touched)
        return sorted(remaining, key=lambda i: (
            not self.records[i].same_region,
            not self.records[i].same_country, i))
