"""Post-transplant outcomes: failure times, re-listing, and synthetic
repeat registrations.

Each transplantation gets a failure time t (death or re-transplantation,
whichever would come first) drawn from a Weibull model, and potentially a
re-listing time r < t drawn from empirical step curves over the ratio r/t.
Recipients who re-list inside the simulation window get a synthetic
re-listing: their own static attributes combined with the urgency-status
stream of a similar historical repeat registration.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .common import (DAYS_PER_YEAR, InputError, age_years, one_of,
                     read_coefficients, read_table)
from .entities import CandidateRegistration, DonorArrival, parse_payload
from .hla import AntigenTable, HlaTyping
from .offering import DONOR_FEATURES, donor_features, linear_predictor

log = logging.getLogger(__name__)


class InvalidScaleError(InputError):
    """The Weibull linear scale came out non-positive for these covariates."""


# the graft-failure model's features beyond the donor's: what
# ``engine._transplant`` knows of a transplant, in this order
TRANSPLANT_FEATURES = ("cand_age", "cand_dialysis_years", "cand_prior_tx",
                       "mm_total", "mm_dr", "cross_border", "non_standard",
                       "tx_year_index")
FAILURE_FEATURES = (*DONOR_FEATURES, *TRANSPLANT_FEATURES)


@dataclass(frozen=True)
class WeibullModel:
    """Accelerated failure time model with per-country shape parameters.

    The scale is the linear combination of covariates (lambda = beta'x,
    which must be positive), and S(t|x) = exp(-(t/lambda)^k).
    """

    coefficients: Mapping[str, float]
    shape_by_country: Mapping[str, float]
    intercept: float = 0.0
    default_shape: float = 1.0
    model_id: str = "post_transplant"

    def shape(self, country: str) -> float:
        return self.shape_by_country.get(country, self.default_shape)

    @classmethod
    def from_file(cls, path: str | Path) -> "WeibullModel":
        """``coef`` rows over FAILURE_FEATURES, and ``shape`` rows by
        country, ``default`` for the rest (``common.read_coefficients``),
        each positive and finite."""
        model_id, intercept, coefs, other = read_coefficients(
            path, FAILURE_FEATURES, kinds=("shape",))
        shapes = other["shape"]
        for country, k in shapes.items():
            if not 0.0 < k < math.inf:
                raise InputError(f"shape {country!r}: {k!r} is not a "
                                 "positive finite number", path)
        default_shape = shapes.pop("default", 1.0)
        return cls(coefficients=coefs, shape_by_country=shapes,
                   intercept=intercept, default_shape=default_shape,
                   model_id=model_id)


def sample_failure_time(features: Mapping[str, float], country: str,
                        model: WeibullModel, u: float) -> float:
    """Inverse transform of a uniform u: t = lambda * (-log u)^(1/k), in
    days."""
    lam = linear_predictor(model.intercept, model.coefficients, features,
                           model.model_id)
    if lam <= 0:
        raise InvalidScaleError(
            f"non-positive Weibull scale {lam!r}; coefficients and covariates "
            "are inconsistent")
    k = model.shape(country)
    if u <= 0.0:
        u = np.nextafter(0.0, 1.0)
    return lam * (-math.log(u)) ** (1.0 / k)


def check_scale_bound(model: WeibullModel, donors: Sequence[DonorArrival],
                      box: Mapping[str, tuple[float, float]]) -> None:
    """Raise InputError naming the first of ``donors`` whose Weibull scale
    can be non-positive for some transplant features in ``box`` (each of
    TRANSPLANT_FEATURES -> its lowest and highest value), and the covariate
    whose term is smallest there.

    The scale is linear in the features, so its minimum over the box is its
    value at each feature's end that makes the feature's term smaller: one
    evaluation over all donors at once.  The box is wider than what a run
    reaches, so a rejected donor need not make such a transplant."""
    if not donors:
        return
    rows = [donor_features(d) for d in donors]
    features: dict[str, np.ndarray | float] = {
        name: np.array([row[name] for row in rows]) for name in DONOR_FEATURES}
    for name, (low, high) in box.items():
        features[name] = high if model.coefficients.get(name, 0.0) < 0 else low
    bound = np.broadcast_to(linear_predictor(
        model.intercept, model.coefficients, features, model.model_id),
        (len(donors),))
    bad = np.flatnonzero(bound <= 0)
    if not len(bad):
        return
    i = int(bad[0])
    values = {name: float(np.broadcast_to(features[name], (len(donors),))[i])
              for name in model.coefficients}
    worst = min(model.coefficients,
                 key=lambda name: model.coefficients[name] * values[name])
    raise InputError(
        f"donor {donors[i].id!r}: non-positive Weibull scale possible, down "
        f"to {bound[i]:.1f} days, driven by {worst} = {values[worst]:g} "
        f"(term {model.coefficients[worst] * values[worst]:.1f}); the "
        "bound takes candidate age and dialysis years up to their maxima at "
        "the window end, 0-6 mismatches (0-2 at DR), every flag and every "
        "transplant year, a box wider than what a run reaches")


# ---------------------------------------------------------------------------
# Re-listing time from stratified step curves

TIME_BUCKETS = ("lt180d", "180d_1y", "1y_2y", "2y_5y", "ge5y")
AGE_BUCKETS = ("0-17", "18-39", "40-49", "50-54", "55-59", "60-64",
               "65-69", "70-74", "75+")


# where each bucket but the first begins
_TIME_BOUNDS = (180, DAYS_PER_YEAR, 2 * DAYS_PER_YEAR, 5 * DAYS_PER_YEAR)
_AGE_BOUNDS = (18, 40, 50, 55, 60, 65, 70, 75)


def time_bucket(t_days: float) -> str:
    return TIME_BUCKETS[bisect_right(_TIME_BOUNDS, t_days)]


def age_bucket(age: float) -> str:
    return AGE_BUCKETS[bisect_right(_AGE_BOUNDS, age)]


@dataclass(frozen=True)
class StepCurve:
    """Survival-style step curve over the ratio s = r/t on [0, 1].

    ``survival[i]`` is P[R/T > s] just after the jump at ``grid[i]``; the
    curve starts at 1 before the first jump and its terminal plateau is the
    probability of dying without re-listing.
    """

    grid: tuple[float, ...]
    survival: tuple[float, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.survival) or not self.grid:
            raise InputError("step curve needs matching grids")
        if any(not 0.0 <= s <= 1.0 for s in self.grid):
            raise InputError("curve domain is [0, 1]")
        if any(b > a + 1e-12 for a, b in zip(self.survival, self.survival[1:])):
            raise InputError("survival must be non-increasing")

    def crossing(self, u: float) -> float | None:
        """First grid point where the cumulative jump mass reaches u.

        None when the curve never accumulates that much mass, i.e. the draw
        lands in the never-relists plateau.
        """
        idx = bisect_left(self.survival, u, key=lambda s: 1.0 - s)
        if idx >= len(self.survival):
            return None
        return self.grid[idx]


class RelistCurveSet:
    """Step curves stratified by time-to-event and age at transplantation."""

    def __init__(self, curves: Mapping[tuple[str, str], StepCurve]):
        self._curves = dict(curves)

    def curve(self, t_days: float, age: float) -> StepCurve:
        key = (time_bucket(t_days), age_bucket(age))
        try:
            return self._curves[key]
        except KeyError:
            raise InputError(f"no re-listing curve for stratum {key}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "RelistCurveSet":
        """``t_bucket,age_bucket,s,survival`` rows, with a curve for every
        stratum of TIME_BUCKETS x AGE_BUCKETS."""
        raw: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for tb, ab, s, survival in read_table(path, (
                ("t_bucket", None, one_of(TIME_BUCKETS, "time bucket")),
                ("age_bucket", None, one_of(AGE_BUCKETS, "age bucket")),
                ("s", None, float), ("survival", None, float)), "curve row"):
            raw.setdefault((tb, ab), []).append((s, survival))
        curves = {}
        for key in ((tb, ab) for tb in TIME_BUCKETS for ab in AGE_BUCKETS):
            if key not in raw:
                raise InputError(f"no re-listing curve for stratum {key}",
                                 path)
            pairs = sorted(raw[key])
            curves[key] = StepCurve(grid=tuple(s for s, _ in pairs),
                                    survival=tuple(v for _, v in pairs))
        return cls(curves)


def sample_relist_time(t_days: float, age: float, curves: RelistCurveSet,
                       u: float) -> float | None:
    """Re-listing time in days, or None for death without re-listing.

    Inverse transform of a uniform u on the stratum's r/t curve: take the
    first grid ratio s whose cumulative probability reaches u, and scale by
    t.  The ratio grid lives strictly below 1, so r < t whenever r exists.
    """
    if t_days <= 0:
        raise ValueError("failure time must be positive")
    curve = curves.curve(t_days, age)
    s = curve.crossing(u)
    if s is None or s >= 1.0:
        return None
    return s * t_days


# ---------------------------------------------------------------------------
# De novo immunization

def simulate_de_novo_immunization(table: AntigenTable, donor: HlaTyping,
                                  candidate: HlaTyping, p: float,
                                  draws) -> frozenset[str]:
    """Mismatched donor antigens that become unacceptable, each with
    probability p (default policy: 0.20), independently per antigen: when
    its ``draws.immunization()`` falls below p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"immunization probability {p} outside [0, 1]")
    additions = []
    for locus in ("A", "B", "DR"):
        mismatched = sorted(donor.normalized(table, locus)
                            - candidate.normalized(table, locus))
        for code in mismatched:
            if draws.immunization() < p:
                additions.append(code)
    return frozenset(additions)


# ---------------------------------------------------------------------------
# Synthetic re-listings

@dataclass(frozen=True)
class PoolEntry:
    """One historical repeat registration available for matching."""

    id: str
    country: str
    age_at_relist: float
    dialysis_days_at_relist: int
    relisted_within_1y: bool
    r_days: float
    t_days: float
    #: urgency statuses as (offset days from re-listing, urgency code)
    status_updates: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not self.status_updates:
            raise InputError(f"pool entry {self.id}: empty status stream")
        if self.status_updates[-1][1] not in ("R", "D"):
            raise InputError(f"pool entry {self.id}: status stream must end "
                             "in R or D")


class RelistingPool:
    def __init__(self, entries: Sequence[PoolEntry]):
        self.entries = tuple(entries)
        # the fields caliper matching reads, as columns in entry order
        e = self.entries
        self.age = np.array([x.age_at_relist for x in e], dtype=np.float64)
        self.r_days = np.array([x.r_days for x in e], dtype=np.float64)
        self.t_days = np.array([x.t_days for x in e], dtype=np.float64)
        self.dialysis_days = np.array([x.dialysis_days_at_relist for x in e])
        self.country = np.array([x.country for x in e], dtype=object)
        self.within_1y = np.array([x.relisted_within_1y for x in e],
                                  dtype=bool)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_files(cls, entries_path: str | Path,
                   updates_path: str | Path) -> "RelistingPool":
        updates: dict[str, list[tuple[int, str]]] = {}
        for pool_id, offset, status in read_table(updates_path, (
                ("pool_id", None, str.strip), ("offset_days", None, int),
                ("status", None, _pool_status)), "pool status update"):
            updates.setdefault(pool_id, []).append((offset, status))

        def entry(pool_id, *values) -> PoolEntry:
            return PoolEntry(pool_id, *values,
                             tuple(sorted(updates.get(pool_id, []))))

        return cls(read_table(entries_path, (
            ("id", None, str.strip), ("country", None, str.strip),
            ("age_at_relist", None, float), ("dialysis_days", None, int),
            ("within_1y", None, lambda text: text.strip() == "1"),
            ("r_days", None, float), ("t_days", None, float)),
            "pool entry", entry))


def _pool_status(text: str) -> str:
    try:
        return parse_payload("URG", text)
    except InputError as exc:  # reads as a malformed row, as a bad offset does
        raise ValueError(exc) from None


# caliper widths for pool matching, in days where applicable
CALIPER_AGE_YEARS = 20.0
CALIPER_R_DAYS = 2 * DAYS_PER_YEAR
CALIPER_T_DAYS = 1 * DAYS_PER_YEAR
CALIPER_DIALYSIS_DAYS = 3 * DAYS_PER_YEAR
MIN_MATCHES = 5
NEAREST_M = 5


@dataclass(frozen=True)
class RecipientProfile:
    """What the pool matcher needs to know about a fresh transplant."""

    country: str
    age_at_relist: float
    dialysis_days_at_relist: int
    r_days: float
    t_days: float

    @property
    def relisted_within_1y(self) -> bool:
        return self.r_days <= DAYS_PER_YEAR


def _candidate_matches(profile: RecipientProfile,
                       pool: RelistingPool) -> list[PoolEntry]:
    """In-caliper matches in pool order, relaxing country and then the
    within-1-year flag whenever fewer than MIN_MATCHES entries survive."""
    within = ((np.abs(pool.age - profile.age_at_relist) <= CALIPER_AGE_YEARS)
              & (np.abs(pool.r_days - profile.r_days) <= CALIPER_R_DAYS)
              & (np.abs(pool.t_days - profile.t_days) <= CALIPER_T_DAYS)
              & (np.abs(pool.dialysis_days - profile.dialysis_days_at_relist)
                 <= CALIPER_DIALYSIS_DAYS))
    same_country = pool.country == profile.country
    same_flag = pool.within_1y == profile.relisted_within_1y
    for mask in (within & same_country & same_flag, within & same_flag,
                 within):
        matches = [pool.entries[i] for i in np.flatnonzero(mask).tolist()]
        if len(matches) >= MIN_MATCHES:
            return matches
    return matches  # may be short or empty after full relaxation


def mahalanobis_top_m(profile: RecipientProfile,
                      matches: Sequence[PoolEntry]) -> list[PoolEntry]:
    """The NEAREST_M entries closest to (r, t) in Mahalanobis distance.

    The covariance comes from the match set itself; with fewer than two
    matches (or a degenerate covariance) distances fall back to Euclidean on
    per-axis standardized values.
    """
    if not matches:
        return []
    pts = np.array([[e.r_days, e.t_days] for e in matches], dtype=float)
    target = np.array([profile.r_days, profile.t_days], dtype=float)
    if len(matches) >= 2:
        cov = np.cov(pts.T)
        try:
            inv = np.linalg.inv(cov)
            diffs = pts - target
            d2 = np.einsum("ij,jk,ik->i", diffs, inv, diffs)
        except np.linalg.LinAlgError:
            d2 = None
    else:
        d2 = None
    if d2 is None or not np.all(np.isfinite(d2)):
        scale = pts.std(axis=0)
        scale[scale == 0] = 1.0
        diffs = (pts - target) / scale
        d2 = (diffs ** 2).sum(axis=1)
    order = sorted(range(len(matches)), key=lambda i: (d2[i], matches[i].id))
    return [matches[i] for i in order[:NEAREST_M]]


def select_pool_match(profile: RecipientProfile, pool: RelistingPool,
                      draws) -> PoolEntry | None:
    """Pick one pool entry: caliper match, m nearest by Mahalanobis on
    (r, t), then ``draws.pool_entry`` among them.  None when nothing
    matches even after full caliper relaxation."""
    matches = _candidate_matches(profile, pool)
    if not matches:
        log.info("no pool match for re-listing (country=%s, r=%.0fd, t=%.0fd)",
                 profile.country, profile.r_days, profile.t_days)
        return None
    top = mahalanobis_top_m(profile, matches)
    return top[draws.pool_entry(len(top))]


def build_synthetic_relisting(recipient: CandidateRegistration,
                              current_unacceptables: frozenset[str],
                              transplant_day: int, dialysis_days: int,
                              t_days: float, relist_day: int,
                              donor_hla: HlaTyping, pool: RelistingPool,
                              table: AntigenTable, immunization_p: float,
                              draws, new_id: str):
    """Combine the recipient's static data with a matched pool entry's
    urgency stream into a repeat registration.

    ``transplant_day`` and ``relist_day``, which dates the registration, are
    days since 1970-01-01; ``dialysis_days`` is the recipient's accrued
    dialysis time on the transplant day, which the pool matcher compares.
    The recipient keeps their HLA, blood group, country, and center; the
    unacceptable set grows by simulated de novo immunization against the
    mismatched donor antigens; the initial dialysis time at re-listing comes
    from the matched entry, as does the urgency-status stream (and nothing
    else).  Returns (registration, matched entry) or None when no pool
    entry survives caliper matching.
    """
    profile = RecipientProfile(
        country=recipient.country,
        age_at_relist=float(age_years(relist_day, recipient.birth_day)),
        dialysis_days_at_relist=dialysis_days,
        r_days=float(relist_day - transplant_day),
        t_days=float(t_days))
    match = select_pool_match(profile, pool, draws)
    if match is None:
        return None
    additions = simulate_de_novo_immunization(
        table, donor_hla, recipient.hla, immunization_p, draws)
    registration = CandidateRegistration(
        id=new_id,
        patient_id=recipient.patient_id,
        country=recipient.country,
        center=recipient.center,
        blood_group=recipient.blood_group,
        birth_day=recipient.birth_day,
        registration_day=relist_day,
        hla=recipient.hla,
        unacceptables=frozenset(current_unacceptables) | additions,
        dialysis_start_day=relist_day - match.dialysis_days_at_relist,
        prior_transplant=True,
        initial_urgency="NT",
    )
    return registration, match
