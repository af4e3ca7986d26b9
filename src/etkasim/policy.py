"""Declarative allocation-policy configuration.

Every tunable parameter of the two allocation programs lives here: the
point weights, tier definitions, the vPRA sliding scale, the candidate-donor
age filter, and the filtering toggles.  Policies load from nested YAML
documents; unknown keys are hard errors so typos cannot silently revert a
parameter to its default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .entities import GEOGRAPHY_CLASSES


class PolicyError(ValueError):
    """Invalid policy configuration; message aggregates every problem."""


# Default distance-point schedules per country, as (local/regional,
# national, international) points.  Real schedules are national business
# rules; these defaults are illustrative and meant to be overridden from the
# policy file for any serious use.
DEFAULT_DISTANCE_POINTS: dict[str, dict[str, float]] = {
    country: dict(zip(GEOGRAPHY_CLASSES, points))
    for country, points in {
        "AT": (300.0, 100.0, 0.0), "BE": (300.0, 100.0, 0.0),
        "HR": (300.0, 100.0, 0.0), "DE": (200.0, 100.0, 0.0),
        "HU": (300.0, 100.0, 0.0), "LU": (300.0, 100.0, 0.0),
        "NL": (100.0, 100.0, 0.0), "SI": (300.0, 100.0, 0.0),
    }.items()}

# ESP tier tables: ordered (scope, age class) pairs, best tier first.
# Scope is the candidate's location relative to the donor; age class splits
# 65+ candidates from under-65 extended-allocation opt-ins.
ESP_SCOPES = ("subregion", "region", "national", "international")
ESP_AGE_CLASSES = ("65plus", "under65")

DEFAULT_ESP_TIERS: dict[str, list[tuple[str, str]]] = {
    "DE": [("subregion", "65plus"), ("region", "65plus"),
           ("national", "65plus"), ("international", "65plus"),
           ("subregion", "under65"), ("region", "under65"),
           ("national", "under65"), ("international", "under65")],
    "NL": [("national", "65plus"), ("international", "65plus"),
           ("national", "under65"), ("international", "under65")],
    "default": [("region", "65plus"), ("national", "65plus"),
                ("international", "65plus"), ("region", "under65"),
                ("national", "under65"), ("international", "under65")],
}

# Age-filter curves as (candidate age - donor age, fraction) breakpoints.
# Both shipped filters keep 100% of the points inside a 5-year difference;
# the strict one gives almost nothing to candidates 20+ years older than
# the donor, the muted one decays far less.  Breakpoints are illustrative
# approximations and configurable.
AGE_FILTER_CURVES: dict[str, list[tuple[float, float]]] = {
    "strict": [(-90.0, 0.5), (-35.0, 0.6), (-20.0, 0.75), (-5.0, 1.0),
               (5.0, 1.0), (10.0, 0.6), (15.0, 0.25), (20.0, 0.0),
               (90.0, 0.0)],
    "muted": [(-90.0, 0.7), (-35.0, 0.8), (-20.0, 0.9), (-5.0, 1.0),
              (5.0, 1.0), (10.0, 0.85), (15.0, 0.7), (20.0, 0.5),
              (35.0, 0.4), (90.0, 0.4)],
}


@dataclass(frozen=True)
class SlidingScaleConfig:
    """Direct vPRA points: max_points * (base**vpra - 1) / (base - 1)."""

    enabled: bool = False
    max_points: float = 133.0
    base: float = 5.0
    #: replace mismatch probability points by HLA-only mismatch points
    hmpp_replaces_mmp: bool = True


@dataclass(frozen=True)
class AgeFilterConfig:
    enabled: bool = False
    curve: tuple[tuple[float, float], ...] = tuple(AGE_FILTER_CURVES["muted"])


@dataclass(frozen=True)
class FilteringConfig:
    apply_allocation_profiles: bool = True
    apply_hla_mismatch_criteria: bool = True


@dataclass(frozen=True)
class PolicyConfig:
    """Full parameter surface of the ETKAS and ESP ranking rules."""

    # ETKAS point system
    hla_base_points: float = 400.0
    hla_mm_beta_a: float = -66.7
    hla_mm_beta_b: float = -66.7
    hla_mm_beta_dr: float = -66.7
    pediatric_hla_double: bool = True
    dialysis_points_per_year: float = 33.33
    pediatric_bonus: float = 100.0
    hu_points: float = 500.0
    mmp_weight: float = 100.0
    balance_weight_default: float = 30.0
    balance_weight_by_country: Mapping[str, float] = field(default_factory=dict)
    distance_points: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: DEFAULT_DISTANCE_POINTS)

    # tier definitions
    pediatric_candidate_age_below: float = 18.0
    pediatric_donor_age_below: float = 18.0
    esp_donor_age_from: float = 65.0
    esp_candidate_age_from: float = 65.0

    esp_tiers: Mapping[str, Sequence[tuple[str, str]]] = field(
        default_factory=lambda: DEFAULT_ESP_TIERS)

    sliding_scale: SlidingScaleConfig = SlidingScaleConfig()
    age_filter: AgeFilterConfig = AgeFilterConfig()
    filtering: FilteringConfig = FilteringConfig()

    screening_max_age_days: int = 180

    def balance_weight(self, country: str) -> float:
        return self.balance_weight_by_country.get(country, self.balance_weight_default)

    def distance_schedule(self, country: str) -> Mapping[str, float]:
        return self.distance_points.get(country, {g: 0.0 for g in GEOGRAPHY_CLASSES})

    def esp_tier_table(self, country: str) -> Sequence[tuple[str, str]]:
        table = self.esp_tiers.get(country)
        if table is None:
            table = self.esp_tiers.get("default", DEFAULT_ESP_TIERS["default"])
        return table

    def with_hla_betas(self, beta_a: float, beta_b: float,
                       beta_dr: float) -> "PolicyConfig":
        return replace(self, hla_mm_beta_a=beta_a, hla_mm_beta_b=beta_b,
                       hla_mm_beta_dr=beta_dr)


def sliding_scale_points(vpra: float, cfg: PolicyConfig) -> float:
    """Points awarded directly for the vPRA under the sliding scale.

    Zero at vPRA 0, exactly max_points at vPRA 1, monotone in between with
    steepness controlled by the base.
    """
    ss = cfg.sliding_scale
    if not ss.enabled:
        return 0.0
    if ss.base <= 1.0:
        raise PolicyError(f"sliding scale base must exceed 1, got {ss.base}")
    if not 0.0 <= vpra <= 1.0:
        raise ValueError(f"vpra = {vpra} outside [0, 1]")
    return ss.max_points * (ss.base ** vpra - 1.0) / (ss.base - 1.0)


def validate(cfg: PolicyConfig) -> list[str]:
    """Return a list of human-readable problems; empty means the config is ok."""
    errors: list[str] = []
    numeric_fields = (
        "hla_base_points", "hla_mm_beta_a", "hla_mm_beta_b", "hla_mm_beta_dr",
        "dialysis_points_per_year", "pediatric_bonus", "hu_points",
        "mmp_weight", "balance_weight_default")
    import math
    for name in numeric_fields:
        v = getattr(cfg, name)
        if not math.isfinite(v):
            errors.append(f"{name} must be finite, got {v}")
    if cfg.sliding_scale.enabled and cfg.sliding_scale.base <= 1.0:
        errors.append(
            f"sliding scale enabled with base {cfg.sliding_scale.base}; "
            "base must exceed 1")
    if cfg.sliding_scale.max_points < 0:
        errors.append("sliding scale max_points must be >= 0")
    for x, y in cfg.age_filter.curve:
        if not 0.0 <= y <= 1.0:
            errors.append(f"age filter fraction {y} at difference {x} "
                          "outside [0, 1]")
    if len(cfg.age_filter.curve) < 2:
        errors.append("age filter curve needs at least two breakpoints")
    for country, schedule in cfg.distance_points.items():
        for klass, pts in schedule.items():
            if klass not in GEOGRAPHY_CLASSES:
                errors.append(f"distance schedule {country}: unknown "
                              f"geography class {klass!r}")
            if pts < 0:
                errors.append(f"distance schedule {country}/{klass}: "
                              f"negative points {pts}")
    for country, tiers in cfg.esp_tiers.items():
        for entry in tiers:
            scope, age_class = entry
            if scope not in ESP_SCOPES:
                errors.append(f"esp tier table {country}: unknown scope {scope!r}")
            if age_class not in ESP_AGE_CLASSES:
                errors.append(f"esp tier table {country}: unknown age class "
                              f"{age_class!r}")
    if cfg.screening_max_age_days <= 0:
        errors.append("screening_max_age_days must be positive")
    return errors


def validated(cfg: PolicyConfig) -> PolicyConfig:
    errors = validate(cfg)
    if errors:
        raise PolicyError("; ".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# YAML loading

_SS_KEYS = {"enabled", "max_points", "base", "hmpp_replaces_mmp"}
_AF_KEYS = {"enabled", "curve", "named_curve"}
_FILT_KEYS = {"apply_allocation_profiles", "apply_hla_mismatch_criteria"}
_POINT_KEYS = {
    "hla_base": "hla_base_points",
    "hla_mm_beta_a": "hla_mm_beta_a",
    "hla_mm_beta_b": "hla_mm_beta_b",
    "hla_mm_beta_dr": "hla_mm_beta_dr",
    "pediatric_hla_double": "pediatric_hla_double",
    "dialysis_per_year": "dialysis_points_per_year",
    "pediatric_bonus": "pediatric_bonus",
    "hu_bonus": "hu_points",
    "mmp_weight": "mmp_weight",
    "balance_weight_default": "balance_weight_default",
    "balance_weight_by_country": "balance_weight_by_country",
    "distance_by_country": "distance_points",
}
_TIER_KEYS = {
    "pediatric_candidate_age_below": "pediatric_candidate_age_below",
    "pediatric_donor_age_below": "pediatric_donor_age_below",
    "esp_donor_age_from": "esp_donor_age_from",
    "esp_candidate_age_from": "esp_candidate_age_from",
}
_TOP_KEYS = {"points", "tiers", "esp_tiers", "sliding_scale", "age_filter",
             "filtering", "screening_max_age_days"}


def _reject_unknown(section: str, mapping: Mapping, allowed) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise PolicyError(
            f"unknown key(s) in {section}: {', '.join(map(repr, unknown))}")


def policy_from_mapping(doc: Mapping) -> PolicyConfig:
    """Build a PolicyConfig from a nested mapping, rejecting unknown keys."""
    if doc is None:
        doc = {}
    _reject_unknown("policy", doc, _TOP_KEYS)
    kwargs: dict = {}

    points = doc.get("points", {}) or {}
    _reject_unknown("points", points, _POINT_KEYS)
    for key, attr in _POINT_KEYS.items():
        if key in points:
            kwargs[attr] = points[key]

    tiers = doc.get("tiers", {}) or {}
    _reject_unknown("tiers", tiers, _TIER_KEYS)
    for key, attr in _TIER_KEYS.items():
        if key in tiers:
            kwargs[attr] = tiers[key]

    if "esp_tiers" in doc and doc["esp_tiers"]:
        kwargs["esp_tiers"] = {
            country: [tuple(entry) for entry in table]
            for country, table in doc["esp_tiers"].items()}

    if "sliding_scale" in doc and doc["sliding_scale"]:
        ss = doc["sliding_scale"]
        _reject_unknown("sliding_scale", ss, _SS_KEYS)
        kwargs["sliding_scale"] = SlidingScaleConfig(**ss)

    if "age_filter" in doc and doc["age_filter"]:
        af = dict(doc["age_filter"])
        _reject_unknown("age_filter", af, _AF_KEYS)
        if "named_curve" in af:
            name = af.pop("named_curve")
            if name not in AGE_FILTER_CURVES:
                raise PolicyError(f"unknown named age filter curve {name!r}")
            af["curve"] = AGE_FILTER_CURVES[name]
        if "curve" in af:
            af["curve"] = tuple((float(x), float(y)) for x, y in af["curve"])
        kwargs["age_filter"] = AgeFilterConfig(**af)

    if "filtering" in doc and doc["filtering"]:
        filt = doc["filtering"]
        _reject_unknown("filtering", filt, _FILT_KEYS)
        kwargs["filtering"] = FilteringConfig(**filt)

    if "screening_max_age_days" in doc:
        kwargs["screening_max_age_days"] = int(doc["screening_max_age_days"])

    return validated(PolicyConfig(**kwargs))


def load_policy(path: str | Path) -> PolicyConfig:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    try:
        return policy_from_mapping(doc)
    except TypeError as exc:
        raise PolicyError(str(exc))
