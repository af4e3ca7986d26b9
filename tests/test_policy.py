"""Policy configuration: defaults, sliding scale, age filter, validation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkasim.policy import (AGE_FILTER_CURVES, AgeFilterConfig, PolicyConfig,
                            PolicyError, SlidingScaleConfig, load_policy,
                            policy_from_mapping, sliding_scale_points,
                            validate, validated)

from oracle.matchlist import age_filter_fraction


class TestDefaults:
    def test_point_system_numbers(self):
        cfg = PolicyConfig()
        assert cfg.hla_base_points == 400.0
        assert cfg.hla_mm_beta_a == pytest.approx(-66.7, abs=0.04)
        assert cfg.hla_mm_beta_b == pytest.approx(-66.7, abs=0.04)
        assert cfg.hla_mm_beta_dr == pytest.approx(-66.7, abs=0.04)
        assert cfg.dialysis_points_per_year == 33.33
        assert cfg.pediatric_bonus == 100.0
        assert cfg.hu_points == 500.0
        assert cfg.mmp_weight == 100.0
        assert max(max(s.values()) for s in cfg.distance_points.values()) \
            == 300.0
        assert validate(cfg) == []

    def test_reweighting_policies_are_pure_beta_overrides(self):
        variants = {
            "b_2dr": (0.0, -66.7, -133.3),
            "halfa_b_15dr": (-33.3, -66.7, -100.0),
            "15b_15dr": (0.0, -100.0, -100.0),
        }
        for name, betas in variants.items():
            cfg = PolicyConfig().with_hla_betas(*betas)
            assert (cfg.hla_mm_beta_a, cfg.hla_mm_beta_b,
                    cfg.hla_mm_beta_dr) == betas
            assert cfg.hla_base_points == 400.0
            assert validate(cfg) == []


class TestSlidingScale:
    def _cfg(self, max_points=133.0, base=5.0):
        return PolicyConfig(sliding_scale=SlidingScaleConfig(
            enabled=True, max_points=max_points, base=base))

    def test_zero_at_zero(self):
        assert sliding_scale_points(0.0, self._cfg()) == 0.0

    def test_max_at_one(self):
        assert sliding_scale_points(1.0, self._cfg()) == pytest.approx(133.0)

    def test_known_value(self):
        # 133 * (5^0.85 - 1) / 4
        want = 133.0 * (5.0 ** 0.85 - 1.0) / 4.0
        got = sliding_scale_points(0.85, self._cfg())
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(97.34, abs=0.01)

    def test_disabled_scale_gives_zero(self):
        assert sliding_scale_points(0.9, PolicyConfig()) == 0.0

    def test_bad_base_rejected(self):
        with pytest.raises(PolicyError):
            sliding_scale_points(0.5, self._cfg(base=1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 0.999), st.floats(0.0005, 0.001))
    def test_monotone(self, v, eps):
        cfg = self._cfg()
        assert (sliding_scale_points(min(1.0, v + eps), cfg)
                >= sliding_scale_points(v, cfg))


class TestAgeFilter:
    def test_identity_inside_five_years(self):
        for name in ("muted", "strict"):
            curve = AGE_FILTER_CURVES[name]
            for diff in (-5, -2, 0, 3, 5):
                assert age_filter_fraction(50 + diff, 50, curve) == 1.0

    def test_disabled_filter_means_full_points(self):
        cfg = PolicyConfig()
        assert not cfg.age_filter.enabled

    def test_strict_filter_crushes_much_older_candidates(self):
        curve = AGE_FILTER_CURVES["strict"]
        assert age_filter_fraction(75, 50, curve) <= 0.02
        assert age_filter_fraction(90, 30, curve) <= 0.02

    def test_piecewise_linear_interpolation(self):
        curve = [(-10.0, 0.5), (0.0, 1.0), (10.0, 0.0)]
        assert age_filter_fraction(55, 50, curve) == pytest.approx(0.5)
        assert age_filter_fraction(45, 50, curve) == pytest.approx(0.75)
        # clamped outside the range
        assert age_filter_fraction(80, 50, curve) == 0.0
        assert age_filter_fraction(10, 50, curve) == 0.5

    def test_asymmetry(self):
        for name in ("muted", "strict"):
            curve = AGE_FILTER_CURVES[name]
            assert (age_filter_fraction(70, 50, curve)
                    < age_filter_fraction(30, 50, curve))


class TestValidation:
    def test_default_ok(self):
        assert validate(PolicyConfig()) == []

    def test_bad_sliding_base(self):
        cfg = PolicyConfig(sliding_scale=SlidingScaleConfig(enabled=True,
                                                            base=1.0))
        problems = validate(cfg)
        assert any("base" in p for p in problems)
        with pytest.raises(PolicyError):
            validated(cfg)

    def test_negative_age_filter_fraction(self):
        cfg = PolicyConfig(age_filter=AgeFilterConfig(
            enabled=True, curve=((-10.0, -0.2), (10.0, 1.0))))
        assert any("outside" in p for p in validate(cfg))

    def test_nonfinite_weight(self):
        cfg = PolicyConfig(hla_base_points=math.inf)
        assert any("finite" in p for p in validate(cfg))


class TestYamlLoading:
    def test_defaults_from_empty_document(self):
        cfg = policy_from_mapping({})
        assert cfg == validated(PolicyConfig())

    def test_nested_overrides(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text(
            "points:\n"
            "  hla_mm_beta_a: 0.0\n"
            "  hla_mm_beta_dr: -133.3\n"
            "sliding_scale:\n"
            "  enabled: true\n"
            "  max_points: 133\n"
            "  base: 5\n"
            "age_filter:\n"
            "  enabled: true\n"
            "  named_curve: strict\n")
        cfg = load_policy(path)
        assert cfg.hla_mm_beta_a == 0.0
        assert cfg.hla_mm_beta_dr == -133.3
        assert cfg.hla_mm_beta_b == pytest.approx(-66.7)
        assert cfg.sliding_scale.enabled
        assert cfg.age_filter.enabled
        assert cfg.age_filter.curve == tuple(AGE_FILTER_CURVES["strict"])

    def test_unknown_key_rejected(self):
        with pytest.raises(PolicyError, match="hla_basee"):
            policy_from_mapping({"points": {"hla_basee": 400}})

    def test_unknown_section_rejected(self):
        with pytest.raises(PolicyError, match="pionts"):
            policy_from_mapping({"pionts": {}})

    def test_unknown_named_curve(self):
        with pytest.raises(PolicyError, match="gentle"):
            policy_from_mapping({"age_filter": {"named_curve": "gentle"}})
