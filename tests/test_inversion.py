"""The step-curve inversions bisect a key over the stored curve; they must
return what bisecting a list built from the whole curve returns.

The oracles below are those list-building formulas.  Curves may rise by up
to 1e-12 from one step to the next, as the baseline and curve validators
allow, and uniforms are drawn both freely and at the curve's own values,
where ties decide the answer.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from etkasim.entities import ESP
from etkasim.offering import CoxSampler, StepSurvival
from etkasim.posttransplant import StepCurve


@st.composite
def curves(draw) -> list[float]:
    """A non-increasing curve on [0, 1], but for upticks of up to 1e-12."""
    values = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                  max_size=30)), reverse=True)
    upticks = draw(st.lists(st.one_of(st.none(), st.floats(0.0, 1e-12)),
                            min_size=len(values), max_size=len(values)))
    for i, delta in enumerate(upticks[1:], start=1):
        if delta is not None:
            values[i] = values[i - 1] + delta
    return values


def uniforms(draw, at: list[float]) -> float:
    return draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(at)))


def cox_by_list(base: StepSurvival, rel_risk: float, u: float) -> int | None:
    survival = [s ** rel_risk for s in base.s0]
    idx = bisect_left([-s for s in survival], -u)
    if idx >= len(survival):
        return None
    return base.ks[idx]


def crossing_by_list(curve: StepCurve, u: float) -> float | None:
    cdf = [1.0 - s for s in curve.survival]
    idx = bisect_left(cdf, u)
    if idx >= len(cdf):
        return None
    return curve.grid[idx]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), s0=curves(), lp=st.floats(-3.0, 3.0))
def test_cox_sample_equals_list_inversion(data, s0, lp):
    base = StepSurvival(ks=tuple(range(1, len(s0) + 1)), s0=tuple(s0))
    sampler = CoxSampler({"x": 1.0}, {"ESP": base}, "max_offers")
    rel_risk = math.exp(lp)
    u = uniforms(data.draw, [s ** rel_risk for s in s0])
    assert sampler.sample(ESP, "BE", {"x": lp}, u) == cox_by_list(
        base, rel_risk, u)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), survival=curves())
def test_crossing_equals_list_inversion(data, survival):
    grid = sorted(data.draw(st.lists(st.floats(0.0, 1.0),
                                     min_size=len(survival),
                                     max_size=len(survival))))
    curve = StepCurve(grid=tuple(grid), survival=tuple(survival))
    u = uniforms(data.draw, [1.0 - s for s in survival])
    assert curve.crossing(u) == crossing_by_list(curve, u)
