"""In-memory SimulationInputs builder for engine-level tests."""

from __future__ import annotations

import math
from datetime import date
from pathlib import Path

import numpy as np

from etkasim.balances import DONOR_AGE_GROUPS, BalanceLedger
from etkasim.common import to_days
from etkasim.entities import (CandidateRegistration, DonorArrival,
                              StatusUpdate)
from etkasim.hla import BloodGroupFrequencies, HlaTyping
from etkasim.io import SimulationInputs, SimulationSettings
from etkasim.offering import AcceptanceModels, CoxSampler, LogisticModel, StepSurvival
from etkasim.policy import PolicyConfig
from etkasim.posttransplant import (PoolEntry, RelistCurveSet, RelistingPool,
                                    StepCurve, WeibullModel)
from etkasim.posttransplant import AGE_BUCKETS, TIME_BUCKETS

from fixtures_tables import (F_BG_A, TYPING_BY_MM, build_antigen_table,
                             build_centers, build_frequency_table,
                             build_panel, build_policy)

WINDOW_START = date(2021, 4, 1)
WINDOW_END = date(2022, 4, 1)
# the window's bounds as days since 1970-01-01, the unit of StatusUpdate.day,
# BalanceEvent.day and DonorArrival.report_day
START_DAY = to_days(WINDOW_START)
END_DAY = to_days(WINDOW_END)


def group_sum(ledger: BalanceLedger, group: str) -> int:
    """The national net exports of donor age group ``group``, summed over
    the countries: zero while every transfer books one export and one
    import."""
    return sum(n for (_, g), n in ledger.snapshot().items() if g == group)


def watch_conservation(monkeypatch) -> list[str]:
    """Check every group sum after each ``BalanceLedger.record_transfer``,
    the only way a ledger changes, for the rest of the test.  Returns the
    list the failures are appended to."""
    failures: list[str] = []
    record_transfer = BalanceLedger.record_transfer

    def checked(ledger, event):
        record_transfer(ledger, event)
        for group in DONOR_AGE_GROUPS:
            total = group_sum(ledger, group)
            if total != 0:
                failures.append(f"ledger sum {total} != 0 in group {group}")

    monkeypatch.setattr(BalanceLedger, "record_transfer", checked)
    return failures


def traced(state):
    """``state`` with an empty offer-trace sink attached."""
    state.offer_trace = []
    return state


def constant_logistic(p: float, model_id: str) -> LogisticModel:
    if p <= 0.0:
        lp = -745.0
    elif p >= 1.0:
        lp = 745.0
    else:
        lp = math.log(p / (1.0 - p))
    return LogisticModel(model_id=model_id, intercept=lp, coefficients={})


def flat_cox(mean_offers: int = 20) -> CoxSampler:
    ks = tuple(range(1, 101))
    rate = 1.0 / mean_offers
    s0 = tuple(float(np.exp(-rate * k)) for k in ks)
    base = StepSurvival(ks=ks, s0=s0)
    return CoxSampler({}, {"ETKAS:default": base, "ESP": base},
                      model_id="max_offers")


def no_relist_curves() -> RelistCurveSet:
    curve = StepCurve(grid=(0.5,), survival=(1.0,))
    return RelistCurveSet({(tb, ab): curve for tb in TIME_BUCKETS
                           for ab in AGE_BUCKETS})


def always_relist_curves(ratio: float = 0.5) -> RelistCurveSet:
    curve = StepCurve(grid=(ratio,), survival=(0.0,))
    return RelistCurveSet({(tb, ab): curve for tb in TIME_BUCKETS
                           for ab in AGE_BUCKETS})


def far_future_weibull() -> WeibullModel:
    return WeibullModel(coefficients={}, intercept=36500.0,
                        shape_by_country={}, default_shape=1.0)


def quick_failure_weibull(days: float) -> WeibullModel:
    # deterministic-ish scale; draws spread around `days`
    return WeibullModel(coefficients={}, intercept=days,
                        shape_by_country={}, default_shape=8.0)


def default_pool() -> RelistingPool:
    entries = []
    for i, country in enumerate(("BE", "DE", "HU", "HR", "NL", "AT")):
        for j in range(6):
            t_days = 300.0 + 450 * j
            entries.append(PoolEntry(
                id=f"POOL{i}{j}", country=country,
                age_at_relist=30.0 + 9 * j,
                dialysis_days_at_relist=500 + 100 * j,
                relisted_within_1y=bool(j % 2),
                r_days=t_days * 0.4, t_days=t_days,
                status_updates=((0, "T"), (1500 + 100 * j, "R"))))
    return RelistingPool(entries)


def candidate(cid: str, country="BE", center="BEC01", bg="A", age=50.0,
              mm=(1, 1, 1), reg_offset=-400, dialysis_days=1000,
              screening_offset=-30, urgency="T", **kw) -> CandidateRegistration:
    return CandidateRegistration(
        id=cid, patient_id=kw.pop("patient_id", cid), country=country,
        center=center, blood_group=bg,
        birth_day=START_DAY - int(age * 365.25),
        registration_day=START_DAY + reg_offset,
        hla=HlaTyping(TYPING_BY_MM[mm]),
        dialysis_start_day=(START_DAY - dialysis_days
                            if dialysis_days else None),
        last_screening_day=START_DAY + screening_offset,
        initial_urgency=urgency,
        **kw)


def donor(did: str, offset_days: int, age=45, bg="A", country="BE",
          center="BEC01", kidneys=2, **kw) -> DonorArrival:
    return DonorArrival(
        id=did, report_day=START_DAY + offset_days,
        age=age, blood_group=bg, country=country, center=center,
        hla=HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                       "DR": ("DR1", "DR4")}),
        kidneys_available=kidneys, **kw)


def screening_days(*days: int) -> np.ndarray:
    """A screenings entry: the refresh days, sorted, read-only int32."""
    out = np.sort(np.array(days, dtype=np.int32))
    out.flags.writeable = False
    return out


def terminal_updates(regs, day=None) -> dict[str, list[StatusUpdate]]:
    """Minimal complete streams: a removal long after the window."""
    day = END_DAY + 900 if day is None else day
    return {reg.id: [StatusUpdate(reg.id, day, "URG", "R")] for reg in regs}


def fresh_screenings(regs) -> dict[str, np.ndarray]:
    """Screenings every 150 days through the window, so candidates stay
    fresh."""
    return {reg.id: screening_days(*range(
        max(reg.registration_day, START_DAY - 30), END_DAY + 1,
        150)) for reg in regs}


def make_inputs(regs, donors, updates=None, screenings=None,
                balance_events=(),
                policy: PolicyConfig | None = None,
                center_p=1.0, patient_p=1.0, dual_p=0.0,
                cox: CoxSampler | None = None,
                weibull: WeibullModel | None = None,
                curves: RelistCurveSet | None = None,
                pool: RelistingPool | None = None,
                unplaced_mode="discard",
                window=(WINDOW_START, WINDOW_END),
                panel=None) -> SimulationInputs:
    """Inputs over ``regs`` and ``donors``.  Without ``updates``, each
    candidate gets ``terminal_updates`` and ``fresh_screenings``; with
    them, only the ``screenings`` passed."""
    if updates is None:
        updates = terminal_updates(regs)
        if screenings is None:
            screenings = fresh_screenings(regs)
    table = build_antigen_table()
    centers = build_centers()
    settings = SimulationSettings(
        window_start=window[0], window_end=window[1], paths={},
        base_dir=Path("."), seed=1, unplaced_mode=unplaced_mode)
    models = AcceptanceModels(
        center=constant_logistic(center_p, "center"),
        patient=constant_logistic(patient_p, "patient"),
        dual=constant_logistic(dual_p, "dual"))
    return SimulationInputs(
        settings=settings,
        antigen_table=table,
        centers=centers,
        bg_freqs=BloodGroupFrequencies({"A": F_BG_A, "O": 0.43, "B": 0.10,
                                        "AB": 0.05}),
        freq_table=build_frequency_table(),
        panel=panel or build_panel(table),
        policy=policy or build_policy(),
        registrations=list(regs),
        updates=updates,
        screenings=screenings or {},
        donors=list(donors),
        balance_events=list(balance_events),
        cox=cox or flat_cox(),
        etkas_models=models,
        esp_models=models,
        weibull=weibull or far_future_weibull(),
        relist_curves=curves or no_relist_curves(),
        relist_pool=pool or default_pool(),
    )


def summary_row(table, name: str):
    """The row of a ``reporting.SummaryTable`` that holds statistic
    ``name``."""
    for row in table.rows:
        if row.name == name:
            return row
    raise KeyError(name)
