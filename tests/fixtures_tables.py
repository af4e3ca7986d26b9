"""Reconstruction fixtures for the two published match-list examples.

The ETKAS fixture rebuilds a 14-row filtered list for a Belgian blood-group
A donor: one zero-mismatch German candidate on top, then thirteen
candidates ordered by points, with exact dialysis/HLA/pediatric/balance/
distance/MMP component values.  Candidate vPRAs are engineered through
"stripe" antigens carried by known fractions of the reference panel so that
every row's mismatch-probability points land on the published integer.

The ESP fixture rebuilds an 11-row list for a 70-year-old German donor
where every candidate sits in the same ESP subregion tier and ranking is
purely by accrued dialysis days.
"""

from __future__ import annotations

import math
from datetime import date

from etkasim.balances import BalanceEvent, BalanceLedger
from etkasim.common import to_days
from etkasim.entities import (AllocationProfile, CandidateRegistration,
                              Center, CenterRegistry, DonorArrival)
from etkasim.fastmatch import CandidateStore, HlaIndex, build_match_arrays
from etkasim.hla import (Antigen, AntigenTable, BloodGroupFrequencies,
                         DonorPanel, FrequencyTable, HlaTyping)
from etkasim.policy import PolicyConfig, validated

from oracle.hla import compute_vpra
from oracle.matchlist import CandidateState, MatchPointContext, init_ledger

# the match date, 2021-06-15, as days since 1970-01-01
MATCH_DAY = to_days(date(2021, 6, 15))

A_CODES = ["A1", "A2", "A3", "A9", "A10", "A11", "A19", "A28"]
B_CODES = ["B5", "B7", "B8", "B12", "B13", "B14", "B15", "B16"]
DR_CODES = ["DR1", "DR4", "DR7", "DR8", "DR9", "DR10", "DR11", "DR12"]
STRIPE_CODES = [f"AX{i}" for i in range(10)]
STRIPE_SIZES = [500, 250, 125, 62, 31, 16, 8, 4, 2, 1]

F_BG_A = 0.42
PANEL_N = 1000
BALANCE_WEIGHT = 10.0

# rank -> (country, center, (mmA, mmB, mmDR), dialysis pts, pediatric,
#          expected component ints [dial, hla, ped, hu, balance, distance,
#          mmp], expected total)
ETKAS_ROWS = [
    ("DE", "DEC01", (0, 0, 0), 298, False, 0, 0, 24, 722),
    ("HR", "HRC01", (1, 1, 1), 249, True, 550, 0, 44, 1343),
    ("BE", "BEC01", (1, 1, 1), 155, False, 550, 300, 95, 1300),
    ("BE", "BEC01", (1, 1, 1), 100, False, 550, 300, 69, 1219),
    ("BE", "BEC01", (2, 0, 2), 90, False, 550, 300, 83, 1156),
    ("HU", "HUC01", (0, 0, 1), 0, True, 370, 0, 10, 1147),
    ("BE", "BEC01", (1, 0, 1), 7, False, 550, 300, 19, 1143),
    ("BE", "BEC01", (1, 0, 2), 0, False, 550, 300, 80, 1130),
    ("BE", "BEC02", (1, 0, 1), 172, False, 550, 100, 24, 1113),
    ("BE", "BEC01", (1, 1, 1), 5, False, 550, 300, 42, 1097),
    ("BE", "BEC01", (1, 1, 1), 0, False, 550, 300, 16, 1066),
    ("BE", "BEC02", (1, 1, 0), 60, False, 550, 100, 82, 1059),
    ("BE", "BEC01", (2, 0, 2), 24, False, 550, 300, 46, 1053),
    ("BE", "BEC02", (1, 1, 0), 47, False, 550, 100, 85, 1049),
]


def build_antigen_table() -> AntigenTable:
    rows = []
    for code in A_CODES + STRIPE_CODES:
        rows.append(Antigen(code=code, locus="A", broad=code))
    for code in B_CODES:
        rows.append(Antigen(code=code, locus="B", broad=code))
    for code in DR_CODES:
        rows.append(Antigen(code=code, locus="DR", broad=code))
    return AntigenTable(rows, path=None)


def build_frequency_table() -> FrequencyTable:
    return FrequencyTable({
        "A": {c: 1.0 / 8 for c in A_CODES},
        "B": {c: 1.0 / 8 for c in B_CODES},
        "DR": {c: 1.0 / 8 for c in DR_CODES},
    }, path=None)


def build_centers() -> CenterRegistry:
    return CenterRegistry([
        Center("BEC01", "BE", "BE-R1"),
        Center("BEC02", "BE", "BE-R2"),
        Center("DEC01", "DE", "DE-R1"),
        Center("HRC01", "HR", "HR-R1"),
        Center("HUC01", "HU", "HU-R1"),
        Center("ATC01", "AT", "AT-R1"),
        Center("NLC01", "NL", "NL-R1"),
        Center("SIC01", "SI", "SI-R1"),
        Center("DEST1", "DE", "DE-BW", "DE-BW1"),
        Center("DETU1", "DE", "DE-BW", "DE-BW1"),
        Center("DEHE1", "DE", "DE-BW", "DE-BW1"),
        Center("DEMA1", "DE", "DE-BW", "DE-BW1"),
        Center("DEBE1", "DE", "DE-NE", "DE-NE1"),
    ])


def build_policy() -> PolicyConfig:
    return validated(PolicyConfig(
        balance_weight_default=BALANCE_WEIGHT,
        distance_points={
            "BE": {"local_regional": 300.0, "national": 100.0,
                   "international": 0.0},
            "DE": {"local_regional": 300.0, "national": 100.0,
                   "international": 0.0},
        },
    ))


def build_panel(table: AntigenTable) -> DonorPanel:
    """1000 donors; stripe antigen i rides on a consecutive block of rows,
    so stripes are disjoint and a candidate's vPRA is the sum of its
    stripes' sizes over 1000."""
    starts = []
    pos = 0
    for size in STRIPE_SIZES:
        starts.append(pos)
        pos += size
    typings = []
    for row in range(PANEL_N):
        a = ["A1", "A2"]
        for i, (start, size) in enumerate(zip(starts, STRIPE_SIZES)):
            if start <= row < start + size:
                a = ["A1", STRIPE_CODES[i]]
                break
        typings.append(HlaTyping({"A": tuple(a), "B": ("B5", "B7"),
                                  "DR": ("DR1", "DR4")}))
    return DonorPanel(typings, path=None)


def stripes_for(k: int) -> frozenset[str]:
    """Greedy subset of stripe sizes summing exactly to k (0 <= k <= 999)."""
    chosen = []
    remaining = k
    for code, size in zip(STRIPE_CODES, STRIPE_SIZES):
        if size <= remaining:
            chosen.append(code)
            remaining -= size
    assert remaining == 0, k
    return frozenset(chosen)


def analytic_p() -> float:
    s = 2.0 / 8.0
    p0 = s * s
    p1 = 2 * s * (1 - s) + 6.0 / 64.0
    return p0 ** 3 + 3 * p1 * p0 * p0


def mmp_value(vpra: float) -> float:
    x = F_BG_A * (1.0 - vpra) * analytic_p()
    return math.exp(1000.0 * math.log1p(-x))


def solve_stripe_count(target_points: int) -> int:
    for k in range(PANEL_N):
        if round(100.0 * mmp_value(k / PANEL_N)) == target_points:
            return k
    raise AssertionError(f"no vPRA grid point yields {target_points} points")


def solve_dialysis_days(target_points: int) -> int:
    if target_points == 0:
        return 0
    guess = int(round(target_points / 33.33 * 365.25))
    for days in range(max(0, guess - 3), guess + 4):
        if math.floor(33.33 * days / 365.25 + 0.5) == target_points:
            return days
    raise AssertionError(f"no day count yields {target_points} points")


DONOR_HLA = HlaTyping({"A": ("A1", "A2"), "B": ("B5", "B7"),
                       "DR": ("DR1", "DR4")})

# candidate typings per (mmA, mmB, mmDR) against the donor above
TYPING_BY_MM = {
    (0, 0, 0): {"A": ("A1", "A2"), "B": ("B5", "B7"), "DR": ("DR1", "DR4")},
    (1, 1, 1): {"A": ("A1", "A3"), "B": ("B5", "B8"), "DR": ("DR1", "DR7")},
    (2, 0, 2): {"A": ("A3", "A9"), "B": ("B5", "B7"), "DR": ("DR7", "DR8")},
    (0, 0, 1): {"A": ("A1", "A2"), "B": ("B5", "B7"), "DR": ("DR1", "DR7")},
    (1, 0, 1): {"A": ("A1", "A3"), "B": ("B5", "B7"), "DR": ("DR1", "DR7")},
    (1, 0, 2): {"A": ("A1", "A3"), "B": ("B5", "B7"), "DR": ("DR7", "DR8")},
    (1, 1, 0): {"A": ("A1", "A3"), "B": ("B5", "B8"), "DR": ("DR1", "DR4")},
    (0, 2, 2): {"A": ("A1", "A2"), "B": ("B8", "B12"), "DR": ("DR7", "DR8")},
    (2, 2, 2): {"A": ("A3", "A9"), "B": ("B8", "B12"), "DR": ("DR7", "DR8")},
}


def build_etkas_donor() -> DonorArrival:
    return DonorArrival(
        id="DON-A1", report_day=MATCH_DAY, age=45,
        blood_group="A",
        country="BE", center="BEC01", hla=DONOR_HLA, kidneys_available=2)


def build_etkas_registrations(include_fillers: bool = False):
    regs = []
    for rank, (country, center, mm, dial_pts, pediatric, *_rest) in enumerate(
            ETKAS_ROWS, start=1):
        mmp_pts = ETKAS_ROWS[rank - 1][7]
        stripes = stripes_for(solve_stripe_count(mmp_pts))
        days = solve_dialysis_days(dial_pts)
        age = 10 if pediatric else 50
        regs.append(CandidateRegistration(
            id=f"R{rank:02d}",
            patient_id=f"R{rank:02d}",
            country=country, center=center, blood_group="A",
            birth_day=MATCH_DAY - (int(age * 365.25) + 10),
            registration_day=to_days(date(2015, 1, 1)) + rank,
            hla=HlaTyping(TYPING_BY_MM[mm]),
            unacceptables=stripes,
            dialysis_start_day=MATCH_DAY - days if days else None,
            last_screening_day=MATCH_DAY - 30,
            initial_urgency="T",
        ))
    if include_fillers:
        for i in range(53):
            days = 1200 + i * 31
            regs.append(CandidateRegistration(
                id=f"F{i:02d}",
                patient_id=f"F{i:02d}",
                country="BE", center="BEC01", blood_group="A",
                birth_day=MATCH_DAY - int(55 * 365.25),
                registration_day=to_days(date(2016, 1, 1)) + i,
                hla=HlaTyping(TYPING_BY_MM[(1, 1, 1)]),
                dialysis_start_day=MATCH_DAY - days,
                last_screening_day=MATCH_DAY - 30,
                initial_urgency="T",
                profile=AllocationProfile(max_donor_age=40),
            ))
    return regs


def build_etkas_ledger(centers: CenterRegistry) -> BalanceLedger:
    events = []
    day = to_days(date(2021, 1, 1))
    events += [BalanceEvent(day, "AT", "DE", 30, "AM")] * 49
    events += [BalanceEvent(day, "BE", "HU", 30, "AM")] * 6
    events += [BalanceEvent(day, "HR", "HU", 30, "AM")] * 6
    return init_ledger(events, MATCH_DAY, centers.countries)


def build_etkas_fixture(include_fillers: bool = False):
    """Everything needed to rebuild the ETKAS example list, plus the scalar
    candidate states."""
    table = build_antigen_table()
    centers = build_centers()
    freq = build_frequency_table()
    bg = BloodGroupFrequencies({"A": F_BG_A, "O": 0.43, "B": 0.10,
                                "AB": 0.05})
    panel = build_panel(table)
    policy = build_policy()
    donor = build_etkas_donor()
    regs = build_etkas_registrations(include_fillers)
    ledger = build_etkas_ledger(centers)
    ctx = MatchPointContext(table, centers, bg, freq)
    states = [CandidateState.initial(reg, vpra=compute_vpra(reg.unacceptables,
                                                            panel, table))
              for reg in regs]
    return {
        "table": table, "centers": centers, "freq": freq, "bg": bg,
        "panel": panel, "policy": policy, "donor": donor, "regs": regs,
        "ledger": ledger, "ctx": ctx, "states": states,
    }


# ---------------------------------------------------------------------------
# ESP example

ESP_DIALYSIS_DAYS = [1143, 964, 890, 871, 867, 855, 715, 714, 596, 423, 419]
ESP_CENTERS = ["DEST1", "DETU1", "DEHE1", "DETU1", "DEST1", "DETU1",
               "DEHE1", "DEHE1", "DETU1", "DEMA1", "DEMA1"]


def build_esp_donor() -> DonorArrival:
    return DonorArrival(
        id="DON-O1", report_day=MATCH_DAY, age=70,
        blood_group="O",
        country="DE", center="DEST1", hla=DONOR_HLA, kidneys_available=2)


def build_esp_fixture():
    table = build_antigen_table()
    centers = build_centers()
    freq = build_frequency_table()
    bg = BloodGroupFrequencies({"A": F_BG_A, "O": 0.43, "B": 0.10,
                                "AB": 0.05})
    panel = build_panel(table)
    policy = build_policy()
    donor = build_esp_donor()
    regs = []
    for i, (days, center) in enumerate(zip(ESP_DIALYSIS_DAYS, ESP_CENTERS),
                                       start=1):
        regs.append(CandidateRegistration(
            id=f"E{i:02d}",
            patient_id=f"E{i:02d}",
            country="DE", center=center, blood_group="O",
            birth_day=MATCH_DAY - (int(70 * 365.25) + i),
            registration_day=to_days(date(2017, 1, 1)) + i,
            hla=HlaTyping(TYPING_BY_MM[(1, 1, 1)]),
            dialysis_start_day=MATCH_DAY - days,
            last_screening_day=MATCH_DAY - 20,
            initial_urgency="T",
        ))
    ledger = BalanceLedger(centers.countries)
    ctx = MatchPointContext(table, centers, bg, freq)
    states = [CandidateState.initial(reg) for reg in regs]
    return {
        "table": table, "centers": centers, "freq": freq, "bg": bg,
        "panel": panel, "policy": policy, "donor": donor, "regs": regs,
        "ledger": ledger, "ctx": ctx, "states": states,
    }


def build_engine_list(fx):
    """The fixture's list as the engine builds it: a CandidateStore of the
    fixture's registrations and ``build_match_arrays`` for its donor."""
    store = CandidateStore(HlaIndex(fx["table"]), fx["centers"], fx["panel"],
                           fx["freq"], fx["bg"], fx["policy"])
    for reg in fx["regs"]:
        store.extend([reg], [None])
    arrays = build_match_arrays(
        store, fx["donor"], store.hla_index.donor_hla(fx["donor"].hla),
        fx["ledger"], fx["policy"], MATCH_DAY)
    return store, arrays
