"""Waiting-list registrations, donors, status updates, and center geography."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .common import InputError, parse_day, read_table, text_or
from .hla import BLOOD_GROUPS, HlaTyping

# Urgency codes: T transplantable, NT non-transplantable, HU high urgency,
# I active in the immunized (acceptable mismatch) program, R removed,
# D waiting-list death, FU transplanted.
URGENCY_CODES = ("T", "NT", "HU", "I", "R", "D", "FU")
TERMINAL_CODES = ("R", "D", "FU")


@dataclass(frozen=True)
class Center:
    code: str
    country: str
    region: str
    esp_subregion: str | None = None


class CenterRegistry:
    """Maps center codes to (country, region, ESP subregion)."""

    def __init__(self, centers: Sequence[Center]):
        self._by_code = {c.code: c for c in centers}
        self.countries = tuple(sorted({c.country for c in centers}))
        self.regions = tuple(sorted({c.region for c in centers}))

    @classmethod
    def from_file(cls, path: str | Path) -> "CenterRegistry":
        return cls(read_table(path, (
            ("center", None, str.strip), ("country", None, str.strip),
            ("region", None, str.strip), ("esp_subregion", "", text_or(None))),
            "center", Center))

    def get(self, code: str) -> Center:
        try:
            return self._by_code[code]
        except KeyError:
            raise InputError(f"unknown center code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def centers(self) -> Sequence[Center]:
        return tuple(self._by_code.values())


# where a candidate's center lies relative to the donor's, nearest first
GEOGRAPHY_CLASSES = ("local_regional", "national", "international")
LOCAL_REGIONAL, NATIONAL, INTERNATIONAL = GEOGRAPHY_CLASSES


def geography_class(donor_center: Center, candidate_center: Center) -> str:
    """One of GEOGRAPHY_CLASSES, from the two centers' locations."""
    if donor_center.country != candidate_center.country:
        return INTERNATIONAL
    if donor_center.region == candidate_center.region:
        return LOCAL_REGIONAL
    return NATIONAL


@dataclass(frozen=True)
class AllocationProfile:
    """Donor characteristics a candidate's center is willing to accept.

    All-accepting by default; a registration without a profile behaves like
    this default.
    """

    min_donor_age: int = 0
    max_donor_age: int = 130
    accept_dcd: bool = True
    accept_extended_criteria: bool = True
    accept_hcv_positive: bool = True
    accept_hbsag_positive: bool = True


def parse_profile(text: str) -> AllocationProfile | None:
    """Parse 'key=value;key=value' profile payloads; empty text clears it."""
    text = text.strip()
    if not text:
        return None
    kwargs = {}
    mapping = {
        "min_age": ("min_donor_age", int),
        "max_age": ("max_donor_age", int),
        "accept_dcd": ("accept_dcd", lambda v: v == "1"),
        "accept_ext": ("accept_extended_criteria", lambda v: v == "1"),
        "accept_hcv": ("accept_hcv_positive", lambda v: v == "1"),
        "accept_hbs": ("accept_hbsag_positive", lambda v: v == "1"),
    }
    for part in text.split(";"):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in mapping:
            raise InputError(f"unknown profile key {key!r}")
        attr, conv = mapping[key]
        try:
            kwargs[attr] = conv(value.strip())
        except ValueError:
            raise InputError(f"bad profile value {value!r} for {key}")
    return AllocationProfile(**kwargs)


def expand_mm_patterns(spec: str) -> frozenset[tuple[int, int, int]]:
    """Expand HLA mismatch criteria like '222' or '**2' into (a,b,dr) triples.

    Each pattern is three characters over digits 0-2 or '*' (any), in
    (A, B, DR) order; the result is the set of disallowed combinations.
    """
    patterns: set[tuple[int, int, int]] = set()
    for token in spec.split():
        if len(token) != 3:
            raise InputError(f"mismatch pattern {token!r} must have 3 "
                             "characters")
        choices = []
        for ch in token:
            if ch == "*":
                choices.append((0, 1, 2))
            elif ch in "012":
                choices.append((int(ch),))
            else:
                raise InputError(f"bad character {ch!r} in mismatch pattern "
                                 f"{token!r}")
        for a in choices[0]:
            for b in choices[1]:
                for dr in choices[2]:
                    patterns.add((a, b, dr))
    return frozenset(patterns)


@dataclass(frozen=True)
class CandidateRegistration:
    """Static attributes of one waiting-list registration.

    Its five dates are day numbers (days since 1970-01-01, the engine's one
    time unit); an optional one is None when unknown, and day 0 is a date
    like any other.  Dynamic state (urgency, profile, unacceptables,
    screening day, dialysis start) starts from the values here and evolves
    through status updates.
    """

    id: str
    patient_id: str
    country: str
    center: str
    blood_group: str
    birth_day: int
    registration_day: int
    hla: HlaTyping | None = None
    unacceptables: frozenset[str] = frozenset()
    dialysis_start_day: int | None = None
    prior_transplant: bool = False
    previous_transplant_day: int | None = None
    last_screening_day: int | None = None
    initial_urgency: str = "NT"
    profile: AllocationProfile | None = None
    mm_criteria: frozenset[tuple[int, int, int]] = frozenset()
    am_program: bool = False
    kaoo: bool = False
    esp_extended_opt_in: bool = False
    german_program_choice: str | None = None  # ETKAS | ESP | None

    def __post_init__(self):
        if self.blood_group not in BLOOD_GROUPS:
            raise ValueError(f"{self.id}: bad blood group {self.blood_group!r}")
        if self.initial_urgency not in URGENCY_CODES:
            raise ValueError(f"{self.id}: bad urgency {self.initial_urgency!r}")
        if self.german_program_choice not in (None, ETKAS, ESP):
            raise ValueError(f"{self.id}: bad program choice "
                             f"{self.german_program_choice!r}")


ETKAS, ESP = "ETKAS", "ESP"  # the two allocation programs
GERMANY = "DE"  # the one country whose candidates choose a program
CHOICE_PAYLOADS = (ETKAS, ESP, "EXT_OPT_IN", "EXT_OPT_OUT")


def parse_payload(kind: str, text: str):
    """The value a status update of ``kind`` sets: an urgency code (URG),
    an AllocationProfile or None (PRF), a set of unacceptable antigen codes,
    not checked against a table (UNA), the disallowed mismatch patterns
    (MMC), a dialysis start day (since 1970-01-01) or None (DIA), one of
    CHOICE_PAYLOADS (CHO: program choice or ESP extended-allocation
    opt-in).  Raises InputError, without a location, if ``text`` is
    malformed or ``kind`` is none of these; an ``SCR`` antibody screening
    carries no value.
    """
    if kind == "URG":
        code = text.strip()
        if code not in URGENCY_CODES:
            raise InputError(f"bad urgency payload {text!r}")
        return code
    if kind == "PRF":
        return parse_profile(text)
    if kind == "UNA":
        return frozenset(text.split())
    if kind == "MMC":
        return expand_mm_patterns(text)
    if kind == "DIA":
        text = text.strip()
        try:
            return parse_day(text) if text else None
        except InputError:
            raise InputError(f"bad dialysis start payload {text!r}") from None
    if kind == "CHO":
        choice = text.strip().upper()
        if choice not in CHOICE_PAYLOADS:
            raise InputError(f"bad choice payload {text!r}")
        return choice
    raise InputError(f"unknown update kind {kind!r}")


class StatusUpdate(NamedTuple):
    """One status change of a candidate, on ``day`` (days since 1970-01-01,
    as every event time the engine schedules): ``value`` is what
    ``parse_payload(kind, ...)`` gives.  ``SCR`` screening refreshes are not
    status updates: they load as ``SimulationInputs.screenings``, and
    ``CandidateStore.apply_update`` rejects them, as any other kind."""

    candidate_id: str
    day: int
    kind: str
    value: object

    @property
    def ends_spell(self) -> bool:
        """Whether this is a removal, death or transplant."""
        return self.kind == "URG" and self.value in TERMINAL_CODES


DEATH_CAUSE_GROUPS = ("cva", "trauma", "anoxia", "other")


@dataclass(frozen=True)
class DonorArrival:
    """A reported deceased donor with 1 or 2 kidneys available, reported
    on ``report_day`` (days since 1970-01-01)."""

    id: str
    report_day: int
    age: int
    blood_group: str
    country: str
    center: str
    hla: HlaTyping
    death_cause: str = "other"
    dcd: bool = False
    last_creatinine: float = 1.0
    diabetes: bool = False
    smoking: bool = False
    proteinuria: bool = False
    hypertension: bool = False
    malignancy: bool = False
    hcv_positive: bool = False
    hbsag_positive: bool = False
    extended_criteria: bool = False
    kidneys_available: int = 2

    def __post_init__(self):
        if self.age < 0:
            raise ValueError(f"{self.id}: negative donor age")
        if not 0.0 < self.last_creatinine < math.inf:
            raise ValueError(f"{self.id}: creatinine {self.last_creatinine!r} "
                             "is not a positive finite number")
        if self.kidneys_available not in (1, 2):
            raise ValueError(f"{self.id}: kidneys_available must be 1 or 2")
        if self.blood_group not in BLOOD_GROUPS:
            raise ValueError(f"{self.id}: bad blood group {self.blood_group!r}")
        if self.death_cause not in DEATH_CAUSE_GROUPS:
            raise ValueError(f"{self.id}: death cause {self.death_cause!r} "
                             f"is not one of {', '.join(DEATH_CAUSE_GROUPS)}")
