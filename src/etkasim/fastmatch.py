"""Array-backed candidate state and vectorized match-list construction.

One simulation run holds every registration's dynamic state in parallel
numpy arrays (HLA sets as per-locus bitmasks, unacceptables as bitmask
words), so building a donor's match list is a handful of vector operations
over the blood-group-compatible subset instead of a Python loop over
thousands of candidates.  This is the one implementation of the ETKAS and
ESP ranking rules in the package.  The tests state the same rules one
record at a time (``tests/oracle/matchlist.py``) and hold the two to the
same lists, from the published example tables to whole runs.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .balances import AUSTRIA, BalanceLedger, donor_age_group
from .common import DAYS_PER_YEAR, InputError, age_years
from .entities import (ESP, ETKAS, GERMANY, LOCAL_REGIONAL, NATIONAL,
                       AllocationProfile, CandidateRegistration,
                       CenterRegistry, DonorArrival, StatusUpdate,
                       TERMINAL_CODES, URGENCY_CODES)
from .hla import (BLOOD_GROUPS, LOCI, AntigenTable, BloodGroupFrequencies,
                  DonorPanel, FrequencyTable, HlaTyping,
                  compute_hmpp_fraction)
from .policy import PolicyConfig, sliding_scale_points

# status codes; PRE marks a synthetic re-listing created but not yet listed
STATUS_CODES = {code: i for i, code in enumerate(URGENCY_CODES)}
PRE = len(URGENCY_CODES)
T, NT, HU, I, R, D, FU = (STATUS_CODES[c] for c in ("T", "NT", "HU", "I", "R",
                                                    "D", "FU"))
STATUS_NAMES = (*URGENCY_CODES, "PRE")  # by status code
ACTIVE_CODES = (T, NT, HU, I)
# a row that holds one of these takes no more updates
ENDED_CODES = tuple(STATUS_CODES[c] for c in TERMINAL_CODES)
BG_CODES = {bg: i for i, bg in enumerate(BLOOD_GROUPS)}
_CHOICES = {None: 0, ETKAS: 1, ESP: 2}  # the ``choice`` column

_NO_DATE = np.int32(-(2 ** 31) + 1)

# CandidateStore columns: name, fill of an unused row, dtype, trailing shape
# ("words": one per 64-bit word of the antigen table's code bits)
_COLUMNS = (
    ("status", NT, np.int8, ()),
    ("status_day", 0, np.int32, ()),  # day the engine last set ``status``
    ("bg", 0, np.int8, ()),
    ("country_idx", 0, np.int16, ()),
    ("region_idx", 0, np.int16, ()),
    ("subregion_idx", -1, np.int16, ()),
    ("dob_days", 0, np.int32, ()),
    ("reg_days", 0, np.int32, ()),
    ("dial_start", _NO_DATE, np.int32, ()),
    ("screening", _NO_DATE, np.int32, ()),
    ("prior_tx", False, bool, ()),
    ("am", False, bool, ()),
    ("kaoo", False, bool, ()),
    ("opt_in", False, bool, ()),
    ("hla_known", False, bool, ()),
    ("choice", 0, np.int8, ()),  # _CHOICES
    ("mask_a", 0, np.uint64, ()),
    ("mask_b", 0, np.uint64, ()),
    ("mask_dr", 0, np.uint64, ()),
    ("homo_level", 0, np.int8, ()),
    ("homo_b", False, bool, ()),
    ("homo_dr", False, bool, ()),
    ("unacc", 0, np.uint64, "words"),
    ("patmask", 0, np.int32, ()),
    ("prof_min_age", 0, np.int16, ()),
    ("prof_max_age", 130, np.int16, ()),
    ("prof_dcd", True, bool, ()),
    ("prof_ext", True, bool, ()),
    ("prof_hcv", True, bool, ()),
    ("prof_hbs", True, bool, ()),
    ("vpra", 0.0, np.float64, ()),
    ("p1mm", 0.0, np.float64, ()),
    ("f1mm", -1.0, np.float64, ()),
    ("immun_pts", 0.0, np.float64, ()),
    ("f_bg", 0.0, np.float64, ()),
)

# the columns a registration sets, in the order ``CandidateStore._read``
# gives their values; the others keep their fill until a derivation, an
# update or the engine writes them
_INTAKE = ("status", "bg", "country_idx", "region_idx", "subregion_idx",
           "dob_days", "reg_days", "dial_start", "screening", "prior_tx", "am",
           "kaoo", "opt_in", "choice", "hla_known", "mask_a", "mask_b",
           "mask_dr", "homo_level", "homo_b", "homo_dr", "patmask",
           "prof_min_age", "prof_max_age", "prof_dcd", "prof_ext", "prof_hcv",
           "prof_hbs", "f_bg", "unacc")
_PROFILE = _INTAKE[_INTAKE.index("prof_min_age"):_INTAKE.index("f_bg")]
# the values of ``hla_known`` to ``homo_dr`` of a registration without an
# HLA typing
_NO_HLA = (False, 0, 0, 0, 0, False, False)
_ALL_ACCEPTING = AllocationProfile()


class LocusBits:
    """Bit assignment for normalized antigen codes at one locus (max 64)."""

    def __init__(self, locus: str, codes: Iterable[str]):
        self.locus = locus
        self.bit_of: dict[str, int] = {}
        for code in sorted(set(codes)):
            if len(self.bit_of) >= 64:
                raise InputError(
                    f"locus {locus}: more than 64 distinct antigens at "
                    "counting resolution; bitmask engine cannot represent this")
            self.bit_of[code] = len(self.bit_of)

    def mask(self, codes: Iterable[str]) -> int:
        m = 0
        for code in codes:
            m |= 1 << self.bit_of[code]
        return m


class CodeWords:
    """Bit positions for raw antigen codes across W 64-bit words.

    A set of codes packs into one Python int (bit ``64 * word + bit``),
    which ``unpack`` lays out as the W words of an ``unacc`` row.
    """

    def __init__(self, codes: Iterable[str]):
        ordered = sorted(set(codes))
        self.n_words = max(1, (len(ordered) + 63) // 64)
        self.position: dict[str, int] = {code: i
                                          for i, code in enumerate(ordered)}
        self.code_at: list[str] = ordered

    def pack(self, codes: Iterable[str]) -> int:
        x = 0
        for code in codes:
            x |= 1 << self.position[code]
        return x

    def unpack(self, packed: Iterable[int]) -> np.ndarray:
        """Words of each packed int, one read-only row each."""
        size = 8 * self.n_words
        buf = b"".join(x.to_bytes(size, sys.byteorder) for x in packed)
        return np.frombuffer(buf, dtype=np.uint64).reshape(-1, self.n_words)

    def words(self, codes: Iterable[str]) -> np.ndarray:
        return self.unpack([self.pack(codes)])[0]

    def codes(self, words: np.ndarray) -> set[str]:
        """The codes whose bits are set in ``words``, visiting set bits only."""
        out = set()
        for w in np.flatnonzero(words).tolist():
            x = int(words[w])
            while x:
                low = x & -x
                out.add(self.code_at[w * 64 + low.bit_length() - 1])
                x ^= low
        return out


@dataclass(frozen=True)
class LocusHla:
    """One locus of a typing in the bit layouts of an HlaIndex."""

    normalized: frozenset[str]  # counting-level codes
    mask: int                   # their LocusBits mask (0 beyond A, B, DR)
    bits: tuple[int, ...]       # one bit per counting-level code, by code
    homozygous: bool
    carried: int                # CodeWords bits of the codes and broads


class HlaIndex:
    """Shared bit layouts derived from the antigen equivalence table.

    Everything a typing turns into is derived once per distinct locus
    typing, a (locus, raw codes) pair, and memoized: far fewer of those
    exist than typings.  A typing's carried codes are a per-code union, so
    its carried words are the OR of its loci's.  Packed sets of
    unacceptable antigens are memoized per distinct set the same way.
    """

    def __init__(self, table: AntigenTable):
        self.table = table
        by_locus: dict[str, set[str]] = {"A": set(), "B": set(), "DR": set()}
        for code in table.codes():
            locus = table.locus_of(code)
            if locus in by_locus:
                by_locus[locus].add(table.normalize(code))
        self.bits = {locus: LocusBits(locus, codes)
                     for locus, codes in by_locus.items()}
        self.words = CodeWords(table.codes())
        self._loci: dict[tuple[str, tuple[str, ...]], LocusHla] = {}
        self._unacceptables: dict[frozenset[str], np.ndarray] = {}

    def locus(self, locus: str, codes: tuple[str, ...]) -> LocusHla:
        """A typing's raw ``codes`` at ``locus``, in the bit layouts."""
        key = (locus, codes)
        entry = self._loci.get(key)
        if entry is None:
            entry = self._loci[key] = self._derive(locus, codes)
        return entry

    def _derive(self, locus: str, codes: tuple[str, ...]) -> LocusHla:
        table = self.table
        normalized = frozenset(table.normalize(c) for c in codes)
        carried = self.words.pack({*codes,
                                   *(table.resolve(c).broad for c in codes)})
        bits = self.bits.get(locus)
        if bits is None:
            return LocusHla(normalized, 0, (), len(set(codes)) == 1, carried)
        return LocusHla(normalized, bits.mask(normalized),
                        tuple(1 << bits.bit_of[c] for c in sorted(normalized)),
                        len(set(codes)) == 1, carried)

    def carried(self, typing: HlaTyping) -> int:
        """Packed codes a donor carries: its typed codes and their broads."""
        x = 0
        for locus, codes in typing.antigens.items():
            x |= self.locus(locus, codes).carried
        return x

    def donor_hla(self, typing: HlaTyping) -> DonorHla:
        words = self.words.unpack([self.carried(typing)])[0]
        loci = {locus: self.locus(locus, typing.antigens[locus])
                for locus in ("A", "B", "DR")}
        return DonorHla(
            tuple((w, words[w]) for w in np.flatnonzero(words).tolist()),
            {locus: entry.bits for locus, entry in loci.items()},
            all(entry.homozygous for entry in loci.values()))

    def unacceptable_words(self, codes: frozenset[str]) -> np.ndarray:
        """The read-only ``unacc`` row of a set of unacceptable antigens."""
        words = self._unacceptables.get(codes)
        if words is None:
            self.table.check_unacceptables(codes)
            words = self._unacceptables[codes] = self.words.words(codes)
        return words


@dataclass(frozen=True)
class DonorHla:
    """A donor's typing in the bit layouts of an HlaIndex, and what the
    match build derives from it alone.  It depends on the typing alone, so
    one value can serve every run that sees the donor."""

    # (index, word) of each word of the ``unacc`` layout that holds a
    # carried code
    occupied: tuple[tuple[int, np.uint64], ...]
    locus_bits: dict[str, tuple[int, ...]]  # A, B, DR: one bit per antigen
    homozygous: bool  # at A, B and DR


def _bits(words: np.ndarray) -> np.ndarray:
    """Rows of W 64-bit words as rows of 64 W zero-or-one bytes: column i
    holds bit i (bit ``i % 64`` of word ``i // 64``)."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")


def _carriers(panel_words: np.ndarray) -> np.ndarray:
    """The transpose of the panel's carried words: per code bit, the panel
    donors that carry the code, one bit per donor, in 64-bit words."""
    bits = np.ascontiguousarray(_bits(panel_words).T)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")


# rows per vPRA step of ``finalize_derived_values``, so that its temporaries
# (a row's unacceptable bits, 64 W bytes, and the panel words of each of its
# codes) scale with this, not with the pending rows: every row at a run's
# start
_DERIVE_CHUNK = 512

# set bits per byte value
_BIT_COUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _freq_by_slot(bits: Mapping[str, LocusBits], freq_table: FrequencyTable
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frequencies of the A, B and DR antigens and their squares by
    slot, and each locus's sum of squares (a 3 x 1 column).  Locus i holds
    slots ``65 i`` to ``65 i + 64``: its padding slot, 0.0, then one slot per
    bit, bit b at slot ``65 i + b + 1``."""
    freq = np.zeros((3, 65))
    for i, locus in enumerate(LOCI):
        for code, f in freq_table.locus(locus).items():
            if code in bits[locus].bit_of:
                freq[i, bits[locus].bit_of[code] + 1] = f
    sq = freq ** 2
    sq_all = np.array([[float(sq[i, 1:].sum())] for i in range(3)])
    return freq.ravel(), sq.ravel(), sq_all


# the first slot of each locus in ``_freq_by_slot``'s arrays
_LOCUS_SLOT = np.array([[0], [65], [130]])


def _profile_values(profile: AllocationProfile | None) -> tuple:
    """A profile's ``prof_*`` column values, in ``_INTAKE`` order."""
    p = profile or _ALL_ACCEPTING
    return (p.min_donor_age, p.max_donor_age, p.accept_dcd,
            p.accept_extended_criteria, p.accept_hcv_positive,
            p.accept_hbsag_positive)


class CandidateStore:
    """Structure-of-arrays over all registrations in a run (single-writer).

    Registrations come in through ``extend``, one write per column however
    many rows it appends; it reads each registration through ``_read``, the
    one definition of what its row holds.  ``extend`` and ``apply_update``
    only mark rows whose HLA or unacceptables changed; their p<=1mm, vPRA
    and immunization points are derived later by
    ``finalize_derived_values``, which ``build_match_arrays`` calls before
    it reads them.  The engine writes ``status_day`` itself, and writes
    ``status`` directly only in ``engine._change_status``.
    """

    def __init__(self, hla_index: HlaIndex, centers: CenterRegistry,
                 panel: DonorPanel, freq_table: FrequencyTable,
                 bg_freqs: BloodGroupFrequencies, policy: PolicyConfig):
        self.hla_index = hla_index
        self.centers = centers
        self.panel = panel
        self.freq_table = freq_table
        self.bg_freqs = bg_freqs
        self.policy = policy

        self.countries = list(centers.countries)
        self.country_of = {c: i for i, c in enumerate(self.countries)}
        self.regions = list(centers.regions)
        self.region_of = {r: i for i, r in enumerate(self.regions)}
        subs = sorted({c.esp_subregion for c in centers.centers()
                       if c.esp_subregion})
        self.subregion_of = {s: i for i, s in enumerate(subs)}

        self.n = 0
        self._cap = 0
        self.registrations: list[CandidateRegistration] = []
        self.ids: list[str] = []
        self.center_codes: list[str] = []
        self.row_of: dict[str, int] = {}
        self._pending: set[int] = set()
        # regions (indices) of Austrian registrations: the keys the
        # regional tie-break reads from the ledger
        self.austrian_regions: set[int] = set()

        self._panel_carriers = _carriers(hla_index.words.unpack(
            [hla_index.carried(t) for t in panel]))
        self._panel_locus_bits = {}
        for locus in ("A", "B", "DR"):
            bits = [hla_index.locus(locus, t.antigens[locus]).bits
                    for t in panel]
            self._panel_locus_bits[locus] = (
                np.array([b[0] for b in bits], dtype=np.uint64),
                np.array([b[-1] for b in bits], dtype=np.uint64))

        # (locus, raw codes) of candidate loci already checked against the
        # frequency table
        self._freq_checked: set[tuple[str, tuple[str, ...]]] = set()
        self._freq_bits = _freq_by_slot(hla_index.bits, freq_table)

        self._alloc(1024)

    # -- storage ------------------------------------------------------------

    def _alloc(self, cap: int) -> None:
        words = self.hla_index.words.n_words
        for name, fill, dtype, shape in _COLUMNS:
            trailing = (words,) if shape == "words" else shape
            new = np.full((cap, *trailing), fill, dtype=dtype)
            old = getattr(self, name, None)
            if old is not None:
                new[: len(old)] = old
            setattr(self, name, new)
        self._cap = cap

    def _ensure(self, extra: int) -> None:
        """Room for ``extra`` more rows: the capacity doubles until they fit,
        so it follows the rows, not how they came in."""
        cap = self._cap
        while self.n + extra > cap:
            cap *= 2
        if cap != self._cap:
            self._alloc(cap)

    def copy(self) -> CandidateStore:
        """An independent store with the same rows.  Columns and row
        bookkeeping are copied; the bit layouts, panel words, frequency bits
        and registration objects, which no store writes, are shared."""
        dup = copy.copy(self)
        for name, *_ in _COLUMNS:
            setattr(dup, name, getattr(self, name).copy())
        dup.registrations = list(self.registrations)
        dup.ids = list(self.ids)
        dup.center_codes = list(self.center_codes)
        dup.row_of = dict(self.row_of)
        dup._pending = set(self._pending)
        dup._freq_checked = set(self._freq_checked)
        dup.austrian_regions = set(self.austrian_regions)
        return dup

    # -- registration and updates -------------------------------------------

    def extend(self, registrations: Iterable[CandidateRegistration],
               initial_statuses: Iterable[str | None]) -> range:
        """Append a row per registration, in order, and return their
        indices.  A row holds its registration's day numbers as they stand,
        and its initial status ("PRE": not listed yet), unless None,
        overrides the registration's urgency.  Every registration is read
        first, then each column is written once; the first faulty
        registration raises what ``_read`` raises, and a store that raised
        is not to be used."""
        base = self.n
        rows = [self._read(reg, status) for reg, status
                in zip(registrations, initial_statuses, strict=True)]
        if rows:
            self._ensure(len(rows))
            end = base + len(rows)
            columns = vars(self)
            for name, column in zip(_INTAKE, zip(*rows)):
                columns[name][base:end] = column
            self.n = end
        return range(base, self.n)

    def _read(self, reg: CandidateRegistration,
              initial_status: str | None) -> tuple:
        """Check ``reg``, book it as the next row (its id, center and
        registration, and a pending derivation) and return its values of
        the ``_INTAKE`` columns.  Raises InputError, before booking, for
        the first of: a duplicate id, an unknown center, a country not its
        center's, an antigen missing from the frequency table, a blood group
        without a frequency, an unacceptable antigen not in the table."""
        if reg.id in self.row_of:
            raise InputError(f"duplicate registration id {reg.id!r}")
        if reg.center not in self.centers:
            raise InputError(f"registration {reg.id!r}: unknown center code "
                             f"{reg.center!r}")
        center = self.centers.get(reg.center)
        if reg.country != center.country:
            raise InputError(f"registration {reg.id!r}: country "
                             f"{reg.country!r} is not the country of its "
                             f"center {reg.center!r} ({center.country})")
        hla = _NO_HLA if reg.hla is None else self._hla_values(reg.hla)
        f_bg = self.bg_freqs.freq_of(reg.blood_group)
        unacc = self.hla_index.unacceptable_words(reg.unacceptables)

        row = len(self.ids)
        self.registrations.append(reg)
        self.ids.append(reg.id)
        self.center_codes.append(reg.center)
        self.row_of[reg.id] = row
        self._pending.add(row)
        region = self.region_of[center.region]
        if reg.country == AUSTRIA:
            self.austrian_regions.add(region)
        code = initial_status if initial_status is not None else reg.initial_urgency
        return (
            PRE if code == "PRE" else STATUS_CODES[code],
            BG_CODES[reg.blood_group],
            self.country_of[reg.country],
            region,
            self.subregion_of.get(center.esp_subregion, -1),
            reg.birth_day,
            reg.registration_day,
            _NO_DATE if reg.dialysis_start_day is None
            else reg.dialysis_start_day,
            _NO_DATE if reg.last_screening_day is None
            else reg.last_screening_day,
            reg.prior_transplant,
            reg.am_program,
            reg.kaoo,
            reg.esp_extended_opt_in,
            _CHOICES[reg.german_program_choice],
            *hla,
            _pattern_mask(reg.mm_criteria),
            *_profile_values(reg.profile),
            f_bg,
            unacc,
        )

    def _hla_values(self, typing: HlaTyping) -> tuple:
        """A typing's ``hla_known`` to ``homo_dr`` values, in ``_INTAKE``
        order.  Raises InputError for a counting-level antigen missing from
        the frequency table."""
        idx, antigens = self.hla_index, typing.antigens
        a = idx.locus("A", antigens["A"])
        b = idx.locus("B", antigens["B"])
        dr = idx.locus("DR", antigens["DR"])
        for locus, entry in zip(LOCI, (a, b, dr)):
            key = (locus, antigens[locus])
            if key in self._freq_checked:
                continue
            dist = self.freq_table.locus(locus)
            for code in entry.normalized:
                if code not in dist:
                    raise InputError(
                        f"candidate antigen {code!r} missing from "
                        f"frequency table at locus {locus}")
            self._freq_checked.add(key)
        return (True, a.mask, b.mask, dr.mask,
                a.homozygous + b.homozygous + dr.homozygous,
                b.homozygous, dr.homozygous)

    def _p1mm_batch(self, rows: np.ndarray) -> None:
        """p<=1mm of ``rows``.  A row's mask holds one or two bits per locus
        (a typing has one or two antigens there), so the sums of its
        antigens' frequencies and of their squares are sums of two terms,
        the second 0.0 for one antigen, whose value no summation order
        changes.  ``frexp`` gives bit b, 2**b, the exponent b + 1, and no
        bit the exponent 0: its slot in the frequency arrays."""
        freq, freq_sq, sq_all = self._freq_bits
        masks = np.stack((self.mask_a[rows], self.mask_b[rows],
                          self.mask_dr[rows]))
        low = masks & (~masks + np.uint64(1))
        lo = np.frexp(low.astype(np.float64))[1] + _LOCUS_SLOT
        hi = np.frexp((masks ^ low).astype(np.float64))[1] + _LOCUS_SLOT
        s = freq[lo] + freq[hi]
        p0 = s * s
        p1 = 2.0 * s * (1.0 - s) + (sq_all - (freq_sq[lo] + freq_sq[hi]))
        self.p1mm[rows] = (p0[0] * p0[1] * p0[2] + p1[0] * p0[1] * p0[2]
                           + p1[1] * p0[0] * p0[2] + p1[2] * p0[0] * p0[1])

    def _set_profile(self, row: int, profile: AllocationProfile | None) -> None:
        for name, value in zip(_PROFILE, _profile_values(profile)):
            getattr(self, name)[row] = value

    def _set_unacceptables(self, row: int, unacc: frozenset[str]) -> None:
        self.unacc[row] = self.hla_index.unacceptable_words(unacc)
        self._pending.add(row)

    # -- derived values ---------------------------------------------------

    def finalize_derived_values(self) -> None:
        """Derive p<=1mm, vPRA and the immunization points (unrounded;
        reports round per component) of every row added or given new
        unacceptables since the last call: p<=1mm in one pass over the rows
        with a typing, vPRA ``_DERIVE_CHUNK`` rows at a time."""
        if not self._pending:
            return
        rows = np.array(sorted(self._pending), dtype=np.int64)
        self._pending.clear()
        self._p1mm_batch(rows[self.hla_known[rows]])
        has_unacc = self.unacc[rows].any(axis=1)
        # a runtime update can empty the set of unacceptables
        self.vpra[rows[~has_unacc]] = 0.0
        need = rows[has_unacc]
        for lo in range(0, len(need), _DERIVE_CHUNK):
            sub = need[lo:lo + _DERIVE_CHUNK]
            # per row, the OR of its unacceptable codes' carrier sets
            pair_row, code = np.nonzero(_bits(self.unacc[sub]))
            starts = np.searchsorted(pair_row, np.arange(len(sub)))
            hits = np.bitwise_or.reduceat(self._panel_carriers[code],
                                          starts, axis=0)
            self.vpra[sub] = (_BIT_COUNT[hits.view(np.uint8)].sum(axis=1)
                              / len(self.panel))
        cfg = self.policy
        if cfg.sliding_scale.enabled:
            for row in rows.tolist():
                pts = sliding_scale_points(float(self.vpra[row]), cfg)
                if cfg.sliding_scale.hmpp_replaces_mmp:
                    if self.f1mm[row] < 0:
                        self.f1mm[row] = self._f1mm_row(row)
                    pts += cfg.mmp_weight * compute_hmpp_fraction(
                        float(self.f1mm[row]))
                self.immun_pts[row] = pts
            return
        x = self.f_bg[rows] * (1.0 - self.vpra[rows]) * self.p1mm[rows]
        mmp = np.where(x >= 1.0, 0.0, np.exp(1000.0 * np.log1p(-np.minimum(x, 1.0))))
        mmp = np.clip(mmp, 0.0, 1.0)
        self.immun_pts[rows] = cfg.mmp_weight * mmp

    def _f1mm_row(self, row: int) -> float:
        """Empirical fraction of panel donors with <= 1 ABDR mismatch."""
        total = np.zeros(len(self.panel), dtype=np.int8)
        for locus, mask_arr in (("A", self.mask_a), ("B", self.mask_b),
                                ("DR", self.mask_dr)):
            b1, b2 = self._panel_locus_bits[locus]
            cand = mask_arr[row]
            total += ((b1 & ~cand) != 0).astype(np.int8)
            total += (((b2 != b1) & ((b2 & ~cand) != 0))).astype(np.int8)
        return float((total <= 1).mean())

    def apply_update(self, row: int, update: StatusUpdate) -> None:
        """Write one status update's parsed ``value`` into the row.  Screening
        refreshes (``SCR``) are not updates here: the engine writes their
        days into ``screening``.  Raises ValueError for an ``SCR`` or an
        unknown kind."""
        kind, value = update.kind, update.value
        if kind == "URG":
            self.status[row] = STATUS_CODES[value]
        elif kind == "PRF":
            self._set_profile(row, value)
        elif kind == "UNA":
            self._set_unacceptables(row, value)
        elif kind == "MMC":
            self.patmask[row] = _pattern_mask(value)
        elif kind == "DIA":
            self.dial_start[row] = _NO_DATE if value is None else value
        elif kind == "CHO":
            if value in _CHOICES:
                self.choice[row] = _CHOICES[value]
            else:
                self.opt_in[row] = value == "EXT_OPT_IN"
        else:
            raise ValueError(f"{kind!r} is not a status update kind")


@lru_cache(maxsize=None)
def _pattern_mask(patterns: frozenset[tuple[int, int, int]]) -> int:
    mask = 0
    for a, b, dr in patterns:
        mask |= 1 << (a * 9 + b * 3 + dr)
    return mask


# ---------------------------------------------------------------------------
# Vectorized match-list construction

# the ETKAS point components, in the order of MatchArrays' ``comp`` mapping
POINT_COMPONENTS = ("dialysis", "hla", "pediatric", "hu", "mmp", "balance",
                    "distance")


@dataclass
class MatchArrays:
    """One donor's ordered match list in columnar form (eligible rows only,
    already sorted by rank; ``comp`` maps each of POINT_COMPONENTS, in
    order, to its column of unrounded points)."""

    donor: DonorArrival
    program: str
    rows: np.ndarray          # store row per match record, in rank order
    filtered: np.ndarray      # bool
    tier: np.ndarray          # int16 composite, higher is better
    total: np.ndarray         # float ranking total
    mm_a: np.ndarray
    mm_b: np.ndarray
    mm_dr: np.ndarray
    geo_idx: np.ndarray       # index into GEOGRAPHY_CLASSES
    dial_days: np.ndarray
    comp: dict[str, np.ndarray]
    age: np.ndarray           # age_years on the match day

    def __len__(self) -> int:
        return len(self.rows)


def build_match_arrays(store: CandidateStore, donor: DonorArrival,
                       donor_hla: DonorHla, ledger: BalanceLedger,
                       cfg: PolicyConfig, now_days: int) -> MatchArrays:
    """The donor's match list: eligible rows with their points, in rank order.

    Rank keys, in order: tier desc, total desc, Austrian regional key asc
    (ETKAS only; the net export of the candidate's region, 0 elsewhere),
    registration date asc, registration id asc.  The numeric sort need not
    be stable, because a last pass re-sorts by id every run of rows tied on
    all four numeric keys, which makes the order exact.  ``donor_hla`` is
    ``store.hla_index.donor_hla(donor.hla)``.
    """
    store.finalize_derived_values()
    program = ESP if donor.age >= cfg.esp_donor_age_from else ETKAS
    n = store.n
    dc = store.centers.get(donor.center)
    d_country = store.country_of[dc.country]
    d_region = store.region_of[dc.region]
    d_sub = store.subregion_of.get(dc.esp_subregion, -1)

    status = store.status[:n]
    offerable = (status == T) | (status == HU)
    cand = np.flatnonzero(offerable & (store.bg[:n] == BG_CODES[donor.blood_group]))

    age = age_years(now_days, store.dob_days[cand]).astype(np.int32,
                                                       copy=False)

    # eligibility
    elig = store.hla_known[cand].copy()
    elig &= store.screening[cand] >= now_days - cfg.screening_max_age_days
    # one test per word the donor's antigens occupy, not a reduction over
    # every word of every row
    for w, word in donor_hla.occupied:
        elig &= (store.unacc[:, w][cand] & word) == 0
    elig &= ~store.am[cand]
    if program == ETKAS:
        if GERMANY in store.country_of:
            german_rule = ((store.country_idx[cand]
                            == store.country_of[GERMANY])
                           & (age >= cfg.esp_candidate_age_from)
                           & (store.choice[cand] != 1))
            elig &= ~german_rule
    else:
        elig &= (age >= cfg.esp_candidate_age_from) | store.opt_in[cand]

    rows = cand[elig]
    age = age[elig]

    # per-locus mismatches
    def locus_mm(mask_arr, locus):
        bits = donor_hla.locus_bits[locus]
        m = mask_arr[rows]
        mm = ((m & np.uint64(bits[0])) == 0).astype(np.int8)
        if len(bits) > 1:
            mm += ((m & np.uint64(bits[1])) == 0).astype(np.int8)
        return mm

    mm_a = locus_mm(store.mask_a, "A")
    mm_b = locus_mm(store.mask_b, "B")
    mm_dr = locus_mm(store.mask_dr, "DR")
    mm_total = mm_a + mm_b + mm_dr

    same_country = store.country_idx[rows] == d_country
    same_region = same_country & (store.region_idx[rows] == d_region)
    geo_idx = np.where(~same_country, 2, np.where(same_region, 0, 1)).astype(np.int8)

    start = store.dial_start[rows].astype(np.int64)
    dial = np.where(start == int(_NO_DATE), 0,
                    np.maximum(0, now_days - start))

    # filtering
    profile_ok = np.ones(len(rows), dtype=bool)
    if cfg.filtering.apply_allocation_profiles:
        profile_ok &= (store.prof_min_age[rows] <= donor.age)
        profile_ok &= (store.prof_max_age[rows] >= donor.age)
        if donor.dcd:
            profile_ok &= store.prof_dcd[rows]
        if donor.extended_criteria:
            profile_ok &= store.prof_ext[rows]
        if donor.hcv_positive:
            profile_ok &= store.prof_hcv[rows]
        if donor.hbsag_positive:
            profile_ok &= store.prof_hbs[rows]

    if program == ETKAS:
        pat_idx = (mm_a.astype(np.int32) * 9 + mm_b * 3 + mm_dr)
        pattern_hit = ((store.patmask[rows] >> pat_idx) & 1).astype(bool)
        filtered = profile_ok & ~(pattern_hit
                                  if cfg.filtering.apply_hla_mismatch_criteria
                                  else np.zeros(len(rows), dtype=bool))
        total, comps = _etkas_points_arrays(
            store, donor, dc.country, ledger, cfg, rows, age, mm_a, mm_b,
            mm_dr, geo_idx, dial)
        tier = _etkas_tier_array(store, donor, donor_hla.homozygous, cfg,
                                 rows, age, mm_total)
    else:
        under_65 = age < cfg.esp_candidate_age_from
        german_etkas = np.zeros(len(rows), dtype=bool)
        if GERMANY in store.country_of:
            german_etkas = ((store.country_idx[rows]
                             == store.country_of[GERMANY])
                            & (store.choice[rows] == 1))
        filtered = profile_ok & ~under_65 & ~german_etkas
        tier = _esp_tier_array(store, donor, cfg, rows, age, d_sub,
                               same_region, same_country)
        total = dial.astype(np.float64)
        comps = {name: np.zeros(len(rows)) for name in POINT_COMPONENTS}
        comps["dialysis"] = total

    regional = np.zeros(len(rows), dtype=np.int32)
    if program == ETKAS and store.austrian_regions:
        group = donor_age_group(donor.age)
        by_region = np.zeros(len(store.regions), dtype=np.int32)
        for r in store.austrian_regions:
            by_region[r] = ledger.regional_net_export(store.regions[r], group)
        at = store.country_idx[rows] == store.country_of[AUSTRIA]
        regional[at] = by_region[store.region_idx[rows[at]]]
    reg_days = store.reg_days[rows]
    order = _rank_order(store, rows, tier, total, regional, reg_days)

    rows = rows[order]
    return MatchArrays(
        donor=donor, program=program, rows=rows,
        filtered=filtered[order], tier=tier[order],
        total=total[order],
        mm_a=mm_a[order], mm_b=mm_b[order], mm_dr=mm_dr[order],
        geo_idx=geo_idx[order], dial_days=dial[order],
        comp={name: col[order] for name, col in comps.items()},
        age=age[order])


def _rank_order(store, rows, tier, total, regional, reg_days) -> np.ndarray:
    """Positions of ``rows`` in rank order (keys as in build_match_arrays).

    A float argsort on the total, then a stable radix sort on the int16
    tier, order the whole list on the first two keys.  Only the runs tied on
    both are lexsorted on the regional key and the registration date, and
    then by id where those tie too.  This costs a fraction of the four
    stable sorts that a lexsort on all keys makes over the whole list.
    """
    order = np.argsort(-total)
    order = order[np.argsort(-tier[order], kind="stable")]
    t = tier[order]
    tot = total[order]
    tied = (t[1:] == t[:-1]) & (tot[1:] == tot[:-1])
    if not tied.any():
        return order
    in_run = np.zeros(len(order), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    run_id = np.concatenate(([0], np.cumsum(~tied)))
    pos = np.flatnonzero(in_run)
    sub = order[pos]
    order[pos] = sub[np.lexsort((reg_days[sub], regional[sub], run_id[pos]))]
    return _break_full_ties_by_id(store, rows, order, tied, regional,
                                  reg_days)


def _break_full_ties_by_id(store, rows, order, tied, regional,
                           reg_days) -> np.ndarray:
    """Re-sort by registration id each run tied on every numeric key.

    ``tied[i]`` says whether positions i and i+1 of ``order`` tie on tier
    and total.  Exact ties are rare (identical tier, float total, regional
    key, and registration date), so only their runs meet Python.
    """
    reg = regional[order]
    rd = reg_days[order]
    same = tied & (reg[1:] == reg[:-1]) & (rd[1:] == rd[:-1])
    if not same.any():
        return order
    # a run starts where ``same`` turns True and ends one past where it
    # turns False again
    edges = np.flatnonzero(np.diff(same, prepend=False, append=False))
    ids = store.ids
    for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
        order[lo:hi + 1] = sorted(order[lo:hi + 1].tolist(),
                                  key=lambda k: ids[rows[k]])
    return order


def _etkas_tier_array(store, donor, homozygous, cfg, rows, age, mm_total):
    tier = np.ones(len(rows), dtype=np.int16)
    cand_ped = age < cfg.pediatric_candidate_age_below
    if donor.age < cfg.pediatric_donor_age_below:
        tier[cand_ped] = 2
    zero = mm_total == 0
    tier[zero] = 3
    tier = tier.astype(np.int16) * 4
    if homozygous:
        tier[zero] += store.homo_level[rows[zero]]
    return tier


def _etkas_points_arrays(store, donor, donor_country, ledger, cfg, rows,
                         age, mm_a, mm_b, mm_dr, geo_idx, dial):
    comp_dial = cfg.dialysis_points_per_year * dial / DAYS_PER_YEAR
    hla = (cfg.hla_base_points + mm_a * cfg.hla_mm_beta_a
           + mm_b * cfg.hla_mm_beta_b + mm_dr * cfg.hla_mm_beta_dr)
    np.maximum(hla, 0.0, out=hla)
    ped = age < cfg.pediatric_candidate_age_below
    if cfg.pediatric_hla_double:
        hla[ped] *= 2.0
    comp_ped = np.where(ped, cfg.pediatric_bonus, 0.0)
    comp_hu = np.where(store.status[rows] == HU, cfg.hu_points, 0.0)
    comp_mmp = store.immun_pts[rows].astype(np.float64)

    group = donor_age_group(donor.age)
    bal_by_country = np.zeros(len(store.countries))
    floor = min(ledger.net_export(c, group) for c in ledger.countries)
    for i, country in enumerate(store.countries):
        export = ledger.net_export(country, group)
        bal_by_country[i] = (export - floor) * cfg.balance_weight(country)
    comp_bal = bal_by_country[store.country_idx[rows]]

    # the donor country's schedule by geo_idx; international rows get none
    schedule = cfg.distance_schedule(donor_country)
    comp_dist = np.array([schedule.get(LOCAL_REGIONAL, 0.0),
                          schedule.get(NATIONAL, 0.0), 0.0])[geo_idx]

    total = (comp_dial + hla + comp_ped + comp_hu + comp_mmp + comp_bal
             + comp_dist)
    if cfg.age_filter.enabled:
        # the age-filter fraction scales the whole total
        xs = np.array([x for x, _ in sorted(cfg.age_filter.curve)])
        ys = np.array([y for _, y in sorted(cfg.age_filter.curve)])
        total *= np.interp(age - donor.age, xs, ys)
    comps = {"dialysis": comp_dial, "hla": hla, "pediatric": comp_ped,
             "hu": comp_hu, "mmp": comp_mmp, "balance": comp_bal,
             "distance": comp_dist}
    return total, comps


def _esp_tier_array(store, donor, cfg, rows, age, d_sub, same_region,
                    same_country):
    dc = store.centers.get(donor.center)
    table = cfg.esp_tier_table(dc.country)
    n_tiers = len(table)
    tier_rank = np.full(len(rows), n_tiers, dtype=np.int16)
    age_class_65 = age >= cfg.esp_candidate_age_from
    same_sub = (store.subregion_idx[rows] == d_sub) & (d_sub >= 0)
    scope_masks = {
        "subregion": same_sub,
        "region": same_region,
        "national": same_country,
        "international": np.ones(len(rows), dtype=bool),
    }
    for index in range(n_tiers - 1, -1, -1):
        scope, klass = table[index]
        klass_mask = age_class_65 if klass == "65plus" else ~age_class_65
        mask = scope_masks[scope] & klass_mask
        tier_rank[mask] = index
    subtier = np.zeros(len(rows), dtype=np.int16)
    subtier[store.kaoo[rows]] = 1
    subtier[store.status[rows] == HU] = 2
    return ((n_tiers - tier_rank) * 4 + subtier).astype(np.int16)
