"""Mismatch counting, vPRA and mismatch probabilities, one typing at a time.

Typings are normalized through the antigen equivalence table before any
counting: A and B count at the broad level, DR at the split level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from etkasim.common import InputError, round_half_up
from etkasim.hla import (LOCI, AntigenTable, DonorPanel, FrequencyTable,
                         HlaTyping, compute_hmpp_fraction)


@dataclass(frozen=True)
class MismatchCount:
    mm_a: int
    mm_b: int
    mm_dr: int

    @property
    def total(self) -> int:
        return self.mm_a + self.mm_b + self.mm_dr

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.mm_a, self.mm_b, self.mm_dr)


def count_mismatches(table: AntigenTable, donor: HlaTyping,
                     candidate: HlaTyping) -> MismatchCount:
    """Per A/B/DR locus, the donor's antigens (normalized) absent from the
    candidate's; a homozygous donor contributes its single antigen once, so
    each count is 0, 1, or 2."""
    return MismatchCount(*(len(donor.normalized(table, locus)
                               - candidate.normalized(table, locus))
                           for locus in LOCI))


def is_homozygous(typing: HlaTyping, locus: str) -> bool:
    return len(set(typing.antigens.get(locus, ()))) == 1


def homozygosity_level(candidate: HlaTyping) -> tuple[int, dict[str, bool]]:
    """Number of A/B/DR loci with a single antigen, plus per-locus flags."""
    flags = {loc: is_homozygous(candidate, loc) for loc in LOCI}
    return sum(flags.values()), flags


def carried_codes(table: AntigenTable, typing: HlaTyping) -> frozenset[str]:
    """Antigen codes a donor effectively carries: the typed codes plus their
    parent broads, so an unacceptable broad also blocks donors typed at the
    split level."""
    codes = {c for locus_codes in typing.antigens.values() for c in locus_codes}
    return frozenset(codes | {table.resolve(c).broad for c in codes})


@lru_cache(maxsize=64)
def _carried_sets(panel: DonorPanel,
                  table: AntigenTable) -> tuple[frozenset[str], ...]:
    return tuple(carried_codes(table, t) for t in panel)


def compute_vpra(unacceptables: frozenset[str] | set[str],
                 panel: DonorPanel, table: AntigenTable) -> float:
    """Fraction of panel donors carrying at least one unacceptable antigen."""
    if not unacceptables:
        return 0.0
    unacc = frozenset(unacceptables)
    hits = sum(1 for codes in _carried_sets(panel, table) if codes & unacc)
    return hits / len(panel)


def p_leq1mm_empirical(table: AntigenTable, candidate: HlaTyping,
                       unacceptables: frozenset[str], panel: DonorPanel,
                       exclude_unacceptable_carriers: bool = False) -> float:
    """Fraction of panel donors with at most 1 HLA-ABDR mismatch.

    With ``exclude_unacceptable_carriers`` the fraction is taken among the
    whole panel but donors carrying any unacceptable antigen never count as
    favorable, which can only lower the value.
    """
    hits = 0
    for typing, codes in zip(panel, _carried_sets(panel, table)):
        if exclude_unacceptable_carriers and unacceptables and codes & unacceptables:
            continue
        if count_mismatches(table, typing, candidate).total <= 1:
            hits += 1
    return hits / len(panel)


def _locus_mismatch_probs(table: AntigenTable, freq: FrequencyTable,
                          candidate: HlaTyping, locus: str) -> tuple[float, float]:
    """(P[0 mismatches], P[exactly 1]) at a locus for a random donor.

    The donor genotype is two independent draws from the locus frequencies;
    a homozygous draw contributes its antigen once.  Candidate antigens must
    all be present in the table (their frequencies define the favorable set).
    """
    cand = candidate.normalized(table, locus)
    dist = freq.locus(locus)
    for code in candidate.antigens[locus]:
        norm = table.normalize(code)
        if norm not in dist:
            raise InputError(
                f"candidate antigen {code!r} (counted as {norm!r}) missing "
                f"from frequency table at locus {locus}")
    s = sum(f for c, f in dist.items() if c in cand)
    sq_out = sum(f * f for c, f in dist.items() if c not in cand)
    p0 = s * s
    p1 = 2.0 * s * (1.0 - s) + sq_out
    return p0, p1


def p_leq1mm_analytic(table: AntigenTable, candidate: HlaTyping,
                      freq: FrequencyTable) -> float:
    """Probability of at most 1 total mismatch under locus independence.

    Sum of the zero-total-mismatch probability and, per locus, the
    probability of exactly one mismatch there and zero elsewhere.
    """
    probs = [_locus_mismatch_probs(table, freq, candidate, loc) for loc in LOCI]
    p_all0 = math.prod(p0 for p0, _ in probs)
    p_exactly1 = 0.0
    for i, (p0_i, p1_i) in enumerate(probs):
        term = p1_i
        for j, (p0_j, _) in enumerate(probs):
            if j != i:
                term *= p0_j
        p_exactly1 += term
    return p_all0 + p_exactly1


def p_leq1mm_bit_matrix(freq_by_bit: Mapping[str, np.ndarray],
                        masks: Mapping[str, np.ndarray]) -> np.ndarray:
    """``p_leq1mm_analytic`` of rows of A, B and DR masks, as the engine
    derived it from a rows x 64 matrix of each locus's bits:
    ``freq_by_bit[locus][b]`` is the frequency of the antigen at bit b (0.0
    for an unused bit), ``masks[locus]`` the rows' uint64 masks."""
    shifts = np.arange(64, dtype=np.uint64)[None, :]
    probs = []
    for locus in LOCI:
        fb = freq_by_bit[locus]
        bits = ((masks[locus][:, None] >> shifts)
                & np.uint64(1)).astype(np.float64)
        s = bits @ fb
        sq_all = float((fb ** 2).sum())
        sq_in = bits @ (fb ** 2)
        p0 = s * s
        p1 = 2.0 * s * (1.0 - s) + (sq_all - sq_in)
        probs.append((p0, p1))
    p = probs[0][0] * probs[1][0] * probs[2][0]
    for i in range(3):
        term = probs[i][1].copy()
        for j in range(3):
            if j != i:
                term *= probs[j][0]
        p += term
    return p


@dataclass(frozen=True)
class MmpInputs:
    """Inputs to the mismatch-probability formula, all fractions in [0,1]."""

    f_bg: float
    vpra: float
    p_leq1mm: float

    def __post_init__(self):
        for name in ("f_bg", "vpra", "p_leq1mm"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")


def compute_mmp(inputs: MmpInputs) -> float:
    """Probability that none of the next 1,000 donors is favorably matched.

    A favorable donor is blood-group identical, carries no unacceptable
    antigen, and has at most 1 ABDR mismatch, so per-donor favorability is
    f_bg * (1 - vPRA) * p_leq1mm and the MMP is the 1,000-donor complement.
    Evaluated in the log domain for precision.
    """
    return compute_hmpp_fraction(
        inputs.f_bg * (1.0 - inputs.vpra) * inputs.p_leq1mm)


def mmp_points(mmp: float, weight: float) -> int:
    """Match points for a mismatch probability: round(weight * MMP), half-up."""
    return round_half_up(weight * mmp)
