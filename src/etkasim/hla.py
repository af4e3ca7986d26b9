"""HLA typings, the antigen equivalence table, frequencies and panels.

Mismatches on the A and B loci are counted at the broad-antigen level and
DR mismatches at the split level, so every typing is normalized through an
antigen equivalence table before any counting happens.  The same table
maps a donor's typed codes to the codes it carries for vPRA against a
reference donor panel (``fastmatch.HlaIndex`` lays both out as bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .common import InputError, one_of, read_table

LOCI = ("A", "B", "DR")

#: Loci counted at broad resolution; every other locus counts at split level.
BROAD_LEVEL_LOCI = frozenset({"A", "B"})


class UnknownAntigenError(KeyError):
    """An antigen code that does not resolve in the equivalence table."""

    def __init__(self, code: str):
        self.code = code
        super().__init__(f"unknown antigen code: {code!r}")

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Antigen:
    code: str
    locus: str
    broad: str  # parent broad; equals code when the code is itself a broad


class AntigenTable:
    """Broad/split equivalence table, loaded from data rather than code.

    Each row maps an antigen code to its locus and parent broad.  Broads are
    listed with themselves as parent.  Codes are distinct (``from_file``
    checks each row); an error names ``path``, the file they came from.
    """

    def __init__(self, antigens: Iterable[Antigen], path: str | Path | None):
        self._by_code = {a.code: a for a in antigens}
        for a in self._by_code.values():
            parent = self._by_code.get(a.broad)
            if parent is None or parent.locus != a.locus:
                raise InputError(
                    f"antigen {a.code!r}: parent broad {a.broad!r} missing "
                    f"or on a different locus", path)

    @classmethod
    def from_file(cls, path: str | Path) -> "AntigenTable":
        codes = set()

        def antigen(code: str, locus: str, broad: str) -> Antigen:
            if code in codes:
                raise InputError(f"duplicate antigen code {code!r}")
            codes.add(code)
            return Antigen(code, locus, broad or code)

        return cls(read_table(
            path, (("code", None, str.strip), ("locus", None, str.strip),
                   ("broad", None, str.strip)), "antigen", antigen), path)

    def resolve(self, code: str) -> Antigen:
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownAntigenError(code) from None

    def normalize(self, code: str) -> str:
        """Counting-level code: parent broad on A/B, the split itself on DR+."""
        a = self.resolve(code)
        return a.broad if a.locus in BROAD_LEVEL_LOCI else a.code

    def locus_of(self, code: str) -> str:
        return self.resolve(code).locus

    def codes(self) -> Iterable[str]:
        return self._by_code.keys()

    def check_unacceptables(self, codes: Iterable[str]) -> None:
        """Raise InputError if a code of a set of unacceptable antigens is
        not in the table."""
        unknown = set(codes).difference(self._by_code)
        if unknown:
            raise InputError(f"unacceptable antigen {min(unknown)!r} not in "
                             "the antigen table")


@dataclass(frozen=True)
class HlaTyping:
    """Per-locus antigen sets; 1 antigen at a locus means homozygous.

    ``antigens`` maps locus -> tuple of raw codes (length 1 or 2).  Loci
    beyond A/B/DR may be present and ride along behind the same interface.
    """

    antigens: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "antigens",
            {loc: tuple(codes) for loc, codes in self.antigens.items()})
        for loc, codes in self.antigens.items():
            if not 1 <= len(codes) <= 2:
                raise ValueError(
                    f"locus {loc}: expected 1-2 antigens, got {len(codes)}")

    @classmethod
    def from_codes(cls, table: AntigenTable, codes: Iterable[str]) -> "HlaTyping":
        by_locus: dict[str, list[str]] = {}
        for code in codes:
            by_locus.setdefault(table.locus_of(code), []).append(code)
        return cls({loc: tuple(v) for loc, v in by_locus.items()})

    def validate(self, table: AntigenTable) -> None:
        for loc in LOCI:
            if loc not in self.antigens:
                raise ValueError(f"typing lacks locus {loc}")
            for code in self.antigens[loc]:
                got = table.locus_of(code)
                if got != loc:
                    raise InputError(
                        f"antigen {code!r} is on locus {got}, listed under {loc}")

    def normalized(self, table: AntigenTable, locus: str) -> frozenset[str]:
        """Counting-level antigen set at a locus."""
        return frozenset(table.normalize(c) for c in self.antigens[locus])


#: Typing columns of candidate, donor and panel files, two per locus; a
#: blank second column means homozygous.
HLA_COLUMNS = ("a1", "a2", "b1", "b2", "dr1", "dr2")


class TypingReader:
    """Typings from the texts of the HLA_COLUMNS, as ``HlaTyping.from_codes``
    and ``validate`` build and check them from the nonblank stripped texts;
    all blank reads None, or fails if the typing is ``required``.  It is
    the parser of a ``common.read_table`` field of the HLA_COLUMNS.

    Codes are grouped by their table locus, not by column.  When each
    column pair holds one or two codes of its own locus, that grouping is
    the pairs themselves, so ``read`` costs a row three lookups in a memo
    of distinct pairs.  Any other row takes the general path, one row's
    typing (``__call__``), which raises what it always has.
    """

    _PAIRS = ((0, 1, "A"), (2, 3, "B"), (4, 5, "DR"))

    def __init__(self, table: AntigenTable, required: bool = False):
        self.table = table
        self.required = required
        # per locus: (first text, second text) -> its codes, or None where
        # the pair leaves the fast path
        self._pairs: dict[str, dict[tuple[str, str], tuple[str, ...] | None]]
        self._pairs = {locus: {} for *_, locus in self._PAIRS}

    def read(self, columns: Sequence[Sequence[str]]) -> list[HlaTyping | None]:
        """The typings of six text columns' rows, up to (not including) the
        first row that the general path rejects."""
        columns = [list(map(str.strip, column)) for column in columns]
        loci = []
        for i, j, locus in self._PAIRS:
            memo = self._pairs[locus]
            keys = list(zip(columns[i], columns[j]))
            for key in set(keys).difference(memo):
                memo[key] = self._pair(locus, *key)
            loci.append(map(memo.__getitem__, keys))
        typings = [HlaTyping({"A": a, "B": b, "DR": dr}) if a and b and dr
                   else None for a, b, dr in zip(*loci)]
        for row in [i for i, t in enumerate(typings) if t is None]:
            try:
                typings[row] = self([c[row] for c in columns])
            except (KeyError, ValueError):
                return typings[:row]
        return typings

    def _pair(self, locus: str, first: str, second: str
              ) -> tuple[str, ...] | None:
        codes = tuple(c for c in (first, second) if c)
        try:
            if codes and all(self.table.locus_of(c) == locus for c in codes):
                return codes
        except UnknownAntigenError:
            pass
        return None

    def __call__(self, texts: Sequence[str]) -> HlaTyping | None:
        codes = [c for c in map(str.strip, texts) if c]
        if not codes:
            if self.required:
                raise ValueError("HLA typing is required")
            return None
        typing = HlaTyping.from_codes(self.table, codes)
        typing.validate(self.table)
        return typing


# ---------------------------------------------------------------------------
# Donor panel

class DonorPanel:
    """Immutable reference population of donor typings.

    The production panel holds 10,000 recently reported donors; any size
    works, and test fixtures use much smaller ones.  An empty panel raises
    InputError naming ``path``, the file it came from.
    """

    def __init__(self, typings: Sequence[HlaTyping],
                 path: str | Path | None):
        if not typings:
            raise InputError("donor panel must be nonempty", path)
        self._typings = tuple(typings)

    def __len__(self) -> int:
        return len(self._typings)

    def __iter__(self):
        return iter(self._typings)

    @classmethod
    def from_file(cls, table: AntigenTable, path: str | Path) -> "DonorPanel":
        """Load a panel file with columns a1,a2,b1,b2,dr1,dr2.

        A blank second field means the donor is homozygous at that locus.
        """
        return cls(read_table(
            path, ((HLA_COLUMNS, "", TypingReader(table, required=True)),),
            "panel typing", lambda typing: typing), path)


# ---------------------------------------------------------------------------
# Antigen frequencies

def _frequency(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"invalid frequency {text!r}") from None


class FrequencyTable:
    """Antigen frequencies per locus, the basis of the analytic p<=1mm.

    Frequencies are interpreted as relative weights per locus and normalized
    to a distribution, under which donor genotypes are drawn as two
    independent antigens per locus.  An error names ``path``, the file they
    came from.
    """

    def __init__(self, freqs: Mapping[str, Mapping[str, float]],
                 path: str | Path | None):
        self._freqs: dict[str, dict[str, float]] = {}
        for locus, table in freqs.items():
            total = sum(table.values())
            if total <= 0:
                raise InputError(f"locus {locus}: frequencies sum to {total}",
                                 path)
            self._freqs[locus] = {c: f / total for c, f in table.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "FrequencyTable":
        freqs: dict[str, dict[str, float]] = {}

        def add(locus: str, code: str, f: float) -> None:
            if f < 0:
                raise InputError(f"negative frequency for {code}")
            freqs.setdefault(locus, {})[code] = f

        read_table(path, (("locus", None, str.strip),
                          ("code", None, str.strip),
                          ("freq", None, _frequency)), "antigen frequency",
                   add)
        return cls(freqs, path)

    def locus(self, locus: str) -> dict[str, float]:
        return self._freqs[locus]


# ---------------------------------------------------------------------------
# HLA-only mismatch probability (HMPP)

def compute_hmpp_fraction(f_leq1mm: float) -> float:
    """HLA-only mismatch probability: [1 - f_leq1mm]^1000, in [0,1]."""
    if not 0.0 <= f_leq1mm <= 1.0:
        raise ValueError(f"f_leq1mm = {f_leq1mm} outside [0, 1]")
    if f_leq1mm >= 1.0:
        return 0.0
    value = math.exp(1000.0 * math.log1p(-f_leq1mm))
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Blood groups

BLOOD_GROUPS = ("O", "A", "B", "AB")


@dataclass(frozen=True)
class BloodGroupFrequencies:
    freqs: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "BloodGroupFrequencies":
        return cls(dict(read_table(
            path, (("bg", None, one_of(BLOOD_GROUPS, "blood group")),
                   ("freq", None, float)), "blood group frequency")))

    def freq_of(self, bg: str) -> float:
        try:
            return self.freqs[bg]
        except KeyError:
            raise InputError(f"no frequency for blood group {bg!r}")
