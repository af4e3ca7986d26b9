"""Shared helpers: rounding, date arithmetic, and tabular-file parsing."""

from __future__ import annotations

import csv
import math
from datetime import date, datetime
from pathlib import Path
from typing import Iterator

import numpy as np


class InputError(ValueError):
    """Malformed input data (carries file/line location when known)."""

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        loc = ""
        if self.path is not None:
            loc = f"{self.path}:{line}: " if line is not None else f"{self.path}: "
        super().__init__(loc + message)


def round_half_up(x: float) -> int:
    """Round to the nearest integer, ties away from zero-half up.

    Python's built-in round() uses banker's rounding; match points are
    conventionally rounded half-up instead.
    """
    return math.floor(x + 0.5)


EPOCH = date(1970, 1, 1)


def to_days(d: date | datetime) -> int:
    """Days since the 1970-01-01 epoch (dates and datetimes collapse to days)."""
    if isinstance(d, datetime):
        d = d.date()
    return (d - EPOCH).days


def from_days(days: int) -> date:
    return date.fromordinal(EPOCH.toordinal() + days)


def day_text(days: int) -> str:
    """The YYYY-MM-DD text of a day since the epoch, as inputs and outputs
    write it."""
    return from_days(days).isoformat()


DAYS_PER_YEAR = 365.25


def parse_date(text: str, path=None, line=None) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise InputError(f"invalid date {text!r} (expected YYYY-MM-DD)", path, line)


def parse_day(text: str, path=None, line=None) -> int:
    """The day (since the epoch) of a YYYY-MM-DD text, as parse_date reads
    it: the one place input text becomes an event or registration day."""
    return to_days(parse_date(text, path, line))


_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9]  # YYYY-MM-DD


def iso_days(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse date texts in one numpy pass: (days since the epoch, ok mask).

    A text counts as parsed (ok) only in strict YYYY-MM-DD form naming a real
    calendar date, i.e. exactly when the parsed day formats back to the same
    text.  Every other text, including forms that parse_date also accepts
    (such as 20210501), is left to parse_date; its day reads 0.
    """
    n = len(texts)
    # code points of the first 10 characters, one row per text
    cp = np.array(texts, dtype="U10").view(np.uint32).reshape(n, 10)
    days, ok = iso_day_rows(cp)
    ok &= np.fromiter(map(len, texts), dtype=np.int64, count=n) == 10
    return np.where(ok, days, 0), ok


def iso_day_rows(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """iso_days of the rows of an (n, 10) matrix of unsigned character codes
    (code points or bytes): (days since the epoch, ok mask)."""
    digits = cp[:, _DIGIT_AT] - np.uint32(48)  # non-digits wrap past 9
    ok = (digits <= 9).all(axis=1) & (cp[:, 4] == 45) & (cp[:, 7] == 45)
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month = d[:, 4] * 10 + d[:, 5]
    day = d[:, 6] * 10 + d[:, 7]
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("M8[M]")
    first = months.astype("M8[D]").astype(np.int64)
    ok &= day <= (months + 1).astype("M8[D]").astype(np.int64) - first
    return np.where(ok, first + day - 1, 0), ok


def parse_bool(text: str, path=None, line=None) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "y"):
        return True
    if t in ("0", "false", "no", "n", ""):
        return False
    raise InputError(f"invalid boolean {text!r}", path, line)


def read_csv_header(fh) -> tuple[int, list[str]] | None:
    """Skip the '#' metadata and blank lines of an open delimited file and
    read its header row: (header line number, field names), or None for a
    file without one.  Data row i (0-based, as csv.reader counts rows) then
    sits on line header_line + 1 + i."""
    pos = 0
    for raw in fh:
        pos += 1
        if raw.startswith("#") or not raw.strip():
            continue
        return pos, next(csv.reader([raw]))
    return None


def is_blank_row(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def read_csv_rows(path: str | Path) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (line_number, row_dict) from a delimited file.

    Lines starting with '#' before the header carry file-level metadata and
    are skipped here; use read_csv_header_meta() to collect them.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_csv_header(fh)
        if header is None:
            return
        pos, fieldnames = header
        for i, row in enumerate(csv.reader(fh)):
            if is_blank_row(row):
                continue
            if len(row) != len(fieldnames):
                raise InputError(
                    f"expected {len(fieldnames)} fields, got {len(row)}",
                    path, pos + 1 + i)
            yield pos + 1 + i, dict(zip(fieldnames, row))


def read_csv_header_meta(path: str | Path) -> dict[str, str]:
    """Collect '#key=value' metadata lines preceding a file's header row."""
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            if not raw.startswith("#"):
                break
            body = raw[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
    return meta
