"""Shared helpers: rounding, date arithmetic, and tabular-file parsing."""

from __future__ import annotations

import csv
import math
from datetime import date, datetime
from pathlib import Path
from typing import Iterator


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


DAYS_PER_YEAR = 365.25


def parse_date(text: str, path=None, line=None) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise InputError(f"invalid date {text!r} (expected YYYY-MM-DD)", path, line)


def parse_bool(text: str, path=None, line=None) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "y"):
        return True
    if t in ("0", "false", "no", "n", ""):
        return False
    raise InputError(f"invalid boolean {text!r}", path, line)


def read_csv_rows(path: str | Path) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (line_number, row_dict) from a delimited file.

    Lines starting with '#' before the header carry file-level metadata and
    are skipped here; use read_csv_header_meta() to collect them.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        pos = 0
        header_line = None
        for raw in fh:
            pos += 1
            if raw.startswith("#") or not raw.strip():
                continue
            header_line = raw
            break
        if header_line is None:
            return
        fieldnames = next(csv.reader([header_line]))
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
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
