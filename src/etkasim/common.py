"""Shared helpers: rounding, date arithmetic, and the one reader and one
writer of tables."""

from __future__ import annotations

import csv
import gc
import math
from contextlib import contextmanager
from datetime import date, datetime
from itertools import islice, takewhile
from pathlib import Path
from typing import Container

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


def age_years(now_days, birth_days):
    """Whole years of age on day ``now_days`` of one born on ``birth_days``
    (ints or integer arrays): floor((now - birth) / DAYS_PER_YEAR).

    DAYS_PER_YEAR is 1461 / 4, so integer floor division by 1461 of four
    times the day count is exact, and on arrays several times faster than
    floor division by the float.
    """
    return (now_days - birth_days) * 4 // 1461


def parse_date(text: str, path=None) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise InputError(f"invalid date {text!r} (expected YYYY-MM-DD)", path)


def parse_day(text: str) -> int:
    """The day (since the epoch) of a YYYY-MM-DD text, as parse_date reads
    it: the one place input text becomes an event or registration day."""
    return to_days(parse_date(text))


_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9]  # YYYY-MM-DD


def iso_day_rows(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse the rows of an (n, 10) matrix of unsigned character codes (code
    points or bytes) as dates in one numpy pass: (days since the epoch, ok
    mask).

    A row counts as parsed (ok) only in strict YYYY-MM-DD form naming a real
    calendar date, i.e. exactly when the parsed day formats back to the same
    text.  Every other row, including forms that parse_date also accepts
    (such as 20210501), is not; its day reads 0.
    """
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


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "y"):
        return True
    if t in ("0", "false", "no", "n", ""):
        return False
    raise InputError(f"invalid boolean {text!r}")


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


def csv_blocks(path, header_line: int, nf: int, reader, size: int):
    """The data rows of a delimited file after its header, ``size`` rows
    at a time without the blank ones: (rows, their line numbers) per
    nonempty block.  A row of the wrong width raises InputError after the
    rows before it are yielded."""
    first_line = header_line + 1
    while rows := list(islice(reader, size)):
        lines = first_line + np.arange(len(rows))
        first_line += len(rows)
        rows, lines, width_error = cut_block(path, nf, rows, lines)
        if rows:
            yield rows, lines
        if width_error is not None:
            raise width_error


def cut_block(path, nf: int, rows: list[list[str]], lines: np.ndarray):
    """Drop blank rows, and end the block before its first row of the wrong
    width: (rows, their lines, that row's InputError or None)."""
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    width_error = None
    blank = []
    # a blank row has at most one field
    for i in np.flatnonzero((widths != nf) | (widths <= 1)).tolist():
        if is_blank_row(rows[i]):
            blank.append(i)
        elif widths[i] != nf:
            width_error = InputError(f"expected {nf} fields, got {widths[i]}",
                                     path, int(lines[i]))
            del rows[i:]
            lines = lines[:i]
            break
    if blank:
        keep = np.delete(np.arange(len(rows)), blank)
        rows = [rows[i] for i in keep.tolist()]
        lines = lines[keep]
    return rows, lines, width_error


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the body of a ``with`` (or of
    a function this decorates).

    Code that builds many small long-lived objects and no reference cycles
    runs faster paused: each collection would rescan every object built so
    far, and find nothing to free.  Pausing is safe, since reference
    counting still frees every acyclic object at once; a cycle built while
    paused waits only for the first collection after the pause, and that
    collection also sweeps, once, what the body built.  On exit, also by an
    exception, the collector is as the caller had it: enabled stays enabled
    and disabled stays disabled, so pauses nest.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def text_or(default):
    """A parser of a column's stripped text that reads ``default`` for a
    blank one."""
    return lambda text: text.strip() or default


def one_of(names: Container[str], what: str):
    """A parser of a column's stripped text, which must be one of
    ``names``."""
    def parse(text: str) -> str:
        text = text.strip()
        if text not in names:
            raise InputError(f"unknown {what} {text!r}")
        return text
    return parse


_TABLE_BLOCK = 1 << 13  # rows per block of read_table


def read_table(path: str | Path, fields, what: str, make=None) -> list:
    """The records of a delimited file's rows, in file order.

    ``fields`` lists each field as (column, default, parse): the column's
    name, the text its rows read when the file lacks the column (None if
    the column is required), and the parser of that text.  A field of
    several columns (a tuple of names) is parsed from the tuple of their
    texts, each distinct tuple once, or, by a parser with a ``read``
    method, a block at a time (``parse.read(columns)``: the values of the
    rows before the first one it rejects) and one row at a time
    (``parse(texts)``).  ``make`` builds a row's record from its field
    values in table order (a tuple if None); it meets the rows in file
    order.

    The file is read _TABLE_BLOCK rows at a time, which bounds what parsing
    holds beyond its result, and parsed column-wise by a TableParser: each
    distinct text of a column is parsed once.  A malformed row raises
    InputError at its line, the first one in file order, as a row-at-a-time
    read would: within a row the fields fail in table order, then
    ``make``.  An InputError that a parser or ``make`` raises keeps its
    message; any other ValueError or KeyError (a missing column, an int()
    that fails) reads ``malformed <what>: <error>``.
    """
    with gc_paused(), open(path, newline="", encoding="utf-8") as fh:
        header = read_csv_header(fh)
        if header is None:
            return []
        header_line, names = header
        table = TableParser(path, names, fields, what, make)
        for rows, lines in csv_blocks(path, header_line, len(names),
                                      csv.reader(fh), _TABLE_BLOCK):
            table.parse_block(rows, lines.tolist())
        return table.records


_MALFORMED = object()  # memo entry of a text its parser rejects


class TableParser:
    """The records of a table's rows, parsed a block at a time in file
    order (``read_table`` tells how)."""

    def __init__(self, path, names: list[str], fields, what: str, make):
        self.path = path
        self.names = names
        self.col = {name: i for i, name in enumerate(names)}
        self.fields = fields
        self.what = what
        self.make = make
        # parsed value (or _MALFORMED) per distinct text, per field
        self.memo: list[dict] = [{} for _ in fields]
        self.records: list = []

    def parse_block(self, rows: list[list[str]], lines: list[int]) -> None:
        """Append the block's records; raise at its first malformed row."""
        n = len(rows)
        by_column = list(zip(*rows))
        values = [self._column(by_column, n, field, memo)
                  for field, memo in zip(self.fields, self.memo)]
        records = self.records
        start = len(records)
        try:
            # zip and map stop at the shortest column: the rows before the
            # first malformed one.  extend keeps the records made before a
            # failing one.
            records.extend(zip(*values) if self.make is None
                           else map(self.make, *values))
        except (KeyError, ValueError) as exc:
            self._raise(exc, lines[len(records) - start])
        good = min(map(len, values))
        if good < n:
            self._raise_row_error(rows[good], lines[good])

    def _column(self, by_column: list[tuple[str, ...]], n: int, field,
                memo: dict) -> list:
        """A field's values for the block's rows, up to (not including) the
        first one that its parser rejects."""
        column, default, parse = field
        if isinstance(column, tuple):
            columns = [by_column[self.col[c]] if c in self.col
                       else [default] * n for c in column]
            if hasattr(parse, "read"):
                return parse.read(columns)
            texts = list(zip(*columns))
        elif column not in self.col:
            return [] if default is None else [parse(default)] * n
        else:
            texts = by_column[self.col[column]]
        if parse is str.strip:
            return list(map(str.strip, texts))
        malformed = set()
        for text in set(texts).difference(memo):
            try:
                memo[text] = parse(text)
            except (KeyError, ValueError):
                memo[text] = _MALFORMED
                malformed.add(text)
        values = list(map(memo.__getitem__, texts))
        if not malformed:
            return values
        return values[:next(i for i, text in enumerate(texts)
                            if text in malformed)]

    def _raise_row_error(self, texts: list[str], line: int) -> None:
        """Parse one row field by field, as a row-at-a-time read does,
        raising its first error (every row handed in has one)."""
        row = dict(zip(self.names, texts))
        try:
            for column, default, parse in self.fields:
                if isinstance(column, tuple):
                    parse(tuple(row.get(c, default) for c in column))
                else:
                    parse(row[column] if default is None
                          else row.get(column, default))
        except (KeyError, ValueError) as exc:
            self._raise(exc, line)

    def _raise(self, exc: KeyError | ValueError, line: int) -> None:
        if not isinstance(exc, InputError):
            raise InputError(f"malformed {self.what}: {exc}", self.path,
                             line) from None
        if exc.path is None:
            raise InputError(str(exc), self.path, line) from None
        raise exc


def read_coefficients(path: str | Path, vocabulary: Container[str],
                      kinds: tuple[str, ...] = (), intercept: bool = True):
    """A fitted model's ``name,value`` file: (``#model_id`` header or file
    stem, intercept or 0, coefficients in file order, ``{name: value}`` rows
    of each of ``kinds``, which a ``kind`` column tells from ``coef`` rows).
    A value that is not a number, a row of another kind or a feature
    outside ``vocabulary`` raises InputError at its line."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        meta = [line[1:].partition("=") for line in
                takewhile(lambda line: line.startswith("#"), fh)]
    model_id = next((value.strip() for key, sep, value in meta
                     if sep and key.strip() == "model_id"), path.stem)
    start = 0.0
    coefficients: dict[str, float] = {}
    other: dict[str, dict[str, float]] = {kind: {} for kind in kinds}

    def book(kind: str, name: str, text: str) -> None:
        nonlocal start
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"coefficient {name!r}: value {text!r} is not "
                             "a number") from None
        if kind in other:
            other[kind][name] = value
        elif kind != "coef":
            raise InputError(f"unknown row kind {kind!r}")
        elif intercept and name in ("(Intercept)", "intercept"):
            start = value
        elif name in vocabulary:
            coefficients[name] = value
        else:
            raise InputError(f"model {model_id!r} has no feature {name!r}")

    read_table(path, (("kind", "coef", str.strip), ("name", "", str.strip),
                      ("value", None, str)), "coefficient", book)
    return model_id, start, coefficients, other


def write_table(path: str | Path, header, rows, model_id: str | None = None
                ) -> None:
    """Write a delimited file as read_table reads it: a ``#model_id`` line
    (which read_coefficients reads) if ``model_id`` is given, the header,
    then the rows, with csv.writer's CR LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if model_id is not None:
            fh.write(f"#model_id={model_id}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
