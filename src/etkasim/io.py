"""Input loading: settings documents, candidate/donor/balance streams, and
model files.  Paths in a settings file resolve relative to the file itself;
omitted data paths fall back to the packaged defaults under data/."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from datetime import date
from importlib import resources
from operator import attrgetter
from pathlib import Path

import numpy as np
import yaml

from .balances import BalanceEvent, read_balance_events
from .common import (InputError, TableParser, cut_block, gc_paused,
                     iso_day_rows, parse_bool, parse_date, parse_day,
                     read_csv_header, read_table, text_or, to_days)
from .entities import (CandidateRegistration, CenterRegistry, DonorArrival,
                       StatusUpdate, expand_mm_patterns, parse_payload,
                       parse_profile)
from .hla import (HLA_COLUMNS, AntigenTable, BloodGroupFrequencies,
                  DonorPanel, FrequencyTable, TypingReader)
from .offering import (DUAL_FEATURES, PATIENT_FEATURES, AcceptanceModels,
                       UNPLACED_MODES, CoxSampler, LogisticModel,
                       center_vocabulary)
from .policy import PolicyConfig, load_policy
from .posttransplant import RelistCurveSet, RelistingPool, WeibullModel


def data_path(name: str) -> Path:
    return Path(resources.files("etkasim").joinpath("data", name))


@dataclass(frozen=True)
class SimulationSettings:
    window_start: date
    window_end: date
    paths: dict[str, str | list[str]]
    base_dir: Path
    seed: int = 1
    seeds: tuple[int, ...] | None = None  # explicit per-run seed list
    unplaced_mode: str = "discard"
    output_dir: str = "out"
    write_trace: bool = False
    de_novo_immunization_p: float = 0.20

    def seed_list(self, n_runs: int) -> list[int]:
        if self.seeds is not None:
            if len(self.seeds) < n_runs:
                raise InputError(f"settings list {len(self.seeds)} seeds, "
                                 f"{n_runs} runs requested")
            return list(self.seeds[:n_runs])
        return [self.seed + i for i in range(n_runs)]

    def resolve(self, key: str, default_name: str | None = None) -> Path | None:
        value = self.paths.get(key)
        if value is None:
            return data_path(default_name) if default_name else None
        return (self.base_dir / value).resolve()

    def resolve_many(self, key: str) -> list[Path]:
        value = self.paths.get(key)
        if value is None:
            return []
        if isinstance(value, str):
            value = [value]
        return [(self.base_dir / v).resolve() for v in value]


_SETTINGS_KEYS = {"window", "paths", "seed", "seeds", "unplaced_mode",
                  "output_dir", "write_trace", "de_novo_immunization_p"}
_PATH_KEYS = {"candidates", "statuses", "donors", "balances", "panel",
              "antigens", "hla_frequencies", "blood_group_frequencies",
              "centers", "policy", "cox_coefficients", "cox_baselines",
              "accept_etkas_center", "accept_etkas_patient",
              "accept_esp_center", "accept_esp_patient", "dual_model",
              "weibull", "relist_curves", "relist_pool", "relist_pool_updates",
              "candidate_streams", "status_streams"}


def load_settings(path: str | Path) -> SimulationSettings:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    unknown = sorted(set(doc) - _SETTINGS_KEYS)
    if unknown:
        raise InputError(f"unknown settings key(s): {', '.join(unknown)}", path)
    window = doc.get("window", {})
    if "start" not in window or "end" not in window:
        raise InputError("settings must define window.start and window.end", path)

    def as_date(v):
        return v if isinstance(v, date) else parse_date(str(v), path)

    paths = doc.get("paths", {}) or {}
    unknown = sorted(set(paths) - _PATH_KEYS)
    if unknown:
        raise InputError(f"unknown path key(s): {', '.join(unknown)}", path)

    def check(key, default, valid, expected):
        value = doc.get(key, default)
        if not valid(value):
            raise InputError(f"{key} must be {expected}, got {value!r}", path)
        return value

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    seeds = check("seeds", None, lambda v: v is None or (
        isinstance(v, list) and all(map(is_int, v))), "a list of integers")
    p_immunized = check("de_novo_immunization_p", 0.20, lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and 0.0 <= v <= 1.0), "a probability between 0 and 1")
    start, end = as_date(window["start"]), as_date(window["end"])
    if to_days(end) < to_days(start):
        raise InputError(f"window.end {end} is before window.start {start}",
                         path)
    return SimulationSettings(
        window_start=start,
        window_end=end,
        paths=paths,
        base_dir=path.parent,
        seed=check("seed", 1, is_int, "an integer"),
        seeds=tuple(seeds) if seeds else None,
        unplaced_mode=check("unplaced_mode", "discard",
                            lambda v: v in UNPLACED_MODES,
                            " or ".join(map(repr, UNPLACED_MODES))),
        output_dir=str(doc.get("output_dir", "out")),
        write_trace=check("write_trace", False,
                          lambda v: isinstance(v, bool), "true or false"),
        de_novo_immunization_p=float(p_immunized),
    )


# ---------------------------------------------------------------------------
# Candidate and donor streams

def _optional_day(text: str) -> int | None:
    return parse_day(text) if text.strip() else None


def load_registrations(path: str | Path,
                       table: AntigenTable) -> list[CandidateRegistration]:
    """Candidate registrations, in file order (``common.read_table``: a
    malformed row raises InputError at its line).  Within a row the typing
    fails first, then the fields in the order of CandidateRegistration's.
    Unacceptable antigens must be in ``table``.
    """
    def unacceptables(text: str) -> frozenset[str]:
        codes = frozenset(text.split())
        table.check_unacceptables(codes)
        return codes

    return read_table(path, (
        (HLA_COLUMNS, "", TypingReader(table)),
        ("id", None, str.strip),
        ("patient_id", "", str.strip),  # blank: the registration id
        ("country", None, str.strip),
        ("center", None, str.strip),
        ("bg", None, str.strip),
        ("dob", None, parse_day),
        ("registration_date", None, parse_day),
        ("unacceptables", "", unacceptables),
        ("dialysis_start", "", _optional_day),
        ("prior_tx", "0", parse_bool),
        ("prev_tx_date", "", _optional_day),
        ("screening_date", "", _optional_day),
        ("urgency", "", text_or("NT")),
        ("profile", "", parse_profile),
        ("mm_criteria", "", expand_mm_patterns),
        ("am", "0", parse_bool),
        ("kaoo", "0", parse_bool),
        ("esp_opt_in", "0", parse_bool),
        ("program_choice", "", text_or(None))),
        "registration", _registration)


def _registration(hla, rid, patient_id, country, center, bg, born,
                  registered, *values) -> CandidateRegistration:
    # the typing, read first, takes its place among the fields
    return CandidateRegistration(rid, patient_id or rid, country, center, bg,
                                 born, registered, hla, *values)


Screenings = dict[str, np.ndarray]

# bytes per block of a status file: bounds what parsing holds beyond its
# result
_STATUS_BYTES = 1 << 21


def load_status_updates(path: str | Path, table: AntigenTable
                        ) -> tuple[dict[str, list[StatusUpdate]], Screenings]:
    """Candidate status streams as (updates, screenings).

    Each row's date is stored as its day: days since 1970-01-01, the time
    unit of the engine's event queue.  ``updates`` maps a candidate id to
    its status updates other than ``SCR``, sorted by ``StatusUpdate.day``
    with input order as the tie-break.  ``screenings`` maps a candidate id
    to the sorted days (read-only int32) of its ``SCR`` antibody-screening
    refreshes, which carry nothing but a date.  Both dicts list candidates
    in order of first appearance.

    The file is read once, as bytes, a block of whole lines at a time.  One
    numpy pass per block finds its lines (ending at LF, CR LF or a lone CR,
    as a text read splits them) and their separators, and picks out the
    plain screenings: lines of the header's width whose kind is exactly
    ``SCR``, whose date is strict YYYY-MM-DD and whose id is not padded.
    They become arrays of candidate numbers and days, with no Python object
    per line.  Every other line is a row of ``common.TableParser``, with
    the fields of ``_status_fields``; a file that holds a quote is read by
    ``common.read_table`` whole.  Either way a malformed row raises
    InputError at its line, the first one in file order, as a row-at-a-time
    read would: a wrong field count, a missing column, a bad date, an
    unknown kind, or a payload ``entities.parse_payload`` rejects or whose
    ``UNA`` antigens are not in ``table``, wherever its date lies.
    """
    with gc_paused():
        with open(path, newline="", encoding="utf-8") as fh:
            header = read_csv_header(fh)
        if header is None:
            return {}, {}
        fields = _status_fields(table)
        reader = _StatusReader(path, fields, *header)
        if reader.read_bytes():
            return _status_result(reader.rows.records, reader.number,
                                  reader.scr)
        # a quote may hide separators and line ends
        records = read_table(path, fields, "status update")
        number: dict[str, int] = {}
        _number(number, [record[0] for record in records])
        return _status_result(records, number, [])


def _status_fields(table: AntigenTable):
    """The fields of a status row: its candidate id, day, kind and parsed
    payload, the fields of a StatusUpdate.  The payload of a row of another
    kind than ``SCR`` must be one ``parse_payload`` accepts, with ``UNA``
    antigens in ``table``; an ``SCR`` row's value is None."""
    def payload(texts: tuple[str, str]):
        kind, text = map(str.strip, texts)
        if kind == "SCR":
            return None
        try:
            value = parse_payload(kind, text)
            if kind == "UNA":
                table.check_unacceptables(value)
        except InputError as exc:
            # read_table reports it as a malformed status update
            raise ValueError(str(exc)) from None
        return value

    return (("candidate_id", None, str.strip), ("date", None, parse_day),
            ("kind", None, str.strip), (("kind", "payload"), "", payload))


_EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32))
_SCR = np.frombuffer(b"SCR", dtype=np.uint8)


class _StatusReader:
    """A status file's lines, taken as bytes a block at a time in file
    order."""

    def __init__(self, path, fields, header_line: int,
                 fieldnames: list[str]):
        self.path = path
        self.header_line = header_line
        self.rows = TableParser(path, fieldnames, fields, "status update",
                                None)
        self.number: dict[str, int] = {}  # id -> order of first appearance
        self.scr = []  # (candidate number, day) arrays of plain screenings

    def read_bytes(self) -> bool:
        """Read the file; False, having read part of it, if it holds a
        quote."""
        line = 1  # the number of a block's first line
        with open(self.path, "rb") as fh:
            for block in _line_blocks(fh, _STATUS_BYTES):
                if b'"' in block:
                    return False
                line = self._read_block(block, line)
        return True

    def _read_block(self, block: bytes, first_line: int) -> int:
        """Take the lines of a block whose first line is numbered
        ``first_line``; return the number of the line after it."""
        if not block.isascii():
            block.decode("utf-8")  # undecodable bytes fail as in a text read
        a = np.frombuffer(block, dtype=np.uint8)
        starts, ends = _line_bounds(a)
        next_line = first_line + len(starts)
        skip = max(0, self.header_line + 1 - first_line)  # header and above
        starts, ends, first_line = starts[skip:], ends[skip:], first_line + skip
        plain, days, id_lo, id_hi = self._plain_screenings(a, starts, ends)

        # every other line is a table row
        others = np.delete(np.arange(len(starts)), plain)
        rows = list(csv.reader([
            block[i:j].decode("utf-8")
            for i, j in zip(starts[others].tolist(), ends[others].tolist())]))
        rows, lines, width_error = cut_block(self.path, len(self.rows.names),
                                             rows, first_line + others)
        records = self.rows.records
        start = len(records)
        if rows:
            self.rows.parse_block(rows, lines.tolist())
        if width_error is not None:
            raise width_error

        # plain screenings: one id per run of equal id bytes
        runs = np.flatnonzero(~_same_as_previous(a, id_lo, id_hi))
        run_ids = [block[i:j].decode("utf-8")
                   for i, j in zip(id_lo[runs].tolist(), id_hi[runs].tolist())]
        ids = run_ids + [record[0] for record in records[start:]]
        order = np.argsort(np.concatenate([first_line + plain[runs], lines]))
        _number(self.number, map(ids.__getitem__, order.tolist()))
        self.scr.append((np.repeat(_codes(self.number, run_ids),
                                   np.diff(np.r_[runs, len(plain)])), days))
        return next_line

    def _plain_screenings(self, a: np.ndarray, starts: np.ndarray,
                          ends: np.ndarray):
        """The plain screenings among the lines: (their indices, days, and
        the byte bounds of their ids).  Such a line has the header's width,
        the kind exactly ``SCR``, a strict YYYY-MM-DD date and an id whose
        first and last bytes are printable ASCII, so the row checks would
        take each field as it stands."""
        col = self.rows.col
        if not {"candidate_id", "date", "kind"} <= col.keys():
            return (_EMPTY[0], _EMPTY[1], _EMPTY[0], _EMPTY[0])
        nf = len(col)
        commas = np.flatnonzero(a == 44)
        first = np.searchsorted(commas, starts)  # each line's first comma
        sel = np.flatnonzero(
            (np.searchsorted(commas, ends) - first == nf - 1)
            # csv.reader rejects a field longer than its limit
            & (ends - starts <= csv.field_size_limit()))

        def field(name):  # byte bounds of a column in the lines of sel
            k = col[name]
            at = first[sel] + k  # the comma after the field
            lo = starts[sel] if k == 0 else commas[at - 1] + 1
            hi = ends[sel] if k == nf - 1 else commas[at]
            return lo, hi

        def window(lo, width):  # bytes from lo on, clipped at the block end
            return a.take(lo[:, None] + np.arange(width), mode="clip")

        lo, hi = field("kind")
        ok = (hi - lo == 3) & (window(lo, 3) == _SCR).all(axis=1)
        lo, hi = field("date")
        days, strict = iso_day_rows(window(lo, 10))
        ok &= (hi - lo == 10) & strict
        lo, hi = field("candidate_id")
        edges = window(lo, 1)[:, 0], window(hi - 1, 1)[:, 0]
        ok &= (hi > lo) & ((33 <= edges[0]) & (edges[0] <= 126)
                           & (33 <= edges[1]) & (edges[1] <= 126))
        return sel[ok], days[ok].astype(np.int32), lo[ok], hi[ok]


def _number(number: dict[str, int], ids) -> None:
    """Number the new ones of ``ids``, taken in file order."""
    for cid in dict.fromkeys(ids):
        number.setdefault(cid, len(number))


def _codes(number: dict[str, int], ids) -> np.ndarray:
    return np.fromiter(map(number.__getitem__, ids), dtype=np.int64,
                       count=len(ids))


def _status_result(records: list[tuple], number: dict[str, int],
                   scr: list[tuple[np.ndarray, np.ndarray]]
                   ) -> tuple[dict[str, list[StatusUpdate]], Screenings]:
    """(updates, screenings) from the status rows' records, in file order,
    and the plain screenings' (candidate number, day) arrays; ``number``
    numbers every id in order of first appearance."""
    names = list(number)
    streams: dict[str, list[StatusUpdate]] = {}
    screened = []  # the screenings among the records: not plain ones
    for record in records:
        if record[2] == "SCR":
            screened.append(record)
        else:
            streams.setdefault(record[0], []).append(StatusUpdate(*record))

    # screenings: one sorted day array per candidate, views of one buffer
    code, days = map(np.concatenate, zip(*scr, (
        _codes(number, [record[0] for record in screened]),
        np.array([record[1] for record in screened], dtype=np.int32))))
    order = _by_candidate_and_day(code, days)
    code, days = code[order], days[order]
    days.flags.writeable = False
    firsts = np.flatnonzero(np.diff(code, prepend=-1))
    bounds = np.r_[firsts, len(code)].tolist()
    screenings = {names[c]: days[i:j] for c, i, j
                  in zip(code[firsts].tolist(), bounds, bounds[1:])}

    # everything else: StatusUpdate lists by day, then input order (a
    # stable sort)
    by_day = attrgetter("day")
    for stream in streams.values():
        stream.sort(key=by_day)
    return {cid: streams[cid] for cid in names if cid in streams}, screenings


def _by_candidate_and_day(code: np.ndarray, days: np.ndarray) -> np.ndarray:
    """The order of rows by candidate number, then day, then input order (a
    stable sort, which is fast on rows that come nearly in order)."""
    return np.argsort((code << 32) + days, kind="stable")


def _line_blocks(fh, size: int):
    """An open binary file, read ``size`` bytes at a time, in pieces that
    end after a line end: an LF, or a CR once the byte after it is known,
    so no CR LF pair is split.  The last piece is the rest of the file."""
    tail = b""
    while chunk := fh.read(size):
        buf = tail + chunk
        cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
        if cut:
            yield buf[:cut]
        tail = buf[cut:]
    if tail:
        yield tail


def _line_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the lines of a block of bytes start and end (before their line
    end).  A line ends at an LF, a CR LF or a lone CR, as a text read splits
    lines; a last line without one counts too."""
    n = len(a)
    term = np.flatnonzero(a == 10)  # the last byte of each line end
    ends = term
    cr = np.flatnonzero(a == 13)
    if len(cr):
        # a CR at the end of the block is lone: the block was cut after it
        lone = cr[a[np.minimum(cr + 1, n - 1)] != 10]
        term = np.sort(np.concatenate([term, lone]))
        ends = term - ((a[term] == 10) & (a[term - 1] == 13) & (term > 0))
    starts = np.r_[0, term + 1]
    ends = np.r_[ends, n]
    if starts[-1] == n:  # the block ends with a line end
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


def _same_as_previous(a: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Whether each byte string a[lo:hi] equals the one before it (the first
    does not).  Compares one byte column at a time, only where all earlier
    bytes matched, so the work is at most the strings' bytes."""
    length = hi - lo
    same = np.zeros(len(lo), dtype=bool)
    pairs = np.flatnonzero(length[1:] == length[:-1]) + 1
    j = 0
    while len(pairs):
        done = length[pairs] == j
        same[pairs[done]] = True
        pairs = pairs[~done]
        pairs = pairs[a[lo[pairs] + j] == a[lo[pairs - 1] + j]]
        j += 1
    return same


def load_donors(path: str | Path, table: AntigenTable) -> list[DonorArrival]:
    """Donor arrivals, in file order (``common.read_table``); each needs a
    typing, which is read first."""
    return read_table(path, (
        (HLA_COLUMNS, "", TypingReader(table, required=True)),
        ("id", None, str.strip),
        ("report_date", None, parse_day),
        ("age", None, int),
        ("bg", None, str.strip),
        ("country", None, str.strip),
        ("center", None, str.strip),
        ("death_cause", "", text_or("other")),
        ("dcd", "0", parse_bool),
        ("creatinine", "1.0", lambda text: float(text or 1.0)),
        ("diabetes", "0", parse_bool),
        ("smoking", "0", parse_bool),
        ("proteinuria", "0", parse_bool),
        ("hypertension", "0", parse_bool),
        ("malignancy", "0", parse_bool),
        ("hcv", "0", parse_bool),
        ("hbs", "0", parse_bool),
        ("extended", "0", parse_bool),
        ("kidneys", "2", lambda text: int(text or 2))), "donor", _donor)


def _donor(hla, did, reported, age, bg, country, center,
           *values) -> DonorArrival:
    # the typing, read first, takes its place among the fields
    return DonorArrival(did, reported, age, bg, country, center, hla, *values)


# ---------------------------------------------------------------------------
# Full input bundle

@dataclass
class SimulationInputs:
    settings: SimulationSettings
    antigen_table: AntigenTable
    centers: CenterRegistry
    bg_freqs: BloodGroupFrequencies
    freq_table: FrequencyTable
    panel: DonorPanel
    policy: PolicyConfig
    registrations: list[CandidateRegistration]
    updates: dict[str, list[StatusUpdate]]
    donors: list[DonorArrival]
    balance_events: list[BalanceEvent]
    cox: CoxSampler
    etkas_models: AcceptanceModels
    esp_models: AcceptanceModels
    weibull: WeibullModel
    relist_curves: RelistCurveSet
    relist_pool: RelistingPool
    # SCR refresh days per candidate, as ``load_status_updates`` gives them
    screenings: Screenings = field(default_factory=dict)
    candidate_stream_paths: list[Path] = field(default_factory=list)
    status_stream_paths: list[Path] = field(default_factory=list)

    def with_policy(self, policy: PolicyConfig) -> "SimulationInputs":
        return replace(self, policy=policy)


@gc_paused()  # loading leaves no cyclic garbage
def load_inputs(settings: SimulationSettings,
                policy: PolicyConfig | None = None) -> SimulationInputs:
    table = AntigenTable.from_file(settings.resolve("antigens", "antigens.csv"))
    centers = CenterRegistry.from_file(settings.resolve("centers", "centers.csv"))
    bg_freqs = BloodGroupFrequencies.from_file(
        settings.resolve("blood_group_frequencies", "blood_groups.csv"))
    freq_table = FrequencyTable.from_file(
        settings.resolve("hla_frequencies", "hla_frequencies.csv"))

    panel_path = settings.resolve("panel")
    if panel_path is None:
        raise InputError("settings must point at a donor panel (paths.panel)")
    panel = DonorPanel.from_file(table, panel_path)

    if policy is None:
        policy_path = settings.resolve("policy")
        policy = load_policy(policy_path) if policy_path else PolicyConfig()

    cand_path = settings.resolve("candidates")
    status_path = settings.resolve("statuses")
    donor_path = settings.resolve("donors")
    for key, p in (("candidates", cand_path), ("statuses", status_path),
                   ("donors", donor_path)):
        if p is None:
            raise InputError(f"settings must define paths.{key}")

    balance_path = settings.resolve("balances")
    balance_events = read_balance_events(balance_path) if balance_path else []

    cox = CoxSampler.from_files(
        settings.resolve("cox_coefficients", "cox_max_offers.csv"),
        settings.resolve("cox_baselines", "cox_baselines.csv"),
        centers.countries)

    def model(key: str, vocabulary) -> LogisticModel:
        return LogisticModel.from_file(settings.resolve(key, f"{key}.csv"),
                                       vocabulary)

    center = center_vocabulary(centers.countries)
    dual = LogisticModel.from_file(settings.resolve("dual_model", "dual.csv"),
                                   DUAL_FEATURES)
    etkas_models = AcceptanceModels(
        center=model("accept_etkas_center", center),
        patient=model("accept_etkas_patient", PATIENT_FEATURES), dual=dual)
    esp_models = AcceptanceModels(
        center=model("accept_esp_center", center),
        patient=model("accept_esp_patient", PATIENT_FEATURES), dual=dual)

    weibull = WeibullModel.from_file(
        settings.resolve("weibull", "weibull_post_transplant.csv"))
    curves = RelistCurveSet.from_file(
        settings.resolve("relist_curves", "relist_curves.csv"))
    pool = RelistingPool.from_files(
        settings.resolve("relist_pool", "relist_pool.csv"),
        settings.resolve("relist_pool_updates", "relist_pool_updates.csv"))

    registrations = load_registrations(cand_path, table)
    updates, screenings = load_status_updates(status_path, table)
    return SimulationInputs(
        settings=settings,
        antigen_table=table,
        centers=centers,
        bg_freqs=bg_freqs,
        freq_table=freq_table,
        panel=panel,
        policy=policy,
        registrations=registrations,
        updates=updates,
        screenings=screenings,
        donors=load_donors(donor_path, table),
        balance_events=balance_events,
        cox=cox,
        etkas_models=etkas_models,
        esp_models=esp_models,
        weibull=weibull,
        relist_curves=curves,
        relist_pool=pool,
        candidate_stream_paths=settings.resolve_many("candidate_streams"),
        status_stream_paths=settings.resolve_many("status_streams"),
    )
