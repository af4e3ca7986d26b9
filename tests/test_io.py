"""Settings documents and stream parsing."""

from __future__ import annotations

import ast
import csv
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from etkasim import common
from etkasim.common import (InputError, csv_blocks, from_days, iso_day_rows,
                            parse_bool, parse_day, read_csv_header,
                            to_days)
from etkasim.engine import initialize
from etkasim.entities import (CandidateRegistration, DonorArrival,
                              StatusUpdate, expand_mm_patterns, parse_payload,
                              parse_profile)
from etkasim.hla import AntigenTable, HlaTyping
from etkasim import io as io_module
from etkasim.io import (data_path, load_donors, load_registrations,
                        load_settings, load_status_updates)
from etkasim.synthetic import generate_population

from engine_fixture import candidate, make_inputs
from oracle.hla import is_homozygous
from oracle.matchlist import CandidateState


@pytest.fixture(scope="module")
def table():
    return AntigenTable.from_file(data_path("antigens.csv"))


def read_csv_rows(path):
    """(line, row dict) per data row of a delimited file, read one row at a
    time, which the row-at-a-time reference loaders below build on."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_csv_header(fh)
        if header is None:
            return
        header_line, names = header
        for rows, lines in csv_blocks(path, header_line, len(names),
                                      csv.reader(fh), 1 << 12):
            for line, row in zip(lines.tolist(), rows):
                yield line, dict(zip(names, row))


REG_HEADER = ("id,patient_id,country,center,bg,dob,registration_date,"
              "a1,a2,b1,b2,dr1,dr2,unacceptables,dialysis_start,prior_tx,"
              "prev_tx_date,screening_date,urgency,profile,mm_criteria,am,"
              "kaoo,esp_opt_in,program_choice\n")


class TestRegistrations:
    def test_full_row(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + (
            "C1,C1,DE,DEBER,A,1960-05-01,2019-01-01,"
            "A1,A2,B5,B7,DR1,DR4,A9 B8,2018-06-01,1,2015-01-01,2021-01-01,"
            "T,max_age=70;accept_dcd=0,222 **2,0,0,1,ETKAS\n"))
        regs = load_registrations(path, table)
        assert len(regs) == 1
        reg = regs[0]
        assert reg.unacceptables == {"A9", "B8"}
        assert reg.profile.max_donor_age == 70
        assert not reg.profile.accept_dcd
        assert (2, 2, 2) in reg.mm_criteria
        assert (0, 0, 2) in reg.mm_criteria
        assert (0, 0, 1) not in reg.mm_criteria
        assert reg.esp_extended_opt_in
        assert reg.german_program_choice == "ETKAS"
        # dates load as days since 1970-01-01
        assert (reg.birth_day, reg.registration_day, reg.dialysis_start_day,
                reg.previous_transplant_day, reg.last_screening_day) == tuple(
            to_days(date.fromisoformat(t)) for t in (
                "1960-05-01", "2019-01-01", "2018-06-01", "2015-01-01",
                "2021-01-01"))

    def test_epoch_is_day_zero_not_missing(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + (
            "C1,C1,DE,DEBER,A,1960-05-01,1970-01-01,"
            "A1,,B5,B7,DR1,DR4,,1970-01-01,1,1970-01-01,1970-01-01,"
            "T,,,0,0,0,\n"))
        reg = load_registrations(path, table)[0]
        assert (reg.registration_day, reg.dialysis_start_day,
                reg.previous_transplant_day, reg.last_screening_day) == (
            0, 0, 0, 0)
        assert CandidateState.initial(reg).dialysis_days(100) == 100

    def test_homozygous_blank_second_column(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + (
            "C1,C1,DE,DEBER,A,1960-05-01,2019-01-01,"
            "A1,,B5,B7,DR1,DR4,,,0,,2021-01-01,T,,,0,0,0,\n"))
        reg = load_registrations(path, table)[0]
        assert reg.hla.antigens["A"] == ("A1",)
        assert is_homozygous(reg.hla, "A")

    def test_unknown_typing_left_none(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + (
            "C1,C1,DE,DEBER,A,1960-05-01,2019-01-01,"
            ",,,,,,,,0,,2021-01-01,T,,,0,0,0,\n"))
        reg = load_registrations(path, table)[0]
        assert reg.hla is None

    def test_bad_date_reports_location(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + (
            "C1,C1,DE,DEBER,A,banana,2019-01-01,"
            "A1,,B5,B7,DR1,DR4,,,0,,2021-01-01,T,,,0,0,0,\n"))
        with pytest.raises(InputError, match="regs.csv:2"):
            load_registrations(path, table)

    def test_wrong_field_count(self, tmp_path, table):
        path = tmp_path / "regs.csv"
        path.write_text(REG_HEADER + "C1,DE\n")
        with pytest.raises(InputError, match="expected"):
            load_registrations(path, table)


def _registration_reference(path, table):
    """The row-at-a-time registration loader the column-wise one must
    equal: the registrations, or the InputError text."""
    regs = []
    try:
        for line, row in read_csv_rows(path):
            try:
                codes = [row[c].strip()
                         for c in ("a1", "a2", "b1", "b2", "dr1", "dr2")
                         if row.get(c, "").strip()]
                hla = None
                if codes:
                    hla = HlaTyping.from_codes(table, codes)
                    hla.validate(table)
                regs.append(CandidateRegistration(
                    id=row["id"].strip(),
                    patient_id=(row.get("patient_id", "").strip()
                                or row["id"].strip()),
                    country=row["country"].strip(),
                    center=row["center"].strip(),
                    blood_group=row["bg"].strip(),
                    birth_day=parse_day(row["dob"]),
                    registration_day=parse_day(row["registration_date"]),
                    hla=hla,
                    unacceptables=_known_unacceptables(
                        table, row.get("unacceptables", "")),
                    dialysis_start_day=(
                        parse_day(row["dialysis_start"])
                        if row.get("dialysis_start", "").strip() else None),
                    prior_transplant=parse_bool(row.get("prior_tx", "0")),
                    previous_transplant_day=(
                        parse_day(row["prev_tx_date"])
                        if row.get("prev_tx_date", "").strip() else None),
                    last_screening_day=(
                        parse_day(row["screening_date"])
                        if row.get("screening_date", "").strip() else None),
                    initial_urgency=(row.get("urgency", "").strip() or "NT"),
                    profile=parse_profile(row.get("profile", "")),
                    mm_criteria=expand_mm_patterns(
                        row.get("mm_criteria", "")),
                    am_program=parse_bool(row.get("am", "0")),
                    kaoo=parse_bool(row.get("kaoo", "0")),
                    esp_extended_opt_in=parse_bool(
                        row.get("esp_opt_in", "0")),
                    german_program_choice=(
                        row.get("program_choice", "").strip() or None),
                ))
            except (KeyError, ValueError) as exc:
                # the parsers name no file; the reader adds it and the line
                if isinstance(exc, InputError):
                    raise InputError(str(exc), path, line) from None
                raise InputError(f"malformed registration: {exc}", path,
                                 line)
    except InputError as exc:
        return str(exc)
    return regs


def _day(text, path, line):
    """``parse_day``, with its error at ``path``:``line``."""
    try:
        return parse_day(text)
    except InputError as exc:
        raise InputError(str(exc), path, line) from None


def _known_unacceptables(table, text):
    codes = frozenset(text.split())
    table.check_unacceptables(codes)
    return codes


def _assert_registration_parity(path, table):
    try:
        got = load_registrations(path, table)
    except InputError as exc:
        got = str(exc)
    want = _registration_reference(path, table)
    assert got == want
    if isinstance(want, list):  # typings list their loci in the same order
        assert [r.hla and list(r.hla.antigens.items()) for r in got] == [
            r.hla and list(r.hla.antigens.items()) for r in want]
    return got


REG_ROW = ("C{i},P{i},DE,DEBER,A,1960-05-01,2019-01-01,"
           "A1,A2,B5,B7,DR1,DR4,A9 B8,2018-06-01,1,2015-01-01,2021-01-01,"
           "T,max_age=70;accept_dcd=0,222 **2,0,0,1,ETKAS")


class TestRegistrationParity:
    """The column-wise registration loader equals the row-at-a-time
    reference: the same registrations, or the same error at the same
    line."""

    @pytest.fixture(autouse=True, params=[None, 2], ids=["block", "blocks"])
    def block_size(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(common, "_TABLE_BLOCK", request.param)

    def _check(self, tmp_path, table, text):
        path = tmp_path / "regs.csv"
        path.write_text(text)
        return _assert_registration_parity(path, table)

    def _row(self, i=1, **fields):
        values = dict(zip(REG_HEADER.strip().split(","),
                          REG_ROW.format(i=i).split(",")))
        values.update(fields)
        return ",".join(values.values()) + "\n"

    def test_parity_valid_rows(self, tmp_path, table):
        rows = [self._row(1), self._row(2, patient_id="", urgency="",
                                        program_choice="", profile="",
                                        mm_criteria="", unacceptables=""),
                self._row(3, a2="", dr2="", dialysis_start="",
                          prev_tx_date="", screening_date="", prior_tx=""),
                # blank typing: unknown
                self._row(4, a1="", a2="", b1="", b2="", dr1="", dr2=""),
                # codes out of their columns group by their table locus
                self._row(5, a1="B8", b1="A1", a2="", b2=""),
                self._row(6, dob="20210501", bg=" AB ", id=" C6 ")]
        regs = self._check(tmp_path, table, REG_HEADER + "".join(rows))
        assert [r.id for r in regs] == [f"C{i}" for i in range(1, 7)]
        assert list(regs[4].hla.antigens) == ["B", "A", "DR"]
        assert regs[3].hla is None
        assert regs[1].patient_id == "C2" and regs[1].initial_urgency == "NT"

    def test_parity_optional_columns_absent(self, tmp_path, table):
        regs = self._check(tmp_path, table,
                           "id,country,center,bg,dob,registration_date,"
                           "a1,b1,dr1\n"
                           "C1,DE,DEBER,O,1960-05-01,2019-01-01,A1,B5,DR1\n")
        assert regs[0].hla.antigens == {"A": ("A1",), "B": ("B5",),
                                        "DR": ("DR1",)}

    @pytest.mark.parametrize("column", ["id", "country", "center", "bg",
                                        "dob", "registration_date"])
    def test_parity_missing_column(self, tmp_path, table, column):
        header = REG_HEADER.strip().split(",")
        keep = [i for i, name in enumerate(header) if name != column]
        row = REG_ROW.format(i=1).split(",")
        message = self._check(
            tmp_path, table,
            ",".join(header[i] for i in keep) + "\n"
            + ",".join(row[i] for i in keep) + "\n")
        assert message.endswith(f"regs.csv:2: malformed registration: "
                                f"{column!r}")

    @pytest.mark.parametrize("fields, error", [
        ({"dob": "banana"}, "regs.csv:3: invalid date 'banana'"),
        ({"registration_date": "2019-02-29"}, "invalid date"),
        ({"screening_date": "2021-13-01"}, "invalid date"),
        ({"dialysis_start": " 2018-6-1"}, "invalid date"),
        ({"prior_tx": "maybe"}, "regs.csv:3: invalid boolean 'maybe'"),
        ({"esp_opt_in": "2"}, "invalid boolean"),
        ({"profile": "foo=1"}, "unknown profile key 'foo'"),
        ({"profile": "min_age=x"}, "bad profile value 'x' for min_age"),
        ({"mm_criteria": "22"}, "mismatch pattern '22' must have 3"),
        ({"mm_criteria": "2x2"}, "bad character 'x'"),
        ({"a1": "A999"}, "unknown antigen code: 'A999'"),
        # a B antigen in an A column: three codes on locus B
        ({"a2": "B8"}, "locus B: expected 1-2 antigens, got 3"),
        ({"dr1": "", "dr2": ""}, "typing lacks locus DR"),
        ({"bg": "X"}, "C2: bad blood group 'X'"),
        ({"urgency": "Q"}, "C2: bad urgency 'Q'"),
        # the first failing field of a row names its error
        ({"a1": "A999", "dob": "banana"}, "unknown antigen"),
        ({"dob": "banana", "prior_tx": "maybe"}, "invalid date 'banana'"),
        ({"prior_tx": "maybe", "bg": "X"}, "invalid boolean"),
        ({"unacceptables": "A9 Z99"},
         "regs.csv:3: unacceptable antigen 'Z99' not in the antigen table"),
        ({"unacceptables": "Z99", "dialysis_start": "x"},
         "unacceptable antigen 'Z99'"),
        ({"program_choice": "BOTH"}, "C2: bad program choice 'BOTH'"),
    ])
    def test_parity_malformed_row(self, tmp_path, table, fields, error):
        message = self._check(
            tmp_path, table,
            REG_HEADER + self._row(1) + self._row(2, **fields)
            + self._row(3))
        assert isinstance(message, str) and error in message
        assert "regs.csv:3: " in message

    def test_parity_comment_and_blank_lines(self, tmp_path, table):
        body = ("# source=registry\n\n" + REG_HEADER + self._row(1)
                + "\n  \n" + self._row(2) + "\n")
        regs = self._check(tmp_path, table, body)
        assert len(regs) == 2
        message = self._check(tmp_path, table,
                              body + self._row(3, dob="2021-05"))
        assert "regs.csv:9: invalid date" in message

    @pytest.mark.parametrize("rows, line", [
        # wrong field counts, before and after other errors
        (["C1,DE\n"], 2),
        (["{1}", "{2}", "C3,DE\n", "{bad}"], 4),
        (["{1}", "{bad}", "C3,DE\n"], 3),
        # the first of two errors in file order
        (["{1}", "{bad}", "{bad_bg}"], 3),
        (["{1}", "{bad_bg}", "{bad}"], 3),
        (["{bad_bool}", "{bad}"], 2),
    ])
    def test_parity_first_error_in_file_order(self, tmp_path, table, rows,
                                              line):
        named = {"1": self._row(1), "2": self._row(2),
                 "bad": self._row(7, dob="x"), "bad_bg": self._row(8, bg="X"),
                 "bad_bool": self._row(9, kaoo="x")}
        text = "".join(named[r[1:-1]] if r.startswith("{") else r
                       for r in rows)
        message = self._check(tmp_path, table, REG_HEADER + text)
        assert isinstance(message, str) and f"regs.csv:{line}: " in message

    def test_parity_random_files(self, tmp_path, table):
        rng = np.random.default_rng(6)
        # per column: (valid texts, malformed texts)
        choices = {
            "bg": (["O", "A", "B", "AB", " AB"], ["X"]),
            "dob": (["1960-05-01", "19700101", "1980-02-29"],
                    ["1981-02-29"]),
            "a1": (["A1", "A2"], ["B8", "A999"]),
            "a2": (["A2", "A3", ""], ["DR4"]),
            "b1": (["B5", "B7", ""], ["A1"]),
            "dr1": (["DR1", "DR4", "DR7"], [""]),
            "dr2": (["", "DR4", "DR11"], ["B9"]),
            "unacceptables": (["", "A9 B8", "A1", "DR4 A2 B7"], ["A1 Z99"]),
            "dialysis_start": (["", "2018-06-01", " 2018-06-02 "],
                               ["2018-06-31"]),
            "prior_tx": (["0", "1", "yes", ""], ["maybe"]),
            "urgency": (["T", "NT", "HU", ""], ["Q"]),
            "profile": (["", "max_age=70", "min_age=5;accept_hcv=1"],
                        ["min_age=z", "x=1"]),
            "mm_criteria": (["", "222", "**2"], ["2*"]),
            "program_choice": (["", "ESP", "ETKAS"], []),
        }
        outcomes = set()
        for trial in range(60):
            # odd trials load; in even ones a field is malformed at rate 1%
            rows = []
            for i in range(int(rng.integers(1, 25))):
                fields = {}
                for name, (valid, malformed) in choices.items():
                    bad = trial % 2 == 0 and malformed and rng.random() < .01
                    fields[name] = str(rng.choice(malformed if bad
                                                  else valid))
                rows.append(self._row(i, **fields))
            path = tmp_path / f"regs{trial}.csv"
            path.write_text(REG_HEADER + "".join(rows))
            got = _assert_registration_parity(path, table)
            assert isinstance(got, list) or trial % 2 == 0
            outcomes.add(type(got))
        assert outcomes == {list, str}


def _row_reference(path, table):
    """The row-at-a-time status loader the column-wise one must equal:
    (updates, screenings as day lists), or the InputError text."""
    streams: dict[str, list] = {}
    try:
        for line, row in read_csv_rows(path):
            try:
                cid = row["candidate_id"].strip()
                day = _day(row["date"], path, line)
                kind = row["kind"].strip()
                upd = None  # an SCR row is a screening day
                if kind != "SCR":
                    value = parse_payload(kind,
                                          row.get("payload", "").strip())
                    if kind == "UNA":
                        table.check_unacceptables(value)
                    upd = StatusUpdate(cid, day, kind, value)
            except (KeyError, ValueError) as exc:
                if isinstance(exc, InputError) and exc.path is not None:
                    raise
                raise InputError(f"malformed status update: {exc}", path,
                                 line)
            streams.setdefault(cid, []).append((day, line, upd))
    except InputError as exc:
        return str(exc)
    updates, screenings = {}, {}
    for cid, rows in streams.items():
        rows.sort(key=lambda r: r[:2])
        kept = [u for _, _, u in rows if u is not None]
        days = [day for day, _, u in rows if u is None]
        if kept:
            updates[cid] = kept
        if days:
            screenings[cid] = days
    return updates, screenings


def _column_loader(path, table):
    try:
        updates, screenings = load_status_updates(path, table)
    except InputError as exc:
        return str(exc)
    for days in screenings.values():
        assert days.dtype == np.int32 and not days.flags.writeable
    return updates, {cid: days.tolist() for cid, days in screenings.items()}


def _assert_parity(path, table):
    """The loaders agree on the file, and on its twin with the other line
    ends (CR LF for LF); the file's result."""
    data = path.read_bytes()
    twin = path.with_name("twin-" + path.name)
    twin.write_bytes(data.replace(b"\r\n", b"\n") if b"\r\n" in data
                     else data.replace(b"\n", b"\r\n"))
    for file in (twin, path):
        got, want = _column_loader(file, table), _row_reference(file, table)
        assert got == want
        if isinstance(want, tuple):  # same candidate order as well
            assert [list(d) for d in got] == [list(d) for d in want]
    return got


STATUS_HEADER = "candidate_id,date,kind,payload\n"


SORT_CASE = (STATUS_HEADER
             + "C1,2021-05-01,URG,NT\n"
             "C1,2021-02-01,SCR,\n"
             "C1,2021-05-01,URG,T\n"
             "C1,2021-03-01,PRF,\n"
             "C1,2021-01-15,SCR,\n")


class TestStatusUpdates:
    def test_sorted_per_candidate_with_input_order_ties(self, tmp_path,
                                                        table):
        path = tmp_path / "updates.csv"
        path.write_text(SORT_CASE)
        updates, screenings = load_status_updates(path, table)
        # dates sorted, ties kept in input order
        assert [(u.day, u.kind, u.value) for u in updates["C1"]] == [
            (to_days(date(2021, 3, 1)), "PRF", None),
            (to_days(date(2021, 5, 1)), "URG", "NT"),
            (to_days(date(2021, 5, 1)), "URG", "T")]
        assert screenings["C1"].tolist() == [to_days(date(2021, 1, 15)),
                                             to_days(date(2021, 2, 1))]

    def test_scr_rows_are_not_status_updates(self):
        # screenings load as day arrays; a StatusUpdate of kind SCR, as of
        # an unknown kind, fails when it is applied
        store = initialize(make_inputs([candidate("C1")], [])).store
        for kind in ("SCR", "XXX"):
            with pytest.raises(ValueError, match=kind):
                store.apply_update(0, StatusUpdate(
                    "C1", to_days(date(2021, 5, 1)), kind, None))

    def test_bad_kind_rejected(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text("candidate_id,date,kind,payload\n"
                        "C1,2021-05-01,XXX,\n")
        with pytest.raises(InputError):
            load_status_updates(path, table)


class TestStatusParity:
    """The column-wise loader equals the row-at-a-time reference."""

    @pytest.fixture(autouse=True, params=[None, (2, 1), (3, 7)],
                    ids=["block", "blocks", "odd-blocks"])
    def block_size(self, request, monkeypatch):
        # the loader reads a block of bytes (of rows, for read_table) at a
        # time; one-byte reads put block boundaries between every pair of
        # lines and inside every CR LF pair, seven-byte ones at odd places
        if request.param is not None:
            rows, size = request.param
            monkeypatch.setattr(common, "_TABLE_BLOCK", rows)
            monkeypatch.setattr(io_module, "_STATUS_BYTES", size)

    def test_parity_sorted_with_input_order_ties(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(SORT_CASE)
        _assert_parity(path, table)

    def test_parity_whitespace_padded_fields(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + " C1 , 2021-05-01 , URG , T \n"
                        "C2,\t2021-02-01\t, SCR ,\n"
                        " C1,2021-01-01 ,SCR,  \n")
        updates, screenings = _assert_parity(path, table)
        assert updates["C1"][0].value == "T"
        assert screenings == {"C2": [to_days(date(2021, 2, 1))],
                              "C1": [to_days(date(2021, 1, 1))]}

    def test_parity_alternative_iso_forms_load(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,20210501,URG,T\n"
                        "C1,2021-W17-6,SCR,\n"
                        "C1,2021-05-02,SCR,\n")
        updates, screenings = _assert_parity(path, table)
        assert updates["C1"][0].day == to_days(date(2021, 5, 1))
        assert screenings["C1"] == [to_days(date(2021, 5, 1)),
                                    to_days(date(2021, 5, 2))]

    @pytest.mark.parametrize("text", ["", "2021-05", "2021-02-29",
                                      "0000-01-01", "2021-13-01", "21-05-01",
                                      "2021/05/01", "2021-05-011",
                                      "2021-05-01x", "x2021-05-01"])
    def test_parity_bad_dates_rejected_with_their_line(self, tmp_path, table,
                                                       text):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,2021-05-01,URG,T\n"
                        f"C1,{text},SCR,\n"
                        "C1,2021-06-01,URG,R\n")
        message = _assert_parity(path, table)
        assert isinstance(message, str)
        assert f"updates.csv:3: invalid date {text!r}" in message

    def test_parity_quoted_payload_with_comma(self, tmp_path, table):
        # the comma stays inside the payload field, which no grammar allows
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + 'C1,2021-05-01,PRF,"min_age=18, max_age=70"\n'
                        'C1,2021-05-02,UNA,"A1,A2"\n')
        assert ("updates.csv:2: malformed status update: bad profile value "
                "'18, max_age=70' for min_age") in _assert_parity(path, table)
        path.write_text(STATUS_HEADER + 'C1,2021-05-02,UNA,"A1,A2"\n')
        assert ("updates.csv:2: malformed status update: unacceptable "
                "antigen 'A1,A2' not in the antigen table"
                in _assert_parity(path, table))

    def test_parity_every_kind_loads(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,2021-05-01,URG, HU \n"
                        "C1,2021-05-02,PRF,min_age=18;accept_dcd=0\n"
                        "C1,2021-05-03,PRF,\n"
                        "C1,2021-05-04,UNA,A1 B8\n"
                        "C1,2021-05-05,UNA,\n"
                        "C1,2021-05-06,MMC,222 **2\n"
                        "C1,2021-05-07,DIA,2020-01-31\n"
                        "C1,2021-05-08,DIA,\n"
                        "C1,2021-05-09,CHO,etkas\n"
                        "C1,2021-05-10,CHO,EXT_OPT_OUT\n"
                        "C1,2021-05-11,SCR,anything\n")
        updates, _ = _assert_parity(path, table)
        assert [u.value for u in updates["C1"]] == [
            "HU", parse_profile("min_age=18;accept_dcd=0"), None,
            frozenset({"A1", "B8"}), frozenset(),
            expand_mm_patterns("222 **2"), to_days(date(2020, 1, 31)), None,
            "ETKAS", "EXT_OPT_OUT"]

    @pytest.mark.parametrize("kind, payload, error", [
        ("URG", "X", "bad urgency payload 'X'"),
        ("URG", "", "bad urgency payload ''"),
        ("PRF", "max=1", "unknown profile key 'max'"),
        ("UNA", "A1 Z99", "unacceptable antigen 'Z99' not in the antigen"),
        ("MMC", "22", "mismatch pattern '22' must have 3 characters"),
        ("DIA", "2021-13-01", "bad dialysis start payload '2021-13-01'"),
        ("CHO", "maybe", "bad choice payload 'maybe'"),
    ])
    def test_parity_bad_payloads_rejected_with_their_line(
            self, tmp_path, table, kind, payload, error):
        # the bad row is dated after the good ones: payloads are checked
        # wherever they sit
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,2021-05-01,URG,T\n"
                        f"C1,2030-01-01,{kind},{payload}\n"
                        "C1,2021-06-01,URG,R\n")
        message = _assert_parity(path, table)
        assert f"updates.csv:3: malformed status update: {error}" in message

    def test_parity_comment_and_blank_lines(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        body = ("# source=registry\n\n" + STATUS_HEADER
                + "C1,2021-05-01,URG,T\n\n   \n"
                "C2,2021-05-03,SCR,\n\n"
                "C1,2021-05-02,SCR,\n")
        path.write_text(body)
        updates, screenings = _assert_parity(path, table)
        assert list(screenings) == ["C1", "C2"]
        # line numbers still count the skipped lines
        path.write_text(body + "\nC1,2021-05,URG,R\n")
        assert "updates.csv:11: invalid date" in _assert_parity(path, table)

    def test_parity_first_bad_row_in_file_order(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,2021-05-01,URG,T\n"
                        "C1,2021-05-02,XXX,\n"
                        "C1,2021-05-03,SCR,\n"
                        "C1,2021-05,SCR,\n")
        message = _assert_parity(path, table)
        assert "updates.csv:3: malformed status update: unknown update kind" \
            in message

    @pytest.mark.parametrize("rows", [
        # a bad date before a bad kind; both on one row: the date
        "C1,2021-05,URG,T\nC1,2021-05-02,XXX,\n",
        "C1,2021-05,XXX,T\n",
        # wrong field counts, before and after other errors
        "C1,2021-05-01,URG\nC1,2021-05,URG,T\n",
        "C1,2021-05,URG,T\nC1,2021-05-01,URG\n",
        "C1,2021-05-01,XXX,\nC1,2021-05-01,URG,T,extra\n",
        "C1,2021-05-01,URG,T\n# a comment row\n",
        # a bad payload after a bad date, before one, and on its row
        "C1,2021-05,URG,T\nC1,2021-05-02,URG,X\n",
        "C1,2021-05-01,URG,X\nC1,2021-05,URG,T\n",
        "C1,2021-05,URG,X\n",
        # a bad payload before a bad kind and a wrong field count
        "C1,2021-05-01,UNA,Z99\nC1,2021-05-02,XXX,\n",
        "C1,2021-05-01,CHO,x\nC1,2021-05-01,URG\n",
        "C1,2021-05-01,URG\nC1,2021-05-01,CHO,x\n",
        # kinds that start or end like SCR
        "C1,2021-05-01,SCR,\nC1,2021-05-01,SCRX,\n",
        "C1,2021-05-01,XSCR,\nC1,2021-05,SCR,\n",
        "C1,2021-05-01,SC,\n",
    ])
    def test_parity_error_precedence(self, tmp_path, table, rows):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + rows)
        assert isinstance(_assert_parity(path, table), str)

    @pytest.mark.parametrize("text", [
        "", "# only metadata\n", STATUS_HEADER,
        "candidate_id,date,payload\nC1,2021-05-01,T\n",
        "candidate_id,kind\n\nC1,URG\n",
        "date,kind\nC1,URG,x\n",
        "candidate_id,date,kind\nC1,2021-05-01,SCR\n",
        "candidate_id\nC1\n\n \n",
        "# kind=status\ncandidate_id,date,payload\nC1,2021-05-01,\n",
    ])
    def test_parity_headers_and_missing_columns(self, tmp_path, table, text):
        path = tmp_path / "updates.csv"
        path.write_text(text)
        _assert_parity(path, table)

    def test_parity_missing_kind_column_after_bad_date(self, tmp_path,
                                                       table):
        # within a row the date is read before the kind
        path = tmp_path / "updates.csv"
        path.write_text("candidate_id,date,payload\nC1,2021-05,T\n")
        assert "updates.csv:2: invalid date '2021-05'" in _assert_parity(
            path, table)

    def test_parity_random_streams(self, tmp_path, table):
        rng = np.random.default_rng(5)
        texts = ["2021-05-01", "2020-02-29", "20210501", " 2021-01-31",
                 "1999-12-31", "2021-W01-1", "2021-02-29", "2021-05", ""]
        kinds = ["SCR", "SCR", "SCR", "URG", "PRF", "UNA"]
        # per kind: (valid payloads, malformed payloads)
        payloads = {"SCR": (["", "p"], []), "URG": (["T", " NT ", "R"], ["p"]),
                    "PRF": (["", "max_age=70"], ["p"]),
                    "UNA": (["", "A1 B8"], ["A1 Z99"])}
        outcomes = set()
        for trial in range(40):
            # odd trials load; even ones may hold a bad date or payload
            pick = texts[:6] if trial % 2 else texts
            lines = []
            for _ in range(int(rng.integers(1, 30))):
                kind = str(rng.choice(kinds))
                valid, malformed = payloads[kind]
                pool = valid if trial % 2 else valid + malformed
                lines.append(f"C{rng.integers(0, 6)},{rng.choice(pick)},"
                             f"{kind},{rng.choice(pool)}")
            path = tmp_path / f"u{trial}.csv"
            path.write_text(STATUS_HEADER + "\n".join(lines) + "\n")
            got = _assert_parity(path, table)
            assert isinstance(got, tuple) or trial % 2 == 0
            outcomes.add(type(got))
        assert outcomes == {tuple, str}

    @pytest.mark.parametrize("last, loads", [
        ("C2,2021-05-03,SCR,", True), ("C2,2021-05-03,URG,T", True),
        ("C2,2021-05,SCR,", False), ("C2,2021-05-03,SCR", False)])
    def test_parity_last_line_without_line_end(self, tmp_path, table,
                                               last, loads):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + "C1,2021-05-01,SCR,\n" + last)
        got = _assert_parity(path, table)
        if loads:
            assert "C2" in got[0] or "C2" in got[1]
        else:
            assert "updates.csv:3: " in got

    @pytest.mark.parametrize("rows", [
        # a lone CR ends a line, as it does for a text read
        "C1,2021-05-01,SCR,\rC2,2021-05-02,SCR,\n",
        "C1,2021-05-01,SCR,\r\rC1,2021-05-02,SCR,\n",
        "C1,2021-05-01,SCR,a\rb\n",
        "C1,20\r21-05-01,SCR,\n",
        "C1,2021-05-01,S\rCR,\n",
        "C1,2021-05-01,SCR,\rC1,2021-05-02,URG,T\rC1,2021-05,SCR,\n",
        "C1,2021-05-01,SCR,\r",
    ])
    def test_parity_lone_carriage_return(self, tmp_path, table, rows):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + rows)
        got = _assert_parity(path, table)
        if rows.startswith("C1,2021-05-01,SCR,\rC2"):
            assert list(got[1]) == ["C1", "C2"]
        if "SCR,\rC1,2021-05-02,URG" in rows:
            assert "updates.csv:4: invalid date" in got

    @pytest.mark.parametrize("text", [
        '# source="registry"\n' + STATUS_HEADER + "C1,2021-05-01,SCR,\n",
        'candidate_id,"date",kind,payload\nC1,2021-05-01,SCR,\n',
        STATUS_HEADER + 'C1,2021-05-01,SCR,"x"\nC2,2021-05-01,SCR,\n',
        STATUS_HEADER + '"C1",2021-05-01,SCR,\nC2,2021-05-01,SCR,\n',
        STATUS_HEADER + 'C1,2021-05-01,SCR,x"y\n',
        # a quoted line end: rows, not lines, are numbered
        STATUS_HEADER + "C1,2021-05-01,SCR,\n" * 5
        + 'C1,2021-05-02,UNA,"A1\nB8"\nC1,2021-05-03,URG,T\n'
        + "C1,2021-05,SCR,\n",
        # the quote after an error, and an error after the quote
        STATUS_HEADER + "C1,2021-05,SCR,\n" + 'C1,2021-05-02,URG,"T"\n',
        STATUS_HEADER + "C1,2021-05-01,SCR,\n" * 9
        + 'C1,2021-05-02,URG,"T"\n' + "C1,2021-05,SCR,\n",
    ])
    def test_parity_quote_anywhere(self, tmp_path, table, text):
        path = tmp_path / "updates.csv"
        path.write_text(text)
        _assert_parity(path, table)

    @pytest.mark.parametrize("row", [
        " C1,2021-05-02,SCR,", "C1 ,2021-05-02,SCR,", "\tC1,2021-05-02,SCR,",
        "\u00a0C1,2021-05-02,SCR,", "C1\u3000,2021-05-02,SCR,",
        "C1, 2021-05-02,SCR,", "C1,2021-05-02\t,SCR,", "C1,20210502,SCR,",
        "C1,2021-W17-7,SCR,", "C1,2021-05-02,SCR,x", "C1,2021-05-02,SCR, x ",
        "C1,2021-05-02, SCR,", "C1,2021-05-02,SCR ,",
    ])
    def test_parity_screening_forms(self, tmp_path, table, row):
        # padded ids and dates, non-strict dates and payloads all load
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + "C2,2021-05-01,SCR,\n"
                        "C1,2021-05-01,SCR,\n" + row + "\n"
                        "C1,2021-05-03,SCR,\n")
        _, screenings = _assert_parity(path, table)
        assert list(screenings) == ["C2", "C1"]
        assert screenings["C1"] == [to_days(date(2021, 5, d))
                                    for d in (1, 2, 3)]

    def test_parity_blank_lines_among_screenings(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        body = (STATUS_HEADER + "C1,2021-05-01,SCR,\n\n  \n\t\n"
                "C1,2021-05-02,SCR,\n \nC2,2021-05-03,SCR,\n\n")
        path.write_text(body)
        _, screenings = _assert_parity(path, table)
        assert list(screenings) == ["C1", "C2"]
        path.write_text(body + "C2,2021-05-04,SCR,\nC2,2021-5-05,SCR,\n")
        assert "updates.csv:11: invalid date" in _assert_parity(path, table)

    def test_parity_non_ascii_ids(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "Ü1,2021-05-01,SCR,\n"
                        "Ü1,2021-05-02,SCR,\n"
                        "Cé2,2021-05-01,SCR,\n"
                        "候補3,2021-05-01,SCR,\n"
                        "C1é,2021-05-01,URG,T\n"
                        "C1é,2021-05-02,SCR,\n"
                        "C1e,2021-05-02,SCR,\n"
                        "C1a,2021-05-02,SCR,\n"
                        "C1b,2021-05-02,SCR,\n", encoding="utf-8")
        updates, screenings = _assert_parity(path, table)
        assert list(screenings) == ["Ü1", "Cé2", "候補3",
                                    "C1é", "C1e", "C1a", "C1b"]
        assert list(updates) == ["C1é"]

    def test_parity_interleaved_id_runs(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER
                        + "C1,2021-05-03,SCR,\n"
                        "C1,2021-05-01,SCR,\n"
                        "C2,2021-05-02,SCR,\n"
                        "C1,2021-05-02,SCR,\n"
                        "C10,2021-05-02,SCR,\n"
                        "C1,2021-05-04,URG,T\n"
                        "C2,2021-05-01,SCR,\n"
                        "C12,2021-05-01,SCR,\n"
                        "C21,2021-05-01,SCR,\n"
                        "C1,2021-05-01,SCR,\n")
        _, screenings = _assert_parity(path, table)
        assert list(screenings) == ["C1", "C2", "C10", "C12", "C21"]
        assert screenings["C1"] == [to_days(date(2021, 5, d))
                                    for d in (1, 1, 2, 3)]

    @pytest.mark.parametrize("row", [
        "C1,2021-05-02,SCR", "C1,2021-05-02,SCR,,", "C1", "SCR",
        "C1,2021-05-02,SCR,x,y", "# a comment row"])
    def test_parity_wrong_width_between_screenings(self, tmp_path, table,
                                                   row):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + "C1,2021-05-01,SCR,\n" + row
                        + "\nC1,2021-05-03,SCR,\nC1,2021-05,SCR,\n")
        assert "updates.csv:3: expected 4 fields" in _assert_parity(path,
                                                                    table)

    @pytest.mark.parametrize("header, row", [
        ("kind,date,candidate_id,payload", "{kind},{date},{cid},{payload}"),
        ("payload,candidate_id,extra,kind,date",
         "{payload},{cid},x,{kind},{date}"),
        ("candidate_id,date,kind", "{cid},{date},{kind}"),
        ("date,kind,candidate_id", "{date},{kind},{cid}"),
        ("candidate_id,date,kind,payload,note",
         "{cid},{date},{kind},{payload},n"),
    ])
    def test_parity_column_layouts(self, tmp_path, table, header, row):
        rows = [("C1", "2021-05-02", "SCR", ""), ("C2", "2021-05-01", "SCR",
                                                  ""),
                ("C1", "2021-05-03", "PRF", ""), ("C1", "2021-04-01", "SCR",
                                                  "")]
        path = tmp_path / "updates.csv"
        path.write_text("# source=registry\n#kind=status\n\n" + header + "\n"
                        + "".join(row.format(cid=c, date=d, kind=k,
                                             payload=p) + "\n"
                                  for c, d, k, p in rows))
        updates, screenings = _assert_parity(path, table)
        assert list(screenings) == ["C1", "C2"]
        assert [u.kind for u in updates["C1"]] == ["PRF"]

    def test_parity_random_bytes(self, tmp_path, table):
        # files of any line ends, with padding, quotes, blank and wrong-width
        # lines and, in even trials, malformed rows
        rng = np.random.default_rng(8)
        ids = ["C1", "C1", "C2", "C10", " C1", "C1 ", "Ü1", "", '"C3"']
        dates = ["2021-05-01", "2021-05-02", " 2021-05-03", "20210504",
                 "2021-02-29", "2021-5-01"]
        pairs = [("SCR", ""), ("SCR", ""), ("SCR", " x"), (" SCR ", ""),
                 ("URG", "T"), ("URG", " NT "), ("scr", ""), ("URG", "")]
        extras = ["", "  ", "\t", "C1,2021-05-01", "C1,2021-05-01,SCR,,"]
        ends = ["\n", "\r\n", "\r"]
        outcomes = set()
        for trial in range(60):
            valid = trial % 2
            lines = [STATUS_HEADER[:-1]]
            for _ in range(int(rng.integers(1, 25))):
                if rng.random() < 0.1:
                    lines.append(str(rng.choice(extras[:3 if valid else 5])))
                    continue
                kind, payload = pairs[rng.integers(0, 6 if valid else 8)]
                when = rng.choice(dates[:4] if valid else dates)
                lines.append(f"{rng.choice(ids)},{when},{kind},{payload}")
            text = "".join(line + str(rng.choice(ends)) for line in lines)
            if rng.random() < 0.3:
                text = text.rstrip("\r\n")
            path = tmp_path / f"u{trial}.csv"
            path.write_bytes(text.encode("utf-8"))
            got = _assert_parity(path, table)
            assert isinstance(got, tuple) or not valid
            outcomes.add(type(got))
        assert outcomes == {tuple, str}

    def test_parity_undecodable_bytes(self, tmp_path, table):
        # past the first chunk a text read of the header decodes
        path = tmp_path / "updates.csv"
        head = (STATUS_HEADER + "C1,2021-05-01,SCR,\n" * 600).encode()
        for row in (b"C\xff1,2021-05-01,SCR,\n", b"C1,2021-05-01,SCR,\xff\n"):
            path.write_bytes(head + row)
            with pytest.raises(UnicodeDecodeError):
                load_status_updates(path, table)
            with pytest.raises(UnicodeDecodeError):
                _row_reference(path, table)

    def test_parity_field_size_limit(self, tmp_path, table):
        path = tmp_path / "updates.csv"
        path.write_text(STATUS_HEADER + "C1,2021-05-01,SCR," + "x" * 200
                        + "\n")
        limit = csv.field_size_limit(100)
        try:
            for load in (load_status_updates, _row_reference):
                with pytest.raises(csv.Error):
                    load(path, table)
        finally:
            csv.field_size_limit(limit)

    def test_parity_synthetic_population(self, tmp_path, table):
        # the file shape a real stream has: csv.writer's CR LF line ends
        generate_population(tmp_path, n_candidates=100, n_donors=10,
                            start=date(2021, 4, 1), end=date(2022, 4, 1),
                            seed=3, panel_size=50)
        path = tmp_path / "statuses.csv"
        assert path.read_bytes().count(b"\r\n") > 100
        updates, screenings = _assert_parity(path, table)
        assert len(updates) == 100 and len(screenings) > 50


class TestIsoDays:
    def test_agrees_with_fromisoformat(self):
        texts = ["2021-05-01", "0001-01-01", "9999-12-31", "2024-02-29",
                 "2023-02-29", "1900-02-29", "2000-02-29", "2021-04-31",
                 "2021-00-10", "2021-10-00", "2021-1-01", "20210501",
                 "2021-05-01 ", "2021-05-0\x00", "\uff12021-05-01", "",
                 "2021-05-01T00", "abcd-ef-gh"]
        # code points of the first 10 characters, one row per text; as the
        # status scanner does, a text of another width is not a date
        codes = np.array(texts, dtype="U10").view(np.uint32)
        days, ok = iso_day_rows(codes.reshape(len(texts), 10))
        ok &= np.array([len(text) == 10 for text in texts])
        for text, d, good in zip(texts, days.tolist(), ok.tolist()):
            # parsed exactly when the text round-trips through a date
            try:
                round_trips = date.fromisoformat(text).isoformat() == text
            except ValueError:
                round_trips = False
            assert good == round_trips, text
            if good:
                assert from_days(d) == date.fromisoformat(text)


def _donor_reference(path, table):
    """The row-at-a-time donor loader the column-wise one must equal: the
    donors, or the InputError text."""
    donors = []
    try:
        for line, row in read_csv_rows(path):
            try:
                codes = [row[c].strip()
                         for c in ("a1", "a2", "b1", "b2", "dr1", "dr2")
                         if row.get(c, "").strip()]
                if not codes:
                    raise ValueError("HLA typing is required")
                hla = HlaTyping.from_codes(table, codes)
                hla.validate(table)
                donors.append(DonorArrival(
                    id=row["id"].strip(),
                    report_day=parse_day(row["report_date"]),
                    age=int(row["age"]),
                    blood_group=row["bg"].strip(),
                    country=row["country"].strip(),
                    center=row["center"].strip(),
                    hla=hla,
                    death_cause=(row.get("death_cause", "").strip()
                                 or "other"),
                    dcd=parse_bool(row.get("dcd", "0")),
                    last_creatinine=float(row.get("creatinine", "1.0")
                                          or 1.0),
                    diabetes=parse_bool(row.get("diabetes", "0")),
                    smoking=parse_bool(row.get("smoking", "0")),
                    proteinuria=parse_bool(row.get("proteinuria", "0")),
                    hypertension=parse_bool(row.get("hypertension", "0")),
                    malignancy=parse_bool(row.get("malignancy", "0")),
                    hcv_positive=parse_bool(row.get("hcv", "0")),
                    hbsag_positive=parse_bool(row.get("hbs", "0")),
                    extended_criteria=parse_bool(row.get("extended", "0")),
                    kidneys_available=int(row.get("kidneys", "2") or 2),
                ))
            except (KeyError, ValueError) as exc:
                if isinstance(exc, InputError):
                    raise InputError(str(exc), path, line) from None
                raise InputError(f"malformed donor: {exc}", path, line)
    except InputError as exc:
        return str(exc)
    return donors


DONOR_HEADER = ("id,report_date,age,bg,a1,a2,b1,b2,dr1,dr2,country,center,"
                "death_cause,dcd,creatinine,diabetes,smoking,proteinuria,"
                "hypertension,malignancy,hcv,hbs,extended,kidneys\n")
DONOR_ROW = ("D{i},2021-06-01,45,A,A1,A2,B5,B7,DR1,DR4,BE,BEBRU,cva,1,1.4,"
             "0,1,0,0,0,0,0,1,1")


class TestDonorParity:
    """The column-wise donor loader equals the row-at-a-time reference: the
    same donors, or the same error at the same line."""

    @pytest.fixture(autouse=True, params=[None, 2], ids=["block", "blocks"])
    def block_size(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(common, "_TABLE_BLOCK", request.param)

    def _check(self, tmp_path, table, text, name="donors.csv"):
        path = tmp_path / name
        path.write_text(text)
        try:
            got = load_donors(path, table)
        except InputError as exc:
            got = str(exc)
        want = _donor_reference(path, table)
        assert got == want
        if isinstance(want, list):  # typings list their loci in the same order
            assert [list(d.hla.antigens.items()) for d in got] == [
                list(d.hla.antigens.items()) for d in want]
        return got

    def _row(self, i=1, **fields):
        values = dict(zip(DONOR_HEADER.strip().split(","),
                          DONOR_ROW.format(i=i).split(",")))
        values.update(fields)
        return ",".join(values.values()) + "\n"

    def test_parity_valid_rows(self, tmp_path, table):
        rows = [self._row(1),
                self._row(2, death_cause="", dcd="", creatinine="",
                          kidneys="", extended="yes", hcv="1"),
                self._row(3, a2="", dr2="", report_date="20210602"),
                # codes out of their columns group by their table locus
                self._row(4, a1="B8", b1="A1", a2="", b2=""),
                self._row(5, id=" D5 ", bg=" AB ", age=" 7 ", country=" NL ")]
        donors = self._check(tmp_path, table, DONOR_HEADER + "".join(rows))
        assert [d.id for d in donors] == [f"D{i}" for i in range(1, 6)]
        assert list(donors[3].hla.antigens) == ["B", "A", "DR"]
        assert (donors[1].death_cause, donors[1].last_creatinine,
                donors[1].kidneys_available) == ("other", 1.0, 2)

    def test_parity_optional_columns_absent(self, tmp_path, table):
        donors = self._check(tmp_path, table,
                             "id,report_date,age,bg,country,center,a1,b1,"
                             "dr1\nD1,2021-06-01,45,O,BE,BEBRU,A1,B5,DR1\n")
        assert donors[0].hla.antigens == {"A": ("A1",), "B": ("B5",),
                                          "DR": ("DR1",)}
        assert not donors[0].dcd and donors[0].kidneys_available == 2

    @pytest.mark.parametrize("column", ["id", "report_date", "age", "bg",
                                        "country", "center"])
    def test_parity_missing_column(self, tmp_path, table, column):
        header = DONOR_HEADER.strip().split(",")
        keep = [i for i, name in enumerate(header) if name != column]
        row = DONOR_ROW.format(i=1).split(",")
        message = self._check(
            tmp_path, table,
            ",".join(header[i] for i in keep) + "\n"
            + ",".join(row[i] for i in keep) + "\n")
        assert message.endswith(f"donors.csv:2: malformed donor: {column!r}")

    @pytest.mark.parametrize("fields, error", [
        ({"report_date": "banana"}, "donors.csv:3: invalid date 'banana'"),
        ({"age": "x"}, "malformed donor: invalid literal for int()"),
        ({"age": "-1"}, "malformed donor: D2: negative donor age"),
        ({"dcd": "maybe"}, "donors.csv:3: invalid boolean 'maybe'"),
        ({"hbs": "2"}, "invalid boolean '2'"),
        ({"creatinine": " "}, "could not convert string to float: ' '"),
        ({"creatinine": "nan"},
         "malformed donor: D2: creatinine nan is not a positive finite "
         "number"),
        ({"creatinine": "inf"}, "D2: creatinine inf is not a positive"),
        ({"creatinine": "0"}, "D2: creatinine 0.0 is not a positive"),
        ({"kidneys": "x"}, "invalid literal for int()"),
        ({"kidneys": "3"}, "kidneys_available must be 1 or 2"),
        ({"bg": "X"}, "D2: bad blood group 'X'"),
        ({"death_cause": "stroke"}, "death cause 'stroke' is not one of"),
        ({"a1": "A999"}, "malformed donor: unknown antigen code: 'A999'"),
        ({"a2": "B8"}, "locus B: expected 1-2 antigens, got 3"),
        ({"dr1": "", "dr2": ""}, "typing lacks locus DR"),
        ({"a1": "", "a2": "", "b1": "", "b2": "", "dr1": "", "dr2": ""},
         "malformed donor: HLA typing is required"),
        # the first failing field of a row names its error
        ({"a1": "A999", "age": "x"}, "unknown antigen"),
        ({"age": "x", "report_date": "banana"}, "invalid date"),
        ({"dcd": "maybe", "kidneys": "3"}, "invalid boolean"),
        ({"kidneys": "x", "bg": "X"}, "invalid literal for int()"),
    ])
    def test_parity_malformed_row(self, tmp_path, table, fields, error):
        message = self._check(
            tmp_path, table,
            DONOR_HEADER + self._row(1) + self._row(2, **fields)
            + self._row(3))
        assert isinstance(message, str) and error in message
        assert "donors.csv:3: " in message

    def test_parity_comment_and_blank_lines(self, tmp_path, table):
        body = ("# source=registry\n\n" + DONOR_HEADER + self._row(1)
                + "\n  \n" + self._row(2) + "\n")
        assert len(self._check(tmp_path, table, body)) == 2
        message = self._check(tmp_path, table,
                              body + self._row(3, report_date="2021-05"))
        assert "donors.csv:9: invalid date" in message

    @pytest.mark.parametrize("rows, line", [
        (["D1,BE\n"], 2),
        (["{1}", "{2}", "D3,BE\n", "{bad}"], 4),
        (["{1}", "{bad}", "D3,BE\n"], 3),
        (["{1}", "{bad}", "{bad_bg}"], 3),
        (["{1}", "{bad_bg}", "{bad}"], 3),
        (["{bad_typing}", "{bad}"], 2),
    ])
    def test_parity_first_error_in_file_order(self, tmp_path, table, rows,
                                              line):
        named = {"1": self._row(1), "2": self._row(2),
                 "bad": self._row(7, age="x"), "bad_bg": self._row(8, bg="X"),
                 "bad_typing": self._row(9, b1="Z1")}
        text = "".join(named[r[1:-1]] if r.startswith("{") else r
                       for r in rows)
        message = self._check(tmp_path, table, DONOR_HEADER + text)
        assert isinstance(message, str) and f"donors.csv:{line}: " in message

    def test_parity_random_files(self, tmp_path, table):
        rng = np.random.default_rng(14)
        # per column: (valid texts, malformed texts)
        choices = {
            "report_date": (["2021-06-01", "20210602", " 2021-06-03"],
                            ["2021-02-29"]),
            "age": (["0", "45", " 70", "17"], ["x", "-3"]),
            "bg": (["O", "A", "B", "AB", " AB"], ["X"]),
            "a1": (["A1", "A2"], ["A999"]),
            "a2": (["A2", "A3", ""], ["DR4"]),
            "b1": (["B5", "B7", ""], ["A1"]),
            "dr1": (["DR1", "DR4", "DR7"], [""]),
            "dr2": (["", "DR4", "DR11"], ["B9"]),
            "death_cause": (["", "cva", "trauma", " anoxia"], ["stroke"]),
            "dcd": (["0", "1", "yes", ""], ["maybe"]),
            "creatinine": (["", "1.0", "0.7", "2"], ["high", "nan", "-1"]),
            "hcv": (["0", "1", "n"], ["?"]),
            "kidneys": (["", "1", "2"], ["0", "two"]),
        }
        outcomes = set()
        for trial in range(60):
            # odd trials load; in even ones a field is malformed at rate 1%
            rows = []
            for i in range(int(rng.integers(1, 25))):
                fields = {}
                for name, (valid, malformed) in choices.items():
                    bad = trial % 2 == 0 and rng.random() < .01
                    fields[name] = str(rng.choice(malformed if bad
                                                  else valid))
                rows.append(self._row(i, **fields))
            got = self._check(tmp_path, table, DONOR_HEADER + "".join(rows),
                              f"donors{trial}.csv")
            assert isinstance(got, list) or trial % 2 == 0
            outcomes.add(type(got))
        assert outcomes == {list, str}

    def test_parity_synthetic_population(self, tmp_path, table):
        generate_population(tmp_path / "pop", n_candidates=60, n_donors=150,
                            start=date(2021, 4, 1), end=date(2022, 4, 1),
                            seed=4, panel_size=50)
        donors = self._check(tmp_path, table,
                             (tmp_path / "pop" / "donors.csv").read_text())
        assert len(donors) == 150


class TestDonors:
    def test_donor_requires_typing(self, tmp_path, table):
        path = tmp_path / "donors.csv"
        path.write_text(
            "id,report_date,age,bg,a1,a2,b1,b2,dr1,dr2,country,center,"
            "death_cause,dcd,creatinine,diabetes,smoking,proteinuria,"
            "hypertension,malignancy,hcv,hbs,extended,kidneys\n"
            "D1,2021-06-01,45,A,,,,,,,BE,BEBRU,cva,0,1.0,0,0,0,0,0,0,0,0,2\n")
        with pytest.raises(InputError, match="HLA"):
            load_donors(path, table)

    def test_round_trip(self, tmp_path, table):
        path = tmp_path / "donors.csv"
        path.write_text(
            "id,report_date,age,bg,a1,a2,b1,b2,dr1,dr2,country,center,"
            "death_cause,dcd,creatinine,diabetes,smoking,proteinuria,"
            "hypertension,malignancy,hcv,hbs,extended,kidneys\n"
            "D1,2021-06-01,45,A,A1,A2,B5,B7,DR1,DR4,BE,BEBRU,cva,1,1.4,"
            "0,1,0,0,0,0,0,1,1\n")
        donors = load_donors(path, table)
        assert donors[0].dcd and donors[0].extended_criteria
        assert donors[0].kidneys_available == 1
        assert donors[0].last_creatinine == 1.4


class TestSettings:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text(
            "window: {start: 2021-04-01, end: 2024-01-01}\n"
            "paths:\n  candidates: regs.csv\n  statuses: upd.csv\n"
            "  donors: donors.csv\n  panel: panel.csv\n"
            "seed: 5\nunplaced_mode: force\n")
        settings = load_settings(path)
        assert settings.window_start == date(2021, 4, 1)
        assert settings.window_end == date(2024, 1, 1)
        assert settings.seed == 5
        assert settings.unplaced_mode == "force"
        assert settings.resolve("candidates").name == "regs.csv"
        # omitted data paths fall back to packaged defaults
        assert settings.resolve("antigens", "antigens.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("window: {start: 2021-04-01, end: 2024-01-01}\n"
                        "sede: 5\n")
        with pytest.raises(InputError, match="sede"):
            load_settings(path)

    def test_bad_unplaced_mode(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("window: {start: 2021-04-01, end: 2024-01-01}\n"
                        "unplaced_mode: panic\n")
        with pytest.raises(InputError, match="unplaced_mode must be") as exc:
            load_settings(path)
        assert exc.value.path == str(path)

    def test_unknown_path_key_rejected(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("window: {start: 2021-04-01, end: 2024-01-01}\n"
                        "paths: {donorz: x.csv}\n")
        with pytest.raises(InputError, match="donorz"):
            load_settings(path)

    def test_window_required(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("paths: {}\n")
        with pytest.raises(InputError, match="window"):
            load_settings(path)

    def test_seed_list(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("window: {start: 2021-04-01, end: 2024-01-01}\n"
                        "seeds: [11, 12, 13]\n")
        settings = load_settings(path)
        assert settings.seed_list(2) == [11, 12]
        assert settings.seed_list(3) == [11, 12, 13]
        with pytest.raises(InputError, match="seeds"):
            settings.seed_list(4)

    def test_default_consecutive_seeds(self, tmp_path):
        path = tmp_path / "settings.yaml"
        path.write_text("window: {start: 2021-04-01, end: 2024-01-01}\n"
                        "seed: 40\n")
        assert load_settings(path).seed_list(3) == [40, 41, 42]


def test_only_readers_and_writers_import_datetime():
    # past the loaders every time is a day since 1970-01-01: the calendar
    # is used only where text is read (common, io) or generated (synthetic)
    importers = set()
    for path in Path(io_module.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "datetime" for n in names):
                importers.add(path.stem)
    assert importers == {"common", "io", "synthetic"}


def _code_units(tree: ast.Module):
    """(name, node) per top-level definition, and per method of a class
    (``Class.method``)."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                yield f"{top.name}.{getattr(item, 'name', None)}", item
        else:
            yield getattr(top, "name", None), top


def test_one_table_reader():
    # every table is read by common.read_table and written by
    # common.write_table: csv.writer appears only in common, and csv.reader
    # only there and where the status scanner splits the lines that are not
    # plain screenings
    readers, writers = set(), set()
    for path in Path(io_module.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, unit in _code_units(tree):
            for node in ast.walk(unit):
                if isinstance(node, ast.Attribute):
                    of_csv = (isinstance(node.value, ast.Name)
                              and node.value.id == "csv")
                    read = (node.attr == "read_csv_rows"
                            or of_csv and node.attr in ("reader",
                                                        "DictReader"))
                    write = of_csv and node.attr in ("writer", "DictWriter")
                elif isinstance(node, ast.Name):
                    read, write = node.id == "read_csv_rows", False
                elif isinstance(node, ast.ImportFrom):
                    read = write = node.module == "csv"
                    read |= any(a.name == "read_csv_rows" for a in node.names)
                else:
                    continue
                if read:
                    readers.add((path.stem, name))
                if write:
                    writers.add((path.stem, name))
    scanner = ("io", "_StatusReader._read_block")
    assert scanner in readers
    assert {where for where in readers if where[0] != "common"} == {scanner}
    assert writers and {stem for stem, _ in writers} == {"common"}
