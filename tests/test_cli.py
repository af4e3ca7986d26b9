"""Command-line interface on a shipped-style synthetic fixture."""

from __future__ import annotations

import ast
import csv
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import etkasim
from etkasim.cli import main
from etkasim.engine import initialize
from etkasim.entities import CenterRegistry
from etkasim.io import data_path, load_inputs, load_settings
from etkasim.synthetic import generate_population


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("population")
    generate_population(out, n_candidates=220, n_donors=70,
                        start=date(2021, 4, 1), end=date(2022, 4, 1),
                        seed=12, panel_size=400)
    return out


def read_bytes(path: Path) -> bytes:
    return path.read_bytes()


class TestCheckInputs:
    def test_ok_on_generated_fixture(self, fixture_dir, capsys):
        rc = main(["check-inputs", "--settings",
                   str(fixture_dir / "settings.yaml")])
        assert rc == 0
        assert "inputs ok" in capsys.readouterr().out

    def test_detects_unterminated_stream(self, fixture_dir, tmp_path, capsys):
        # copy the fixture and truncate one candidate's terminal status
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(fixture_dir, broken)
        statuses = broken / "statuses.csv"
        rows = statuses.read_text().splitlines()
        victim = None
        kept = []
        for row in rows:
            if victim is None and (",URG,R" in row or ",URG,D" in row):
                victim = row
                continue
            kept.append(row)
        statuses.write_text("\n".join(kept) + "\n")
        rc = main(["check-inputs", "--settings", str(broken / "settings.yaml")])
        assert rc == 1
        assert "does not end" in capsys.readouterr().err

    def test_transplant_terminated_stream_passes(self, fixture_dir, tmp_path,
                                                 capsys):
        # FU (transplanted) ends a spell for the engine, so it ends one here
        import shutil
        copy = tmp_path / "fu"
        shutil.copytree(fixture_dir, copy)
        statuses = copy / "statuses.csv"
        text = statuses.read_text()
        assert ",URG,R\n" in text
        statuses.write_text(text.replace(",URG,R\n", ",URG,FU\n", 1))
        rc = main(["check-inputs", "--settings", str(copy / "settings.yaml")])
        assert rc == 0, capsys.readouterr().err
        assert "inputs ok" in capsys.readouterr().out

    def test_screening_only_stream_is_unterminated(self, fixture_dir,
                                                  tmp_path, capsys):
        # keep only the SCR rows of one candidate's stream
        import shutil
        copy = tmp_path / "scr_only"
        shutil.copytree(fixture_dir, copy)
        statuses = copy / "statuses.csv"
        rows = statuses.read_text().splitlines()
        victim = next(r.split(",")[0] for r in rows if ",SCR," in r)
        statuses.write_text("\n".join(
            r for r in rows
            if not r.startswith(victim + ",") or ",SCR," in r) + "\n")
        rc = main(["check-inputs", "--settings", str(copy / "settings.yaml")])
        err = capsys.readouterr().err
        assert rc == 1
        assert (f"candidate {victim}: status stream does not end in a "
                "removal, death or transplant") in err
        assert f"candidate {victim}: no status updates" not in err

    def test_screenings_of_unknown_candidate_detected(self, fixture_dir,
                                                     tmp_path, capsys):
        import shutil
        copy = tmp_path / "ghost"
        shutil.copytree(fixture_dir, copy)
        with open(copy / "statuses.csv", "a") as fh:
            fh.write("GHOST,2021-05-01,SCR,\n")
        rc = main(["check-inputs", "--settings", str(copy / "settings.yaml")])
        assert rc == 1
        assert ("status updates reference unknown candidate 'GHOST'"
                in capsys.readouterr().err)

    def test_missing_settings_key_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "settings.yaml"
        bad.write_text("window: {start: 2021-04-01, end: 2022-04-01}\n"
                       "paths: {candidates: x.csv}\n")
        rc = main(["check-inputs", "--settings", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


def _append(path: Path, row: str) -> int:
    """Append ``row`` to a CSV file; the row's line number."""
    text = path.read_text()
    path.write_text(text + row + "\n")
    return text.count("\n") + 1


def _edit(path: Path, key: str | None, column: str, value: str) -> int:
    """Set ``column`` of the row whose first field is ``key`` (the first
    row if None); that row's line number."""
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    n = next(n for n, line in enumerate(lines[1:], start=1)
             if key is None or line.split(",")[0] == key)
    fields = lines[n].split(",")
    fields[at] = value
    lines[n] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return n + 1


def _status_row(kind: str, payload: str, when: str = "2021-06-01"):
    def mutate(root: Path, cid: str) -> str:
        line = _append(root / "statuses.csv", f"{cid},{when},{kind},{payload}")
        return f"statuses.csv:{line}: "
    return mutate


def _registration(column: str, value: str, located: bool):
    """Set ``column`` of the listed registration; the file:line the error
    names if it is ``located``, else the registration it names."""
    def mutate(root: Path, cid: str) -> str:
        line = _edit(root / "registrations.csv", cid, column, value)
        return (f"registrations.csv:{line}: " if located
                else f"registration {cid!r}: ")
    return mutate


def _duplicate_registration(root: Path, cid: str) -> None:
    path = root / "registrations.csv"
    row = next(line for line in path.read_text().splitlines()
               if line.startswith(cid + ","))
    _append(path, row)


def _country_not_its_centers(name: str, what: str):
    """Give the listed registration (``what`` "registration") or the first
    donor (``what`` "donor") of ``name`` a known country that is not its
    center's; the record the error names."""
    def mutate(root: Path, cid: str) -> str:
        key = cid if what == "registration" else None
        with open(root / name, newline="") as fh:
            row = next(r for r in csv.DictReader(fh)
                       if key is None or r["id"] == key)
        country = CenterRegistry.from_file(data_path("centers.csv")).get(
            row["center"].strip()).country
        _edit(root / name, key, "country", "BE" if country == "DE" else "DE")
        return f"{what} {row['id']!r}: "
    return mutate


def _donor(column: str, value: str, located: bool):
    def mutate(root: Path, cid: str) -> str | None:
        line = _edit(root / "donors.csv", None, column, value)
        return f"donors.csv:{line}: " if located else None
    return mutate


def _every_donor(column: str, value: str):
    def mutate(root: Path, cid: str) -> None:
        path = root / "donors.csv"
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index(column)
        rows = [line.split(",") for line in lines[1:]]
        for fields in rows:
            fields[at] = value
        path.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
    return mutate


def _first_donor(mutate):
    """``mutate``, for an error that names the first donor of the file (in
    this fixture, the first in-window donor and the first with a list)."""
    def named(root: Path, cid: str) -> str:
        mutate(root, cid)
        with open(root / "donors.csv", newline="") as fh:
            return f"donor {next(csv.DictReader(fh))['id']!r}: "
    return named


def _balance_row(when: str):
    def mutate(root: Path, cid: str) -> None:
        _append(root / "balances.csv", f"{when},DE,XX,40,combined,,")
    return mutate


def test_check_inputs_names_a_balance_event_by_its_date(fixture_dir,
                                                       tmp_path, capsys):
    root = tmp_path / "broken"
    shutil.copytree(fixture_dir, root)
    _balance_row("2021-06-01")(root, None)
    assert main(["check-inputs", "--settings",
                 str(root / "settings.yaml")]) == 1
    assert capsys.readouterr().err == (
        "error: balance event of 2021-06-01: unknown country 'XX'\n")


def _modules_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter that imports the package from this source tree."""
    src = str(Path(etkasim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; {statement}; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(ast.literal_eval(out))


def test_cli_does_not_import_the_reference_rules():
    # the record-at-a-time rules are test code (``tests/oracle``): the
    # package holds one implementation, and the command line runs it
    assert importlib.util.find_spec("etkasim.matchlist") is None
    modules = _modules_after("import etkasim.cli")
    assert "etkasim.engine" in modules
    assert "etkasim.matchlist" not in modules


def test_run_paths_do_not_import_scipy():
    # scipy.stats costs more than a second and ~70 MB to import; only
    # compare_policies needs scipy, and it loads scipy.special itself
    modules = _modules_after("import etkasim.cli, etkasim.batch")
    assert "etkasim.batch" in modules
    assert "scipy.stats" not in modules
    assert "scipy.special" not in modules


def _pool_update(column: str, value: str):
    def mutate(root: Path, cid: str) -> str:
        path = root / "relist_pool_updates.csv"
        shutil.copy(data_path("relist_pool_updates.csv"), path)
        line = _edit(path, None, column, value)
        settings_path = root / "settings.yaml"
        doc = yaml.safe_load(settings_path.read_text())
        doc["paths"]["relist_pool_updates"] = path.name
        settings_path.write_text(yaml.safe_dump(doc))
        return f"relist_pool_updates.csv:{line}: "
    return mutate


def _model_file(key: str, name: str, edit):
    """Point ``paths.<key>`` at a copy of the packaged ``name`` whose lines
    ``edit`` rewrites, returning them and the number of the line the error
    names (None for the file as a whole)."""
    def mutate(root: Path, cid: str) -> str:
        lines, line = edit(data_path(name).read_text().splitlines())
        (root / name).write_text("\n".join(lines) + "\n")
        settings_path = root / "settings.yaml"
        doc = yaml.safe_load(settings_path.read_text())
        doc["paths"][key] = name
        settings_path.write_text(yaml.safe_dump(doc))
        return f"{name}:{line}: " if line is not None else f"{name}: "
    return mutate


def _add_line(text: str):
    return lambda lines: ([*lines, text], len(lines) + 1)


def _replace_line(old: str, new: str):
    def edit(lines):
        at = lines.index(old)
        return [*lines[:at], new, *lines[at + 1:]], at + 1
    return edit


def _rename_column(header: str, new: str):
    """Rename a column in the header line ``header``: the row after it
    lacks a required column."""
    def edit(lines):
        at = lines.index(header)
        return [*lines[:at], new, *lines[at + 1:]], at + 2
    return edit


def _panel(**columns):
    """Set columns of the panel's first typing."""
    def mutate(root: Path, cid: str) -> str:
        for column, value in columns.items():
            line = _edit(root / "panel.csv", None, column, value)
        return f"panel.csv:{line}: "
    return mutate


def _drop_lines(prefix: str):
    return lambda lines: ([x for x in lines if not x.startswith(prefix)],
                          None)


def _whole_file(edit):
    """``edit``, for an error that names the file but no line."""
    return lambda lines: (edit(lines)[0], None)


def _zero_shapes(lines):
    """Set every Weibull shape to 0, an error of the whole file."""
    return [f"{x.rpartition(',')[0]},0" if x.startswith("shape,") else x
            for x in lines], None


def _zero_frequencies(locus: str):
    """Set every frequency of ``locus`` to 0, an error of the whole file."""
    return lambda lines: ([f"{locus},{x.split(',')[1]},0"
                           if x.startswith(locus + ",") else x
                           for x in lines], None)


def _setting(key: str, value):
    """Set a top-level key of the settings file."""
    def mutate(root: Path, cid: str) -> str:
        settings_path = root / "settings.yaml"
        doc = yaml.safe_load(settings_path.read_text())
        doc[key] = value
        settings_path.write_text(yaml.safe_dump(doc))
        return "settings.yaml: "
    return mutate


def _header_only_panel(root: Path, cid: str) -> str:
    path = root / "panel.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return "panel.csv: "


# each: how to break a copy of the fixture (returning the file:line the
# error names, if it is found on load, or the record it names), and what
# the error says
MALFORMED = [
    pytest.param(_status_row("URG", "XX"), "bad urgency payload 'XX'",
                 id="urg"),
    pytest.param(_status_row("PRF", "max=1"), "unknown profile key 'max'",
                 id="prf"),
    pytest.param(_status_row("CHO", "maybe"), "bad choice payload 'maybe'",
                 id="cho"),
    pytest.param(_status_row("MMC", "22"),
                 "mismatch pattern '22' must have 3 characters", id="mmc"),
    pytest.param(_status_row("UNA", "A1 Z99"),
                 "unacceptable antigen 'Z99' not in the antigen table",
                 id="una"),
    pytest.param(_status_row("DIA", "2021-13-01"),
                 "bad dialysis start payload '2021-13-01'",
                 id="dia-in-window"),
    pytest.param(_status_row("DIA", "2021-13-01", when="2020-06-01"),
                 "bad dialysis start payload '2021-13-01'",
                 id="dia-before-window"),
    pytest.param(_status_row("URG", "XX", when="2030-01-01"),
                 "bad urgency payload 'XX'", id="urg-after-window"),
    pytest.param(_registration("unacceptables", "Z99", located=True),
                 "unacceptable antigen 'Z99' not in the antigen table",
                 id="registration-unacceptable"),
    pytest.param(_registration("program_choice", "BOTH", located=True),
                 "bad program choice 'BOTH'", id="registration-choice"),
    pytest.param(_registration("center", "XXX", located=False),
                 "unknown center code 'XXX'", id="registration-center"),
    pytest.param(_registration("country", "XX", located=False),
                 "country 'XX' is not the country of its center",
                 id="registration-country"),
    pytest.param(_country_not_its_centers("registrations.csv",
                                          "registration"),
                 "is not the country of its center",
                 id="registration-country-not-its-centers"),
    pytest.param(_duplicate_registration, "duplicate registration id",
                 id="registration-duplicate"),
    pytest.param(_donor("center", "XXX", located=False),
                 "unknown center code 'XXX'", id="donor-center"),
    pytest.param(_donor("country", "XX", located=False),
                 "country 'XX' is not the country of its center",
                 id="donor-country"),
    pytest.param(_country_not_its_centers("donors.csv", "donor"),
                 "is not the country of its center",
                 id="donor-country-not-its-centers"),
    # check-inputs bounds the scale over every transplant a donor could
    # make; run finds it at the first transplant
    pytest.param(_every_donor("creatinine", "400"),
                 "non-positive Weibull scale", id="donor-failure-scale"),
    pytest.param(_every_donor("creatinine", "nan"),
                 "creatinine nan is not a positive finite number",
                 id="donor-creatinine-nan"),
    # the max-offer predictor reads donor features only: check-inputs
    # bounds it exactly, and run meets it at the donor's first list
    pytest.param(_first_donor(_model_file(
        "cox_coefficients", "cox_max_offers.csv",
        _replace_line("donor_age_dec,0.06", "donor_age_dec,200"))),
                 "max-offer Cox predictor", id="cox-predictor-overflow"),
    pytest.param(_donor("death_cause", "stroke", located=True),
                 "death cause 'stroke' is not one of cva, trauma, anoxia, "
                 "other", id="donor-death-cause"),
    pytest.param(_balance_row("2021-06-01"), "unknown country 'XX'",
                 id="balance-in-window"),
    pytest.param(_balance_row("2020-06-01"), "unknown country 'XX'",
                 id="balance-before-window"),
    pytest.param(_pool_update("status", "XX"), "malformed pool status "
                 "update: bad urgency payload 'XX'", id="pool-status"),
    pytest.param(_pool_update("offset_days", "90d"), "malformed pool status "
                 "update: invalid literal for int()", id="pool-offset"),
    pytest.param(_model_file("accept_etkas_center", "accept_etkas_center.csv",
                             _add_line("bogus_feature,0.5")),
                 "model 'etkas_center_accept' has no feature 'bogus_feature'",
                 id="model-unknown-feature"),
    pytest.param(_model_file("weibull", "weibull_post_transplant.csv",
                             _replace_line("coef,mm_dr,-40.0",
                                           "coef,mm_drr,-40.0")),
                 "model 'post_transplant_failure' has no feature 'mm_drr'",
                 id="weibull-unknown-feature"),
    pytest.param(_model_file("weibull", "weibull_post_transplant.csv",
                             _zero_shapes),
                 "shape 'default': 0.0 is not a positive finite number",
                 id="weibull-zero-shape"),
    pytest.param(_model_file("dual_model", "dual.csv",
                             _replace_line("donor_age_dec,0.32",
                                           "donor_age_dec,abc")),
                 "coefficient 'donor_age_dec': value 'abc' is not a number",
                 id="model-malformed-value"),
    pytest.param(_model_file("cox_baselines", "cox_baselines.csv",
                             _drop_lines("ESP,")),
                 "no baseline survival for stratum 'ESP'",
                 id="cox-missing-stratum"),
    pytest.param(_model_file("relist_curves", "relist_curves.csv",
                             _drop_lines("1y_2y,60-64,")),
                 "no re-listing curve for stratum ('1y_2y', '60-64')",
                 id="relist-missing-stratum"),
    pytest.param(_panel(a1="A999"),
                 "malformed panel typing: unknown antigen code: 'A999'",
                 id="panel-unknown-antigen"),
    pytest.param(_panel(**dict.fromkeys(("a1", "a2", "b1", "b2", "dr1",
                                         "dr2"), "")),
                 "malformed panel typing: HLA typing is required",
                 id="panel-blank-typing"),
    pytest.param(_model_file("hla_frequencies", "hla_frequencies.csv",
                             _rename_column("locus,code,freq",
                                            "locus,kode,freq")),
                 "malformed antigen frequency: 'code'",
                 id="hla-frequencies-missing-column"),
    pytest.param(_model_file("relist_curves", "relist_curves.csv",
                             _rename_column("t_bucket,age_bucket,s,survival",
                                            "t_bucket,age_bucket,s,surv")),
                 "malformed curve row: 'survival'",
                 id="relist-curves-missing-column"),
    pytest.param(_model_file("relist_pool", "relist_pool.csv",
                             _rename_column(
                                 "id,country,age_at_relist,dialysis_days,"
                                 "within_1y,r_days,t_days",
                                 "id,country,age_at_relist,dialysis_days,"
                                 "within_1y,r_days,t")),
                 "malformed pool entry: 't_days'",
                 id="relist-pool-missing-column"),
    pytest.param(_model_file("blood_group_frequencies", "blood_groups.csv",
                             _replace_line("A,0.40", "A,high")),
                 "malformed blood group frequency: could not convert string "
                 "to float: 'high'", id="blood-group-frequency-value"),
    pytest.param(_model_file("blood_group_frequencies", "blood_groups.csv",
                             _rename_column("bg,freq", "bg,f")),
                 "malformed blood group frequency: 'freq'",
                 id="blood-group-frequency-missing"),
    pytest.param(_header_only_panel, "donor panel must be nonempty",
                 id="panel-empty"),
    pytest.param(_model_file("antigens", "antigens.csv",
                             _add_line("A,A1,A1")),
                 "duplicate antigen code 'A1'", id="antigen-duplicate"),
    pytest.param(_model_file("antigens", "antigens.csv",
                             _whole_file(_replace_line("A,A23,A9",
                                                       "A,A23,A99"))),
                 "antigen 'A23': parent broad 'A99' missing or on a "
                 "different locus", id="antigen-parent-missing"),
    pytest.param(_model_file("hla_frequencies", "hla_frequencies.csv",
                             _zero_frequencies("DR")),
                 "locus DR: frequencies sum to 0.0",
                 id="hla-frequencies-zero-sum"),
    pytest.param(_setting("unplaced_mode", "panic"),
                 "unplaced_mode must be 'discard' or 'force', got 'panic'",
                 id="settings-unplaced-mode"),
    pytest.param(_setting("seed", "abc"),
                 "seed must be an integer, got 'abc'", id="settings-seed"),
    pytest.param(_setting("seeds", [1, "abc"]),
                 "seeds must be a list of integers, got [1, 'abc']",
                 id="settings-seeds"),
    pytest.param(_setting("de_novo_immunization_p", 1.5),
                 "de_novo_immunization_p must be a probability between 0 "
                 "and 1, got 1.5", id="settings-immunization-p"),
    pytest.param(_setting("write_trace", "no"),
                 "write_trace must be true or false, got 'no'",
                 id="settings-write-trace"),
    pytest.param(_setting("window", {"start": "2021-04-01",
                                     "end": "2021-01-01"}),
                 "window.end 2021-01-01 is before window.start 2021-04-01",
                 id="settings-window-order"),
]


@pytest.fixture(scope="module")
def listed(fixture_dir) -> str:
    """A registration the engine lists at the window start."""
    inputs = load_inputs(load_settings(fixture_dir / "settings.yaml"))
    return initialize(inputs).store.ids[0]


class TestMalformedInputs:
    """What ``run`` rejects, ``check-inputs`` rejects, with the same error,
    before the simulation starts."""

    @pytest.mark.parametrize("mutate, message", MALFORMED)
    def test_rejected_by_check_inputs_and_run(self, fixture_dir, listed,
                                              tmp_path, capsys, mutate,
                                              message):
        root = tmp_path / "broken"
        shutil.copytree(fixture_dir, root)
        location = mutate(root, listed)
        settings_path = str(root / "settings.yaml")
        assert main(["check-inputs", "--settings", settings_path]) == 1
        check_err = capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "--settings", settings_path,
                     "--out", str(out)]) == 1
        run_err = capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        for err in (check_err, run_err):
            assert err.startswith("error: ") and message in err, err
            if location is not None:
                assert location in err, err


@pytest.fixture(scope="module")
def small_population(tmp_path_factory) -> tuple[Path, list[str]]:
    out = tmp_path_factory.mktemp("small_population")
    generate_population(out, n_candidates=100, n_donors=40,
                        start=date(2021, 4, 1), end=date(2022, 4, 1),
                        seed=12, panel_size=300)
    with open(out / "registrations.csv", newline="") as fh:
        ids = [row["id"] for row in csv.DictReader(fh)]
    return out, ids


# every kind of a status file row
KINDS = ("URG", "PRF", "UNA", "MMC", "SCR", "DIA", "CHO")
PAYLOADS = ["T", " HU ", "NT", "R", "FU", "", "   ", "XX", "min_age=18",
            "accept_dcd=0;max_age=70", "max=1", "A1 B8", "A1  ", "Z99",
            "A1 Z99", "222 **2", "22", "2021-05-01", " 2020-02-29",
            "2021-13-01", "2021-02-29", "ETKAS", "ext_opt_in", "maybe"]


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), payload=st.sampled_from(PAYLOADS),
       index=st.integers(0, 99), offset=st.integers(-400, 800))
def test_check_inputs_accepts_exactly_what_run_accepts(
        small_population, kind, payload, index, offset):
    source, ids = small_population
    when = date(2021, 4, 1) + timedelta(days=offset)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "population"
        shutil.copytree(source, root)
        _append(root / "statuses.csv",
                f"{ids[index]},{when.isoformat()},{kind},{payload}")
        settings_path = str(root / "settings.yaml")
        checked = main(["check-inputs", "--settings", settings_path])
        ran = main(["run", "--settings", settings_path,
                    "--out", str(root / "out")])
    assert (checked == 0) == (ran == 0), (checked, ran)


class TestRun:
    def test_run_writes_outputs(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--settings", str(fixture_dir / "settings.yaml"),
                   "--seed", "3", "--out", str(out), "--trace"])
        assert rc == 0
        for name in ("transplants.csv", "final_states.csv", "stats.csv",
                     "offer_trace.csv"):
            assert (out / name).exists(), name
        with open(out / "stats.csv") as fh:
            stats = {row["statistic"]: float(row["value"])
                     for row in csv.DictReader(fh)}
        assert stats["transplants.total"] > 0

    def test_same_seed_byte_identical_outputs(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        base = ["run", "--settings", str(fixture_dir / "settings.yaml"),
                "--seed", "11"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        for name in ("transplants.csv", "final_states.csv", "stats.csv"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name

    def test_unplaced_override(self, fixture_dir, tmp_path):
        out = tmp_path / "odiscard"
        rc = main(["run", "--settings", str(fixture_dir / "settings.yaml"),
                   "--seed", "3", "--out", str(out), "--unplaced", "discard"])
        assert rc == 0


class TestBatch:
    def test_batch_summary_and_determinism(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = ["batch", "--settings", str(fixture_dir / "settings.yaml"),
                "--runs", "2", "--seeds", "5,6"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read_bytes(out1 / "summary.csv") == read_bytes(out2 / "summary.csv")

    def test_seed_count_mismatch_is_an_error(self, fixture_dir, tmp_path,
                                             capsys):
        rc = main(["batch", "--settings", str(fixture_dir / "settings.yaml"),
                   "--runs", "3", "--seeds", "5,6",
                   "--out", str(tmp_path / "x")])
        assert rc == 1


class TestCompare:
    def test_identical_policies_zero_delta(self, fixture_dir, tmp_path):
        policy = fixture_dir / "policy_same.yaml"
        policy.write_text("points:\n  hla_mm_beta_a: -66.7\n")
        out = tmp_path / "cmp"
        rc = main(["compare", "--settings", str(fixture_dir / "settings.yaml"),
                   "--policy-a", str(policy), "--policy-b", str(policy),
                   "--runs", "2", "--out", str(out)])
        assert rc == 0
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["delta"]) == 0.0
            assert row["stars"] == ""


class TestValidate:
    def test_validation_table_with_actual_column(self, fixture_dir, tmp_path):
        actual = tmp_path / "actual.csv"
        actual.write_text("statistic,value\ntransplants.total,120\n")
        out = tmp_path / "val"
        rc = main(["validate", "--settings",
                   str(fixture_dir / "settings.yaml"), "--runs", "2",
                   "--actual", str(actual), "--out", str(out)])
        assert rc == 0
        with open(out / "validation.csv") as fh:
            rows = {row["statistic"]: row for row in csv.DictReader(fh)}
        assert rows["transplants.total"]["actual"] == "120"
        assert rows["transplants.total"]["calibrated"] in ("yes", "NO")


    def test_malformed_actual_statistic(self, fixture_dir, tmp_path, capsys):
        actual = tmp_path / "actual.csv"
        actual.write_text("statistic,value\ntransplants.total,120\n"
                          "transplants.dual,some\n")
        rc = main(["validate", "--settings",
                   str(fixture_dir / "settings.yaml"), "--runs", "1",
                   "--actual", str(actual), "--out", str(tmp_path / "val")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {actual}:3: malformed statistic: could not convert "
            "string to float: 'some'\n")


class TestUsage:
    def test_usage_error_prints_synopsis(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
