"""Command-line interface on a shipped-style synthetic fixture."""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path

import pytest

from etkasim.cli import main
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


class TestUsage:
    def test_usage_error_prints_synopsis(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
