"""Parallel batches: same statistics and run files as a serial batch, under
every multiprocessing start method."""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest
import yaml

from etkasim import batch, reporting
from etkasim.batch import run_batch, run_once
from etkasim.io import load_inputs, load_settings, load_status_updates
from etkasim.synthetic import generate_population

SEEDS = [3, 4, 5]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("population")
    generate_population(out, n_candidates=220, n_donors=70,
                        start=date(2021, 4, 1), end=date(2022, 4, 1),
                        seed=12, panel_size=400)
    return load_inputs(load_settings(out / "settings.yaml"))


@pytest.fixture(scope="module")
def serial(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    return run_batch(inputs, SEEDS, workers=1, out_dir=out,
                     write_runs=True), out


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def start_method(request):
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield method
    finally:
        multiprocessing.set_start_method(previous, force=True)


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"],
                         indirect=True)
def test_parallel_batch_matches_serial(inputs, serial, start_method,
                                       tmp_path):
    serial_result, serial_dir = serial
    result = run_batch(inputs, SEEDS, workers=2, out_dir=tmp_path,
                       write_runs=True)
    assert result.per_run_stats == serial_result.per_run_stats
    files = _files(tmp_path)
    assert sorted({name.split("/")[0] for name in files}) == [
        "run_000", "run_001", "run_002"]
    assert files == _files(serial_dir)


def _with_streams(out: Path, candidates: dict, statuses: dict):
    """Inputs of a small population whose runs rotate through alternate
    candidate and status streams.  Each stream is named after its file and
    keeps the data lines of the generated file that its filter accepts."""
    settings_path = generate_population(
        out, n_candidates=80, n_donors=30, start=date(2021, 4, 1),
        end=date(2022, 4, 1), seed=4, panel_size=300)
    doc = yaml.safe_load(settings_path.read_text())
    for key, source, streams in (
            ("candidate_streams", "registrations", candidates),
            ("status_streams", "statuses", statuses)):
        header, *lines = (out / f"{source}.csv").read_text().splitlines()
        for name, keep in streams.items():
            kept = [line for n, line in enumerate(lines) if keep(n, line)]
            (out / name).write_text("\n".join([header, *kept]) + "\n")
        doc["paths"][key] = list(streams)
    settings_path.write_text(yaml.safe_dump(doc))
    return load_inputs(load_settings(settings_path))


def _every(n, line):
    return True


def test_each_stream_loads_once_per_batch(tmp_path, monkeypatch):
    inputs = _with_streams(
        tmp_path, {"registrations_1.csv": _every, "registrations_2.csv": _every},
        {"statuses_1.csv": _every, "statuses_2.csv": _every})
    loaded = []
    for name in ("load_registrations", "load_status_updates"):
        original = getattr(batch, name)

        def spy(path, *args, original=original):
            loaded.append(Path(path).name)
            return original(path, *args)

        monkeypatch.setattr(batch, name, spy)
    result = run_batch(inputs, [5, 6, 5, 6])
    assert sorted(loaded) == ["registrations_1.csv", "registrations_2.csv",
                              "statuses_1.csv", "statuses_2.csv"]
    stats = result.per_run_stats
    assert stats[0] == stats[2] and stats[1] == stats[3]


def test_templates_live_until_their_streams_last_run(tmp_path):
    inputs = _with_streams(
        tmp_path, {"registrations_1.csv": _every, "registrations_2.csv": _every},
        {})
    templates, kept = {}, []
    for index, seed in enumerate([5, 6, 5, 6]):
        batch._run_indexed(inputs, templates, 4, index, seed, None)
        kept.append(sorted(templates))
    assert kept == [[0], [0, 1], [1], []]


def test_unequal_stream_counts_pair_every_combination(tmp_path):
    # 2 candidate and 3 status streams: runs i and j share their inputs only
    # when i and j agree modulo 6
    inputs = _with_streams(
        tmp_path,
        {"all.csv": _every, "even.csv": lambda n, line: n % 2 == 0},
        {"statuses.csv": _every,
         "no_scr.csv": lambda n, line: ",SCR," not in line,
         "no_urg.csv": lambda n, line: ",URG," not in line})
    seeds = [5] * 6 + [6, 7]
    result = run_batch(inputs, seeds)
    assert result.per_run_stats == [
        reporting.stats_from_output(
            run_once(batch._inputs_for_run(inputs, index), seed))
        for index, seed in enumerate(seeds)]
    combinations = {tuple(sorted(stats.items()))
                    for stats in result.per_run_stats[:6]}
    assert len(combinations) == 6


def test_status_streams_rotate_without_candidate_streams(tmp_path):
    names = ("statuses_all.csv", "no_urg.csv")
    inputs = _with_streams(
        tmp_path, {},
        {names[0]: _every, names[1]: lambda n, line: ",URG," not in line})
    result = run_batch(inputs, [5, 5])
    expected = []
    for name in names:
        updates, screenings = load_status_updates(tmp_path / name,
                                                  inputs.antigen_table)
        intended = replace(inputs, updates=updates, screenings=screenings)
        expected.append(reporting.stats_from_output(run_once(intended, 5)))
    assert expected[0] != expected[1]
    assert result.per_run_stats == expected
