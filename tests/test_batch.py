"""Parallel batches: same statistics and run files as a serial batch, under
every multiprocessing start method."""

from __future__ import annotations

import multiprocessing
from datetime import date
from pathlib import Path

import pytest

from etkasim.batch import run_batch
from etkasim.io import load_inputs, load_settings
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
