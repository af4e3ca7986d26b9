"""Golden outputs: one mid-sized synthetic population, pinned by digest.

Speed work must leave every output byte-identical under a fixed seed.  This
test pins the sha256 of the three per-run CSVs for two seeds, and of the
offer trace that ``etkasim run --trace`` writes for one, so a change that
alters any output fails here.  A change that alters outputs on purpose
updates the digests and says which outputs change and why.
"""

from __future__ import annotations

import hashlib
from datetime import date

import pytest

from etkasim import reporting
from etkasim.batch import run_once
from etkasim.cli import main
from etkasim.io import load_inputs, load_settings
from etkasim.synthetic import generate_population

GOLDEN = {
    1: {"transplants.csv":
            "10798aec452a7abfbeac4b946232db574f427d47cc8a6eb5d5397961371e1812",
        "final_states.csv":
            "18e59f24e2256033fdba6cb38ab542cd02092699aeb20b8b69b59cfd3395b88d",
        "stats.csv":
            "0746d6cdae11a7c7901b25bc781045f32f6fbbe3de3decf5bd129ac0ad4bdc3a"},
    2: {"transplants.csv":
            "c1cad3dc0c33e8545ea8792e755a3188ba3f016fb55e4e1e3a4e0199bb75e6ce",
        "final_states.csv":
            "88c0b4be4833bf1dc37c225d2fc0ad388cd50771678e6a5857e1b8b9a95f8908",
        "stats.csv":
            "dd0db013f5c2aaecd339a0a7558fb0054d7dae9016860a7389412c9dd1b8911c"},
}

# the offer trace of seed 1, written through the command line
GOLDEN_TRACE = (
    "97a6e4fe04cfa422772a0a021da7ba7eaa1444bc5e2173d2b2bce4974243585e")


@pytest.fixture(scope="module")
def settings_path(tmp_path_factory):
    pop = tmp_path_factory.mktemp("golden")
    return generate_population(pop, n_candidates=3000, n_donors=300,
                               start=date(2021, 4, 1), end=date(2022, 4, 1),
                               seed=31, unplaced_mode="force")


@pytest.fixture(scope="module")
def inputs(settings_path):
    return load_inputs(load_settings(settings_path))


def _digests(inputs, seed, out_dir) -> dict[str, str]:
    output = run_once(inputs, seed)
    reporting.write_run_files(out_dir, output,
                              reporting.stats_from_output(output))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN[seed]}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_outputs_match_golden_digests(inputs, seed, tmp_path):
    assert _digests(inputs, seed, tmp_path) == GOLDEN[seed]


def test_offer_trace_matches_golden_digest(settings_path, tmp_path):
    assert main(["run", "--settings", str(settings_path), "--seed", "1",
                 "--out", str(tmp_path), "--trace"]) == 0
    trace = (tmp_path / "offer_trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACE
