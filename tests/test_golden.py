"""Golden outputs: synthetic populations, pinned by digest.

Speed work must leave every output byte-identical under a fixed seed.  This
test pins the sha256 of the three per-run CSVs for two seeds, and of the
offer trace that ``etkasim run --trace`` writes for one, so a change that
alters any output fails here.  A synthetic status file holds only ``URG``
and ``SCR`` rows, so a second population adds rows of every other kind and
pins its CSVs too.  A change that alters outputs on purpose updates the
digests and says which outputs change and why.
"""

from __future__ import annotations

import csv
import hashlib
from datetime import date, timedelta

import numpy as np
import pytest

from etkasim import reporting
from etkasim.batch import run_once
from etkasim.cli import main
from etkasim.common import to_days
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


# the CSVs of seed 1 on the population with every update kind
GOLDEN_EVERY_KIND = {
    "transplants.csv":
        "db3bfd1e29367027b01f4b302c716507e096afba7848f2c93d603527f340f491",
    "final_states.csv":
        "51956862c09aebfd83079fe0f2194420cc26b8fd16d77124b1d275cd1ec06879",
    "stats.csv":
        "186bede3aa9f48e0159c240d4793e755d63add145cf5c3e5f2b39daf9fbf0929",
}

# status kinds no synthetic population holds, and payloads to draw from;
# an empty payload clears a profile, the unacceptables, the criteria or
# the dialysis start
OTHER_KINDS = (
    ("PRF", ("max_age=60", "min_age=18;accept_dcd=0;accept_ext=0",
             "accept_hcv=0;accept_hbs=0", "")),
    ("UNA", ("A1", "A2 B8", "B7 DR4 DR15", "")),
    ("MMC", ("222", "**2", "122 *2*", "")),
    ("DIA", ("2019-06-01", "2021-09-15", "")),
    ("CHO", ("ETKAS", "ESP", "EXT_OPT_IN", "EXT_OPT_OUT")),
)
START, END = date(2021, 4, 1), date(2022, 4, 1)


@pytest.fixture(scope="module")
def settings_path(tmp_path_factory):
    pop = tmp_path_factory.mktemp("golden")
    return generate_population(pop, n_candidates=3000, n_donors=300,
                               start=START, end=END, seed=31, unplaced_mode="force")


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


@pytest.fixture(scope="module")
def every_kind_settings(tmp_path_factory):
    """A population whose status file also holds a row of each of
    OTHER_KINDS for every other candidate, on a day drawn from the spell
    its status rows span: most before the window, some inside it."""
    pop = tmp_path_factory.mktemp("every_kind")
    settings = generate_population(pop, n_candidates=1500, n_donors=200,
                                   start=START, end=END, seed=37)
    path = pop / "statuses.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        spans: dict[str, list[date]] = {}
        for cid, day, _, _ in list(csv.reader(fh))[1:]:
            spans.setdefault(cid, []).append(date.fromisoformat(day))
    rng = np.random.default_rng(37)
    extra = []
    for cid, days in spans.items():
        if rng.random() < 0.5:
            continue
        first, span = min(days), (max(days) - min(days)).days
        for kind, payloads in OTHER_KINDS:
            day = first + timedelta(days=int(rng.integers(0, max(span, 1))))
            extra.append([cid, day.isoformat(), kind,
                          payloads[int(rng.integers(len(payloads)))]])
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(extra)
    return settings


@pytest.fixture(scope="module")
def every_kind_inputs(every_kind_settings):
    return load_inputs(load_settings(every_kind_settings))


def test_every_kind_population_updates_before_and_inside_the_window(
        every_kind_inputs):
    start, end = to_days(START), to_days(END)
    seen = {(u.kind, start <= u.day <= end)
            for stream in every_kind_inputs.updates.values() for u in stream}
    assert seen >= {(kind, inside) for kind, _ in OTHER_KINDS
                    for inside in (False, True)}


def test_every_update_kind_matches_golden_digests(every_kind_inputs,
                                                  tmp_path):
    output = run_once(every_kind_inputs, 1)
    reporting.write_run_files(tmp_path, output,
                              reporting.stats_from_output(output))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_EVERY_KIND} == GOLDEN_EVERY_KIND
