"""Runs forked from one initial state: each equals a run from a fresh
``initialize``, and none of them changes the state it was forked from."""

from __future__ import annotations

from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from etkasim import reporting
from etkasim.balances import BalanceEvent
from etkasim.batch import run_batch, run_once
from etkasim.common import to_days
from etkasim.engine import initialize, run
from etkasim.entities import StatusUpdate
from etkasim.fastmatch import _COLUMNS
from etkasim.io import load_inputs, load_settings
from etkasim.offering import center_offer_features, dual_features
from etkasim.synthetic import generate_population

from engine_fixture import traced

START, END = date(2021, 4, 1), date(2022, 4, 1)
SEEDS = [3, 4, 3, 5]

# What a fork shares with its template: what no run writes (the inputs, the
# lookups and bit layouts derived from them, the donor memo and the initial
# snapshots) and immutable scalars.  Everything else must be copied, so an
# attribute added later has to be placed in one group or the other.  The
# outputs, the offer-trace sink among them, start anew in every fork.
SHARED_BY_STATE = {
    "inputs", "policy", "hla_index", "donor_memo", "init_statuses",
    "init_ledger", "start_days", "end_days", "_seq"}
SHARED_BY_STORE = {
    "hla_index", "centers", "panel", "freq_table", "bg_freqs", "policy",
    "countries", "country_of", "regions", "region_of", "subregion_of",
    "_panel_carriers", "_panel_locus_bits", "_freq_bits", "n", "_cap"}
SHARED_BY_LEDGER: set[str] = set()


def _with_unacceptable_updates(inputs):
    """Give every seventh candidate an in-window UNA update: one or two
    antigens, or none, which empties the set."""
    rng = np.random.default_rng(0)
    codes = sorted(inputs.antigen_table.codes())
    updates = dict(inputs.updates)
    for reg in inputs.registrations[::7]:
        day = to_days(START) + int(rng.integers(0, 180))
        unacceptables = frozenset(rng.choice(codes, int(rng.integers(0, 3)),
                                             replace=False).tolist())
        stream = [*updates.get(reg.id, []),
                  StatusUpdate(reg.id, day, "UNA", unacceptables)]
        updates[reg.id] = sorted(stream, key=lambda u: u.day)
    return replace(inputs, updates=updates)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    # about 1,015 rows after initialize: re-listings grow the store past its
    # first capacity of 1,024 rows
    out = tmp_path_factory.mktemp("population")
    generate_population(out, n_candidates=1170, n_donors=250, start=START,
                        end=END, seed=12, panel_size=300)
    return _with_unacceptable_updates(
        load_inputs(load_settings(out / "settings.yaml")))


@pytest.fixture(scope="module")
def fresh(inputs, tmp_path_factory):
    """Stats, run files and final row counts of runs that each initialize."""
    out = tmp_path_factory.mktemp("fresh")
    stats, rows = [], []
    for index, seed in enumerate(SEEDS):
        output = run_once(inputs, seed)
        stats.append(reporting.stats_from_output(output))
        reporting.write_run_files(out / f"run_{index:03d}", output, stats[-1])
        rows.append(len(output.final_states))
    return stats, out, rows


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _plain(value):
    """``value`` as a comparable copy: an array's or a list's items (a
    patient event's update list, shared by the template and its forks)."""
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    return tuple(value) if isinstance(value, list) else value


def _fingerprint(state) -> dict:
    """Everything a run may write, in comparable form."""
    store = state.store
    return {
        "columns": {name: getattr(store, name).tobytes()
                    for name, *_ in _COLUMNS},
        "store": (store.n, list(store.ids), list(store.center_codes),
                  [reg.id for reg in store.registrations],
                  dict(store.row_of), sorted(store._pending),
                  sorted(store.austrian_regions)),
        "fes": [(*entry[:4], tuple(map(_plain, entry[4])))
                for entry in state.fes],
        "ledger": (state.ledger.snapshot(), state.ledger.regional_snapshot()),
        "people": (dict(state.person_tx_count), dict(state.relist_row),
                   dict(state.relist_serial)),
        "counters": dict(state.counters),
        "initial": (dict(state.init_statuses), state.init_ledger.snapshot(),
                    state.init_ledger.regional_snapshot()),
    }


def test_population_covers_growth_and_unacceptable_updates(inputs, fresh):
    capacity = len(initialize(inputs).store.status)
    assert max(fresh[2]) > capacity
    assert any(u.kind == "UNA" and not u.value
               for ups in inputs.updates.values() for u in ups)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_equals_fresh_runs(inputs, fresh, workers, tmp_path):
    stats, fresh_dir, _ = fresh
    result = run_batch(inputs, SEEDS, workers=workers, out_dir=tmp_path,
                       write_runs=True)
    assert result.per_run_stats == stats
    assert _files(tmp_path) == _files(fresh_dir)


def test_forks_leave_the_template_unchanged(inputs, fresh):
    template = initialize(inputs)
    before = _fingerprint(template)
    stats = [reporting.stats_from_output(run(template.fork(seed)))
             for seed in SEEDS]
    assert stats == fresh[0]
    assert _fingerprint(template) == before
    assert _fingerprint(initialize(inputs, seed=9)) == before


def _shared(template, fork) -> set[str]:
    return {name for name, value in vars(template).items()
            if getattr(fork, name) is value}


def test_a_fork_shares_only_what_runs_do_not_write(inputs):
    template = traced(initialize(inputs))
    fork = template.fork(1)
    assert _shared(template, fork) == SHARED_BY_STATE
    assert _shared(template.store, fork.store) == SHARED_BY_STORE
    assert _shared(template.ledger, fork.ledger) == SHARED_BY_LEDGER


def test_a_fresh_template_holds_no_per_patient_entries(inputs):
    # row state lives in the store's columns and update lists in the
    # patient events, so the only containers a fork copies are the counters
    # and the per-patient maps, which hold transplanted patients only
    template = initialize(inputs)
    fork = template.fork(1)
    copied = {name for name, value in vars(template).items()
              if isinstance(value, (dict, set))
              and getattr(fork, name) is not value}
    assert copied == {"counters", "person_tx_count", "relist_row",
                      "relist_serial"}
    assert template.person_tx_count == {}
    assert template.relist_row == {}
    assert template.relist_serial == {}


def test_a_fork_of_a_traced_template_traces_into_its_own_list(inputs):
    template = traced(initialize(inputs))
    template.offer_trace.append(("template",))
    fork = template.fork(3)
    assert fork.offer_trace == []
    output = run(fork)
    assert output.offer_trace
    assert template.offer_trace == [("template",)]
    assert output.offer_trace == run(
        traced(initialize(inputs, seed=3))).offer_trace
    assert initialize(inputs).fork(3).offer_trace is None


def test_a_fork_reads_the_donor_memo_an_earlier_fork_filled(
        inputs, fresh, tmp_path):
    template = traced(initialize(inputs))
    run(template.fork(3))
    filled = {i: memo for i, memo in enumerate(template.donor_memo)
              if memo is not None}
    assert any(memo.center_p for memo in filled.values())
    assert any(memo.dual_p for memo in filled.values())
    # each probability is the one its model gives for its key
    countries = template.store.countries
    for i, memo in filled.items():
        donor = inputs.donors[i]
        models = (inputs.esp_models
                  if donor.age >= inputs.policy.esp_donor_age_from
                  else inputs.etkas_models)
        assert memo.center_p == {center: models.center.predict(
            center_offer_features(donor, memo.features, center,
                                  inputs.centers, countries))
            for center in memo.center_p}
        assert memo.dual_p == {(age, rescue): models.dual.predict(
            dual_features(memo.features, age, rescue))
            for age, rescue in memo.dual_p}
    output = run(template.fork(4))
    assert all(template.donor_memo[i] is memo for i, memo in filled.items())
    expected = run(traced(initialize(inputs, seed=4)))
    assert output.offer_trace == expected.offer_trace
    stats = reporting.stats_from_output(output)
    assert stats == fresh[0][SEEDS.index(4)]
    reporting.write_run_files(tmp_path / "fork", output, stats)
    reporting.write_run_files(tmp_path / "fresh", expected,
                              reporting.stats_from_output(expected))
    assert _files(tmp_path / "fork") == _files(tmp_path / "fresh")


def test_writes_to_a_fork_stay_in_the_fork(inputs):
    template = initialize(inputs)
    before = _fingerprint(template)
    fork = template.fork(1)
    store = fork.store
    for name, *_ in _COLUMNS:
        # flipping every byte changes every value of every dtype
        getattr(store, name).view(np.uint8)[...] ^= 0xFF
    store.n += 1
    for seq in (store.ids, store.center_codes, store.registrations):
        seq.append(None)
    store.row_of["new"] = store.n
    store._pending.add(0)
    store.austrian_regions.add(len(store.regions))
    countries = fork.ledger.countries
    fork.ledger.record_transfer(BalanceEvent(
        to_days(START), countries[0], countries[1], 40, donor_region="new"))
    fork.schedule(0, 0, "balance", None)
    fork.person_tx_count["new"] = 1
    fork.relist_row["new"] = 0
    fork.relist_serial["new"] = 1
    fork.counters["new"] = 1
    assert _fingerprint(template) == before
