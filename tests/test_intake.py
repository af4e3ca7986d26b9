"""How registrations enter a run: ``CandidateStore.extend`` writes the same
rows whether it takes them one at a time or in one batch, and
``initialize`` reports the first faulty registration in file order,
whichever check finds its fault."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkasim.common import InputError
from etkasim.engine import initialize
from etkasim.entities import StatusUpdate
from etkasim.fastmatch import _COLUMNS, CandidateStore, HlaIndex
from etkasim.hla import HlaTyping
from etkasim.io import load_inputs, load_settings
from etkasim.synthetic import generate_population

from engine_fixture import (END_DAY, START_DAY, candidate, make_inputs,
                            terminal_updates)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("population")
    settings_path = generate_population(
        out, n_candidates=300, n_donors=60, start=date(2021, 4, 1),
        end=date(2022, 4, 1), seed=5, panel_size=300)
    inputs = load_inputs(load_settings(settings_path))
    regs = inputs.registrations
    # the draws below mix every kind of row the intake writes
    assert any(reg.country == "AT" for reg in regs)
    assert any(reg.profile is not None for reg in regs)
    assert any(reg.unacceptables for reg in regs)
    assert any(reg.mm_criteria for reg in regs)
    assert any(reg.dialysis_start_day is None for reg in regs)
    return inputs


def _store(inputs) -> CandidateStore:
    return CandidateStore(HlaIndex(inputs.antigen_table), inputs.centers,
                          inputs.panel, inputs.freq_table, inputs.bg_freqs,
                          inputs.policy)


def _contents(store: CandidateStore) -> dict:
    """Everything the intake writes, columns as bytes over the capacity."""
    out = {name: getattr(store, name).tobytes() for name, *_ in _COLUMNS}
    out.update(n=store.n, cap=store._cap, ids=store.ids,
               row_of=list(store.row_of.items()),
               center_codes=store.center_codes,
               austrian_regions=store.austrian_regions,
               pending=store._pending, registrations=store.registrations)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_batch_writes_what_one_extend_per_registration_writes(inputs,
                                                                 data):
    regs = inputs.registrations
    picks = data.draw(st.lists(st.integers(0, len(regs) - 1), unique=True,
                               max_size=80), label="picks")
    chosen = [replace(regs[i], hla=None) if data.draw(st.booleans()) else
              regs[i] for i in picks]
    statuses = [data.draw(st.sampled_from([None, "PRE", "HU"]))
                for _ in chosen]
    # rows taken one at a time before the batch, by both stores
    ahead = data.draw(st.integers(0, len(chosen)), label="ahead")
    by_row, by_batch = _store(inputs), _store(inputs)
    for store in (by_row, by_batch):
        for reg, status in zip(chosen[:ahead], statuses[:ahead]):
            store.extend([reg], [status])
    for reg, status in zip(chosen[ahead:], statuses[ahead:]):
        by_row.extend([reg], [status])
    rows = by_batch.extend(chosen[ahead:], statuses[ahead:])
    assert rows == range(ahead, len(chosen))
    assert _contents(by_batch) == _contents(by_row)


def test_one_batch_past_the_capacity_grows_as_one_row_extends_do(inputs):
    regs = [replace(reg, id=f"{reg.id}.{k}")
            for k in range(4) for reg in inputs.registrations]
    statuses = [None, "PRE"] * (len(regs) // 2)
    by_row, by_batch = _store(inputs), _store(inputs)
    for reg, status in zip(regs, statuses):
        by_row.extend([reg], [status])
    by_batch.extend(regs, statuses)
    assert by_batch._cap > 1024
    assert _contents(by_batch) == _contents(by_row)
    by_row.finalize_derived_values()
    by_batch.finalize_derived_values()
    assert _contents(by_batch) == _contents(by_row)


# -- the first faulty registration wins ----------------------------------

def _unknown_center(i):
    return candidate(f"C{i}", center="XXC01")


def _wrong_country(i):
    return candidate(f"C{i}", country="DE", center="BEC01")


def _missing_frequency(i):
    # the fixture's antigen table has AX codes on locus A, its frequency
    # table does not
    return replace(candidate(f"C{i}"), hla=HlaTyping(
        {"A": (f"AX{i}", "A1"), "B": ("B5", "B7"), "DR": ("DR1", "DR4")}))


def _duplicate(i):
    return candidate("C0")


def _after_window(i):
    # never listed, so its unknown center is never looked up
    return candidate(f"C{i}", center="XXC01",
                     reg_offset=END_DAY - START_DAY + 1)


OUT_OF_ORDER = "out of order"  # a fault of the status stream of row i


@pytest.mark.parametrize("faults, message", [
    ({3: _unknown_center, 5: _duplicate},
     "registration 'C3': unknown center code 'XXC01'"),
    ({3: _duplicate, 5: _unknown_center}, "duplicate registration id 'C0'"),
    ({2: _missing_frequency, 4: _wrong_country},
     "candidate antigen 'AX2' missing from frequency table at locus A"),
    ({2: _wrong_country, 4: _missing_frequency},
     "registration 'C2': country 'DE' is not the country of its center "
     "'BEC01' (BE)"),
    ({2: _unknown_center, 4: OUT_OF_ORDER},
     "registration 'C2': unknown center code 'XXC01'"),
    ({2: OUT_OF_ORDER, 4: _unknown_center},
     "status updates out of order after sorting"),
    ({1: _after_window, 4: _duplicate}, "duplicate registration id 'C0'"),
    ({1: _missing_frequency, 3: _missing_frequency},
     "candidate antigen 'AX1' missing from frequency table at locus A"),
], ids=["center-duplicate", "duplicate-center", "frequency-country",
        "country-frequency", "center-order", "order-center",
        "skipped-duplicate", "frequency-frequency"])
def test_initialize_reports_the_first_faulty_registration(faults, message):
    regs = [candidate(f"C{i}") if faults.get(i) in (None, OUT_OF_ORDER)
            else faults[i](i) for i in range(7)]
    updates = terminal_updates(regs)
    for i, fault in faults.items():
        if fault == OUT_OF_ORDER:
            updates[f"C{i}"] = [StatusUpdate(f"C{i}", END_DAY + 9, "URG", "R"),
                                StatusUpdate(f"C{i}", START_DAY + 9, "URG",
                                             "NT")]
    with pytest.raises(InputError) as caught:
        initialize(make_inputs(regs, [], updates=updates))
    assert str(caught.value) == message
