"""HlaIndex derives each distinct locus typing and each distinct set of
unacceptable antigens once.  Everything those memos feed (store columns,
panel layouts, donor layouts) must equal a derivation without them."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from etkasim.common import InputError, to_days
from etkasim.entities import StatusUpdate
from etkasim.fastmatch import CandidateStore, HlaIndex
from etkasim.hla import FrequencyTable, HlaTyping
from etkasim.io import load_inputs, load_settings
from etkasim.synthetic import generate_population

from oracle.hla import (MmpInputs, carried_codes, compute_mmp, compute_vpra,
                        is_homozygous, p_leq1mm_analytic, p_leq1mm_bit_matrix)

LOCI = ("A", "B", "DR")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("population")
    settings = generate_population(out, n_candidates=700, n_donors=150,
                                   start=date(2021, 4, 1),
                                   end=date(2022, 4, 1), seed=23,
                                   panel_size=500)
    return load_inputs(load_settings(settings))


def _store(inputs, index=None, freq_table=None) -> CandidateStore:
    return CandidateStore(index or HlaIndex(inputs.antigen_table),
                          inputs.centers, inputs.panel,
                          freq_table or inputs.freq_table, inputs.bg_freqs,
                          inputs.policy)


@pytest.fixture(scope="module")
def store(inputs):
    store = _store(inputs)
    for reg in inputs.registrations:
        store.extend([reg], [None])
    store.finalize_derived_values()
    return store


# -- memo-free derivations ---------------------------------------------------

def _words(table, codes) -> list[int]:
    """Bit i of the words is the i-th code of the table in sorted order."""
    ordered = sorted(table.codes())
    out = np.zeros(max(1, (len(ordered) + 63) // 64), dtype=np.uint64)
    for code in codes:
        w, b = divmod(ordered.index(code), 64)
        out[w] |= np.uint64(1) << np.uint64(b)
    return out.tolist()


def _locus_bits(index, typing: HlaTyping, locus: str) -> list[int]:
    return [1 << index.bits[locus].bit_of[c]
            for c in sorted(typing.normalized(index.table, locus))]


def test_candidate_columns(inputs, store):
    index, table = store.hla_index, inputs.antigen_table
    assert store.n == len(inputs.registrations)
    for row, reg in enumerate(inputs.registrations):
        typing = reg.hla
        masks = (store.mask_a, store.mask_b, store.mask_dr)
        for locus, column in zip(LOCI, masks):
            assert int(column[row]) == index.bits[locus].mask(
                typing.normalized(table, locus))
        homo = [is_homozygous(typing, locus) for locus in LOCI]
        assert (int(store.homo_level[row]), bool(store.homo_b[row]),
                bool(store.homo_dr[row])) == (sum(homo), homo[1], homo[2])
        assert store.unacc[row].tolist() == _words(table, reg.unacceptables)
        vpra = compute_vpra(reg.unacceptables, inputs.panel, table)
        assert store.vpra[row] == vpra
        p1mm = p_leq1mm_analytic(table, typing, inputs.freq_table)
        assert store.p1mm[row] == pytest.approx(p1mm, rel=1e-12)
        f_bg = inputs.bg_freqs.freq_of(reg.blood_group)
        mmp = compute_mmp(MmpInputs(f_bg, vpra, p1mm))
        assert store.immun_pts[row] == pytest.approx(
            inputs.policy.mmp_weight * mmp, rel=1e-9, abs=1e-12)


def test_population_repeats_locus_typings_and_unacceptable_sets(inputs,
                                                                store):
    regs = inputs.registrations
    distinct_loci = {(locus, reg.hla.antigens[locus])
                     for reg in regs for locus in LOCI}
    assert len(distinct_loci) < len(regs)
    unacceptables = [reg.unacceptables for reg in regs if reg.unacceptables]
    assert len(set(unacceptables)) < len(unacceptables)


def test_unacceptable_updates(inputs, store):
    table = inputs.antigen_table
    dup = store.copy()
    codes = sorted(table.codes())
    rng = np.random.default_rng(4)
    sets = [frozenset(rng.choice(codes, int(rng.integers(0, 4)),
                                 replace=False).tolist()) for _ in range(12)]
    day = to_days(date(2021, 6, 1))
    chosen = {}
    for row in range(0, dup.n, 3):
        unacc = sets[int(rng.integers(0, len(sets)))]
        chosen[row] = unacc
        dup.apply_update(row, StatusUpdate(dup.ids[row], day, "UNA", unacc))
    dup.finalize_derived_values()
    for row, unacc in chosen.items():
        assert dup.unacc[row].tolist() == _words(table, unacc)
        assert dup.vpra[row] == compute_vpra(unacc, inputs.panel, table)
    # the template store is untouched
    for row, reg in enumerate(inputs.registrations):
        assert store.unacc[row].tolist() == _words(table, reg.unacceptables)


def test_derivation_memory_does_not_grow_with_pending_rows(inputs, store):
    # a run's start derives every row at once: eight copies of the
    # population, 5,600 pending rows, must take no more temporary memory
    # than a fixed bound (one rows x 64 matrix per locus would take 1.5 KB
    # a row), and each copy must derive as the population alone does
    copies = 8
    big = _store(inputs)
    for k in range(copies):
        for reg in inputs.registrations:
            big.extend([replace(reg, id=f"{reg.id}.{k}")], [None])
    assert big.n >= 5000
    tracemalloc.start()
    try:
        big.finalize_derived_values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    n = store.n
    for name in ("p1mm", "vpra", "immun_pts"):
        column = getattr(store, name)[:n]
        assert np.array_equal(getattr(big, name)[:big.n],
                              np.tile(column, copies)), name


def _freq_by_bit(index, freq_table) -> dict[str, np.ndarray]:
    """Each locus's antigen frequencies by bit, 0.0 for an unused bit."""
    out = {}
    for locus in LOCI:
        out[locus] = np.zeros(64)
        for code, f in freq_table.locus(locus).items():
            if code in index.bits[locus].bit_of:
                out[locus][index.bits[locus].bit_of[code]] = f
    return out


@pytest.mark.parametrize("rows, antigens", [
    (1, (1,)), (1, (2,)), (2, (1,)), (2, (2,)), (2, (1, 2)), (600, (1, 2))])
def test_p1mm_from_bit_positions_equals_bit_matrix(inputs, rows, antigens):
    """p<=1mm read from each row's one or two bit positions per locus is
    bit for bit the rows x 64 matrix product."""
    store = _store(inputs)
    rng = np.random.default_rng(rows)
    masks = {}
    for locus, column in zip(LOCI, (store.mask_a, store.mask_b,
                                    store.mask_dr)):
        n_bits = len(store.hla_index.bits[locus].bit_of)
        assert n_bits >= 2
        # random bits, the locus's lowest and highest among them
        first = rng.integers(0, n_bits, rows)
        first[:2] = [0, n_bits - 1][:rows]
        second = (first + rng.integers(1, n_bits, rows)) % n_bits
        two = np.resize(np.array(antigens) == 2, rows)
        mask = np.uint64(1) << first.astype(np.uint64)
        mask[two] |= np.uint64(1) << second[two].astype(np.uint64)
        masks[locus] = mask
        column[:rows] = mask
    store._p1mm_batch(np.arange(rows))
    want = p_leq1mm_bit_matrix(
        _freq_by_bit(store.hla_index, inputs.freq_table), masks)
    assert store.p1mm[:rows].tobytes() == want.tobytes()


def test_population_p1mm_equals_bit_matrix(inputs, store):
    masks = {locus: column[:store.n] for locus, column in zip(
        LOCI, (store.mask_a, store.mask_b, store.mask_dr))}
    want = p_leq1mm_bit_matrix(
        _freq_by_bit(store.hla_index, inputs.freq_table), masks)
    assert store.p1mm[:store.n].tobytes() == want.tobytes()


def test_unknown_unacceptable_rejected_every_time(inputs, store):
    dup = store.copy()
    update = StatusUpdate(dup.ids[0], to_days(date(2021, 6, 1)), "UNA",
                          frozenset({"A1", "Z99"}))
    for _ in range(2):
        with pytest.raises(InputError, match="unacceptable antigen 'Z99'"):
            dup.apply_update(0, update)


def test_panel_layouts(inputs, store):
    table, index = inputs.antigen_table, store.hla_index
    ordered = sorted(table.codes())
    panel = list(inputs.panel)
    carriers = store._panel_carriers
    for p, typing in enumerate(panel):
        carried = carried_codes(table, typing)
        bits = [bool((int(carriers[c, p // 64]) >> (p % 64)) & 1)
                for c in range(len(ordered))]
        assert bits == [code in carried for code in ordered]
    # no bit beyond the panel's last donor
    assert all(int(carriers[c, -1]) >> (len(panel) % 64 or 64) == 0
               for c in range(len(ordered)))
    for locus in LOCI:
        b1, b2 = store._panel_locus_bits[locus]
        expected = [_locus_bits(index, t, locus) for t in panel]
        assert b1.tolist() == [bits[0] for bits in expected]
        assert b2.tolist() == [bits[-1] for bits in expected]


def test_donor_layouts(inputs, store):
    table, index = inputs.antigen_table, store.hla_index
    for donor in inputs.donors:
        got = index.donor_hla(donor.hla)
        words = _words(table, carried_codes(table, donor.hla))
        assert [(w, int(word)) for w, word in got.occupied] == [
            (w, word) for w, word in enumerate(words) if word]
        assert got.homozygous == all(is_homozygous(donor.hla, locus)
                                     for locus in LOCI)
        assert {locus: list(bits) for locus, bits in got.locus_bits.items()} \
            == {locus: _locus_bits(index, donor.hla, locus) for locus in LOCI}


def test_frequency_check_raises_at_each_offending_row(inputs):
    reg = next(r for r in inputs.registrations if "A" in r.hla.antigens)
    missing = reg.hla.normalized(inputs.antigen_table, "A")
    freqs = {locus: {code: 1.0 for code in inputs.freq_table.locus(locus)
                     if code not in missing}
             for locus in LOCI}
    other = next(r for r in inputs.registrations
                 if not reg.hla.normalized(inputs.antigen_table, "A")
                 & r.hla.normalized(inputs.antigen_table, "A"))
    index = HlaIndex(inputs.antigen_table)
    for _ in range(2):  # a second store sharing the index checks again
        store = _store(inputs, index, FrequencyTable(freqs, path=None))
        store.extend([other], [None])
        for n in range(2):
            with pytest.raises(InputError,
                               match="missing from frequency table at "
                                     "locus A"):
                store.extend([replace(reg, id=f"{reg.id}.{n}")], [None])
