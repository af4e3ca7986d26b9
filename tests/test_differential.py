"""Whole runs of the engine against the reference rules (differential
testing, McKeeman 1998).

Each case runs one small synthetic population under one seed and policy
twice: once as the package runs it, and once with the engine's match-list
function replaced by the record-at-a-time rules of ``tests/oracle``.  At
every donor the replacement rebuilds each candidate's state from the
store's columns, ranks the candidates with ``build_match_list`` and hands
the list back as ``MatchArrays``.  Both runs must build the same list for
every donor, transplant the same candidates in the same order and end in
the same states.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from datetime import date
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from etkasim import engine
from etkasim.batch import run_once
from etkasim.common import to_days
from etkasim.entities import (ETKAS, GEOGRAPHY_CLASSES, URGENCY_CODES,
                              AllocationProfile)
from etkasim.fastmatch import _NO_DATE, POINT_COMPONENTS, PRE, MatchArrays
from etkasim.io import load_inputs, load_settings
from etkasim.policy import (AGE_FILTER_CURVES, AgeFilterConfig, PolicyConfig,
                            SlidingScaleConfig, validated)
from etkasim.synthetic import generate_population

from oracle.hla import compute_vpra, p_leq1mm_empirical
from oracle.matchlist import (CandidateState, MatchPointContext,
                              build_match_list, candidate_age)

POLICIES = {
    "baseline": PolicyConfig(),
    "b2dr": PolicyConfig().with_hla_betas(0.0, -66.7, -133.3),
    "sliding_scale": PolicyConfig(sliding_scale=SlidingScaleConfig(
        enabled=True, max_points=133.0, base=5.0, hmpp_replaces_mmp=True)),
    "strict_age_filter": PolicyConfig(age_filter=AgeFilterConfig(
        enabled=True, curve=tuple(AGE_FILTER_CURVES["strict"]))),
}
POP_SEEDS = (5, 17)
CHOICES = (None, "ETKAS", "ESP")  # the store's ``choice`` codes


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """The inputs of a small population by its seed: every program, country
    and urgency shows up, and their runs transplant, discard, and re-list.
    (A lookup, not the inputs, so that a failing example prints briefly.)"""
    out = {}
    for pop_seed in POP_SEEDS:
        path = generate_population(
            tmp_path_factory.mktemp(f"pop{pop_seed}"), n_candidates=400,
            n_donors=90, start=date(2021, 4, 1), end=date(2022, 1, 1),
            seed=pop_seed, panel_size=300, unplaced_mode="force")
        out[pop_seed] = load_inputs(load_settings(path))

    def inputs_of(pop_seed: int):
        return out[pop_seed]
    return inputs_of


def _perturbed(inputs, tweak: int):
    """The population with more of what the synthetic one rarely has: KAOO
    and high-urgency candidates; candidates whose screening goes stale
    because every other refresh is dropped; candidates who turn 18 in the
    window, with donors under 18 to meet; and candidates given the typing
    of a donor of their blood group, so that the pair has no mismatch."""
    rng = np.random.default_rng(tweak)
    registrations = [replace(reg, kaoo=True) if rng.random() < 0.1 else reg
                     for reg in inputs.registrations]
    updates = {cid: [u._replace(value="HU")
                     if (u.kind, u.value) == ("URG", "T")
                     and rng.random() < 0.05 else u for u in stream]
               for cid, stream in inputs.updates.items()}
    screenings = {cid: days[::2] if rng.random() < 0.3 else days
                  for cid, days in inputs.screenings.items()}

    start = to_days(inputs.settings.window_start)
    end = to_days(inputs.settings.window_end)
    donors = [replace(d, age=int(rng.integers(1, 18)))
              if rng.random() < 0.15 else d for d in inputs.donors]
    registrations = [
        # whole years of age reach 18 on the day 18 * 365.25 days, rounded
        # up, after birth
        replace(reg, birth_day=int(rng.integers(start, end + 1)) - 6575)
        if rng.random() < 0.1 else reg for reg in registrations]
    of_group: dict[str, list[int]] = {}
    for i, reg in enumerate(registrations):
        of_group.setdefault(reg.blood_group, []).append(i)
    for donor in donors:
        group = of_group.get(donor.blood_group)
        if group and rng.random() < 0.2:
            for i in rng.choice(group, size=min(3, len(group)),
                                replace=False).tolist():
                registrations[i] = replace(registrations[i], hla=donor.hla)
    return replace(inputs, registrations=registrations, updates=updates,
                   screenings=screenings, donors=donors)


def _day(value) -> int | None:
    return None if value == _NO_DATE else int(value)


@lru_cache(maxsize=None)
def _patterns(patmask: int) -> frozenset[tuple[int, int, int]]:
    """The (A, B, DR) mismatch patterns of a ``patmask`` column value."""
    return frozenset((bit // 9, bit // 3 % 3, bit % 3) for bit in range(27)
                     if patmask >> bit & 1)


class ReferenceLists:
    """``build_match_arrays`` by the reference rules, for one run's inputs."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.ctx = MatchPointContext(inputs.antigen_table, inputs.centers,
                                     inputs.bg_freqs, inputs.freq_table)
        # unacc words -> (unacceptable antigens, their vPRA)
        self._unacceptables: dict[tuple[int, ...],
                                  tuple[frozenset[str], float]] = {}
        self._f1mm: dict[tuple, float] = {}  # typing -> p<=1mm on the panel
        self._f1mm_rows = 0

    def states(self, store) -> list[CandidateState]:
        """The store's rows as candidate states: the registration for what
        never changes, the columns for what status updates change."""
        n = store.n
        col = {name: getattr(store, name)[:n].tolist() for name in (
            "status", "patmask", "screening", "dial_start", "opt_in",
            "choice", "prof_min_age", "prof_max_age", "prof_dcd", "prof_ext",
            "prof_hcv", "prof_hbs")}
        profiles = zip(col["prof_min_age"], col["prof_max_age"],
                       col["prof_dcd"], col["prof_ext"], col["prof_hcv"],
                       col["prof_hbs"])
        out = []
        for row, (words, profile) in enumerate(zip(store.unacc[:n].tolist(),
                                                   profiles)):
            words = tuple(words)
            if words not in self._unacceptables:
                unacc = frozenset(store.hla_index.words.codes(
                    np.array(words, dtype=np.uint64)))
                self._unacceptables[words] = unacc, compute_vpra(
                    unacc, self.inputs.panel, self.inputs.antigen_table)
            unacc, vpra = self._unacceptables[words]
            status = col["status"][row]
            out.append(CandidateState(
                registration=store.registrations[row],
                urgency="PRE" if status == PRE else URGENCY_CODES[status],
                unacceptables=unacc,
                profile=AllocationProfile(*profile),
                mm_criteria=_patterns(col["patmask"][row]),
                last_screening_day=_day(col["screening"][row]),
                dialysis_start_day=_day(col["dial_start"][row]),
                esp_extended_opt_in=col["opt_in"][row],
                german_program_choice=CHOICES[col["choice"][row]],
                vpra=vpra))
        return out

    def __call__(self, store, donor, donor_hla, ledger, cfg, now_day):
        # keeps the store's derived columns current, as
        # ``build_match_arrays`` does; the ranking below reads none of them
        store.finalize_derived_values()
        states = self.states(store)
        if cfg.sliding_scale.enabled:
            # the panel fraction with <= 1 mismatch of each new typing
            for reg in store.registrations[self._f1mm_rows:]:
                if reg.hla is None:
                    continue
                key = tuple(sorted(reg.hla.antigens.items()))
                if key not in self._f1mm:
                    self._f1mm[key] = p_leq1mm_empirical(
                        self.inputs.antigen_table, reg.hla, frozenset(),
                        self.inputs.panel)
                self.ctx.set_f_leq1mm_empirical(reg.id, self._f1mm[key])
            self._f1mm_rows = store.n
        ml = build_match_list(donor, states, ledger, cfg, self.ctx, now_day)
        recs = ml.records
        n_tiers = len(cfg.esp_tier_table(
            self.inputs.centers.get(donor.center).country))
        by_id = {s.registration.id: s for s in states}

        def column(values, dtype):
            return np.array(list(values), dtype=dtype)

        def tier(r):
            level, sub = r.tier
            return (level if ml.program == ETKAS else n_tiers + level) * 4 + sub

        return MatchArrays(
            donor=donor, program=ml.program,
            rows=column((store.row_of[r.candidate_id] for r in recs),
                        np.int64),
            filtered=column((r.filtered_visible for r in recs), bool),
            tier=column(map(tier, recs), np.int16),
            total=column((r.total for r in recs), np.float64),
            mm_a=column((r.mm.mm_a for r in recs), np.int8),
            mm_b=column((r.mm.mm_b for r in recs), np.int8),
            mm_dr=column((r.mm.mm_dr for r in recs), np.int8),
            geo_idx=column((GEOGRAPHY_CLASSES.index(r.geography)
                            for r in recs), np.int8),
            dial_days=column((r.dialysis_days for r in recs), np.int64),
            comp={name: column((getattr(r.points, name) for r in recs),
                               np.float64)
                  for name in POINT_COMPONENTS},
            age=column((candidate_age(by_id[r.candidate_id], now_day)
                        for r in recs), np.int32))


EXACT_COLUMNS = ("filtered", "tier", "mm_a", "mm_b", "mm_dr", "geo_idx",
                 "dial_days", "age")


def _logged(build_lists, log: list):
    """``build_lists``, appending each list it returns, with its ids, to
    ``log``."""
    def logged(store, *args):
        arrays = build_lists(store, *args)
        log.append((arrays, [store.ids[row] for row in arrays.rows.tolist()]))
        return arrays
    return logged


def _run(inputs, seed, build_lists):
    """One run with ``build_lists`` in the engine, and the lists it built."""
    log: list = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "build_match_arrays",
                      _logged(build_lists, log))
        return run_once(inputs, seed), log


def _split(record):
    """A transplant record's exact fields, and its point fields."""
    exact = replace(record, total_points=0.0, vpra=0.0, comp={})
    points = [record.total_points, record.vpra, *record.comp.values()]
    return astuple(exact), points


# a case takes seconds, and its four draws leave little to shrink
@settings(max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(pop_seed=st.sampled_from(POP_SEEDS),
       tweak=st.none() | st.integers(0, 2 ** 32 - 1),
       seed=st.integers(1, 10_000), policy=st.sampled_from(sorted(POLICIES)))
def test_engine_runs_as_the_reference_rules(population, pop_seed, tweak,
                                            seed, policy):
    inputs = population(pop_seed)
    if tweak is not None:
        inputs = _perturbed(inputs, tweak)
    inputs = inputs.with_policy(validated(POLICIES[policy]))
    engine_run, engine_lists = _run(inputs, seed, engine.build_match_arrays)
    oracle_run, oracle_lists = _run(inputs, seed, ReferenceLists(inputs))

    # donor by donor, up to the first list that differs
    assert len(engine_lists) == len(oracle_lists)
    for (ours, ids), (ref, ref_ids) in zip(engine_lists, oracle_lists):
        where = f"donor {ours.donor.id}"
        assert (ours.program, ids) == (ref.program, ref_ids), where
        for name in EXACT_COLUMNS:
            np.testing.assert_array_equal(getattr(ours, name),
                                          getattr(ref, name), f"{where} {name}")
        for name, got, want in (
                ("total", ours.total, ref.total),
                *((name, ours.comp[name], ref.comp[name])
                  for name in POINT_COMPONENTS)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                       err_msg=f"{where} {name}")

    assert engine_run.transplants, "the case transplants no one"
    assert len(engine_run.transplants) == len(oracle_run.transplants)
    for ours, ref in zip(engine_run.transplants, oracle_run.transplants):
        exact, points = _split(ours)
        ref_exact, ref_points = _split(ref)
        assert exact == ref_exact
        np.testing.assert_allclose(points, ref_points, rtol=0, atol=1e-9)
    assert engine_run.final_states == oracle_run.final_states
    assert engine_run.counters == oracle_run.counters
