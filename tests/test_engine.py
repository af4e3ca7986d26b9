"""Event engine: initialization, dispatch, conservation, replay, batching."""

from __future__ import annotations

from dataclasses import replace as dc_replace
from datetime import date, timedelta

import numpy as np
import pytest

from etkasim.balances import BalanceEvent
from etkasim.batch import run_batch, run_once
from etkasim.common import InputError, age_years, to_days
from etkasim.engine import (ArrayOffers, Draws, initialize, run,
                            store_unacceptables, verify_replay)
from etkasim.entities import (StatusUpdate, expand_mm_patterns,
                               parse_payload, parse_profile)
from etkasim.fastmatch import (_COLUMNS, ACTIVE_CODES, STATUS_NAMES,
                               build_match_arrays)
from etkasim.io import data_path
from etkasim.offering import (AcceptanceModels, donor_features,
                              dual_features, run_allocation)
from etkasim.posttransplant import (InvalidScaleError, PoolEntry,
                                    RelistingPool, WeibullModel)
from etkasim import posttransplant, reporting

from engine_fixture import (END_DAY, START_DAY, WINDOW_END, WINDOW_START,
                            always_relist_curves, candidate,
                            constant_logistic, donor, fresh_screenings,
                            make_inputs, quick_failure_weibull,
                            screening_days, summary_row, terminal_updates,
                            traced, watch_conservation)
from oracle.offering import OfferRecord, SequenceOffers


class TestInitialization:
    def test_empty_streams_terminate_immediately(self):
        inputs = make_inputs([], [])
        state = initialize(inputs, seed=1)
        assert state.fes == []
        output = run(state)
        assert output.transplants == []
        assert output.counters["wl.final_active"] == 0

    def test_pre_window_updates_fold_into_state(self):
        reg = candidate("C1")
        updates = {"C1": [
            StatusUpdate("C1", START_DAY - 100, "URG", "NT"),
            StatusUpdate("C1", END_DAY + 30, "URG", "R"),
        ]}
        screenings = {"C1": screening_days(START_DAY - 10)}
        state = initialize(make_inputs([reg], [], updates=updates,
                                       screenings=screenings), seed=1)
        row = state.store.row_of["C1"]
        assert STATUS_NAMES[state.store.status[row]] == "NT"
        # exactly one pending patient event, timed at the first in-window one
        patient_events = [e for e in state.fes if e[3] == "patient"]
        assert len(patient_events) == 1

    def test_terminal_before_window_excluded(self):
        reg = candidate("C1")
        updates = {"C1": [
            StatusUpdate("C1", START_DAY - 5, "URG", "R"),
        ]}
        state = initialize(make_inputs([reg], [], updates=updates), seed=1)
        assert "C1" not in state.store.row_of

    def test_repeat_listing_with_in_window_transplant_excluded(self):
        reg = candidate("C1", prior_transplant=True,
                        previous_transplant_day=START_DAY + 50)
        kept = candidate("C2", prior_transplant=True,
                         previous_transplant_day=START_DAY - 400)
        inputs = make_inputs([reg, kept], [])
        state = initialize(inputs, seed=1)
        assert "C1" not in state.store.row_of
        assert "C2" in state.store.row_of

    def test_overlapping_registrations_rejected(self):
        a = candidate("C1", reg_offset=-400)
        b = candidate("C1b", patient_id="C1", reg_offset=-100)
        updates = terminal_updates([a, b])
        # a's stream terminates long after b starts -> overlap
        inputs = make_inputs([a, b], [], updates=updates)
        with pytest.raises(InputError, match="overlap"):
            initialize(inputs, seed=1)

    def test_open_spell_overlaps_a_later_registration(self):
        # a's stream never ends, so a is still listed when b starts
        a = candidate("C1", reg_offset=-400)
        b = candidate("C1b", patient_id="C1", reg_offset=-100)
        updates = {"C1": [StatusUpdate("C1", START_DAY + 10, "URG", "NT")],
                   **terminal_updates([b])}
        inputs = make_inputs([a, b], [], updates=updates)
        with pytest.raises(InputError, match="overlap"):
            initialize(inputs, seed=1)

    def test_window_bounds(self):
        # an update on the window start stays pending (only earlier ones
        # fold); a balance event on the start folds (events up to and
        # including it do); donors and balance events on either bound are
        # scheduled
        reg = candidate("C1", urgency="T")
        updates = {"C1": [StatusUpdate("C1", START_DAY, "URG", "NT"),
                          StatusUpdate("C1", END_DAY + 10, "URG", "R")]}
        events = [BalanceEvent(START_DAY, "AT", "DE", 40, "AM"),
                  BalanceEvent(START_DAY + 1, "AT", "DE", 40, "AM"),
                  BalanceEvent(END_DAY, "AT", "DE", 40, "AM"),
                  BalanceEvent(END_DAY + 1, "AT", "DE", 40, "AM")]
        donors = [donor("D0", 0), donor("D1", END_DAY - START_DAY),
                  donor("D2", END_DAY - START_DAY + 1)]
        state = initialize(make_inputs([reg], donors, updates=updates,
                                       balance_events=events))
        store = state.store
        assert STATUS_NAMES[store.status[store.row_of["C1"]]] == "T"
        assert state.ledger.net_export("AT", "18-49") == 1
        assert sorted((e[0], e[3], e[4]) for e in state.fes) == [
            (START_DAY, "donor", (0,)),
            (START_DAY, "patient", (0, updates["C1"], 0)),
            (START_DAY + 1, "balance", (events[1],)),
            (END_DAY, "balance", (events[2],)), (END_DAY, "donor", (1,))]

    def test_manual_schedule_oracle(self):
        regs = [candidate("C1"), candidate("C2", reg_offset=30),
                candidate("C3")]
        donors = [donor("D1", 10), donor("D2", 200)]
        updates = {
            "C1": [StatusUpdate("C1", END_DAY + 10,
                                "URG", "R")],
            "C2": [StatusUpdate("C2", START_DAY + 30,
                                "URG", "T"),
                   StatusUpdate("C2", END_DAY + 10,
                                "URG", "R")],
            "C3": [StatusUpdate("C3", START_DAY - 3,
                                "URG", "NT"),
                   StatusUpdate("C3", START_DAY + 90,
                                "URG", "T"),
                   StatusUpdate("C3", END_DAY + 10,
                                "URG", "R")],
        }
        screenings = {"C1": screening_days(START_DAY + 5)}
        state = initialize(make_inputs(regs, donors, updates=updates,
                                       screenings=screenings), seed=1)
        got = sorted((e[0], e[3]) for e in state.fes)
        # C1's in-window refresh is a screening event, so its first pending
        # patient event is the removal after the window
        want = sorted([
            (to_days(WINDOW_START + timedelta(days=5)), "screening"),
            (to_days(WINDOW_END + timedelta(days=10)), "patient"),
            (to_days(WINDOW_START + timedelta(days=30)), "patient"),
            (to_days(WINDOW_START + timedelta(days=90)), "patient"),
            (to_days(WINDOW_START + timedelta(days=10)), "donor"),
            (to_days(WINDOW_START + timedelta(days=200)), "donor"),
        ])
        assert got == want
        # C3 folded to NT before the window
        store = state.store
        assert STATUS_NAMES[store.status[store.row_of["C3"]]] == "NT"


@pytest.mark.parametrize("kind, payload, fields", [
    ("URG", " HU ", {"initial_urgency": "HU"}),
    ("PRF", "min_age=18;accept_dcd=0",
     {"profile": parse_profile("min_age=18;accept_dcd=0")}),
    ("PRF", "", {"profile": None}),
    ("MMC", "**2 221", {"mm_criteria": expand_mm_patterns("**2 221")}),
    ("DIA", "2020-01-31", {"dialysis_start_day": to_days(date(2020, 1, 31))}),
    ("DIA", "", {"dialysis_start_day": None}),
    ("CHO", " esp", {"german_program_choice": "ESP"}),
    ("CHO", "ETKAS", {"german_program_choice": "ETKAS"}),
    ("CHO", "ext_opt_in", {"esp_extended_opt_in": True}),
])
def test_update_writes_what_a_registration_sets(kind, payload, fields):
    # C1 gets the update; C2 is registered with its value from the start
    base = candidate("C1")
    regs = [base, dc_replace(base, id="C2", patient_id="C2", **fields)]
    store = initialize(make_inputs(regs, [])).store
    store.apply_update(0, StatusUpdate("C1", START_DAY, kind,
                                       parse_payload(kind, payload)))
    store.finalize_derived_values()
    for name, *_ in _COLUMNS:
        np.testing.assert_array_equal(getattr(store, name)[0],
                                      getattr(store, name)[1], err_msg=name)


class TestRun:
    def test_single_donor_single_candidate_transplants(self):
        inputs = make_inputs([candidate("C1")], [donor("D1", 10, kidneys=1)])
        output = run(initialize(inputs, seed=1))
        assert len(output.transplants) == 1
        rec = output.transplants[0]
        assert rec.candidate_id == "C1" and rec.donor_id == "D1"
        assert rec.mechanism == "standard"
        final = dict((cid, status) for cid, status, _ in output.final_states)
        assert final["C1"] == "FU"

    def test_donor_after_window_end_ignored(self):
        inputs = make_inputs([candidate("C1")],
                             [donor("D1", 10_000, kidneys=1)])
        state = initialize(inputs, seed=1)
        assert all(e[3] != "donor" for e in state.fes)
        output = run(state)
        assert output.transplants == []

    def test_no_offers_before_registration_date(self):
        # candidate registers on day 100; a day-30 donor must not see them
        reg = candidate("C1", reg_offset=100)
        updates = {"C1": [
            StatusUpdate("C1", START_DAY + 100, "URG", "T"),
            StatusUpdate("C1", END_DAY + 10, "URG", "R"),
        ]}
        inputs = make_inputs([reg], [donor("D1", 30, kidneys=1),
                                     donor("D2", 150, kidneys=1)],
                             updates=updates,
                             screenings={"C1": screening_days(START_DAY
                                                              + 100)})
        state = initialize(inputs, seed=1)
        store = state.store
        assert STATUS_NAMES[store.status[store.row_of["C1"]]] == "PRE"
        output = run(state)
        assert [t.donor_id for t in output.transplants] == ["D2"]
        assert output.counters["kidneys.discarded"] == 1

    def test_no_offers_while_nt(self):
        # C1 is NT when the donor arrives, returns to T afterwards
        reg = candidate("C1")
        updates = {"C1": [
            StatusUpdate("C1", START_DAY + 1, "URG", "NT"),
            StatusUpdate("C1", START_DAY + 60, "URG", "T"),
            StatusUpdate("C1", END_DAY + 10, "URG", "R"),
        ]}
        inputs = make_inputs([reg], [donor("D1", 30, kidneys=1)],
                             updates=updates)
        output = run(initialize(inputs, seed=1))
        assert output.transplants == []
        assert output.counters["kidneys.discarded"] == 1

    def test_transplanted_candidates_pending_updates_cancelled(self):
        reg = candidate("C1")
        updates = {"C1": [
            StatusUpdate("C1", START_DAY + 60, "URG", "NT"),
            StatusUpdate("C1", START_DAY + 90, "URG", "D"),
        ]}
        inputs = make_inputs([reg], [donor("D1", 10, kidneys=1)],
                             updates=updates)
        output = run(initialize(inputs, seed=1))
        final = dict((cid, status) for cid, status, _ in output.final_states)
        assert final["C1"] == "FU"
        assert output.counters["wl.deaths"] == 0

    def test_cross_border_transplant_updates_ledger(self):
        regs = [candidate("C1", country="DE", center="DEC01")]
        inputs = make_inputs(regs, [donor("D1", 10, kidneys=1)])
        output = run(initialize(inputs, seed=1))
        assert len(output.transplants) == 1
        assert output.ledger.net_export("BE", "18-49") == 1
        assert output.ledger.net_export("DE", "18-49") == -1

    def test_domestic_transplant_leaves_ledger_alone(self):
        regs = [candidate("C1", country="BE", center="BEC01")]
        inputs = make_inputs(regs, [donor("D1", 10, kidneys=1)])
        output = run(initialize(inputs, seed=1))
        assert all(v == 0 for v in output.ledger.snapshot().values())

    def test_balance_events_fold_and_schedule(self):
        history = BalanceEvent(START_DAY - 10,
                               "AT", "DE", 40, "AM")
        in_window = BalanceEvent(START_DAY + 10,
                                 "AT", "DE", 40, "AM")
        after = BalanceEvent(END_DAY + 10,
                             "AT", "DE", 40, "AM")
        inputs = make_inputs([], [], balance_events=[history, in_window,
                                                     after])
        state = initialize(inputs, seed=1)
        assert state.ledger.net_export("AT", "18-49") == 1
        output = run(state)
        assert output.ledger.net_export("AT", "18-49") == 2

    def test_esp_program_for_old_donors(self):
        regs = [candidate("C1", age=70.0, bg="O"),
                candidate("C2", age=50.0, bg="O")]
        inputs = make_inputs(regs, [donor("D1", 10, age=70, bg="O",
                                          kidneys=1)])
        output = run(initialize(inputs, seed=1))
        assert len(output.transplants) == 1
        assert output.transplants[0].program == "ESP"
        assert output.transplants[0].candidate_id == "C1"


class TestConservation:
    def _run(self, seed):
        return run(self._state(seed))

    def _state(self, seed, two_spells=False):
        rng = np.random.default_rng(seed)
        regs = []
        for i in range(60):
            regs.append(candidate(
                f"C{i:02d}",
                country=("BE" if i % 3 else "DE"),
                center=("BEC01" if i % 3 else "DEC01"),
                bg=("A" if i % 4 else "O"),
                age=float(rng.uniform(10, 80)),
                mm=[(0, 0, 0), (1, 1, 1), (1, 0, 1)][i % 3],
                dialysis_days=int(rng.integers(0, 3000))))
        donors = [donor(f"D{j:02d}", int(rng.integers(1, 300)),
                        age=int(rng.uniform(20, 80)),
                        bg=("A" if j % 4 else "O"),
                        kidneys=2 if j % 3 else 1)
                  for j in range(20)]
        updates = screenings = None
        if two_spells:
            # one patient listed twice: removed early in the window, then
            # registered again, listed and dead before its end
            regs += [candidate("P1", reg_offset=-300),
                     candidate("P1.2", patient_id="P1", reg_offset=120)]
            updates = terminal_updates(regs)
            updates["P1"] = [StatusUpdate("P1", START_DAY + 60, "URG", "R")]
            updates["P1.2"] = [
                StatusUpdate("P1.2", START_DAY + 120, "URG", "T"),
                StatusUpdate("P1.2", START_DAY + 250, "URG", "D")]
            screenings = fresh_screenings(regs)
        inputs = make_inputs(regs, donors, updates=updates,
                             screenings=screenings, center_p=0.8,
                             patient_p=0.5,
                             weibull=quick_failure_weibull(200.0),
                             curves=always_relist_curves(0.5))
        return initialize(inputs, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kidney_accounting_discard_mode(self, seed):
        output = self._run(seed)
        c = output.counters
        assert (c["kidneys.transplanted"] + c["kidneys.discarded"]
                == c["kidneys.available"])

    @pytest.mark.parametrize("seed", [4, 5])
    def test_ledger_conservation_every_event(self, seed, monkeypatch):
        failures = watch_conservation(monkeypatch)
        self._run(seed)
        assert failures == []

    @pytest.mark.parametrize("seed", [1, 6])
    def test_replay_reproduces_final_state(self, seed):
        state = self._state(seed, two_spells=True)
        output = run(state)
        assert verify_replay(output) == []
        # the counters the status changes book agree with the statuses: a
        # listing per id that is ever active, a removal or a death per
        # logged R or D, and the final active rows
        active = {STATUS_NAMES[code] for code in ACTIVE_CODES}
        logged = [event[1:3] for event in output.event_log
                  if event[0] == "status"]
        listed = {cid for cid, (code, _) in output.init_statuses.items()
                  if code in active}
        listed.update(cid for cid, code in logged if code in active)
        # P1.2 lists unless the run transplanted P1 before it
        transplanted = {t.candidate_id for t in output.transplants}
        assert output.init_statuses["P1.2"][0] == "PRE"
        assert ("P1.2" in listed) == ("P1" not in transplanted)
        c = output.counters
        assert c["wl.listings"] == len(listed)
        assert c["wl.removals"] == sum(code == "R" for _, code in logged) > 0
        assert c["wl.deaths"] == sum(code == "D" for _, code in logged) > 0
        assert c["wl.deaths"] == sum(
            value for name, value in c.items()
            if name.startswith("country.") and name.endswith(".wl_deaths"))
        assert c["wl.final_active"] == sum(
            code in active for _, code, _ in output.final_states)
        # the transplant step reads each value once: a re-listing's row and
        # registration carry the day its event is logged, and a recipient's
        # age is their age on the transplant day
        store = state.store
        relists = [event[1:] for event in output.event_log
                   if event[0] == "relist"]
        assert relists
        for cand_id, day in relists:
            row = store.row_of[cand_id]
            assert int(store.reg_days[row]) == day
            assert store.registrations[row].registration_day == day
        for t in output.transplants:
            reg = store.registrations[store.row_of[t.candidate_id]]
            assert t.cand_age == age_years(t.when_days, reg.birth_day)

    def test_candidates_transplanted_at_most_once(self):
        output = self._run(7)
        ids = [t.candidate_id for t in output.transplants]
        assert len(ids) == len(set(ids))

    def test_reconciliation(self):
        output = self._run(8)
        stats = reporting.stats_from_output(output)
        assert reporting.reconciliation_problems(stats) == []


class TestOneListedSpell:
    """Once the run transplants a patient, only its simulated re-listing
    lists them again: a later input registration never lists."""

    def _output(self, seed):
        # P is transplanted on day 10, so its input removal on day 200 does
        # not apply; its second registration P.2 would be listed on days
        # 250-300, while the re-listing P.r1 is; P.r1's drawn failure falls
        # after day 300 under both seeds used
        regs = [candidate("P"),
                candidate("P.2", patient_id="P", reg_offset=250)]
        updates = {"P": [StatusUpdate("P", START_DAY + 200, "URG", "R")],
                   "P.2": [StatusUpdate("P.2", START_DAY + 250, "URG", "T"),
                           StatusUpdate("P.2", START_DAY + 300, "URG", "R")]}
        inputs = make_inputs(regs, [donor("D1", 10, kidneys=1)],
                             updates=updates,
                             screenings=fresh_screenings(regs),
                             weibull=quick_failure_weibull(330.0),
                             curves=always_relist_curves(0.5))
        return run(initialize(inputs, seed=seed))

    @pytest.mark.parametrize("seed", [3, 5])
    def test_later_registration_never_lists(self, seed):
        output = self._output(seed)
        final = {cid: (code, day - START_DAY)
                 for cid, code, day in output.final_states}
        assert final["P"] == ("FU", 10)
        assert final["P.2"] == ("PRE", 0)
        assert [e for e in output.event_log
                if e[0] == "status" and e[1] == "P.2"] == []
        # the graft failure still ends the re-listing
        code, day = final["P.r1"]
        assert code == "D" and day > 300
        assert output.counters["wl.deaths"] == 1
        assert output.counters["wl.removals"] == 0
        assert verify_replay(output) == []

    def test_replay_reports_a_patient_listed_twice(self):
        output = self._output(3)
        log = output.event_log
        # P.2 listed while P.r1 is
        death = log.index(next(e for e in log if e[:3] == ("status", "P.r1",
                                                           "D")))
        log.insert(death, ("status", "P.2", "T", START_DAY + 250))
        problems = verify_replay(output)
        assert ("1 patients with two active rows on one day (e.g. ['P'])"
                in problems)


class TestRegionalReplay:
    """The replay check folds the Austrian regional sub-ledger too."""

    def _run(self):
        # Austrian candidates take only blood group A, Belgian ones only O,
        # so every transplant crosses the Austrian border
        regs = ([candidate(f"A{i}", country="AT", center="ATC01")
                 for i in range(4)]
                + [candidate(f"B{i}", bg="O") for i in range(4)])
        donors = [donor("D1", 10, kidneys=1),
                  donor("D2", 20, bg="O", country="AT", center="ATC01",
                        kidneys=1),
                  donor("D3", 30, kidneys=2)]
        events = [
            BalanceEvent(START_DAY - 10, "AT", "DE", 40,
                         "AM", donor_region="AT-R1"),
            BalanceEvent(START_DAY + 5, "AT", "AT", 40,
                         "AM", donor_region="AT-R1",
                         recipient_region="AT-R2"),
            BalanceEvent(START_DAY + 15, "DE", "AT", 70,
                         "ESP", recipient_region="AT-R1")]
        inputs = make_inputs(regs, donors, balance_events=events)
        return run(initialize(inputs, seed=1))

    def test_regional_ledger_replays(self):
        output = self._run()
        assert len(output.transplants) == 4
        regional = output.ledger.regional_snapshot()
        assert regional != output.init_ledger.regional_snapshot()
        assert regional[("AT-R2", "18-49")] == -1
        assert verify_replay(output) == []

    def test_unlogged_regional_move_is_reported(self):
        output = self._run()
        # a domestic transfer moves only the regional sub-ledger
        output.ledger.record_transfer(BalanceEvent(
            END_DAY, "AT", "AT", 40, "AM", donor_region="AT-R1",
            recipient_region="AT-R2"))
        assert verify_replay(output) == [
            "Austrian regional ledger mismatch after replay"]


class TestPostTransplantFlow:
    def test_relisting_created_and_activated(self):
        inputs = make_inputs(
            [candidate("C1", country="BE")],
            [donor("D1", 10, kidneys=1)],
            weibull=quick_failure_weibull(300.0),
            curves=always_relist_curves(0.4))
        output = run(initialize(inputs, seed=3))
        assert output.counters["wl.relists_created"] == 1
        relisted = [cid for cid, status, _ in output.final_states
                    if cid.startswith("C1.r")]
        assert relisted
        # the synthetic spell copies urgency statuses and ends R or D
        log_statuses = [e for e in output.event_log
                        if e[0] == "status" and e[1].startswith("C1.r")]
        assert log_statuses

    def test_non_positive_failure_scale_names_the_transplant(self):
        # the packaged model's creatinine coefficient (-50 per unit) drives
        # the scale far below zero for a creatinine of 400
        weibull = WeibullModel.from_file(
            data_path("weibull_post_transplant.csv"))
        inputs = make_inputs([candidate("C1")],
                             [donor("D1", 10, kidneys=1,
                                    last_creatinine=400.0)],
                             weibull=weibull)
        with pytest.raises(InvalidScaleError,
                           match=r"^transplant of donor 'D1' to candidate "
                                 r"'C1' on 2021-04-11: non-positive Weibull "
                                 r"scale -"):
            run(initialize(inputs, seed=1))

    def test_failure_event_kills_relisted_candidate(self):
        # failure lands ~200 days after transplant; pool streams terminate
        # at 1500+ days, so the death fires first
        inputs = make_inputs(
            [candidate("C1")], [donor("D1", 10, kidneys=1)],
            weibull=quick_failure_weibull(220.0),
            curves=always_relist_curves(0.3))
        output = run(initialize(inputs, seed=5))
        final = {cid: status for cid, status, _ in output.final_states}
        synth = [cid for cid in final if cid.startswith("C1.r")]
        assert synth
        assert final[synth[0]] == "D"
        assert output.counters["wl.deaths"] == 1

    def test_no_relisting_when_curve_is_flat(self):
        inputs = make_inputs(
            [candidate("C1")], [donor("D1", 10, kidneys=1)],
            weibull=quick_failure_weibull(300.0))
        output = run(initialize(inputs, seed=3))
        assert output.counters["wl.relists_created"] == 0

    def test_relisted_candidate_carries_de_novo_unacceptables(self):
        inputs = make_inputs(
            [candidate("C1", mm=(2, 2, 2))], [donor("D1", 10, kidneys=1)],
            weibull=quick_failure_weibull(400.0),
            curves=always_relist_curves(0.4))
        inputs.settings = inputs.settings.__class__(
            **{**inputs.settings.__dict__, "de_novo_immunization_p": 1.0})
        output = run(initialize(inputs, seed=3))
        state = initialize(inputs, seed=3)
        run(state)
        synth_rows = [row for row in range(state.store.n)
                      if state.store.ids[row].startswith("C1.r")]
        assert synth_rows
        from etkasim.engine import store_unacceptables
        unacc = store_unacceptables(state.store, synth_rows[0])
        # every mismatched donor antigen became unacceptable at p = 1
        assert {"A1", "A2", "B5", "B7", "DR1", "DR4"} <= unacc

    def test_relisting_matches_on_dialysis_time_after_dia_updates(
            self, monkeypatch):
        # registered without a dialysis start; a pre-window DIA update sets
        # one 700 days before the window, so the transplant on day 10 has
        # 710 dialysis days, and the pool matcher must see the same
        profiles = []
        real = posttransplant.select_pool_match

        def spy(profile, pool, draws):
            profiles.append(profile)
            return real(profile, pool, draws)

        monkeypatch.setattr(posttransplant, "select_pool_match", spy)
        reg = candidate("C1", dialysis_days=0)
        assert reg.dialysis_start_day is None
        updates = {"C1": [
            StatusUpdate("C1", START_DAY - 30, "DIA", START_DAY - 700),
            StatusUpdate("C1", END_DAY + 900, "URG", "R")]}
        out = run(initialize(make_inputs(
            [reg], [donor("D1", 10, kidneys=1)], updates=updates,
            screenings=fresh_screenings([reg]),
            weibull=quick_failure_weibull(600.0),
            curves=always_relist_curves(0.1)), seed=3))
        assert [t.dialysis_days for t in out.transplants] == [710]
        assert [p.dialysis_days_at_relist for p in profiles] == [710]


def _screening_run(refresh_offsets, donor_offsets, screening_offset=-400):
    """C1 with the given screening refreshes (days from the window start)
    and one single-kidney donor per offset; the donors C1 received."""
    reg = candidate("C1", screening_offset=screening_offset)
    stream = [StatusUpdate("C1", END_DAY + 10, "URG", "R")]
    screenings = {"C1": screening_days(*(START_DAY + d
                                         for d in refresh_offsets))}
    donors = [donor(f"D{d}", d, kidneys=1) for d in donor_offsets]
    inputs = make_inputs([reg], donors, updates={"C1": stream},
                         screenings=screenings)
    output = run(initialize(inputs, seed=1))
    return [t.donor_id for t in output.transplants]


class TestScreenings:
    """SCR refreshes are day arrays applied once per day, with the freshness
    semantics of one status update each."""

    def test_donor_on_refresh_day_sees_it(self):
        # stale from the registration; refreshed on day 50 only
        assert _screening_run([50], [49, 50]) == ["D50"]

    def test_stale_181_days_after_last_refresh(self):
        assert _screening_run([-100, 10], [190]) == ["D190"]
        assert _screening_run([-100, 10], [191]) == []

    def test_older_refresh_overwrites_registration_date(self):
        # the registration says day -10 (fresh); a pre-window refresh dated
        # day -300 comes later in the stream and wins
        assert _screening_run([], [10], screening_offset=-10) == ["D10"]
        assert _screening_run([-300], [10], screening_offset=-10) == []
        reg = candidate("C1", screening_offset=-10)
        stream = [StatusUpdate("C1", END_DAY + 10, "URG", "R")]
        state = initialize(make_inputs(
            [reg], [], updates={"C1": stream},
            screenings={"C1": screening_days(START_DAY - 300)}))
        assert state.store.screening[state.store.row_of["C1"]] == to_days(
            WINDOW_START - timedelta(days=300))

    def test_in_window_refreshes_are_one_event_per_day(self):
        regs = [candidate(f"C{i}") for i in range(3)]
        screenings = {reg.id: screening_days(
            *(START_DAY + d for d in (-30, -5, 20, 40 + i)))
            for i, reg in enumerate(regs)}
        state = initialize(make_inputs(regs, [], updates={},
                                       screenings=screenings))
        events = sorted((e[0], e[4][0].tolist()) for e in state.fes
                        if e[3] == "screening")
        day = to_days(WINDOW_START)
        assert events == [(day + 20, [0, 1, 2]), (day + 40, [0]),
                          (day + 41, [1]), (day + 42, [2])]
        # pre-window days are folded: the last one before the window
        assert state.store.screening[:3].tolist() == [day - 5] * 3

    def test_relisted_row_stays_eligible_through_status_refreshes(self):
        # the re-listing's stream is T at 0 and T again at 100 days; a donor
        # 250 days after re-listing finds it fresh only through the second
        # status's refresh
        entries = [PoolEntry(id=f"P{j}", country="BE", age_at_relist=50.0,
                             dialysis_days_at_relist=1000,
                             relisted_within_1y=True, r_days=60.0,
                             t_days=600.0,
                             status_updates=((0, "T"), (100, "T"),
                                             (1500, "R")))
                   for j in range(6)]
        window = (WINDOW_START, WINDOW_START + timedelta(days=1000))

        def run_with(donors):
            inputs = make_inputs(
                [candidate("C1", age=50.0)], donors,
                weibull=quick_failure_weibull(600.0),
                curves=always_relist_curves(0.1),
                pool=RelistingPool(entries), window=window)
            # no de novo antibodies against the second donor's antigens
            inputs.settings = dc_replace(inputs.settings,
                                         de_novo_immunization_p=0.0)
            return run(initialize(inputs, seed=3))

        first = run_with([donor("D1", 10, kidneys=1)])
        relist_day = next(e[2] for e in first.event_log if e[0] == "relist")
        offset = relist_day - to_days(WINDOW_START)
        second = run_with([donor("D1", 10, kidneys=1),
                           donor("D2", offset + 250, kidneys=1)])
        assert [(t.donor_id, t.candidate_id) for t in second.transplants] == [
            ("D1", "C1"), ("D2", "C1.r1")]
        # 181 days after the last refresh the row is stale again
        third = run_with([donor("D1", 10, kidneys=1),
                          donor("D2", offset + 281, kidneys=1)])
        assert [t.donor_id for t in third.transplants] == ["D1"]


class TestUnacceptableDecoding:
    def test_set_bits_decode_to_their_codes(self):
        state = initialize(make_inputs([candidate("C1")], []))
        store = state.store
        words = store.hla_index.words
        codes = sorted(words.position)
        rng = np.random.default_rng(2)
        for size in (0, 1, 5, len(codes)):
            chosen = set(rng.choice(codes, size=size, replace=False).tolist())
            store.unacc[0] = words.words(chosen)
            assert store_unacceptables(store, 0) == chosen


class TestDeterminism:
    def _inputs(self):
        rng = np.random.default_rng(77)
        regs = [candidate(f"C{i:02d}", age=float(rng.uniform(20, 75)),
                          mm=[(0, 0, 0), (1, 1, 1)][i % 2],
                          dialysis_days=int(rng.integers(0, 2500)))
                for i in range(40)]
        donors = [donor(f"D{j}", int(rng.integers(1, 300)),
                        age=int(rng.uniform(20, 75))) for j in range(12)]
        return make_inputs(regs, donors, center_p=0.8, patient_p=0.5,
                           weibull=quick_failure_weibull(400.0),
                           curves=always_relist_curves(0.5))

    def test_same_seed_bit_identical(self):
        inputs = self._inputs()
        out1, out2 = (run(traced(initialize(inputs, seed=11)))
                      for _ in range(2))
        assert out1.event_log == out2.event_log
        assert out1.final_states == out2.final_states
        assert out1.offer_trace == out2.offer_trace
        assert ([t.__dict__ for t in out1.transplants]
                == [t.__dict__ for t in out2.transplants])

    def test_different_seed_diverges(self):
        inputs = self._inputs()
        out1 = run(initialize(inputs, seed=11))
        out2 = run(initialize(inputs, seed=12))
        assert out1.event_log != out2.event_log


class TestBatch:
    def test_single_run_aggregate_equals_run(self):
        inputs = make_inputs([candidate("C1")], [donor("D1", 10, kidneys=1)])
        result = run_batch(inputs, seeds=[42])
        stats = reporting.stats_from_output(run_once(inputs, 42))
        assert result.per_run_stats == [stats]
        table = result.summary()
        row = summary_row(table, "transplants.total")
        assert row.mean == row.lo == row.hi == stats["transplants.total"]

    def test_identical_seeds_identical_outputs(self):
        inputs = make_inputs([candidate(f"C{i}") for i in range(10)],
                             [donor("D1", 10), donor("D2", 50)],
                             patient_p=0.5)
        r1 = run_batch(inputs, seeds=[7, 7, 9])
        assert r1.per_run_stats[0] == r1.per_run_stats[1]
        assert r1.per_run_stats[0] != r1.per_run_stats[2]

    def test_alternate_candidate_streams_rotate_per_run(self, tmp_path):
        # two trajectory files differing in dialysis priority; run index
        # picks the stream, so the two runs transplant different candidates
        import csv as _csv
        from dataclasses import replace as dc_replace
        from etkasim.io import load_registrations
        header = ["id", "patient_id", "country", "center", "bg", "dob",
                  "registration_date", "a1", "a2", "b1", "b2", "dr1", "dr2",
                  "unacceptables", "dialysis_start", "prior_tx",
                  "prev_tx_date", "screening_date", "urgency", "profile",
                  "mm_criteria", "am", "kaoo", "esp_opt_in", "program_choice"]

        def write_stream(path, dial_a, dial_b):
            with open(path, "w", newline="") as fh:
                w = _csv.writer(fh)
                w.writerow(header)
                # A is 50, B is 71; whoever holds the longer dialysis time
                # wins the single kidney, which shows up in the age bands
                for cid, dob, dial in (("A", "1971-01-01", dial_a),
                                       ("B", "1950-01-01", dial_b)):
                    w.writerow([cid, cid, "BE", "BEC01", "A", dob,
                                "2019-01-01", "A1", "A3", "B5", "B8", "DR1",
                                "DR7", "", dial, 0, "", "2021-03-15", "T",
                                "", "", 0, 0, 0, ""])

        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_stream(s1, "2008-01-01", "2020-01-01")
        write_stream(s2, "2020-01-01", "2008-01-01")
        base = make_inputs([candidate("A"), candidate("B")],
                           [donor("D1", 10, kidneys=1)])
        updates = terminal_updates([candidate("A"), candidate("B")])
        inputs = dc_replace(base, updates=updates,
                            candidate_stream_paths=[s1, s2])
        result = run_batch(inputs, seeds=[5, 5])
        first = result.per_run_stats[0]
        second = result.per_run_stats[1]
        assert first["etkas.age.under65"] == 1.0
        assert second["etkas.age.65plus"] == 1.0

    def test_status_streams_rotate_with_their_screenings(self, tmp_path):
        # stream 1 is stream 0 without its SCR rows: identical updates, so
        # only the screenings tell the two runs apart
        import yaml
        from etkasim.batch import _inputs_for_run
        from etkasim.io import load_inputs, load_settings
        from etkasim.synthetic import generate_population
        settings_path = generate_population(
            tmp_path, n_candidates=80, n_donors=30,
            start=WINDOW_START, end=WINDOW_END, seed=4, panel_size=300)
        rows = (tmp_path / "statuses.csv").read_text().splitlines()
        (tmp_path / "no_scr.csv").write_text(
            "\n".join(r for r in rows if ",SCR," not in r) + "\n")
        doc = yaml.safe_load(settings_path.read_text())
        doc["paths"]["candidate_streams"] = ["registrations.csv"] * 2
        doc["paths"]["status_streams"] = ["statuses.csv", "no_scr.csv"]
        settings_path.write_text(yaml.safe_dump(doc))
        inputs = load_inputs(load_settings(settings_path))

        first, second = (_inputs_for_run(inputs, i) for i in (0, 1))
        assert first.updates == second.updates
        assert first.screenings and second.screenings == {}

        def stats_of(run_inputs):
            return reporting.stats_from_output(run_once(run_inputs, 5))

        result = run_batch(inputs, seeds=[5, 5])
        assert result.per_run_stats == [stats_of(first), stats_of(second)]
        assert result.per_run_stats[0] != result.per_run_stats[1]

    def test_iqr_bands_contain_means_on_synthetic_fixture(self):
        rng = np.random.default_rng(1)
        regs = [candidate(f"C{i:02d}", age=float(rng.uniform(20, 75)),
                          dialysis_days=int(rng.integers(0, 2500)))
                for i in range(30)]
        donors = [donor(f"D{j}", int(rng.integers(1, 300))) for j in range(8)]
        inputs = make_inputs(regs, donors, center_p=0.7, patient_p=0.4)
        result = run_batch(inputs, seeds=list(range(24)))
        table = result.summary()
        for name in ("transplants.total", "kidneys.discarded"):
            row = summary_row(table, name)
            values = [s.get(name, 0.0) for s in result.per_run_stats]
            assert row.lo <= np.mean(values) <= row.hi
            # oracle: plain sorted-order percentile via numpy linear method
            assert row.lo == pytest.approx(
                float(np.percentile(values, 2.5)))
            assert row.hi == pytest.approx(
                float(np.percentile(values, 97.5)))


class TestArrayOffers:
    """The engine's array-backed offer accessor walks a match list exactly
    as the record-based SequenceOffers of the tests' oracle does."""

    PLACES = [("BE", "BEC01"), ("BE", "BEC02"), ("DE", "DEC01"),
              ("NL", "NLC01"), ("AT", "ATC01")]

    def _walk_both(self, seed, mode, max_prob):
        rng = np.random.default_rng(seed)
        regs = []
        for i in range(80):
            country, center = self.PLACES[int(rng.integers(0, 5))]
            regs.append(candidate(
                f"C{i:03d}", country=country, center=center,
                age=float(rng.uniform(20, 75)),
                mm=[(0, 0, 0), (1, 1, 1), (1, 0, 1), (2, 0, 2)][i % 4],
                dialysis_days=int(rng.integers(0, 3000)),
                mm_criteria=(expand_mm_patterns("**2") if i % 5 == 0
                             else frozenset())))
        state = initialize(make_inputs(regs, []), seed=1)
        arrival = donor("D1", 10)
        arrays = build_match_arrays(state.store, arrival,
                                    state.hla_index.donor_hla(arrival.hla),
                                    state.ledger, state.policy,
                                    arrival.report_day)
        # the list mixes same-region, same-country and foreign rows, and
        # rows that only the non-standard phase may offer to
        assert set(arrays.geo_idx.tolist()) == {0, 1, 2}
        assert not arrays.filtered.all()
        probs = rng.uniform(0.0, max_prob, len(arrays))
        records = [OfferRecord(
            candidate_id=state.store.ids[row],
            center=state.store.center_codes[row],
            filtered_visible=bool(arrays.filtered[i]), rank=i + 1,
            same_region=bool(arrays.geo_idx[i] == 0),
            same_country=bool(arrays.geo_idx[i] < 2),
            candidate_age=float(arrays.age[i]),
            patient_probability=float(probs[i]))
            for i, row in enumerate(arrays.rows.tolist())]
        models = AcceptanceModels(center=constant_logistic(0.6, "center"),
                                  patient=constant_logistic(0.5, "patient"),
                                  dual=constant_logistic(0.5, "dual"))
        outcomes = []
        for offers in (ArrayOffers(state.store, arrays, probs),
                       SequenceOffers(records, models.patient)):
            trace: list[tuple] = []
            outcome = run_allocation(
                offers, arrival, 3, Draws(seed), mode,
                lambda center: models.center.predict({}),
                lambda age, rescue: models.dual.predict(
                    dual_features(donor_features(arrival), age, rescue)),
                trace)
            outcomes.append((outcome, trace))
        return outcomes

    @staticmethod
    def _assert_same(walks):
        """The outcome and trace of the array walk, once they are found
        equal to the record walk's."""
        (a, a_trace), (s, s_trace) = walks
        assert a.acceptances == s.acceptances
        assert a_trace == s_trace
        assert a.unplaced == s.unplaced
        return a, a_trace

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_non_standard_phase(self, seed):
        a, _ = self._assert_same(self._walk_both(seed, "discard", 0.15))
        assert any(acc.mechanism == "non_standard" and not acc.forced
                   for acc in a.acceptances)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_force_mode(self, seed):
        a, trace = self._assert_same(self._walk_both(seed, "force", 0.002))
        assert any(acc.forced for acc in a.acceptances)
        assert any(stage == "non_standard" and decision == "decline"
                   for _, _, _, stage, decision, _ in trace)
