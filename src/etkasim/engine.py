"""The discrete-event core: future event set, initialization, dispatch.

Three event kinds drive a run: balance updates (international transplants
outside the simulated programs), patient status updates, and donor arrivals.
Antibody-screening refreshes ride along as one patient-priority event per
day, which writes that day into the screening column of every row refreshed
on it; post-transplant failures are patient events too.  A status-update
event carries its row's update list and the index of the update due, and
schedules the next one.  Same-timestamp events process balance first, then
patient, then donor, with an insertion sequence number as the final
tie-break, so replays under a fixed seed are bit-identical.

Every random draw of a run comes from its ``Draws``, one method per kind
of draw over one ``default_rng(seed)`` stream: the Cox maximum number of
offers, center, patient and dual-kidney acceptance, graft failure,
re-listing time, the re-listing pool entry and de novo immunization.  A
policy comparison gives a run index the same seed under both policies, but
the draws are read in event order, so a policy change that alters one
offer walk shifts every later draw.

``initialize`` draws no random numbers: its state is the same for every
seed.  A batch builds it once per process and input stream and starts each
run from ``SimState.fork(seed)``, a copy of what runs write that shares
what they only read.  Among what they share is the donor memo: per donor,
what its arrival derives from the donor and the shared inputs alone (its
HLA layouts and model features, and every center-level and dual-kidney
acceptance probability a walk has asked for), so a batch evaluates each
once per donor, not once per run.
"""

from __future__ import annotations

import copy
import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .balances import (AUSTRIA, BalanceEvent, BalanceLedger,
                       UnknownCountryError)
from .common import (DAYS_PER_YEAR, InputError, day_text, from_days,
                     gc_paused, to_days)
from .entities import (ETKAS, GEOGRAPHY_CLASSES, CandidateRegistration,
                       DonorArrival, StatusUpdate)
from .fastmatch import (ACTIVE_CODES, ENDED_CODES, FU, PRE, STATUS_NAMES, D, R,
                        CandidateStore, DonorHla, HlaIndex, MatchArrays,
                        build_match_arrays)
from .io import SimulationInputs
from .offering import (PATIENT_COLUMNS, PredictorOverflowError,
                       center_offer_features, donor_features, dual_features,
                       linear_predictor, run_allocation)
from .posttransplant import (TRANSPLANT_FEATURES, InvalidScaleError,
                             build_synthetic_relisting, sample_failure_time,
                             sample_relist_time)

_DAY = attrgetter("day")  # of a StatusUpdate
_PATIENT_ID = attrgetter("patient_id")  # of a CandidateRegistration
_ACTIVE_NAMES = frozenset(STATUS_NAMES[code] for code in ACTIVE_CODES)

# event type priorities within one day
PRIO_BALANCE = 0
PRIO_PATIENT = 1
PRIO_DONOR = 2


@dataclass
class TransplantRecord:
    donor_id: str
    candidate_id: str
    when_days: int
    program: str
    mechanism: str
    forced: bool
    dual: bool
    kidneys: int
    rank: int
    mm_a: int
    mm_b: int
    mm_dr: int
    geography: str
    total_points: float
    comp: dict[str, float]
    cand_country: str
    donor_country: str
    cand_age: int
    donor_age: int
    dialysis_days: int
    vpra: float
    prior_transplant: bool
    homo_b: bool
    homo_dr: bool

    @property
    def mm_total(self) -> int:
        return self.mm_a + self.mm_b + self.mm_dr


@dataclass
class SimulationOutput:
    transplants: list[TransplantRecord]
    final_states: list[tuple[str, str, int]]  # id, status, status day
    # each row's registration, in the order of final_states (the store's
    # own list, not a copy)
    registrations: list[CandidateRegistration]
    counters: dict[str, float]
    ledger: BalanceLedger
    event_log: list[tuple]
    init_statuses: dict[str, tuple[str, int]]
    init_ledger: BalanceLedger  # shared with the state: never written
    offer_trace: list[tuple] | None  # run_allocation's rows, if traced


class Draws:
    """A run's random draws, one method per kind, all read from one
    ``default_rng(seed)`` stream in the order the events ask for them."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def max_offers(self) -> float:
        """A uniform on [0, 1); every kind but ``pool_entry`` is one."""
        return self._rng.random()

    center = patient = dual = failure = relist = immunization = max_offers

    def pool_entry(self, n: int) -> int:
        """An index drawn uniformly from ``range(n)``."""
        return int(self._rng.integers(0, n))


class DonorMemo(NamedTuple):
    """What a donor's arrival derives from the donor and from what every
    fork shares (inputs, policy, models), each part filled on first use."""

    hla: DonorHla
    features: dict[str, float]  # donor_features
    # center code -> center-level acceptance probability
    center_p: dict[str, float]
    # (candidate age, rescue) -> dual-kidney probability
    dual_p: dict[tuple[float, bool], float]


class SimState:
    """Everything one run mutates: candidate store, ledger, FES, counters.

    ``offer_trace`` is the run's offer-trace sink: None, or a list that
    collects every offer decision; set it to ``[]`` before ``run`` to trace.
    """

    def __init__(self, inputs: SimulationInputs, seed: int):
        self.inputs = inputs
        self.policy = inputs.policy
        self.draws = Draws(seed)
        self.start_days = to_days(inputs.settings.window_start)
        self.end_days = to_days(inputs.settings.window_end)
        self.offer_trace: list[tuple] | None = None

        self.hla_index = HlaIndex(inputs.antigen_table)
        self.store = CandidateStore(
            self.hla_index, inputs.centers, inputs.panel, inputs.freq_table,
            inputs.bg_freqs, inputs.policy)

        austrian_regions = sorted({c.region for c in inputs.centers.centers()
                                   if c.country == AUSTRIA})
        self.ledger = BalanceLedger(inputs.centers.countries, austrian_regions)

        # per input donor: its DonorMemo, built at its first arrival and
        # shared by every fork, which all evaluate the same models on it
        self.donor_memo: list[DonorMemo | None] = [None] * len(inputs.donors)

        self.fes: list[tuple] = []
        self._seq = 0
        # per patient the run has transplanted: transplants so far, the
        # re-listing row a graft failure kills, re-listings built
        self.person_tx_count: dict[str, int] = {}
        self.relist_row: dict[str, int] = {}
        self.relist_serial: dict[str, int] = {}

        self._new_outputs()
        self.counters: dict[str, float] = {
            "kidneys.available": 0, "kidneys.transplanted": 0,
            "kidneys.discarded": 0, "wl.listings": 0, "wl.relists_created": 0,
            "wl.removals": 0, "wl.deaths": 0, "donors.seen": 0,
            "relists.no_pool_match": 0,
        }
        self.init_statuses: dict[str, tuple[str, int]] = {}
        self.init_ledger: BalanceLedger | None = None

    def _new_outputs(self) -> None:
        self.transplants: list[TransplantRecord] = []
        self.event_log: list[tuple] = []
        if self.offer_trace is not None:
            self.offer_trace = []

    def fork(self, seed: int) -> SimState:
        """An independent state that runs on from this one under ``seed``.

        What a run writes is copied: the store (which holds every row's
        state), the ledger, the FES, the counters and the three per-patient
        maps, which hold only patients the run has transplanted.  What no
        run writes is shared: the inputs, the HLA index, the FES payloads
        (among them each patient event's update list), the donor memo and
        the initial snapshots.  The donor memo fills as runs go, but it
        holds only values derived from the donor and the shared inputs, so
        every fork reads the same values whichever run filled them.
        Outputs start empty, the offer trace too: a traced state's forks
        trace, each into its own list.  A fork of a freshly initialized
        state runs exactly as a fresh ``initialize(inputs, seed)`` would.
        """
        new = copy.copy(self)
        new.draws = Draws(seed)
        new.store = self.store.copy()
        new.ledger = self.ledger.copy()
        new.fes = list(self.fes)
        for name in ("person_tx_count", "relist_row", "relist_serial",
                     "counters"):
            setattr(new, name, copy.copy(getattr(self, name)))
        new._new_outputs()
        return new

    # -- future event set -----------------------------------------------

    def event(self, when_days: int, prio: int, kind: str, *payload) -> tuple:
        """An FES entry, with the next insertion sequence number."""
        self._seq += 1
        return (when_days, prio, self._seq, kind, payload)

    def schedule(self, when_days: int, prio: int, kind: str, *payload) -> None:
        heapq.heappush(self.fes, self.event(when_days, prio, kind, *payload))

    def screening_events(self, days: np.ndarray,
                         rows: np.ndarray) -> list[tuple]:
        """One screening event per distinct day up to the window end; its
        payload holds the rows refreshed that day.  ``days`` is sorted."""
        n = int(np.searchsorted(days, self.end_days, side="right"))
        starts = np.flatnonzero(np.diff(days[:n], prepend=days[:1] - 1))
        return [self.event(int(days[lo]), PRIO_PATIENT, "screening",
                           rows[lo:hi])
                for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), n])]

    def schedule_screenings(self, days: np.ndarray, rows: np.ndarray) -> None:
        for event in self.screening_events(days, rows):
            heapq.heappush(self.fes, event)


@gc_paused()  # set-up leaves no cyclic garbage
def initialize(inputs: SimulationInputs, seed: int = 1) -> SimState:
    """Build the initial system state and future event set.

    Registrations are taken in two passes.  The first picks the ones the
    run lists and finds each one's first in-window status update: repeat
    registrations whose previous transplant falls inside the window are
    excluded (the simulation itself generates those re-listings), and so
    are registrations dated after the window or whose spell ends before it.
    The store takes the picked ones in one ``extend``.  The second pass
    folds each row's pre-window updates into its state, in file order, and
    gives it exactly one pending patient event (its first in-window
    update), which carries the row's update list on to the next one.  Each
    row's status day is the window start, and its screening date its last
    pre-window refresh; pre-window balance events fold into the ledger;
    in-window screening refreshes, donors and balance updates are
    scheduled.

    The FES is seeded as a plain list, with the sequence numbers one push
    per event would give, and heapified once: the numbers are unique, so
    the events pop in the same order.  The first registration in file
    order that fails a check raises: a duplicate id, status updates out
    of order, or a check of the store (``CandidateStore.extend``).
    """
    state = SimState(inputs, seed)
    store = state.store
    start, end = state.start_days, state.end_days

    # pass 1: the listed registrations, each with its status updates and
    # the index of its first in-window one (len(updates) if none)
    seen_ids: set[str] = set()
    kept, initial, streams, firsts = [], [], [], []
    fault = None
    for reg in inputs.registrations:
        if reg.id in seen_ids:
            fault = InputError(f"duplicate registration id {reg.id!r}")
            break
        seen_ids.add(reg.id)
        updates = inputs.updates.get(reg.id, [])
        for a, b in zip(updates, updates[1:]):
            if a.day > b.day:
                fault = InputError("status updates out of order after sorting")
                break
        if fault is not None:
            break

        if (reg.previous_transplant_day is not None
                and start <= reg.previous_transplant_day <= end):
            continue
        if reg.registration_day > end:
            continue
        first = bisect_left(updates, start, key=_DAY)
        if any(u.ends_spell for u in updates[:first]):
            continue
        kept.append(reg)
        # registrations dated inside the window are not listed yet; their
        # first status update (at the registration date) activates them
        initial.append("PRE" if reg.registration_day > start else None)
        streams.append(updates)
        firsts.append(first)
    # the store checks the registrations before the fault first
    rows = store.extend(kept, initial)
    if fault is not None:
        raise fault

    # pass 2: fold, book and seed each row in file order
    fes = state.fes
    spells: dict[str, list[int]] = {}  # each patient's rows
    scr_rows: list[int] = []  # rows with screenings, and their days
    scr_days: list[np.ndarray] = []
    for row, reg, updates, first in zip(rows, kept, streams, firsts):
        spells.setdefault(reg.patient_id, []).append(row)
        for i in range(first):
            store.apply_update(row, updates[i])
        days = inputs.screenings.get(reg.id)
        if days is not None and len(days):
            scr_rows.append(row)
            scr_days.append(days)
        if first < len(updates):
            fes.append(state.event(updates[first].day, PRIO_PATIENT,
                                   "patient", row, updates, first))
    store.status_day[:store.n] = start
    state.counters["wl.listings"] += _n_active(store)

    # overlapping spells for one patient are an input error, and a spell
    # that never ends overlaps every later one; patients are checked in the
    # order of their first row
    for patient_rows in sorted(r for r in spells.values() if len(r) > 1):
        entries = sorted((store.registrations[row].registration_day, row)
                         for row in patient_rows)
        for (a_start, a_row), (b_start, b_row) in zip(entries, entries[1:]):
            a_end = None
            for u in streams[a_row]:  # rows count from 0, as streams do
                if u.ends_spell:
                    a_end = u.day
            if a_end is None or b_start < a_end:
                raise InputError(
                    f"registrations {store.ids[a_row]!r} and "
                    f"{store.ids[b_row]!r} for patient "
                    f"{store.registrations[a_row].patient_id!r} overlap in "
                    "time")

    if scr_rows:
        _fold_screenings(state, np.array(scr_rows, dtype=np.int64), scr_days)

    # balance stream: every event must be one the ledger can book; fold
    # history, schedule in-window events
    for event in inputs.balance_events:
        try:
            state.ledger.check_transfer(event)
        except (UnknownCountryError, ValueError) as exc:
            raise InputError(f"balance event of {day_text(event.day)}: "
                             f"{exc}") from None
        if event.day <= start:
            state.ledger.record_transfer(event)
        elif event.day <= end:
            fes.append(state.event(event.day, PRIO_BALANCE, "balance", event))

    for i, donor in enumerate(inputs.donors):
        if start <= donor.report_day <= end:
            if donor.center not in inputs.centers:
                raise InputError(f"donor {donor.id!r}: unknown center code "
                                 f"{donor.center!r}")
            country = inputs.centers.get(donor.center).country
            if donor.country != country:
                raise InputError(f"donor {donor.id!r}: country "
                                 f"{donor.country!r} is not the country of "
                                 f"its center {donor.center!r} ({country})")
            fes.append(state.event(donor.report_day, PRIO_DONOR, "donor", i))
    heapq.heapify(fes)

    store.finalize_derived_values()
    state.init_statuses = {cid: (code, day)
                           for cid, code, day in _statuses(store)}
    state.init_ledger = state.ledger.copy()
    return state


def _statuses(store: CandidateStore) -> zip:
    """(id, status, status day) of every row, in row order."""
    return zip(store.ids,
               map(STATUS_NAMES.__getitem__, store.status[:store.n].tolist()),
               store.status_day[:store.n].tolist())


def _n_active(store: CandidateStore) -> int:
    """The rows with an active status."""
    return int(np.isin(store.status[:store.n], ACTIVE_CODES).sum())


def _fold_screenings(state: SimState, rows: np.ndarray,
                     days_of: list[np.ndarray]) -> None:
    """Set each row's screening date to its last pre-window refresh, and
    add the in-window refreshes' events to the unordered FES that
    ``initialize`` seeds; ``days_of[i]`` holds the sorted, non-empty
    refresh days of ``rows[i]``."""
    lens = np.fromiter(map(len, days_of), dtype=np.int64, count=len(days_of))
    firsts = np.cumsum(lens) - lens
    days = np.concatenate(days_of)
    before = days < state.start_days
    n_before = np.add.reduceat(before, firsts, dtype=np.int64)
    folded = n_before > 0
    state.store.screening[rows[folded]] = days[
        (firsts + n_before - 1)[folded]]
    later = np.repeat(rows, lens)[~before]
    days = days[~before]
    order = np.argsort(days, kind="stable")
    state.fes.extend(state.screening_events(days[order], later[order]))


def run(state: SimState) -> SimulationOutput:
    """Process the future event set until it drains or passes the window end."""
    store = state.store
    end = state.end_days

    while state.fes:
        when, prio, seq, kind, payload = state.fes[0]
        if when > end:
            break
        heapq.heappop(state.fes)
        if kind == "balance":
            _handle_balance(state, payload[0], when)
        elif kind == "screening":
            store.screening[payload[0]] = when
        elif kind == "patient":
            _handle_patient(state, *payload, when)
        elif kind == "failure":
            _handle_failure(state, *payload, when)
        elif kind == "donor":
            _handle_donor(state, payload[0], when)
        else:  # pragma: no cover
            raise AssertionError(f"unknown event kind {kind!r}")

    counters = dict(state.counters)
    counters["wl.final_active"] = _n_active(store)
    return SimulationOutput(
        transplants=state.transplants,
        final_states=list(_statuses(store)),
        registrations=store.registrations,
        counters=counters,
        ledger=state.ledger,
        event_log=state.event_log,
        init_statuses=state.init_statuses,
        init_ledger=state.init_ledger,
        offer_trace=state.offer_trace,
    )


def _handle_balance(state: SimState, event: BalanceEvent, when: int) -> None:
    state.ledger.record_transfer(event)
    state.event_log.append(("balance", event.donor_country,
                            event.recipient_country, event.donor_age,
                            event.program, event.donor_region,
                            event.recipient_region, when))


def _change_status(state: SimState, row: int, when: int, *,
                   update: StatusUpdate | None = None,
                   code: int | None = None) -> bool:
    """The one path of an in-run change to ``row`` on ``when``: apply
    ``update`` through ``CandidateStore.apply_update``, or write the status
    ``code``, then book a status change: the status day, the log entry and
    the counters.  An update of another kind than URG books nothing.  The
    store's ``extend`` and ``apply_update`` and this function are the only
    writers of ``status``.  Returns False, changing nothing, when the row's
    spell has ended (e.g. by a transplant), or when the row is not listed
    yet and belongs to a patient the run has transplanted, unless it is the
    patient's re-listing row: only the simulated re-listing brings a
    transplanted patient back, and a later input registration never lists.
    Leaving PRE for an active code is the row's first listing, since
    nothing writes PRE to a row."""
    store = state.store
    old = int(store.status[row])
    if old in ENDED_CODES:
        return False
    if old == PRE:
        person = store.registrations[row].patient_id
        if (person in state.person_tx_count
                and state.relist_row.get(person) != row):
            return False
    if update is None:
        store.status[row] = code
    else:
        store.apply_update(row, update)
        if update.kind != "URG":
            return True
    new = int(store.status[row])
    store.status_day[row] = when
    state.event_log.append(("status", store.ids[row], STATUS_NAMES[new], when))
    counters = state.counters
    if new == D or new == R:
        if new == D:
            counters["wl.deaths"] += 1
            key = f"country.{store.registrations[row].country}.wl_deaths"
            counters[key] = counters.get(key, 0) + 1
        else:
            counters["wl.removals"] += 1
    elif old == PRE and new in ACTIVE_CODES:
        counters["wl.listings"] += 1
    return True


def _handle_patient(state: SimState, row: int, updates: list[StatusUpdate],
                    index: int, when: int) -> None:
    """Apply ``updates[index]`` to ``row`` and schedule the next one."""
    if (_change_status(state, row, when, update=updates[index])
            and index + 1 < len(updates)):
        state.schedule(updates[index + 1].day, PRIO_PATIENT, "patient", row,
                       updates, index + 1)


def _handle_failure(state: SimState, person_id: str, expected_count: int,
                    when: int) -> None:
    """Post-transplant failure: the person dies now unless re-transplanted.
    Their re-listing row, if any, ends in a death, unless its spell has
    ended already."""
    if state.person_tx_count.get(person_id) != expected_count:
        return  # a later transplant re-drew the failure time
    row = state.relist_row.get(person_id)
    if row is not None:  # else death happens off the waiting list
        _change_status(state, row, when, code=D)


# ---------------------------------------------------------------------------
# Donor events

def _patient_prob_vector(model, donor_feats: dict[str, float],
                         arrays: MatchArrays, store: CandidateStore,
                         cfg) -> np.ndarray:
    """Patient-level acceptance probabilities of the whole list, from the
    donor's features and the model's ``offering.PATIENT_COLUMNS``: those
    ``tests/oracle/offering.py`` builds one offer at a time."""
    features = dict(donor_feats)
    features.update((name, PATIENT_COLUMNS[name](arrays, store, cfg))
                    for name in model.coefficients if name in PATIENT_COLUMNS)
    lp = linear_predictor(np.full(len(arrays.rows), model.intercept,
                                  dtype=np.float64),
                          model.coefficients, features, model.model_id)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-lp))


class ArrayOffers:
    """Offer accessor over one donor's MatchArrays; nothing materializes for
    the untouched bulk of the list."""

    def __init__(self, store: CandidateStore, arrays: MatchArrays,
                 probs: np.ndarray):
        self.store = store
        self.arrays = arrays
        self.probs = probs

    def __len__(self) -> int:
        return len(self.arrays.rows)

    def candidate_id(self, i: int) -> str:
        return self.store.ids[int(self.arrays.rows[i])]

    def center(self, i: int) -> str:
        return self.store.center_codes[int(self.arrays.rows[i])]

    def filtered(self, i: int) -> bool:
        return bool(self.arrays.filtered[i])

    def age(self, i: int) -> float:
        return float(self.arrays.age[i])

    def probability(self, i: int) -> float:
        return float(self.probs[i])

    def vicinity_order(self, touched) -> list[int]:
        keep = np.ones(len(self), dtype=bool)
        keep[np.fromiter(touched, dtype=np.int64, count=len(touched))] = False
        rest = np.flatnonzero(keep)
        # geo_idx is the vicinity class (0 same region, 1 same country,
        # 2 abroad); the stable sort keeps rank order within a class
        return rest[np.argsort(self.arrays.geo_idx[rest],
                               kind="stable")].tolist()


def _handle_donor(state: SimState, index: int, when: int) -> None:
    inputs = state.inputs
    store = state.store
    cfg = state.policy
    donor = inputs.donors[index]
    memo = state.donor_memo[index]
    if memo is None:
        memo = state.donor_memo[index] = DonorMemo(
            state.hla_index.donor_hla(donor.hla), donor_features(donor), {}, {})
    donor_feats = memo.features
    state.counters["donors.seen"] += 1
    state.counters["kidneys.available"] += donor.kidneys_available

    arrays = build_match_arrays(store, donor, memo.hla, state.ledger, cfg,
                                when)
    program = arrays.program
    models = inputs.etkas_models if program == ETKAS else inputs.esp_models

    if len(arrays) == 0:
        state.counters["kidneys.discarded"] += donor.kidneys_available
        state.event_log.append(("discard", donor.id, donor.kidneys_available,
                                when))
        return

    try:
        k_max = inputs.cox.sample(program, donor.country, donor_feats,
                                  state.draws.max_offers())
    except PredictorOverflowError as exc:
        raise PredictorOverflowError(f"donor {donor.id!r}: {exc}") from None
    probs = _patient_prob_vector(models.patient, donor_feats, arrays, store,
                                 cfg)
    offers = ArrayOffers(store, arrays, probs)
    center_p, dual_p = memo.center_p, memo.dual_p

    def center_probability(center: str) -> float:
        p = center_p.get(center)
        if p is None:
            p = center_p[center] = models.center.predict(center_offer_features(
                donor, donor_feats, center, inputs.centers, store.countries))
        return p

    def dual_probability(age: float, rescue: bool) -> float:
        p = dual_p.get((age, rescue))
        if p is None:
            p = dual_p[age, rescue] = models.dual.predict(
                dual_features(donor_feats, age, rescue))
        return p

    outcome = run_allocation(offers, donor, k_max, state.draws,
                             inputs.settings.unplaced_mode, center_probability,
                             dual_probability, state.offer_trace)

    for acc in outcome.acceptances:
        _transplant(state, donor, donor_feats, arrays, acc, when)

    if outcome.unplaced:
        state.counters["kidneys.discarded"] += outcome.unplaced
        state.event_log.append(("discard", donor.id, outcome.unplaced, when))


def _transplant(state: SimState, donor: DonorArrival,
                donor_feats: dict[str, float], arrays: MatchArrays, acc,
                when: int) -> None:
    """Carry out the accepted offer ``acc`` of ``arrays``: record the
    transplant, book a cross-border balance, draw the failure time and
    build any re-listing.  Each value is read once, from ``arrays`` (which
    holds the candidate's age and dialysis time on ``when``) or the store."""
    store = state.store
    inputs = state.inputs
    i = acc.index
    row = int(arrays.rows[i])
    reg = store.registrations[row]
    person = reg.patient_id

    record = TransplantRecord(
        donor_id=donor.id,
        candidate_id=reg.id,
        when_days=when,
        program=arrays.program,
        mechanism=acc.mechanism,
        forced=acc.forced,
        dual=acc.kidneys == 2,
        kidneys=acc.kidneys,
        rank=acc.rank,
        mm_a=int(arrays.mm_a[i]), mm_b=int(arrays.mm_b[i]),
        mm_dr=int(arrays.mm_dr[i]),
        geography=GEOGRAPHY_CLASSES[int(arrays.geo_idx[i])],
        total_points=float(arrays.total[i]),
        comp={name: float(col[i]) for name, col in arrays.comp.items()},
        cand_country=reg.country,
        donor_country=donor.country,
        cand_age=int(arrays.age[i]),
        donor_age=donor.age,
        dialysis_days=int(arrays.dial_days[i]),
        vpra=float(store.vpra[row]),
        prior_transplant=bool(store.prior_tx[row]),
        homo_b=bool(store.homo_b[row]),
        homo_dr=bool(store.homo_dr[row]),
    )
    state.transplants.append(record)
    state.counters["kidneys.transplanted"] += acc.kidneys
    state.event_log.append(("transplant", donor.id, reg.id, when, acc.kidneys))

    _change_status(state, row, when, code=FU)
    state.relist_row.pop(person, None)
    tx_count = state.person_tx_count.get(person, 0) + 1
    state.person_tx_count[person] = tx_count

    # cross-border transplants move the kidney balance (and the Austrian
    # regional sub-balance when an Austrian side is involved)
    cross_border = donor.country != reg.country
    if cross_border:
        donor_center = inputs.centers.get(donor.center)
        cand_center = inputs.centers.get(reg.center)
        event = BalanceEvent(
            day=when, donor_country=donor.country,
            recipient_country=reg.country, donor_age=donor.age,
            program=arrays.program,
            donor_region=(donor_center.region
                          if donor.country == AUSTRIA else None),
            recipient_region=(cand_center.region
                              if reg.country == AUSTRIA else None))
        _handle_balance(state, event, when)

    features = dict(donor_feats)
    features.update(zip(TRANSPLANT_FEATURES, (
        record.cand_age, record.dialysis_days / DAYS_PER_YEAR,
        record.prior_transplant, record.mm_total, record.mm_dr, cross_border,
        acc.mechanism == "non_standard",
        from_days(when).year - inputs.settings.window_start.year,
    ), strict=True))
    try:
        t_days = sample_failure_time(features, reg.country, inputs.weibull,
                                     state.draws.failure())
    except InvalidScaleError as exc:
        raise InvalidScaleError(
            f"transplant of donor {donor.id!r} to candidate {reg.id!r} on "
            f"{day_text(when)}: {exc}") from None
    failure_day = when + max(1, int(round(t_days)))
    state.schedule(failure_day, PRIO_PATIENT, "failure", person, tx_count)

    r_days = sample_relist_time(max(t_days, 1.0), record.cand_age,
                                inputs.relist_curves, state.draws.relist())
    if r_days is None:
        return
    relist_day = when + max(1, int(round(r_days)))
    if relist_day >= failure_day or relist_day > state.end_days:
        return

    serial = state.relist_serial.get(person, 0) + 1
    state.relist_serial[person] = serial
    built = build_synthetic_relisting(
        reg, frozenset(store_unacceptables(store, row)), when,
        record.dialysis_days, t_days, relist_day, donor.hla,
        inputs.relist_pool, inputs.antigen_table,
        inputs.settings.de_novo_immunization_p, state.draws,
        new_id=f"{person}.r{serial}")
    if built is None:
        state.counters["relists.no_pool_match"] += 1
        return
    synthetic, match = built
    new_row = store.extend([synthetic], ["PRE"])[0]
    store.status_day[new_row] = relist_day
    state.relist_row[person] = new_row
    state.counters["wl.relists_created"] += 1
    state.event_log.append(("relist", synthetic.id, relist_day))

    # copied urgency stream, with a screening refresh at every status so the
    # synthetic spell stays visible to eligibility the way a followed-up
    # repeat candidate would
    updates = [StatusUpdate(synthetic.id, relist_day + offset, "URG", code)
               for offset, code in match.status_updates]
    days = np.unique([u.day for u in updates])
    state.schedule_screenings(days, np.full(len(days), new_row))
    state.schedule(updates[0].day, PRIO_PATIENT, "patient", new_row,
                   updates, 0)


def store_unacceptables(store: CandidateStore, row: int) -> set[str]:
    """Decode the candidate's current unacceptable set from its bit words."""
    return store.hla_index.words.codes(store.unacc[row])


# ---------------------------------------------------------------------------
# Replay check: fold the event log back into a final state

def replay_final_state(output: SimulationOutput, patient_of: dict[str, str]
                       ) -> tuple[dict, BalanceLedger, list[str]]:
    """Fold the run's event log over the initial state.

    Returns (statuses, ledger, doubles).  The statuses and the ledger must
    equal the run's own final state exactly; any divergence means the
    engine mutated state without logging it (or vice versa).  Balance
    entries fold into a copy of the initial ledger through
    ``BalanceLedger.record_transfer``.  The same pass follows the rows in
    ``patient_of`` (row id -> patient): ``doubles`` are the patients among
    them, sorted, that have two active rows at the end of some day.
    """
    statuses: dict[str, tuple[str, int]] = dict(output.init_statuses)
    ledger = output.init_ledger.copy()
    active = {cid for cid in patient_of
              if cid in statuses and statuses[cid][0] in _ACTIVE_NAMES}
    n_active = Counter(map(patient_of.__getitem__, active))
    doubles = {person for person, n in n_active.items() if n > 1}
    day, touched = None, []
    for entry in output.event_log:
        kind = entry[0]
        if kind == "status":
            _, cand_id, code, when = entry
            statuses[cand_id] = (code, when)
            person = patient_of.get(cand_id)
            if person is None:
                continue
            if when != day:
                doubles.update(p for p in touched if n_active[p] > 1)
                day, touched = when, []
            now = code in _ACTIVE_NAMES
            if now != (cand_id in active):
                (active.add if now else active.remove)(cand_id)
                n_active[person] += 1 if now else -1
                touched.append(person)
        elif kind == "relist":
            _, cand_id, when = entry
            statuses[cand_id] = ("PRE", when)
        elif kind == "balance":
            # (kind, BalanceEvent's fields but its day, day)
            ledger.record_transfer(BalanceEvent(entry[-1], *entry[1:-1]))
    doubles.update(p for p in touched if n_active[p] > 1)
    return statuses, ledger, sorted(doubles)


def verify_replay(output: SimulationOutput) -> list[str]:
    """Differences between the replayed log and the recorded final state,
    and patients with two active rows at the end of some day.  Only the
    rows of patients with more than one row are followed."""
    n_rows = Counter(map(_PATIENT_ID, output.registrations))
    patient_of = {reg.id: reg.patient_id for reg in output.registrations
                  if n_rows[reg.patient_id] > 1}
    statuses, ledger, doubles = replay_final_state(output, patient_of)
    problems = []
    final = {cid: (code, day) for cid, code, day in output.final_states}
    if statuses != final:
        diff = {k for k in set(statuses) | set(final)
                if statuses.get(k) != final.get(k)}
        problems.append(f"status mismatch for {len(diff)} candidates "
                        f"(e.g. {sorted(diff)[:3]})")
    if ledger.snapshot() != output.ledger.snapshot():
        problems.append("ledger mismatch after replay")
    if ledger.regional_snapshot() != output.ledger.regional_snapshot():
        problems.append("Austrian regional ledger mismatch after replay")
    if doubles:
        problems.append(f"{len(doubles)} patients with two active rows on "
                        f"one day (e.g. {doubles[:3]})")
    return problems
