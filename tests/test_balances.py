"""Balance ledger: folding, conservation, and point arithmetic."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkasim.balances import (BalanceEvent, BalanceLedger, UnknownCountryError,
                              donor_age_group, read_balance_events)
from etkasim.common import InputError, to_days

from engine_fixture import group_sum
from oracle.matchlist import balance_points, init_ledger

COUNTRIES = ("AT", "BE", "DE", "HR", "HU", "NL", "SI")
START = date(2021, 4, 1)
START_DAY = to_days(START)


def event(d, r, age=30, when=date(2021, 1, 1), **kw):
    return BalanceEvent(day=to_days(when), donor_country=d,
                        recipient_country=r, donor_age=age, **kw)


class TestAgeGroups:
    @pytest.mark.parametrize("age,group", [
        (0, "0-17"), (17, "0-17"), (18, "18-49"), (49, "18-49"),
        (50, "50-64"), (64, "50-64"), (65, "65+"), (99, "65+"),
    ])
    def test_partition(self, age, group):
        assert donor_age_group(age) == group

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            donor_age_group(-1)


class TestLedger:
    def test_empty_history_is_all_zero(self):
        ledger = init_ledger([], START_DAY, COUNTRIES)
        for c in COUNTRIES:
            for g in ("0-17", "18-49", "50-64", "65+"):
                assert ledger.net_export(c, g) == 0

    def test_single_transfer(self):
        ledger = init_ledger([event("AT", "BE", age=30)], START_DAY, COUNTRIES)
        assert ledger.net_export("AT", "18-49") == 1
        assert ledger.net_export("BE", "18-49") == -1
        assert ledger.net_export("AT", "50-64") == 0

    def test_balanced_pair_cancels(self):
        ledger = init_ledger([event("AT", "BE"), event("BE", "AT")],
                             START_DAY, COUNTRIES)
        assert ledger.net_export("AT", "18-49") == 0
        assert ledger.net_export("BE", "18-49") == 0

    def test_three_event_fold_oracle(self):
        events = [event("AT", "BE", 10), event("DE", "AT", 55),
                  event("AT", "DE", 70)]
        ledger = init_ledger(events, START_DAY, COUNTRIES)
        # hand-computed fold
        assert ledger.net_export("AT", "0-17") == 1
        assert ledger.net_export("BE", "0-17") == -1
        assert ledger.net_export("DE", "50-64") == 1
        assert ledger.net_export("AT", "50-64") == -1
        assert ledger.net_export("AT", "65+") == 1
        assert ledger.net_export("DE", "65+") == -1

    def test_domestic_transfer_is_a_national_noop(self):
        ledger = BalanceLedger(COUNTRIES)
        ledger.record_transfer(event("DE", "DE"))
        for c in COUNTRIES:
            assert ledger.net_export(c, "18-49") == 0

    def test_unknown_country_rejected(self):
        ledger = BalanceLedger(COUNTRIES)
        with pytest.raises(UnknownCountryError):
            ledger.record_transfer(event("XX", "BE"))

    def test_only_events_at_or_before_start_fold(self):
        events = [event("AT", "BE", when=date(2021, 3, 31)),
                  event("AT", "BE", when=START),
                  event("AT", "BE", when=date(2021, 4, 2))]
        ledger = init_ledger(events, START_DAY, COUNTRIES)
        assert ledger.net_export("AT", "18-49") == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(COUNTRIES),
                              st.sampled_from(COUNTRIES),
                              st.integers(0, 90)), max_size=40))
    def test_conservation_after_every_transfer(self, transfers):
        ledger = BalanceLedger(COUNTRIES)
        for d, r, age in transfers:
            ledger.record_transfer(event(d, r, age))
            for g in ("0-17", "18-49", "50-64", "65+"):
                assert group_sum(ledger, g) == 0


class TestBalancePoints:
    def _ledger(self, exports: dict[str, int]) -> BalanceLedger:
        ledger = BalanceLedger(COUNTRIES)
        # realize arbitrary net exports against a scratch country pair by
        # looping transfers; exports must sum to zero across the map
        assert sum(exports.values()) == 0
        items = sorted(exports.items())
        donors = [c for c, v in items for _ in range(max(0, v))]
        recips = [c for c, v in items for _ in range(max(0, -v))]
        assert len(donors) == len(recips)
        for d, r in zip(donors, recips):
            ledger.record_transfer(event(d, r, 30))
        return ledger

    def test_largest_importer_gets_zero(self):
        ledger = self._ledger({"AT": 5, "BE": -3, "DE": -2})
        assert balance_points(ledger, "BE", 30, 10.0) == 0.0

    def test_footnote_arithmetic(self):
        ledger = self._ledger({"AT": 5, "BE": -3, "DE": -2})
        # exports {AT:+5, BE:-3}: AT gets (5 - (-3)) * 10 = 80, BE gets 0
        assert balance_points(ledger, "AT", 30, 10.0) == 80.0
        assert balance_points(ledger, "BE", 30, 10.0) == 0.0
        assert balance_points(ledger, "DE", 30, 10.0) == 10.0

    def test_points_never_negative(self):
        ledger = self._ledger({"AT": 2, "BE": -1, "DE": -1})
        for c in COUNTRIES:
            assert balance_points(ledger, c, 30, 30.0) >= 0.0

    def test_translation_invariance(self):
        base = self._ledger({"AT": 4, "BE": -2, "DE": -2})
        shifted = self._ledger({"AT": 6, "BE": 0, "DE": -2, "HR": -4})
        # adding a constant to every country's balance leaves points alone:
        # emulate by comparing differences, which is what the rule uses
        for weight in (1.0, 30.0):
            for c in ("AT", "BE", "DE"):
                gap_base = (balance_points(base, c, 30, weight)
                            - balance_points(base, "BE", 30, weight))
                gap_manual = (base.net_export(c, "18-49")
                              - base.net_export("BE", "18-49")) * weight
                assert gap_base == pytest.approx(gap_manual)

    def test_group_stratification(self):
        ledger = BalanceLedger(COUNTRIES)
        ledger.record_transfer(event("AT", "BE", 70))
        assert balance_points(ledger, "AT", 70, 10.0) == 20.0
        assert balance_points(ledger, "AT", 30, 10.0) == 0.0

    def test_unknown_country_points(self):
        ledger = BalanceLedger(COUNTRIES)
        with pytest.raises(UnknownCountryError):
            balance_points(ledger, "XX", 30, 10.0)


class TestAustrianRegional:
    def test_regional_subledger_tracks_regions(self):
        ledger = BalanceLedger(COUNTRIES, austrian_regions=("AT-East",
                                                            "AT-West"))
        ledger.record_transfer(BalanceEvent(
            day=to_days(date(2021, 1, 1)), donor_country="AT",
            recipient_country="DE",
            donor_age=40, donor_region="AT-East"))
        ledger.record_transfer(BalanceEvent(
            day=to_days(date(2021, 1, 2)), donor_country="DE",
            recipient_country="AT",
            donor_age=40, recipient_region="AT-West"))
        assert ledger.regional_net_export("AT-East", "18-49") == 1
        assert ledger.regional_net_export("AT-West", "18-49") == -1
        # national ledger still conserves
        assert group_sum(ledger, "18-49") == 0


class TestParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "balances.csv"
        path.write_text(
            "date,donor_country,recipient_country,donor_age,program\n"
            "2021-01-05,AT,DE,44,AM\n"
            "2021-02-06,BE,NL,67,combined\n")
        events = read_balance_events(path)
        assert len(events) == 2
        assert events[0].donor_country == "AT"
        assert events[0].day == to_days(date(2021, 1, 5))
        assert events[1].donor_age == 67

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "balances.csv"
        path.write_text(
            "date,donor_country,recipient_country,donor_age,program\n"
            "2021-01-05,AT,DE,notanage,AM\n")
        with pytest.raises(InputError, match="balances.csv:2"):
            read_balance_events(path)
