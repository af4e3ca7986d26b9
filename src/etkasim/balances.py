"""National and Austrian-regional net kidney export balances.

Every cross-border transplantation counts +1 for the exporting country and
-1 for the importing one, tracked separately per donor age group.  Balance
points compensate net exporters: each country's points are its export count
minus the largest importer's (a negative number), times the balance weight;
``fastmatch`` computes them for each donor from this ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .common import parse_day, read_table, text_or

DONOR_AGE_GROUPS = ("0-17", "18-49", "50-64", "65+")
AUSTRIA = "AT"  # the one country with a regional sub-ledger


def donor_age_group(age: int) -> str:
    if age < 0:
        raise ValueError(f"negative donor age {age}")
    if age <= 17:
        return "0-17"
    if age <= 49:
        return "18-49"
    if age <= 64:
        return "50-64"
    return "65+"


@dataclass(frozen=True)
class BalanceEvent:
    """One international transplantation relevant to the balance system, on
    ``day`` (days since 1970-01-01)."""

    day: int
    donor_country: str
    recipient_country: str
    donor_age: int
    program: str = ""
    donor_region: str | None = None
    recipient_region: str | None = None

    @property
    def crosses_border(self) -> bool:
        return self.donor_country != self.recipient_country


class UnknownCountryError(KeyError):
    def __str__(self) -> str:
        return f"unknown country {self.args[0]!r}"


class BalanceLedger:
    """Mutable per-(country, donor age group) net export counts.

    Single-writer within a run; the Austrian regional sub-ledger tracks the
    same quantity per Austrian region and feeds a tie-break key rather than
    points.
    """

    def __init__(self, countries: Iterable[str],
                 austrian_regions: Iterable[str] = ()):
        self.countries = tuple(sorted(set(countries)))
        if not self.countries:
            raise ValueError("ledger needs at least one country")
        self._net: dict[tuple[str, str], int] = {
            (c, g): 0 for c in self.countries for g in DONOR_AGE_GROUPS}
        self._regional: dict[tuple[str, str], int] = {
            (r, g): 0 for r in sorted(set(austrian_regions))
            for g in DONOR_AGE_GROUPS}

    def copy(self) -> "BalanceLedger":
        dup = BalanceLedger(self.countries)
        dup._net = dict(self._net)
        dup._regional = dict(self._regional)
        return dup

    def net_export(self, country: str, group: str) -> int:
        try:
            return self._net[(country, group)]
        except KeyError:
            raise UnknownCountryError(country) from None

    def regional_net_export(self, region: str, group: str) -> int:
        return self._regional.get((region, group), 0)

    def check_transfer(self, event: BalanceEvent) -> str:
        """The donor age group ``record_transfer`` books ``event`` under;
        raises UnknownCountryError or ValueError if it cannot book it."""
        group = donor_age_group(event.donor_age)
        if event.crosses_border:
            for country in (event.donor_country, event.recipient_country):
                if (country, group) not in self._net:
                    raise UnknownCountryError(country)
        return group

    def record_transfer(self, event: BalanceEvent) -> None:
        """Fold one transplantation into the ledger (domestic ones are no-ops
        nationally but may still move the Austrian regional balance)."""
        group = self.check_transfer(event)
        if event.crosses_border:
            self._net[(event.donor_country, group)] += 1
            self._net[(event.recipient_country, group)] -= 1
        if event.donor_country == AUSTRIA and event.donor_region:
            key = (event.donor_region, group)
            self._regional[key] = self._regional.get(key, 0) + 1
        if event.recipient_country == AUSTRIA and event.recipient_region:
            key = (event.recipient_region, group)
            self._regional[key] = self._regional.get(key, 0) - 1

    def snapshot(self) -> dict[tuple[str, str], int]:
        return dict(self._net)

    def regional_snapshot(self) -> dict[tuple[str, str], int]:
        return dict(self._regional)


def read_balance_events(path: str | Path) -> list[BalanceEvent]:
    """Parse a balance-history file: date, donor_country, recipient_country,
    donor_age, program (+ optional donor_region / recipient_region)."""
    return read_table(path, (
        ("date", None, parse_day),
        ("donor_country", None, str.strip),
        ("recipient_country", None, str.strip),
        ("donor_age", None, int),
        ("program", "", str.strip),
        ("donor_region", "", text_or(None)),
        ("recipient_region", "", text_or(None))),
        "balance event", BalanceEvent)
