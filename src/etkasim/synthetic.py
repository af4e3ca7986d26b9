"""Synthetic input generation: populations, model files, and settings.

Everything here is fabricated but shaped like the real inputs: candidate
registrations with complete status streams (every spell ends in a removal
or death), donors with quality attributes, balance histories, a reference
donor panel, and plausible acceptance/outcome model coefficients.  Used for
the shipped demo fixture, the test suite, and throughput checks.
"""

from __future__ import annotations

import os
from datetime import date
from pathlib import Path

import numpy as np
import yaml

from .common import day_text, to_days, write_table
from .entities import DEATH_CAUSE_GROUPS, CenterRegistry
from .hla import BLOOD_GROUPS, HLA_COLUMNS, FrequencyTable
from .io import data_path

COUNTRY_WEIGHTS = {
    "DE": 0.42, "NL": 0.13, "BE": 0.12, "AT": 0.09, "HU": 0.10,
    "HR": 0.07, "SI": 0.04, "LU": 0.03,
}

DEATH_CAUSE_P = (0.50, 0.22, 0.16, 0.12)


def _choice(rng, items, p=None):
    idx = rng.choice(len(items), p=p)
    return items[int(idx)]


class PopulationBuilder:
    """Writes a full, parseable input directory for the simulator."""

    def __init__(self, out_dir: str | Path, seed: int):
        self.out = Path(out_dir)
        os.makedirs(self.out, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.centers = CenterRegistry.from_file(data_path("centers.csv"))
        self.freqs = FrequencyTable.from_file(data_path("hla_frequencies.csv"))
        self.countries = [c for c in COUNTRY_WEIGHTS
                          if c in self.centers.countries]
        weights = np.array([COUNTRY_WEIGHTS[c] for c in self.countries])
        self.country_p = weights / weights.sum()
        self.centers_by_country = {}
        for center in self.centers.centers():
            self.centers_by_country.setdefault(center.country, []).append(
                center.code)
        for codes in self.centers_by_country.values():
            codes.sort()

    # -- pieces -----------------------------------------------------------

    def _typing_codes(self) -> list[str]:
        codes = []
        for locus in ("A", "B", "DR"):
            dist = self.freqs.locus(locus)
            names = sorted(dist)
            # two codes drawn independently: a genotype
            pair = self.rng.choice(names, size=2, p=[dist[c] for c in names])
            codes.append(sorted(set(pair)))
        return codes

    def _unacceptables(self, own: set[str]) -> list[str]:
        u = self.rng.random()
        if u < 0.70:
            return []
        if u < 0.85:
            n = int(self.rng.integers(1, 4))
        elif u < 0.95:
            n = int(self.rng.integers(4, 11))
        else:
            n = int(self.rng.integers(12, 26))
        pool = []
        for locus in ("A", "B", "DR"):
            dist = self.freqs.locus(locus)
            pool.extend((code, f) for code, f in dist.items()
                        if code not in own)
        pool.sort()
        codes = [c for c, _ in pool]
        weights = np.array([f for _, f in pool])
        weights = weights / weights.sum()
        picked = self.rng.choice(len(codes), size=min(n, len(codes)),
                                 replace=False, p=weights)
        return sorted(codes[int(i)] for i in picked)

    def _country_center(self) -> tuple[str, str]:
        country = _choice(self.rng, self.countries, self.country_p)
        center = _choice(self.rng, self.centers_by_country[country])
        return country, center

    # -- candidate stream ---------------------------------------------------

    def write_candidates(self, n: int, start: date, end: date) -> None:
        rng = self.rng
        start_d, end_d = to_days(start), to_days(end)
        window = end_d - start_d
        reg_rows = []
        upd_rows = []

        for i in range(n):
            cid = f"C{i:06d}"
            country, center = self._country_center()

            u_age = rng.random()
            if u_age < 0.04:
                age = rng.uniform(1, 17)
            elif u_age < 0.34:
                age = rng.uniform(18, 50)
            elif u_age < 0.75:
                age = rng.uniform(50, 65)
            else:
                age = rng.uniform(65, 82)

            if rng.random() < 0.6:
                reg_days = start_d - int(rng.integers(0, 5 * 365))
            else:
                reg_days = start_d + int(rng.integers(0, max(window, 1)))
            dob_days = reg_days - int(age * 365.25)

            dialysis = None
            if rng.random() > 0.10:
                dialysis = reg_days - int(rng.integers(0, 6 * 365))

            codes = self._typing_codes()
            own = {c for pair in codes for c in pair}
            unacc = self._unacceptables(own)

            prior_tx = rng.random() < 0.08
            prev_tx = reg_days - int(rng.integers(30, 10 * 365)) if prior_tx \
                else None
            # keep generated repeat listings initialized pre-window
            if prev_tx is not None and prev_tx >= start_d:
                prev_tx = start_d - int(rng.integers(30, 3 * 365))

            profile = ""
            if rng.random() < 0.5:
                max_age = int(min(130, max(50, age + rng.uniform(10, 35))))
                bits = [f"max_age={max_age}"]
                if rng.random() < 0.15:
                    bits.append("accept_dcd=0")
                if rng.random() < 0.20:
                    bits.append("accept_ext=0")
                if rng.random() < 0.05:
                    bits.append("accept_hcv=0")
                profile = ";".join(bits)

            mm_crit = ""
            u_mm = rng.random()
            if u_mm < 0.55:
                mm_crit = "222"
            elif u_mm < 0.75:
                mm_crit = "222 **2"

            choice = ""
            if country == "DE" and age >= 64:
                choice = "ETKAS" if rng.random() < 0.4 else "ESP"
            opt_in = 1 if (age < 65 and rng.random() < 0.05) else 0

            bg = _choice(rng, BLOOD_GROUPS, (0.43, 0.40, 0.12, 0.05))

            reg_rows.append([
                cid, cid, country, center, bg,
                _iso(dob_days), _iso(reg_days),
                *_hla_cols(codes),
                " ".join(unacc),
                _iso(dialysis) if dialysis else "",
                int(prior_tx), _iso(prev_tx) if prev_tx else "",
                _iso(reg_days), "T", profile, mm_crit,
                0, int(rng.random() < 0.01), opt_in, choice,
            ])

            # timeline: screening refreshes, NT spells, a terminal R/D
            exit_days = reg_days + int(rng.exponential(9 * 365))
            exit_code = "D" if rng.random() < 0.45 else "R"
            upd_rows.append([cid, _iso(reg_days), "URG", "T"])

            t = reg_days
            while True:
                t += int(rng.integers(120, 160))
                if t >= exit_days:
                    break
                upd_rows.append([cid, _iso(t), "SCR", ""])
            n_nt = int(rng.integers(0, 3)) if rng.random() < 0.35 else 0
            for _ in range(n_nt):
                nt_at = reg_days + int(rng.integers(30, max(31, exit_days - reg_days)))
                if nt_at >= exit_days:
                    continue
                back = min(exit_days - 1, nt_at + int(rng.integers(30, 180)))
                upd_rows.append([cid, _iso(nt_at), "URG", "NT"])
                if back > nt_at:
                    upd_rows.append([cid, _iso(back), "URG", "T"])
            if rng.random() < 0.015:
                hu_at = reg_days + int(rng.integers(10, max(11, min(exit_days - reg_days, 4 * 365))))
                if hu_at < exit_days:
                    upd_rows.append([cid, _iso(hu_at), "URG", "HU"])
                    back = min(exit_days - 1, hu_at + int(rng.integers(20, 90)))
                    if back > hu_at:
                        upd_rows.append([cid, _iso(back), "URG", "T"])
            upd_rows.append([cid, _iso(exit_days), "URG", exit_code])

        write_table(self.out / "registrations.csv", [
            "id", "patient_id", "country", "center", "bg", "dob",
            "registration_date", *HLA_COLUMNS, "unacceptables",
            "dialysis_start", "prior_tx", "prev_tx_date", "screening_date",
            "urgency", "profile", "mm_criteria", "am", "kaoo", "esp_opt_in",
            "program_choice"], reg_rows)
        write_table(self.out / "statuses.csv",
                    ["candidate_id", "date", "kind", "payload"], upd_rows)

    # -- donor stream ---------------------------------------------------

    def write_donors(self, n: int, start: date, end: date) -> None:
        rng = self.rng
        start_d, end_d = to_days(start), to_days(end)
        rows = []
        for i in range(n):
            did = f"D{i:05d}"
            country, center = self._country_center()
            if rng.random() < 0.25:  # ESP-aged
                age = rng.uniform(65, 88)
            elif rng.random() < 0.04:
                age = rng.uniform(1, 17)
            else:
                age = rng.uniform(18, 64.99)
            age = int(age)
            dcd = rng.random() < (0.15 if country in ("NL", "BE", "AT") else 0.02)
            creat = float(np.round(np.exp(rng.normal(0.0, 0.35)), 2))
            diabetes = rng.random() < (0.02 + age / 400)
            hypertension = rng.random() < (0.05 + age / 250)
            smoking = rng.random() < 0.25
            proteinuria = rng.random() < 0.05
            malignancy = rng.random() < 0.02
            extended = age >= 65 or (age >= 50 and (hypertension or creat > 1.5))
            rows.append([
                did, _iso(int(rng.integers(start_d, end_d + 1))), age,
                _choice(rng, BLOOD_GROUPS, (0.43, 0.40, 0.12, 0.05)),
                *_hla_cols(self._typing_codes()),
                country, center,
                _choice(rng, DEATH_CAUSE_GROUPS, DEATH_CAUSE_P),
                int(dcd), creat, int(diabetes), int(smoking),
                int(proteinuria), int(hypertension), int(malignancy),
                int(rng.random() < 0.03), int(rng.random() < 0.01),
                int(extended), 2 if rng.random() < 0.96 else 1,
            ])
        rows.sort(key=lambda r: (r[1], r[0]))
        write_table(self.out / "donors.csv", [
            "id", "report_date", "age", "bg", *HLA_COLUMNS, "country",
            "center", "death_cause", "dcd", "creatinine", "diabetes",
            "smoking", "proteinuria", "hypertension", "malignancy", "hcv",
            "hbs", "extended", "kidneys"], rows)

    # -- balance history and panel ----------------------------------------

    def write_balances(self, start: date, end: date) -> None:
        """200 draws of pre-window transfers, six a month in the window;
        draws within one country are dropped."""
        rng = self.rng
        start_d, end_d = to_days(start), to_days(end)
        rows = []
        for _ in range(200):
            d_country = _choice(rng, self.countries, self.country_p)
            r_country = _choice(rng, self.countries, self.country_p)
            if d_country == r_country:
                continue
            when = start_d - int(rng.integers(1, 3 * 365))
            rows.append(self._balance_row(when, d_country, r_country))
        n_window = int((end_d - start_d) / 30.44 * 6.0)
        for _ in range(n_window):
            d_country = _choice(rng, self.countries, self.country_p)
            r_country = _choice(rng, self.countries, self.country_p)
            if d_country == r_country:
                continue
            when = int(rng.integers(start_d + 1, end_d + 1))
            rows.append(self._balance_row(when, d_country, r_country))
        rows.sort()
        write_table(self.out / "balances.csv", [
            "date", "donor_country", "recipient_country", "donor_age",
            "program", "donor_region", "recipient_region"], rows)

    def _balance_row(self, when: int, d_country: str, r_country: str):
        rng = self.rng
        d_region = r_region = ""
        if d_country == "AT":
            d_region = self.centers.get(
                _choice(rng, self.centers_by_country["AT"])).region
        if r_country == "AT":
            r_region = self.centers.get(
                _choice(rng, self.centers_by_country["AT"])).region
        return [_iso(when), d_country, r_country, int(rng.integers(1, 80)),
                _choice(rng, ("AM", "combined")), d_region, r_region]

    def write_panel(self, n: int) -> None:
        write_table(self.out / "panel.csv", HLA_COLUMNS,
                    (_hla_cols(self._typing_codes()) for _ in range(n)))

    # -- settings -----------------------------------------------------------

    def write_settings(self, start: date, end: date,
                       unplaced_mode: str) -> Path:
        doc = {
            "window": {"start": start.isoformat(), "end": end.isoformat()},
            "paths": {
                "candidates": "registrations.csv",
                "statuses": "statuses.csv",
                "donors": "donors.csv",
                "balances": "balances.csv",
                "panel": "panel.csv",
            },
            "seed": 1,
            "unplaced_mode": unplaced_mode,
            "output_dir": "out",
        }
        path = self.out / "settings.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        return path


def _iso(days: int) -> str:
    return day_text(int(days))


def _hla_cols(codes: list[list[str]]) -> list[str]:
    out = []
    for pair in codes:
        out.append(pair[0])
        out.append(pair[1] if len(pair) > 1 else "")
    return out


def generate_population(out_dir: str | Path, n_candidates: int, n_donors: int,
                        start: date, end: date, seed: int = 20210401,
                        panel_size: int = 2000,
                        unplaced_mode: str = "force") -> Path:
    """Write a complete input directory and return the settings path."""
    builder = PopulationBuilder(out_dir, seed=seed)
    builder.write_candidates(n_candidates, start, end)
    builder.write_donors(n_donors, start, end)
    builder.write_balances(start, end)
    builder.write_panel(panel_size)
    return builder.write_settings(start, end, unplaced_mode)


# ---------------------------------------------------------------------------
# Default model files (shipped as package data; regenerate with this module)

def write_model_files(out_dir: str | Path) -> None:
    out = Path(out_dir)
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(7)

    def coef_file(name: str, model_id: str, rows: dict[str, float]) -> None:
        write_table(out / name, ["name", "value"], rows.items(), model_id)

    coef_file("cox_max_offers.csv", "max_offers", {
        "donor_age_dec": 0.06, "donor_dcd": 0.25, "donor_extended": 0.35,
        "donor_creatinine": 0.10, "donor_diabetes": 0.12,
        "donor_smoking": 0.05, "donor_proteinuria": 0.10, "donor_hcv": 0.6,
        "donor_death_cva": 0.05,
    })
    strata = [f"ETKAS:{c}" for c in COUNTRY_WEIGHTS] + ["ETKAS:default",
                                                         "ESP"]
    baselines = []
    for stratum in strata:
        rate = 0.055 if stratum != "ESP" else 0.075
        baselines += ([stratum, k, f"{np.exp(-rate * k):.6f}"]
                      for k in range(1, 81))
    write_table(out / "cox_baselines.csv", ["stratum", "k", "s0"], baselines,
                "max_offers")

    coef_file("accept_etkas_center.csv", "etkas_center_accept", {
        "(Intercept)": 2.1, "donor_age_dec": -0.12, "donor_dcd": -0.35,
        "donor_extended": -0.45, "donor_creatinine": -0.15,
        "donor_hcv": -1.6, "donor_malignancy": -0.8,
        "match_national": -0.25, "match_international": -0.6,
    })
    coef_file("accept_etkas_patient.csv", "etkas_patient_accept", {
        "(Intercept)": 0.9, "donor_age_dec": -0.10, "donor_dcd": -0.2,
        "donor_extended": -0.35, "donor_creatinine": -0.12,
        "mm_total": -0.16, "mm_dr": -0.14, "age_diff_abs": -0.016,
        "cand_dialysis_years": 0.03, "cand_hu": 0.9, "cand_vpra": -0.25,
        "cand_prior_tx": -0.15, "match_international": -0.35,
        "offer_rank": -0.012,
    })
    coef_file("accept_esp_center.csv", "esp_center_accept", {
        "(Intercept)": 1.7, "donor_age_dec": -0.09, "donor_extended": -0.35,
        "donor_creatinine": -0.15, "match_international": -0.8,
        "match_national": -0.3,
    })
    coef_file("accept_esp_patient.csv", "esp_patient_accept", {
        "(Intercept)": 0.7, "donor_age_dec": -0.06, "donor_extended": -0.25,
        "age_diff_abs": -0.012, "cand_dialysis_years": 0.04, "cand_hu": 0.7,
        "cand_vpra": -0.15, "match_international": -0.45,
        "offer_rank": -0.015,
    })
    coef_file("dual.csv", "dual_kidney", {
        "(Intercept)": -5.6, "donor_age_dec": 0.32, "cand_age": -0.008,
        "donor_creatinine": 0.25, "rescue": 0.5,
    })

    coefficients = {
        "(Intercept)": 7000.0, "donor_age_dec": -120.0, "cand_age": -25.0,
        "mm_total": -80.0, "cand_dialysis_years": -40.0,
        "donor_extended": -300.0, "cand_prior_tx": -250.0,
        "non_standard": -150.0, "cross_border": -30.0, "donor_dcd": -100.0,
        "donor_creatinine": -50.0, "mm_dr": -40.0, "tx_year_index": 0.0}
    shapes = {"default": 1.15, "DE": 1.10, "AT": 1.20, "NL": 1.25,
              "BE": 1.15, "HR": 1.10, "HU": 1.05, "SI": 1.20, "LU": 1.15}
    write_table(out / "weibull_post_transplant.csv", ["kind", "name", "value"],
                [*(["coef", *item] for item in coefficients.items()),
                 *(["shape", *item] for item in shapes.items())],
                "post_transplant_failure")

    _write_relist_curves(out / "relist_curves.csv")
    _write_relist_pool(out / "relist_pool.csv",
                       out / "relist_pool_updates.csv", rng)


_PLATEAU_BY_AGE = {"0-17": 0.10, "18-39": 0.18, "40-49": 0.28, "50-54": 0.38,
                   "55-59": 0.50, "60-64": 0.65, "65-69": 0.85, "70-74": 0.93,
                   "75+": 0.97}
_T_FACTOR = {"lt180d": 0.90, "180d_1y": 0.95, "1y_2y": 1.00, "2y_5y": 1.05,
             "ge5y": 1.25}


def _write_relist_curves(path: Path) -> None:
    from .posttransplant import AGE_BUCKETS, TIME_BUCKETS
    grid = [round(0.05 + 0.05 * i, 2) for i in range(19)]  # 0.05 .. 0.95
    rows = []
    for tb in TIME_BUCKETS:
        for ab in AGE_BUCKETS:
            plateau = min(0.98, _PLATEAU_BY_AGE[ab] * _T_FACTOR[tb])
            for s in grid:
                ramp = (s / grid[-1]) ** 0.8
                surv = 1.0 - (1.0 - plateau) * ramp
                rows.append([tb, ab, s, f"{surv:.6f}"])
    write_table(path, ["t_bucket", "age_bucket", "s", "survival"], rows)


def _write_relist_pool(entries_path: Path, updates_path: Path, rng) -> None:
    entries = []
    updates = []
    countries = list(COUNTRY_WEIGHTS)
    weights = np.array(list(COUNTRY_WEIGHTS.values()))
    weights = weights / weights.sum()
    for i in range(240):
        pid = f"P{i:04d}"
        country = _choice(rng, countries, weights)
        age = float(np.round(rng.uniform(18, 78), 1))
        t_days = float(np.round(rng.uniform(200, 5200), 0))
        r_days = float(np.round(t_days * rng.uniform(0.15, 0.9), 0))
        dial = int(rng.integers(0, 6 * 365))
        within_1y = 1 if r_days <= 365.25 else 0
        entries.append([pid, country, age, dial, within_1y, r_days, t_days])
        updates.append([pid, 0, "T"])
        t = 0
        if rng.random() < 0.3:
            t = int(rng.integers(60, 700))
            updates.append([pid, t, "NT"])
            t += int(rng.integers(30, 200))
            updates.append([pid, t, "T"])
        exit_at = t + int(rng.integers(200, 2500))
        updates.append([pid, exit_at, "D" if rng.random() < 0.5 else "R"])
    write_table(entries_path, ["id", "country", "age_at_relist",
                               "dialysis_days", "within_1y", "r_days",
                               "t_days"], entries)
    write_table(updates_path, ["pool_id", "offset_days", "status"], updates)
