"""Run statistics, multi-run summaries with 95% interquantile ranges, and
policy comparisons with paired t-tests under common random numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .common import DAYS_PER_YEAR, day_text, round_half_up, write_table
from .engine import SimulationOutput, TransplantRecord
from .entities import ETKAS, GEOGRAPHY_CLASSES
from .fastmatch import POINT_COMPONENTS, CandidateStore, MatchArrays

def vpra_band(vpra: float) -> str:
    """Sensitization bands: 0, >0-84.9, 85-94.9, 95+ (percent)."""
    if vpra <= 0.0:
        return "zero"
    if vpra < 0.85:
        return "low"
    if vpra < 0.95:
        return "mid"
    return "high"


def match_quality_level(mm_b: int, mm_dr: int, mm_total: int) -> int:
    """Four-level HLA match quality grouping.

    1: 0 ABDR mismatches; 2: at most 1 B/DR mismatch; 3: 2B or 1B+1DR;
    4: 2 DR or 3+ B/DR mismatches.
    """
    if mm_total == 0:
        return 1
    bdr = mm_b + mm_dr
    if bdr <= 1:
        return 2
    if mm_dr == 2 or bdr >= 3:
        return 4
    return 3


def age_diff_band(cand_age: int, donor_age: int) -> str:
    diff = cand_age - donor_age
    if diff >= 35:
        return "cand_35p_older"
    if diff >= 15:
        return "cand_15_34_older"
    if diff >= 6:
        return "cand_6_14_older"
    if diff >= -5:
        return "within_5"
    if diff >= -14:
        return "cand_6_14_younger"
    if diff >= -34:
        return "cand_15_34_younger"
    return "cand_35p_younger"


def homozygosity_class(homo_b: bool, homo_dr: bool) -> str:
    if homo_b and homo_dr:
        return "b_and_dr"
    if homo_dr:
        return "dr"
    if homo_b:
        return "b"
    return "none"


def stats_from_output(output: SimulationOutput) -> dict[str, float]:
    """Flat named statistics for one run; every grouping reconciles with the
    transplant total."""
    s: dict[str, float] = {}

    def bump(key: str, amount: float = 1.0) -> None:
        s[key] = s.get(key, 0.0) + amount

    s["transplants.total"] = 0
    for program in ("etkas", "esp"):
        s[f"transplants.{program}"] = 0
    s["transplants.single"] = 0
    s["transplants.dual"] = 0

    for rec in output.transplants:
        program = rec.program.lower()
        bump("transplants.total")
        bump(f"transplants.{program}")
        bump("transplants.dual" if rec.dual else "transplants.single")
        bump(f"{program}.mech.{rec.mechanism}")
        bump(f"{program}.mm.{min(rec.mm_total, 6)}")
        bump(f"{program}.quality.level{match_quality_level(rec.mm_b, rec.mm_dr, rec.mm_total)}")
        bump(f"{program}.vpra.{vpra_band(rec.vpra)}")
        bump(f"{program}.geo.{rec.geography}")
        bump(f"{program}.agediff.{age_diff_band(rec.cand_age, rec.donor_age)}")
        bump(f"{program}.homozygosity.{homozygosity_class(rec.homo_b, rec.homo_dr)}")
        bump(f"country.{rec.cand_country}.transplants")
        if rec.cand_age < 18:
            bump(f"{program}.age.pediatric")
        if rec.cand_age >= 65:
            bump(f"{program}.age.65plus")
        else:
            bump(f"{program}.age.under65")
        bump(f"{program}.repeat" if rec.prior_transplant else f"{program}.primary")

    for key, value in output.counters.items():
        s[key] = float(value)
    return s


@dataclass
class SummaryRow:
    name: str
    mean: float
    lo: float   # 2.5th percentile
    hi: float   # 97.5th percentile
    actual: float | None = None

    @property
    def calibrated(self) -> bool | None:
        if self.actual is None:
            return None
        return self.lo <= self.actual <= self.hi


@dataclass
class SummaryTable:
    rows: list[SummaryRow]


def percentile_bounds(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return (float(np.percentile(arr, 2.5, method="linear")),
            float(np.percentile(arr, 97.5, method="linear")))


def summarize(per_run_stats: Sequence[Mapping[str, float]],
              actual: Mapping[str, float] | None) -> SummaryTable:
    """Per-statistic mean and 95%-IQR (2.5th / 97.5th percentile) across
    runs, with a calibration column when actual values are supplied."""
    if not per_run_stats:
        raise ValueError("need at least one run")
    names = list(dict.fromkeys(name for run in per_run_stats for name in run))
    rows = []
    for name in names:
        values = [float(run.get(name, 0.0)) for run in per_run_stats]
        lo, hi = percentile_bounds(values)
        rows.append(SummaryRow(
            name=name, mean=float(np.mean(values)), lo=lo, hi=hi,
            actual=(float(actual[name]) if actual and name in actual else None)))
    return SummaryTable(rows)


@dataclass
class DeltaRow:
    name: str
    baseline_mean: float
    variant_mean: float
    delta: float
    t_stat: float | None
    p_value: float | None
    stars: str
    # paired mode only: SD(paired difference) / sqrt(var_A + var_B), both
    # with ddof 1 (None at zero spread); 1 means pairing removed no variance
    sd_ratio: float | None = None
    # paired mode only: the paired runs the observed delta would need for
    # p < 0.05, were it and the SD of the differences exact (None where
    # the test is undefined, or more than MAX_RUNS_NEEDED would be needed);
    # unstable near a zero delta
    runs_needed: int | None = None


def _stars(p: float | None) -> str:
    """One star for p < 0.05, two for p < 0.01, three for p < 0.001."""
    return "" if p is None else "*" * ((p < 0.05) + (p < 0.01) + (p < 0.001))


# the most paired runs a delta is reported to need: a delta that needs more
# is round-off next to the spread of the differences, or as good as zero
MAX_RUNS_NEEDED = 10**9


def _runs_needed(mean: float, sd: float) -> int | None:
    """The fewest paired runs n >= 2 at which a paired t-test of mean
    difference ``mean`` and SD ``sd`` > 0 gives p < 0.05; None if more
    than ``MAX_RUNS_NEEDED`` would be needed, as for a ``mean`` of 0 or
    one that is round-off next to ``sd``.  No n below
    (z_0.975 * sd / mean)^2 can, since t quantiles exceed normal ones."""
    from scipy.special import stdtr  # see compare_policies

    if mean == 0:
        return None
    root = 1.959963984540054 * sd / abs(mean)
    if not root * root <= MAX_RUNS_NEEDED:
        return None
    n = max(2, int(root * root))
    while 2.0 * stdtr(n - 1, -abs(mean) * math.sqrt(n) / sd) >= 0.05:
        n += 1
    return n if n <= MAX_RUNS_NEEDED else None


def compare_policies(baseline: Sequence[Mapping[str, float]],
                     variant: Sequence[Mapping[str, float]],
                     paired: bool) -> list[DeltaRow]:
    """Mean differences per statistic with t-test significance.

    Paired mode requires equal run counts (common random numbers pair run i
    with run i), and reports what pairing bought: each row's ``sd_ratio``
    and ``runs_needed``.  Unpaired mode falls back to Welch's test.
    """
    if paired and len(baseline) != len(variant):
        raise ValueError("paired comparison needs equal run counts, got "
                         f"{len(baseline)} and {len(variant)}")
    # SciPy's t distribution function alone, imported only where comparisons
    # are made: its statistics subpackage takes five times as long to
    # import, so only the unpaired test loads it, and run paths and batch
    # workers load neither
    from scipy.special import stdtr

    names = list(dict.fromkeys(name for run in (*baseline, *variant)
                               for name in run))
    rows = []
    for name in names:
        base = np.array([float(r.get(name, 0.0)) for r in baseline])
        var = np.array([float(r.get(name, 0.0)) for r in variant])
        delta = float(var.mean() - base.mean())
        t_stat = p_value = sd_ratio = runs_needed = None
        if paired:
            diffs = var - base
            sd = diffs.std(ddof=1) if len(diffs) > 1 else 0.0
            if sd > 0:
                t_stat = float(diffs.mean() / (sd / math.sqrt(len(diffs))))
                p_value = float(2.0 * stdtr(len(diffs) - 1, -abs(t_stat)))
                runs_needed = _runs_needed(float(diffs.mean()), float(sd))
            elif np.allclose(diffs, 0.0):
                t_stat, p_value = 0.0, 1.0
            if len(diffs) > 1:
                spread = base.var(ddof=1) + var.var(ddof=1)
                if spread > 0:
                    sd_ratio = float(sd / math.sqrt(spread))
        else:
            if len(base) > 1 and len(var) > 1 and (base.std() > 0 or var.std() > 0):
                from scipy import stats
                res = stats.ttest_ind(var, base, equal_var=False)
                t_stat, p_value = float(res.statistic), float(res.pvalue)
        rows.append(DeltaRow(name=name, baseline_mean=float(base.mean()),
                             variant_mean=float(var.mean()), delta=delta,
                             t_stat=t_stat, p_value=p_value,
                             stars=_stars(p_value), sd_ratio=sd_ratio,
                             runs_needed=runs_needed))
    return rows


def reconciliation_problems(stats: Mapping[str, float]) -> list[str]:
    """Cross-checks between groupings and the transplant totals."""
    problems = []
    total = stats.get("transplants.total", 0.0)
    country_sum = sum(v for k, v in stats.items()
                      if k.startswith("country.") and k.endswith(".transplants"))
    if country_sum != total:
        problems.append(f"country rows sum to {country_sum}, total {total}")
    program_sum = (stats.get("transplants.etkas", 0.0)
                   + stats.get("transplants.esp", 0.0))
    if program_sum != total:
        problems.append(f"program rows sum to {program_sum}, total {total}")
    for program in ("etkas", "esp"):
        geo = sum(v for k, v in stats.items()
                  if k.startswith(f"{program}.geo."))
        if geo != stats.get(f"transplants.{program}", 0.0):
            problems.append(f"{program} geography rows sum to {geo}")
    return problems


# ---------------------------------------------------------------------------
# Match-list export in the published example-table layout

def write_match_list_csv(path: Path, arrays: MatchArrays,
                         store: CandidateStore) -> None:
    """Dump one donor's ranked list, as ``fastmatch.build_match_arrays``
    returns it for ``store``.  The ETKAS layout carries the tier, match
    quality, dialysis years, rank, the point components rounded half-up and
    their sum; the ESP layout reduces to geography and dialysis days."""
    rows = enumerate(zip(arrays.rows.tolist(), arrays.dial_days.tolist(),
                         arrays.geo_idx.tolist(),
                         arrays.filtered.astype(int).tolist()))
    if arrays.program == ETKAS:
        names = ("dialysis", "hla", "pediatric", "hu", "balance", "distance",
                 "mmp")
        header = ["rank", "candidate_id", "tier", "match_quality",
                  "dialysis_years", "total", *names, "geography", "filtered"]

        def etkas_row(i, row, days, geo, filtered):
            comp = [round_half_up(float(arrays.comp[name][i]))
                    for name in names]
            tier = {3: "0MM", 2: "PED"}.get(int(arrays.tier[i]) // 4, ">0MM")
            quality = f"{arrays.mm_a[i]}{arrays.mm_b[i]}{arrays.mm_dr[i]}"
            return [i + 1, store.ids[row], tier, quality,
                    f"{days / DAYS_PER_YEAR:.1f}", sum(comp), *comp,
                    GEOGRAPHY_CLASSES[geo], filtered]

        body = (etkas_row(i, *values) for i, values in rows)
    else:
        header = ["rank", "candidate_id", "dialysis_days", "points",
                  "geography", "filtered"]
        body = ([i + 1, store.ids[row], days,
                 round_half_up(float(arrays.total[i])),
                 GEOGRAPHY_CLASSES[geo], filtered]
                for i, (row, days, geo, filtered) in rows)
    write_table(path, header, body)


# ---------------------------------------------------------------------------
# File output

def _fmt(value: float) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}"


def write_transplants_csv(path: Path, records: Sequence[TransplantRecord]) -> None:
    write_table(path, [
        "donor_id", "candidate_id", "date", "program", "mechanism", "forced",
        "dual", "kidneys", "rank", "mm_a", "mm_b", "mm_dr", "geography",
        "total_points", "dialysis_points", "hla_points", "pediatric_points",
        "hu_points", "mmp_points", "balance_points", "distance_points",
        "cand_country", "donor_country", "cand_age", "donor_age",
        "dialysis_days", "vpra", "prior_tx"], ([
            r.donor_id, r.candidate_id, day_text(r.when_days), r.program,
            r.mechanism, int(r.forced), int(r.dual), r.kidneys, r.rank,
            r.mm_a, r.mm_b, r.mm_dr, r.geography, f"{r.total_points:.4f}",
            *(f"{r.comp[c]:.4f}" for c in POINT_COMPONENTS),
            r.cand_country, r.donor_country, r.cand_age, r.donor_age,
            r.dialysis_days, f"{r.vpra:.6f}", int(r.prior_transplant)]
            for r in records))


def write_final_states_csv(path: Path, output: SimulationOutput) -> None:
    write_table(path, ["candidate_id", "status", "status_date"],
                ([cand_id, status, day_text(day)]
                 for cand_id, status, day in output.final_states))


def write_stats_csv(path: Path, stats: Mapping[str, float]) -> None:
    write_table(path, ["statistic", "value"],
                ([name, _fmt(stats[name])] for name in sorted(stats)))


def write_trace_csv(path: Path, traces: Sequence[tuple]) -> None:
    write_table(path, ["donor_id", "candidate_id", "center", "stage",
                       "decision", "probability"],
                ([*entry, "" if prob is None else f"{prob:.6f}"]
                 for *entry, prob in traces))


def write_run_files(out_dir: Path, output: SimulationOutput,
                    stats: Mapping[str, float]) -> None:
    """Write one run's transplants.csv, final_states.csv and stats.csv into
    ``out_dir`` (created if missing), and offer_trace.csv if it was traced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_transplants_csv(out_dir / "transplants.csv", output.transplants)
    write_final_states_csv(out_dir / "final_states.csv", output)
    write_stats_csv(out_dir / "stats.csv", stats)
    if output.offer_trace is not None:
        write_trace_csv(out_dir / "offer_trace.csv", output.offer_trace)


def write_summary_csv(path: Path, table: SummaryTable) -> None:
    write_table(path, ["statistic", "mean", "p2.5", "p97.5", "actual",
                       "calibrated"],
                ([r.name, _fmt(r.mean), _fmt(r.lo), _fmt(r.hi),
                  "" if r.actual is None else _fmt(r.actual),
                  "" if r.calibrated is None else
                  ("yes" if r.calibrated else "NO")] for r in table.rows))


def render_summary_text(table: SummaryTable) -> str:
    lines = [f"{'statistic':<44} {'mean':>10} {'95%-IQR':>23} {'actual':>10}"]
    for r in table.rows:
        band = f"[{_fmt(r.lo)}, {_fmt(r.hi)}]"
        actual = "" if r.actual is None else _fmt(r.actual)
        flag = ""
        if r.calibrated is False:
            flag = "  *off*"
        lines.append(f"{r.name:<44} {_fmt(r.mean):>10} {band:>23} "
                     f"{actual:>10}{flag}")
    return "\n".join(lines) + "\n"


def _or_blank(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def write_delta_csv(path: Path, rows: Sequence[DeltaRow]) -> None:
    write_table(path, ["statistic", "baseline_mean", "variant_mean", "delta",
                       "t", "p", "stars", "sd_ratio", "runs_needed"],
                ([r.name, _fmt(r.baseline_mean), _fmt(r.variant_mean),
                  _fmt(r.delta), _or_blank(r.t_stat, ".4f"),
                  _or_blank(r.p_value, ".6g"), r.stars,
                  _or_blank(r.sd_ratio, ".4f"), _or_blank(r.runs_needed, "d")]
                 for r in rows))


def render_delta_text(rows: Sequence[DeltaRow]) -> str:
    lines = [f"{'statistic':<44} {'baseline':>10} {'variant':>10} "
             f"{'delta':>10} {'p':>10} {'sd_ratio':>8} {'runs':>6}"]
    for r in rows:
        lines.append(f"{r.name:<44} {_fmt(r.baseline_mean):>10} "
                     f"{_fmt(r.variant_mean):>10} {_fmt(r.delta):>10} "
                     f"{_or_blank(r.p_value, '.4g'):>10} "
                     f"{_or_blank(r.sd_ratio, '.3f'):>8} "
                     f"{_or_blank(r.runs_needed, 'd'):>6} {r.stars}")
    if any(r.runs_needed is not None for r in rows):
        lines.append("runs: paired runs the delta would need for p < 0.05 "
                     "if it and its SD held; unstable for deltas near 0")
    return "\n".join(lines) + "\n"
