"""What the benchmark measures: workloads, populations and metric catalogue.

This module is the benchmark's own documentation in data form.
``BENCHMARK.json`` at the repository root repeats the workload names and the
metrics with their units; ``test_smoke.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date


@dataclass(frozen=True)
class Population:
    """Arguments for ``etkasim.synthetic.generate_population``."""
    n_candidates: int
    n_donors: int
    start: date
    end: date
    panel_size: int
    unplaced_mode: str = "force"


# Acceptance Criterion 8 (validation scale) and Criterion 7 (case study).
POPULATIONS = {
    "validation": Population(24_000, 4_300, date(2021, 4, 1),
                             date(2024, 1, 1), 10_000),
    "case_study": Population(2_000, 600, date(2021, 4, 1),
                             date(2023, 1, 1), 2_000),
    # a few seconds end to end; used by the smoke test
    "tiny": Population(250, 80, date(2021, 4, 1), date(2022, 4, 1), 400),
}


@dataclass(frozen=True)
class Workload:
    name: str
    population: str       # key of POPULATIONS at full scale
    pop_seed: int         # default population seed
    holdout_seed: int     # second population seed, kept out of tuning
    n_runs: int           # simulation seeds per operation: seed .. seed+n-1
    policies: int         # policies run on each seed
    setup_probes: int     # separate set-ups per run; setup_s is the median of
                          # these and of the operations' own, if they time one
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("validation", "validation", 8, 18, 1, 1, 2,
             "etkasim run at validation scale (24k registrations, 4.3k "
             "donors; pop seed 8, hold-out 18): ingest- and match-build-"
             "heavy. Load, initialize, run, stats, three CSVs, replay."),
    Workload("case_study", "case_study", 99, 109, 20, 2, 5,
             "Baseline vs B+2DR on 20 paired seeds, serial, 2k registrations "
             "(pop seed 99, hold-out 109): load amortised over 40 runs, "
             "offering weighs more; ingest gains should not show."),
    Workload("batch_parallel", "case_study", 99, 109, 20, 1, 5,
             "run_batch of 20 seeds on min(2, nproc) workers writing per-run "
             "files (pop seed 99, hold-out 109): the only workload using the "
             "process pool and the parent's serial re-run."),
)}

TINY_RUNS = 3   # seeds per operation at the tiny scale

# the policy the case study compares against the baseline: B+2DR
B2DR_BETAS = (0.0, -66.7, -133.3)

# headline statistics over which crn_sd_ratio takes its median
CRN_STATISTICS = ("transplants.total", "etkas.quality.level4",
                  "etkas.homozygosity.dr", "etkas.geo.international",
                  "kidneys.discarded", "wl.deaths")

EVENT_KINDS = ("status", "balance", "discard", "transplant", "relist")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    moves: str = ""       # end-to-end metric and workload this should move


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float          # share of the parent's median it may worsen by
    better: str = "lower"


# Printed as the final result with --trace 0.  Every one is defined on every
# workload and is never zero.  Times are in reference seconds (speed.py):
# wall seconds rescaled to a fixed CPU speed, so that they stay comparable
# on a host whose speed drifts.
END_TO_END = (
    EndToEnd("run_s", "s", 0.24),
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("peak_rss_mb", "MB", 0.1),
)

# Also printed, in the report above the result line, where they apply; they
# are not in the result because they are undefined on some workload
# (loop_wall_s on batch_parallel, crn_sd_ratio outside case_study), zero at
# this commit (fail_ratio, carried by `attempted` and `failed`), or too
# noisy on a shared host to gate on (wall times).
REPORTED_ONLY = (
    Metric("run_wall_s", "s"),
    Metric("setup_wall_s", "s"),
    Metric("loop_wall_s", "s"),
    Metric("fail_ratio", "ratio"),
    Metric("crn_sd_ratio", "ratio"),
)

_IO = "setup_s and run_s on validation; no change on case_study"
_INIT = "setup_s on validation, run_s on case_study"
_LOOP = "loop_wall_s on validation and case_study"
_MATCH = ("loop_wall_s on validation strongly, on case_study weakly; run_s "
          "on batch_parallel")
_BAL = "loop_wall_s on validation"
_OFFER = "loop_wall_s, with a larger share on case_study"
_POST = "loop_wall_s (under 5% today); guards the CRN substreams"
_REPORT = "run_s on batch_parallel and validation"
_BATCH = "run_s on batch_parallel; no change on case_study"
_TRACE = "none: the cost of tracing itself (traced over untraced run_s)"

# Printed as the final result with --trace 1, from one traced operation.
# Timings of layers a workload does not use read 0.
PER_LAYER = (
    Metric("io.load_registrations.s", "s", _IO),
    Metric("io.load_status_updates.s", "s", _IO),
    Metric("io.load_donors.s", "s", _IO),
    Metric("hla.DonorPanel.from_file.s", "s", _IO),
    Metric("io.status_rows", "count", _IO),
    Metric("io.scr_share", "ratio", _IO),
    Metric("engine.initialize.s", "s", _INIT),
    Metric("fastmatch.CandidateStore.finalize_derived_values.s", "s", _INIT),
    Metric("engine.run.s", "s", _LOOP),
    Metric("engine.run.self_s", "s", _LOOP),
    Metric("engine.patient_events", "count", _LOOP),
    *(Metric(f"engine.events.{kind}", "count", _LOOP) for kind in EVENT_KINDS),
    Metric("fastmatch.build_match_arrays.s", "s", _MATCH),
    Metric("fastmatch.build_match_arrays.calls", "count", _MATCH),
    Metric("fastmatch.build_match_arrays.p99_ms", "ms", _MATCH),
    Metric("fastmatch.rows_scanned", "count", _MATCH),
    Metric("fastmatch.list_len", "count", _MATCH),
    Metric("fastmatch.useful_share", "ratio", _MATCH),
    Metric("fastmatch.CandidateStore.apply_update.s", "s", _MATCH),
    Metric("balances.regional_net_export.calls", "count", _BAL),
    Metric("balances.record_transfer.calls", "count", _BAL),
    Metric("offering.run_allocation.s", "s", _OFFER),
    Metric("offering.run_allocation.calls", "count", _OFFER),
    Metric("offering.CoxSampler.sample.s", "s", _OFFER),
    Metric("offering.acceptances", "count", _OFFER),
    Metric("offering.forced", "count", _OFFER),
    Metric("offering.non_standard", "count", _OFFER),
    Metric("offering.k_max_none", "count", _OFFER),
    Metric("posttransplant.sample_failure_time.s", "s", _POST),
    Metric("posttransplant.sample_failure_time.calls", "count", _POST),
    Metric("posttransplant.sample_relist_time.s", "s", _POST),
    Metric("posttransplant.sample_relist_time.calls", "count", _POST),
    Metric("posttransplant.build_synthetic_relisting.s", "s", _POST),
    Metric("posttransplant.build_synthetic_relisting.calls", "count", _POST),
    Metric("posttransplant.relists_created", "count", _POST),
    Metric("reporting.stats_from_output.s", "s", _REPORT),
    Metric("reporting.write_s", "s", _REPORT),
    Metric("engine.verify_replay.s", "s", _REPORT),
    Metric("batch.run_batch.s", "s", _BATCH),
    Metric("batch.pool_s", "s", _BATCH),
    Metric("batch.parent_rerun_calls", "count", _BATCH),
    Metric("batch.parent_rerun_s", "s", _BATCH),
    Metric("trace.run_s", "s", _TRACE),
    Metric("trace.overhead", "ratio", _TRACE),
)

RUN_SECONDS = 30


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": "higher"
                       if m.name.endswith("useful_share") else "lower"}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json
    print(json.dumps(benchmark_json(), indent=2))
