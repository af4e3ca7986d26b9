"""The benchmark's workload operations and their correctness checks.

Each operation drives etkasim only through its public API and returns an
``OpResult``: its timings, the number of simulation runs it attempted, the
problems found in them, and a digest per run so that repetitions of the
same workload and seed can be compared byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from etkasim import batch, engine, reporting
from etkasim.io import load_inputs, load_settings
from etkasim.policy import PolicyConfig

import spec
from speed import REF_SECONDS, SpeedSampler

RUN_FILES = ("transplants.csv", "final_states.csv", "stats.csv")


@dataclass
class OpResult:
    """Times in reference seconds (see speed.py) unless named ``*_wall_s``."""
    loop_wall_s: float | None = None  # not measured where workers run it
    run_s: float = 0.0
    run_wall_s: float = 0.0
    ref_loop_ms: float = 0.0         # mean duration of the reference loop
    speed_samples: int = 0
    setup_s: float | None = None     # validation times its own set-up
    setup_wall_s: float | None = None
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_runs: set[str] = field(default_factory=set)
    digests: dict[str, str] = field(default_factory=dict)
    transplants: int = 0
    events: Counter = field(default_factory=Counter)
    status_rows: int = 0
    scr_rows: int = 0
    crn_sd_ratio: float | None = None
    replay_checked: int = 0

    def fail(self, run: str, problem: str) -> None:
        self.failed_runs.add(run)
        self.problems.append(f"{run}: {problem}")


def _set_up(settings_path: Path, seed: int, work_dir: Path):
    """Load the inputs and build the initial state; return both and the
    time taken, in reference and in wall seconds."""
    gc.collect()
    with SpeedSampler(work_dir) as speed:
        t0 = perf_counter()
        inputs = load_inputs(load_settings(settings_path))
        state = engine.initialize(inputs, seed)
        t1 = perf_counter()
    wall = t1 - t0 - speed.overhead
    return inputs, state, speed.ref_seconds(wall), wall


def setup_once(settings_path: Path, seed: int,
               work_dir: Path) -> tuple[float, float]:
    """One set-up: (reference seconds, wall seconds)."""
    return _set_up(settings_path, seed, work_dir)[2:]


def _finish_timing(result: OpResult, speed: SpeedSampler, seconds: float,
                   before: tuple[float, float] = (0.0, 0.0)) -> None:
    """Record ``seconds`` of wall time sampled by ``speed``, after a phase
    already measured as (reference seconds, wall seconds)."""
    result.run_s = before[0] + speed.ref_seconds(seconds)
    result.run_wall_s = before[1] + seconds
    result.ref_loop_ms = (1000.0 * REF_SECONDS * result.run_wall_s
                          / result.run_s)
    result.speed_samples = speed.total_samples


def _count_inputs(result: OpResult, inputs) -> None:
    for updates in inputs.updates.values():
        result.status_rows += len(updates)
        result.scr_rows += sum(1 for u in updates if u.kind == "SCR")


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _stats_digest(stats) -> str:
    text = "\n".join(f"{k},{stats[k]!r}" for k in sorted(stats))
    return hashlib.sha256(text.encode()).hexdigest()


class RunChecker:
    """Checks every simulation run that finishes in this process.

    It stands in for ``batch.run`` (the engine loop as ``run_once`` calls
    it) while an operation runs, times the loop, and replays each output's
    event log.  Replay time is kept apart, and unsampled, so the operation's
    wall time can exclude it.  Forked pool workers inherit the wrapper;
    there it only samples CPU speed, since what it checked would stay in the
    worker.
    """

    def __init__(self, result: OpResult, speed: SpeedSampler, tracer=None):
        self.result = result
        self.speed = speed
        self.tracer = tracer
        self.check_s = 0.0
        self.loop_wall_s = 0.0
        self.runs = 0
        self._pid = os.getpid()
        self._original = None

    def __enter__(self):
        self._original = original = batch.run

        def checked_run(state):
            if os.getpid() != self._pid:
                return self.speed.in_worker(original, state)
            sampling = self.speed.sample_here
            self.speed.sample_here = True
            t0 = perf_counter()
            output = original(state)
            t1 = perf_counter()
            self.speed.sample_here = False
            self.loop_wall_s += t1 - t0
            self._check(output)
            self.check_s += perf_counter() - t1
            self.speed.sample_here = sampling
            return output

        batch.run = checked_run
        return self

    def __exit__(self, *exc):
        batch.run = self._original
        self.result.replay_checked += self.runs

    def restored(self) -> bool:
        return batch.run is self._original

    def _check(self, output) -> None:
        self.runs += 1
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            for problem in engine.verify_replay(output):
                self.result.fail(f"replay#{self.runs}", problem)
            self.result.events.update(e[0] for e in output.event_log)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True


def validation_op(settings_path: Path, seeds: list[int], work_dir: Path,
                  tracer=None) -> OpResult:
    """The `etkasim run` path, step by step."""
    seed = seeds[0]
    out = work_dir / "validation"
    inputs, state, setup_s, setup_wall_s = _set_up(settings_path, seed,
                                                   work_dir)
    with SpeedSampler(work_dir) as speed:
        t1 = perf_counter()
        output = engine.run(state)
        t2 = perf_counter()
        stats = reporting.stats_from_output(output)
        os.makedirs(out, exist_ok=True)
        reporting.write_transplants_csv(out / "transplants.csv",
                                        output.transplants)
        reporting.write_final_states_csv(out / "final_states.csv", output)
        reporting.write_stats_csv(out / "stats.csv", stats)
        replay = engine.verify_replay(output)
        t3 = perf_counter()

    result = OpResult(loop_wall_s=t2 - t1, setup_s=setup_s,
                      setup_wall_s=setup_wall_s, attempted=1)
    _finish_timing(result, speed, t3 - t1 - speed.overhead,
                   before=(setup_s, setup_wall_s))
    run = f"seed{seed}"
    for problem in replay + reporting.reconciliation_problems(stats):
        result.fail(run, problem)
    result.digests[run] = _file_digest(out / name for name in RUN_FILES)
    result.replay_checked = 1
    result.transplants = int(stats["transplants.total"])
    result.events.update(e[0] for e in output.event_log)
    _count_inputs(result, inputs)
    shutil.rmtree(out)
    return result


def case_study_op(settings_path: Path, seeds: list[int], work_dir: Path,
                  tracer=None) -> OpResult:
    """Load once, then compare the baseline with B+2DR on paired seeds."""
    result = OpResult(attempted=2 * len(seeds))
    b2dr = PolicyConfig().with_hla_betas(*spec.B2DR_BETAS)
    gc.collect()
    with SpeedSampler(work_dir) as speed, \
            RunChecker(result, speed, tracer) as checker:
        t0 = perf_counter()
        inputs = load_inputs(load_settings(settings_path))
        base = batch.run_batch(inputs, seeds, workers=1)
        variant = batch.run_batch(inputs.with_policy(b2dr), seeds, workers=1)
        rows = reporting.compare_policies(base.per_run_stats,
                                          variant.per_run_stats, paired=True)
        wall = perf_counter() - t0
    _finish_timing(result, speed, wall - checker.check_s - speed.overhead)
    result.loop_wall_s = checker.loop_wall_s
    if not checker.restored():
        result.problems.append("batch.run was not restored")
    if not rows:
        result.problems.append("compare produced no rows")
    for label, batch_result in (("base", base), ("b2dr", variant)):
        for seed, stats in zip(seeds, batch_result.per_run_stats):
            run = f"{label}/seed{seed}"
            for problem in reporting.reconciliation_problems(stats):
                result.fail(run, problem)
            result.digests[run] = _stats_digest(stats)
            result.transplants += int(stats["transplants.total"])
    result.crn_sd_ratio = crn_sd_ratio(base.per_run_stats,
                                       variant.per_run_stats)
    _count_inputs(result, inputs)
    return result


def batch_parallel_op(settings_path: Path, seeds: list[int], work_dir: Path,
                      tracer=None) -> OpResult:
    """A parallel batch that writes every run's files."""
    out = work_dir / "batch"
    workers = min(2, len(os.sched_getaffinity(0)))
    result = OpResult(attempted=len(seeds))
    gc.collect()
    # the parent samples only while it simulates itself; while the pool
    # runs, the workers sample
    with SpeedSampler(work_dir, sample_here=False) as speed, \
            RunChecker(result, speed, tracer) as checker:
        t0 = perf_counter()
        inputs = load_inputs(load_settings(settings_path))
        outcome = batch.run_batch(inputs, seeds, workers=workers,
                                  out_dir=out, write_runs=True)
        wall = perf_counter() - t0
    _finish_timing(result, speed, wall - checker.check_s - speed.overhead)
    if not checker.restored():
        result.problems.append("batch.run was not restored")
    for index, (seed, stats) in enumerate(zip(seeds, outcome.per_run_stats)):
        run = f"seed{seed}"
        run_dir = out / f"run_{index:03d}"
        files = [run_dir / name for name in RUN_FILES]
        missing = [p.name for p in files if not p.is_file()]
        if missing:
            result.fail(run, f"missing {', '.join(missing)}")
            continue
        for problem in reporting.reconciliation_problems(stats):
            result.fail(run, problem)
        with open(files[0], encoding="utf-8") as fh:
            written = sum(1 for _ in fh) - 1
        if written != stats["transplants.total"]:
            result.fail(run, f"transplants.csv has {written} rows, stats "
                             f"say {stats['transplants.total']:g}")
        result.digests[run] = _file_digest(files)
        result.transplants += int(stats["transplants.total"])
    _count_inputs(result, inputs)
    shutil.rmtree(out, ignore_errors=True)
    return result


OPERATIONS = {
    "validation": validation_op,
    "case_study": case_study_op,
    "batch_parallel": batch_parallel_op,
}


def crn_sd_ratio(base, variant) -> float | None:
    """Median over the headline statistics of SD(paired difference) over
    sqrt(var_A + var_B); 1 means pairing removes no variance."""
    ratios = []
    for name in spec.CRN_STATISTICS:
        a = [s.get(name, 0.0) for s in base]
        b = [s.get(name, 0.0) for s in variant]
        if len(a) < 2:
            return None
        spread = statistics.variance(a) + statistics.variance(b)
        if spread > 0:
            diffs = [y - x for x, y in zip(a, b)]
            ratios.append(statistics.stdev(diffs) / spread ** 0.5)
    return statistics.median(ratios) if ratios else None
