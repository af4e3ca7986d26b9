"""Single-run and multi-run drivers.

Batch runs are embarrassingly parallel: each run gets its own seed and an
independent random stream, and results are keyed by run index so the output
does not depend on worker scheduling.  Every run, serial or in a pool
worker, goes through one function that simulates it, computes its
statistics and writes its files.  Pool workers receive the read-only inputs
once, through the pool initializer, so a batch runs under every
multiprocessing start method.

The initial state draws no random numbers, so a batch builds it once per
process and per combination of input streams (a template) and starts every
run from a fork of it (``SimState.fork``) instead of initializing again for
each seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import reporting
from .engine import SimState, SimulationOutput, initialize, run
from .io import SimulationInputs, load_registrations, load_status_updates


def run_once(inputs: SimulationInputs, seed: int) -> SimulationOutput:
    return run(initialize(inputs, seed))


def _inputs_for_run(inputs: SimulationInputs, run_index: int) -> SimulationInputs:
    """Rotate through alternate candidate streams and alternate status
    streams when the settings supply them (one imputed trajectory file per
    run); each list rotates on its own."""
    new = inputs
    cand_streams = inputs.candidate_stream_paths
    if cand_streams:
        cand_path = cand_streams[run_index % len(cand_streams)]
        new = replace(new, registrations=load_registrations(
            cand_path, inputs.antigen_table))
    status_streams = inputs.status_stream_paths
    if status_streams:
        status_path = status_streams[run_index % len(status_streams)]
        updates, screenings = load_status_updates(status_path,
                                                  inputs.antigen_table)
        new = replace(new, updates=updates, screenings=screenings)
    return new


def _stream_period(inputs: SimulationInputs) -> int:
    """Runs whose indices agree modulo this period get the same inputs from
    ``_inputs_for_run``."""
    return math.lcm(len(inputs.candidate_stream_paths) or 1,
                    len(inputs.status_stream_paths) or 1)


def _run_indexed(inputs: SimulationInputs, templates: dict[int, SimState],
                 n_runs: int, run_index: int, seed: int,
                 runs_dir: Path | None) -> dict[str, float]:
    """Simulate run ``run_index`` of ``n_runs`` from a fork of its streams'
    initial state; with ``runs_dir`` also write its files under
    ``runs_dir/run_<index>/``.  Returns the run's statistics.

    ``templates`` keeps an initial state, built on first use, only while a
    later run of the batch shares its streams, so a batch that gives every
    run its own streams keeps none.
    """
    period = _stream_period(inputs)
    key = run_index % period
    template = templates.pop(key, None)
    if template is None:
        template = initialize(_inputs_for_run(inputs, key))
    if run_index + period < n_runs:
        templates[key] = template
    output = run(template.fork(seed))
    stats = reporting.stats_from_output(output)
    if runs_dir is not None:
        reporting.write_run_files(runs_dir / f"run_{run_index:03d}", output,
                                  stats)
    return stats


# set by the pool initializer, in worker processes only; a template is
# built when the worker first meets its streams
_worker_inputs: SimulationInputs | None = None
_worker_runs = 0
_worker_templates: dict[int, SimState] = {}


def _init_worker(inputs: SimulationInputs, n_runs: int) -> None:
    global _worker_inputs, _worker_runs
    _worker_inputs = inputs
    _worker_runs = n_runs
    _worker_templates.clear()


def _worker(run_index: int, seed: int,
            runs_dir: Path | None) -> dict[str, float]:
    return _run_indexed(_worker_inputs, _worker_templates, _worker_runs,
                        run_index, seed, runs_dir)


@dataclass
class BatchResult:
    seeds: list[int]
    per_run_stats: list[dict[str, float]]

    def summary(self, actual=None) -> reporting.SummaryTable:
        return reporting.summarize(self.per_run_stats, actual=actual)


def run_batch(inputs: SimulationInputs, seeds: Sequence[int],
              workers: int = 1,
              out_dir: Path | None = None,
              write_runs: bool = False) -> BatchResult:
    """Run one simulation per seed; aggregate per-run statistics.

    Identical seed lists produce identical results regardless of worker
    count.  With ``write_runs`` each run's transplant records and statistics
    land under ``out_dir/run_<index>/``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    n = len(seeds)
    runs_dir = Path(out_dir) if write_runs and out_dir is not None else None
    if workers <= 1 or n == 1:
        templates: dict[int, SimState] = {}
        per_run = [_run_indexed(inputs, templates, n, i, seed, runs_dir)
                   for i, seed in enumerate(seeds)]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(inputs, n)) as pool:
            per_run = list(pool.map(_worker, range(n), seeds, [runs_dir] * n,
                                    chunksize=max(1, n // (workers * 4))))
    return BatchResult(seeds=list(seeds), per_run_stats=per_run)
