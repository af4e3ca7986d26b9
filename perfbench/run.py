"""etkasim benchmark.

    python3 perfbench/run.py --workload validation --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout.  The script generates the
workload's synthetic population with ``etkasim.synthetic`` (cached under
``.bench_build/perfbench/``, keyed by the package source and the population
arguments), then measures in a fresh child process so that generation
leaves no trace in its timings or its peak memory.

``--seed n`` picks the simulation seeds: ``n`` for ``validation``, and
``n`` .. ``n+19`` for the 20 paired runs of ``case_study`` and
``batch_parallel``.  ``--pop-seed`` picks the population; the defaults and
the hold-out seeds are in ``spec.WORKLOADS``.

With ``--trace 0`` the benchmark runs set-ups and untraced operations for
about ``--seconds`` (at least one operation) and reports the end-to-end
metrics.  With ``--trace 1`` it runs one untraced and one traced operation
and reports the per-layer metrics and the cost of tracing.  Either way a
human-readable report comes first and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pop-seed", type=int, default=None,
                   help="population seed (default: the workload's)")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a 250-registration population, for smoke tests")
    p.add_argument("--settings", help=argparse.SUPPRESS)  # set for the child
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "etkasim" / "__init__.py").is_file():
        print(f"error: no etkasim package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.settings is None:
        settings = ensure_population(args)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = [sys.executable, str(Path(__file__).resolve()), *argv,
                 "--settings", str(settings)]
        return subprocess.run(child, env=env).returncode
    return measure(args, Path(args.settings))


# ---------------------------------------------------------------------------
# inputs

def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "etkasim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def population_of(args) -> tuple[str, spec.Population, int]:
    wl = spec.WORKLOADS[args.workload]
    name = "tiny" if args.scale == "tiny" else wl.population
    pop_seed = wl.pop_seed if args.pop_seed is None else args.pop_seed
    return name, spec.POPULATIONS[name], pop_seed


def ensure_population(args) -> Path:
    """Generate the population once per source tree; return its settings."""
    name, pop, pop_seed = population_of(args)
    target = CACHE / f"pop-{name}-s{pop_seed}-{source_hash()}"
    settings = target / "settings.yaml"
    if settings.is_file():
        return settings
    sys.path.insert(0, str(SRC))
    from etkasim.synthetic import generate_population

    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    generate_population(tmp, n_candidates=pop.n_candidates,
                        n_donors=pop.n_donors, start=pop.start, end=pop.end,
                        seed=pop_seed, panel_size=pop.panel_size,
                        unplaced_mode=pop.unplaced_mode)
    try:
        os.replace(tmp, target)
    except OSError:     # generated meanwhile by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return settings


# ---------------------------------------------------------------------------
# measurement (child process)

def measure(args, settings: Path) -> int:
    sys.path.insert(0, str(SRC))
    import etkasim
    if not Path(etkasim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported etkasim from {etkasim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = spec.WORKLOADS[args.workload]
    n_runs = (min(wl.n_runs, spec.TINY_RUNS) if args.scale == "tiny"
              else wl.n_runs)
    seeds = [args.seed + i for i in range(n_runs)]
    op = workloads.OPERATIONS[wl.name]
    work_dir = CACHE / f"work-{os.getpid()}"
    os.makedirs(work_dir, exist_ok=True)

    ops: list = []
    setups: list[tuple[float, float]] = []   # (reference s, wall s)
    problems: list[str] = []
    traced = None
    layers: dict[str, float] = {}
    attempted_by_crash = 0

    def attempt(tracer=None):
        nonlocal attempted_by_crash
        try:
            return op(settings, seeds, work_dir, tracer=tracer)
        except Exception:
            traceback.print_exc()
            problems.append(f"operation raised: {sys.exc_info()[1]!r}")
            attempted_by_crash += wl.policies * n_runs
            return None

    try:
        if args.trace:
            untraced = attempt()
            ops = [untraced] if untraced else []
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = attempt(tracer)
            finally:
                for name in tracer.uninstall():
                    problems.append(f"tracing left {name} wrapped")
            if traced is not None:
                layers = tracer.layer_metrics()
        else:
            t_start = perf_counter()
            for _ in range(wl.setup_probes):
                setups.append(workloads.setup_once(settings, seeds[0],
                                                      work_dir))
            while True:
                t0 = perf_counter()
                result = attempt()
                if result is None:
                    break
                ops.append(result)
                if result.setup_s is not None:
                    setups.append((result.setup_s, result.setup_wall_s))
                took = perf_counter() - t0
                if perf_counter() - t_start + took > args.seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    done = ops + ([traced] if traced else [])
    for r in done:
        problems.extend(r.problems)
    mismatched = digest_mismatches(done, args, wl)
    problems.extend(f"{run}: output differs between repetitions"
                    for run in sorted(mismatched))
    attempted = sum(r.attempted for r in done) + attempted_by_crash
    failed = (sum(len(r.failed_runs) for r in done) + len(mismatched)
              + attempted_by_crash)

    first = done[0] if done else None
    report = {
        "workload": wl.name,
        "scale": args.scale,
        "population_seed": population_of(args)[2],
        "holdout_population_seed": wl.holdout_seed,
        "run_seeds": seeds,
        "why": wl.why,
        "context": context_facts(first),
        "problems": problems[:20],
    }
    if args.trace:
        metrics = trace_metrics(ops, traced, layers)
    else:
        metrics, extra = end_to_end_metrics(ops, setups, attempted, failed)
        report["reported_only"] = extra
        report["samples"] = {"run_s": [r.run_s for r in ops],
                             "run_wall_s": [r.run_wall_s for r in ops],
                             "ref_loop_ms": [r.ref_loop_ms for r in ops],
                             "speed_samples": [r.speed_samples for r in ops],
                             "setup_s": [ref for ref, _ in setups],
                             "setup_wall_s": [wall for _, wall in setups]}
    report["metrics"] = metrics
    print(json.dumps(report, indent=1, sort_keys=True))
    correct = bool(done) and failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(ops, setups, attempted, failed):
    units = {m.name: m.unit for m in spec.END_TO_END + spec.REPORTED_ONLY}
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {}
    if ops:
        metrics["run_s"] = _metric(statistics.median(r.run_s for r in ops),
                                   units["run_s"])
    if setups:
        metrics["setup_s"] = _metric(
            statistics.median(ref for ref, _ in setups), units["setup_s"])
    metrics["peak_rss_mb"] = _metric(rss_kb / 1024.0, units["peak_rss_mb"])

    extra = {"fail_ratio": _metric(failed / max(attempted, 1),
                                   units["fail_ratio"])}
    if ops:
        extra["run_wall_s"] = _metric(
            statistics.median(r.run_wall_s for r in ops), units["run_wall_s"])
    if setups:
        extra["setup_wall_s"] = _metric(
            statistics.median(wall for _, wall in setups),
            units["setup_wall_s"])
    if ops and ops[0].loop_wall_s is not None:
        extra["loop_wall_s"] = _metric(
            statistics.median(r.loop_wall_s for r in ops),
            units["loop_wall_s"])
    if ops and ops[0].crn_sd_ratio is not None:
        extra["crn_sd_ratio"] = _metric(ops[0].crn_sd_ratio,
                                        units["crn_sd_ratio"])
    return metrics, extra


def trace_metrics(untraced, traced, layers):
    if traced is None:
        return {}
    units = {m.name: m.unit for m in spec.PER_LAYER}
    values = dict(layers)
    values["io.status_rows"] = traced.status_rows
    values["io.scr_share"] = (traced.scr_rows / traced.status_rows
                              if traced.status_rows else 0.0)
    for kind in spec.EVENT_KINDS:
        values[f"engine.events.{kind}"] = traced.events.get(kind, 0)
    values["trace.run_s"] = traced.run_s
    values["trace.overhead"] = (traced.run_s / untraced[0].run_s
                                if untraced else 0.0)
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def digest_mismatches(results, args, wl) -> set[str]:
    """Runs whose output differs between repetitions of this workload and
    seed: within this benchmark run, and against earlier runs of the same
    source tree (kept next to the population cache)."""
    mismatched = set()
    reference: dict[str, str] = {}
    for r in results:
        for run, digest in r.digests.items():
            if reference.setdefault(run, digest) != digest:
                mismatched.add(run)
    name, _, pop_seed = population_of(args)
    store = CACHE / "digests" / (f"{wl.name}-{name}-p{pop_seed}-s{args.seed}"
                                 f"-{source_hash()}.json")
    if store.is_file():
        earlier = json.loads(store.read_text())
        mismatched |= {run for run, digest in reference.items()
                       if earlier.get(run, digest) != digest}
    elif reference:
        os.makedirs(store.parent, exist_ok=True)
        store.write_text(json.dumps(reference, sort_keys=True))
    return mismatched


def context_facts(first) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "etkasim").rglob("*.py"))
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "source_hash": source_hash(),
    }
    if first is not None:
        facts["transplants"] = first.transplants
        facts["events_by_kind"] = dict(sorted(Counter(first.events).items()))
        facts["status_rows"] = first.status_rows
        facts["replay_checked_runs"] = first.replay_checked
        facts["output_digest"] = hashlib.sha256("".join(
            first.digests[k] for k in sorted(first.digests)).encode()
        ).hexdigest()
    return facts


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
