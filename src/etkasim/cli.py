"""Command-line front door: run, batch, validate, compare, check-inputs."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import batch as batch_mod
from . import reporting
from .common import DAYS_PER_YEAR, InputError, age_years, read_table, to_days
from .engine import initialize, run, verify_replay
from .io import SimulationInputs, load_inputs, load_settings
from .offering import UNPLACED_MODES
from .policy import PolicyError, load_policy
from .posttransplant import TRANSPLANT_FEATURES, check_scale_bound


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--settings", required=True, help="settings YAML path")
    p.add_argument("--out", default=None, help="output directory "
                   "(defaults to the settings' output_dir)")


def _out_dir(args, settings) -> Path:
    out = Path(args.out) if args.out else (settings.base_dir
                                           / settings.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


def _seeds(args, n_runs: int, settings) -> list[int]:
    if getattr(args, "seeds", None):
        seeds = [int(s) for s in args.seeds.split(",")]
        if len(seeds) != n_runs:
            raise InputError(f"--seeds lists {len(seeds)} seeds for "
                             f"{n_runs} runs")
        return seeds
    return settings.seed_list(n_runs)


def cmd_run(args) -> int:
    settings = load_settings(args.settings)
    if args.unplaced:
        from dataclasses import replace
        settings = replace(settings, unplaced_mode=args.unplaced)
    policy = load_policy(args.policy) if args.policy else None
    inputs = load_inputs(settings, policy=policy)
    state = initialize(inputs, args.seed if args.seed is not None
                       else settings.seed)
    if args.trace or settings.write_trace:
        state.offer_trace = []
    output = run(state)
    stats = reporting.stats_from_output(output)
    out = _out_dir(args, settings)
    reporting.write_run_files(out, output, stats)
    problems = verify_replay(output)
    if problems:
        print("replay check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    print(f"run complete: {int(stats['transplants.total'])} transplantations, "
          f"{int(stats['kidneys.discarded'])} kidneys discarded -> {out}")
    return 0


def cmd_batch(args) -> int:
    settings = load_settings(args.settings)
    policy = load_policy(args.policy) if args.policy else None
    inputs = load_inputs(settings, policy=policy)
    seeds = _seeds(args, args.runs, settings)
    result = batch_mod.run_batch(inputs, seeds, workers=args.workers,
                                 out_dir=_out_dir(args, settings),
                                 write_runs=args.write_runs)
    table = result.summary()
    out = _out_dir(args, settings)
    reporting.write_summary_csv(out / "summary.csv", table)
    (out / "summary.txt").write_text(reporting.render_summary_text(table),
                                     encoding="utf-8")
    print(f"batch of {len(seeds)} runs complete -> {out}")
    return 0


def cmd_validate(args) -> int:
    actual = dict(read_table(args.actual, (("statistic", None, str),
                                           ("value", None, float)),
                             "statistic"))
    settings = load_settings(args.settings)
    inputs = load_inputs(settings)
    seeds = _seeds(args, args.runs, settings)
    result = batch_mod.run_batch(inputs, seeds, workers=args.workers)
    table = result.summary(actual=actual)
    out = _out_dir(args, settings)
    reporting.write_summary_csv(out / "validation.csv", table)
    text = reporting.render_summary_text(table)
    (out / "validation.txt").write_text(text, encoding="utf-8")
    miscalibrated = [r.name for r in table.rows if r.calibrated is False]
    print(text)
    print(f"{len(miscalibrated)} statistic(s) outside the 95%-IQR")
    return 0


def cmd_compare(args) -> int:
    settings = load_settings(args.settings)
    inputs = load_inputs(settings)
    policy_a = load_policy(args.policy_a)
    policy_b = load_policy(args.policy_b)
    seeds = _seeds(args, args.runs, settings)
    # common random numbers: both policies see the same seed per run index
    base = batch_mod.run_batch(inputs.with_policy(policy_a), seeds,
                               workers=args.workers)
    variant = batch_mod.run_batch(inputs.with_policy(policy_b), seeds,
                                  workers=args.workers)
    rows = reporting.compare_policies(base.per_run_stats,
                                      variant.per_run_stats,
                                      paired=not args.unpaired)
    out = _out_dir(args, settings)
    reporting.write_delta_csv(out / "compare.csv", rows)
    text = reporting.render_delta_text(rows)
    (out / "compare.txt").write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_check_inputs(args) -> int:
    settings = load_settings(args.settings)
    inputs = load_inputs(settings)
    problems: list[str] = []
    # a candidate's status stream is its updates plus its screenings
    streams = dict.fromkeys([*inputs.updates, *inputs.screenings])
    for cand_id in streams:
        if not any(u.ends_spell for u in inputs.updates.get(cand_id, ())):
            problems.append(f"candidate {cand_id}: status stream does not "
                            "end in a removal, death or transplant")
    known = {r.id for r in inputs.registrations}
    for cand_id in streams:
        if cand_id not in known:
            problems.append(f"status updates reference unknown candidate "
                            f"{cand_id!r}")
    for reg in inputs.registrations:
        if reg.id not in streams:
            problems.append(f"candidate {reg.id}: no status updates")
    if problems:
        for p in problems[:50]:
            print(p, file=sys.stderr)
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    # the engine's own checks on every record
    initialize(inputs)
    _check_model_bounds(inputs)
    print(f"inputs ok: {len(inputs.registrations)} registrations, "
          f"{len(inputs.donors)} donors, {len(inputs.balance_events)} "
          f"balance events, panel of {len(inputs.panel)}")
    return 0


def _check_model_bounds(inputs: SimulationInputs) -> None:
    """Every in-window donor's max-offer Cox predictor must not overflow
    (it reads donor features only, so this is exact), and its graft-failure
    scale must stay positive over the transplant features the inputs allow:
    candidate age and dialysis years from 0 to their maxima at the window
    end (a re-listing's dialysis time starts from a pool entry's, inside the
    window), 0-6 mismatches, 0-2 at DR, flags 0 or 1, and transplant years
    from 0 to the window's length."""
    settings = inputs.settings
    start = to_days(settings.window_start)
    end = to_days(settings.window_end)
    donors = [d for d in inputs.donors if start <= d.report_day <= end]
    inputs.cox.check_bound(donors)
    regs = inputs.registrations
    dialysis_starts = [
        *(reg.dialysis_start_day for reg in regs
          if reg.dialysis_start_day is not None),
        *(u.value for stream in inputs.updates.values() for u in stream
          if u.kind == "DIA" and u.value is not None)]
    dialysis_days = max(
        end - min(dialysis_starts, default=end),
        end - start + int(inputs.relist_pool.dialysis_days.max(initial=0)))
    highs = (float(age_years(end, min((r.birth_day for r in regs),
                                      default=end))),
             dialysis_days / DAYS_PER_YEAR, 1.0, 6.0, 2.0, 1.0, 1.0,
             float(settings.window_end.year - settings.window_start.year))
    check_scale_bound(
        inputs.weibull, donors,
        {name: (0.0, high)
         for name, high in zip(TRANSPLANT_FEATURES, highs, strict=True)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etkasim",
        description="Discrete-event simulator for the ETKAS and ESP "
                    "deceased-donor kidney allocation programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single simulation run")
    _add_common(p)
    p.add_argument("--policy", help="policy YAML overriding the settings'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", action="store_true",
                   help="write the full offer trace")
    p.add_argument("--unplaced", choices=UNPLACED_MODES, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="repeated runs with summary statistics")
    _add_common(p)
    p.add_argument("--policy")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--write-runs", action="store_true",
                   help="write per-run output files")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate",
                       help="batch plus comparison against actual statistics")
    _add_common(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seeds")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--actual", required=True,
                   help="CSV of statistic,value to calibrate against")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare",
                       help="two policies under common random numbers")
    _add_common(p)
    p.add_argument("--policy-a", required=True)
    p.add_argument("--policy-b", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seeds")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--unpaired", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-inputs", help="validate input streams only")
    p.add_argument("--settings", required=True)
    p.set_defaults(func=cmd_check_inputs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
