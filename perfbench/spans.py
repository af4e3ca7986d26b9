"""Per-layer tracing from outside the package.

``Tracer`` replaces public etkasim callables with timing wrappers for the
duration of one operation and puts the originals back afterwards.  A module
that imported a function by name holds its own reference, so a function is
replaced in every etkasim module that refers to it.  Spans nest: each
wrapper adds its duration to the enclosing span's child time, so a layer's
self time is its total minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("calls", "total", "child", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.durations: list[float] = []

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._parallel_batches = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, label: str, fn, observe=None, keep_durations=False,
             count_only=False):
        """A wrapper timing ``fn`` under ``label``; ``observe(args, kwargs,
        result, seconds)`` runs after each call, outside the span.  With
        ``count_only`` the wrapper only counts calls, for callables cheap
        and frequent enough that timing them would distort their caller."""
        span = self.spans[label]
        stack = self._stack

        if count_only:
            def counted(*args, **kwargs):
                span.calls += self.enabled
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.total += dt
                span.child += frame[0]
                if keep_durations:
                    span.durations.append(dt)
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, name: str, label: str, **kw) -> None:
        """Replace ``module.name`` in every etkasim module holding it."""
        original = getattr(module, name)
        self._replace_everywhere(name, original,
                                 self.wrap(label, original, **kw))

    def _replace_everywhere(self, name: str, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "etkasim"
                    and getattr(mod, name, None) is original):
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def patch_method(self, cls, name: str, label: str, **kw) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(label, original.__func__, **kw))
        else:
            replacement = self.wrap(label, original, **kw)
        self._patches.append((cls, name, original))
        setattr(cls, name, replacement)

    def uninstall(self) -> list[str]:
        """Put every original back; return the names that did not stay."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        problems = [f"{getattr(owner, '__name__', owner)}.{name}"
                    for owner, name, original in self._patches
                    if _raw(owner, name) is not original]
        self._patches.clear()
        return problems

    # -- the etkasim layers -----------------------------------------------

    def install(self) -> None:
        from etkasim import (balances, batch, engine, fastmatch, hla, io,
                             offering, posttransplant, reporting)
        pf, pm = self.patch_function, self.patch_method
        pf(io, "load_registrations", "io.load_registrations")
        pf(io, "load_status_updates", "io.load_status_updates")
        pf(io, "load_donors", "io.load_donors")
        pm(hla.DonorPanel, "from_file", "hla.DonorPanel.from_file")

        pf(engine, "initialize", "engine.initialize")
        pf(engine, "run", "engine.run")
        pf(engine, "verify_replay", "engine.verify_replay")
        pm(fastmatch.CandidateStore, "finalize_derived_values",
           "fastmatch.CandidateStore.finalize_derived_values")
        pm(fastmatch.CandidateStore, "apply_update",
           "fastmatch.CandidateStore.apply_update")
        pf(fastmatch, "build_match_arrays", "fastmatch.build_match_arrays",
           observe=self._observe_match, keep_durations=True)
        pm(balances.BalanceLedger, "regional_net_export",
           "balances.regional_net_export", count_only=True)
        pm(balances.BalanceLedger, "record_transfer",
           "balances.record_transfer", count_only=True)

        pf(offering, "run_allocation", "offering.run_allocation",
           observe=self._observe_allocation)
        pm(offering.CoxSampler, "sample", "offering.CoxSampler.sample",
           observe=self._observe_k_max)
        pf(posttransplant, "sample_failure_time",
           "posttransplant.sample_failure_time")
        pf(posttransplant, "sample_relist_time",
           "posttransplant.sample_relist_time")
        pf(posttransplant, "build_synthetic_relisting",
           "posttransplant.build_synthetic_relisting",
           observe=self._observe_relisting)

        pf(reporting, "stats_from_output", "reporting.stats_from_output")
        for name in ("write_transplants_csv", "write_final_states_csv",
                     "write_stats_csv"):
            pf(reporting, name, "reporting.write")

        pf(batch, "run_once", "batch.run_once", observe=self._observe_run_once)
        self._patch_run_batch(batch)

    def _patch_run_batch(self, batch) -> None:
        original = batch.run_batch
        timed = self.wrap("batch.run_batch", original)

        def run_batch(inputs, seeds, workers=1, *args, **kwargs):
            parallel = workers > 1 and len(seeds) > 1
            self._parallel_batches += parallel
            try:
                return timed(inputs, seeds, workers, *args, **kwargs)
            finally:
                self._parallel_batches -= parallel

        self._replace_everywhere("run_batch", original, run_batch)

    def _observe_match(self, args, kwargs, arrays, dt) -> None:
        self.counts["fastmatch.rows_scanned"] += args[0].n
        self.counts["fastmatch.list_len"] += len(arrays)

    def _observe_allocation(self, args, kwargs, outcome, dt) -> None:
        for acc in outcome.acceptances:
            self.counts["offering.acceptances"] += 1
            if acc.forced:
                self.counts["offering.forced"] += 1
            elif acc.mechanism == "non_standard":
                self.counts["offering.non_standard"] += 1

    def _observe_k_max(self, args, kwargs, k_max, dt) -> None:
        if k_max is None:
            self.counts["offering.k_max_none"] += 1

    def _observe_relisting(self, args, kwargs, built, dt) -> None:
        if built is not None:
            self.counts["posttransplant.relists_created"] += 1

    def _observe_run_once(self, args, kwargs, output, dt) -> None:
        if self._parallel_batches:
            self.counts["batch.parent_rerun_calls"] += 1
            self.counts["batch.parent_rerun_s"] += dt

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        s, c = self.spans, self.counts
        out: dict[str, float] = {}
        for label in ("io.load_registrations", "io.load_status_updates",
                      "io.load_donors", "hla.DonorPanel.from_file",
                      "engine.initialize",
                      "fastmatch.CandidateStore.finalize_derived_values",
                      "engine.run", "fastmatch.build_match_arrays",
                      "fastmatch.CandidateStore.apply_update",
                      "offering.run_allocation", "offering.CoxSampler.sample",
                      "posttransplant.sample_failure_time",
                      "posttransplant.sample_relist_time",
                      "posttransplant.build_synthetic_relisting",
                      "reporting.stats_from_output", "engine.verify_replay",
                      "batch.run_batch"):
            out[f"{label}.s"] = s[label].total
        for label in ("fastmatch.build_match_arrays",
                      "offering.run_allocation",
                      "posttransplant.sample_failure_time",
                      "posttransplant.sample_relist_time",
                      "posttransplant.build_synthetic_relisting",
                      "balances.regional_net_export",
                      "balances.record_transfer"):
            out[f"{label}.calls"] = s[label].calls
        out["engine.run.self_s"] = s["engine.run"].self_time
        out["engine.patient_events"] = s[
            "fastmatch.CandidateStore.apply_update"].calls
        out["fastmatch.build_match_arrays.p99_ms"] = 1000.0 * _p99(
            s["fastmatch.build_match_arrays"].durations)
        scanned = c["fastmatch.rows_scanned"]
        out["fastmatch.rows_scanned"] = scanned
        out["fastmatch.list_len"] = c["fastmatch.list_len"]
        out["fastmatch.useful_share"] = (c["fastmatch.list_len"] / scanned
                                         if scanned else 0.0)
        for name in ("offering.acceptances", "offering.forced",
                     "offering.non_standard", "offering.k_max_none",
                     "posttransplant.relists_created",
                     "batch.parent_rerun_calls", "batch.parent_rerun_s"):
            out[name] = c[name]
        out["reporting.write_s"] = s["reporting.write"].total
        # time run_batch spends outside wrapped work: the worker pool
        out["batch.pool_s"] = s["batch.run_batch"].self_time
        return out


def _raw(owner, name):
    return owner.__dict__.get(name) if isinstance(owner, type) else getattr(
        owner, name, None)


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
