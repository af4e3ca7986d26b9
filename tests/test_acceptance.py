"""Acceptance suite: one test class per criterion, a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the directional-policy and throughput checks build their own
synthetic populations and take a few minutes in total.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from etkasim import reporting
from etkasim.batch import run_batch, run_once
from etkasim.cli import main as cli_main
from etkasim.engine import initialize, run, verify_replay
from etkasim.common import round_half_up
from etkasim.hla import AntigenTable, DonorPanel, HlaTyping
from etkasim.io import data_path, load_inputs, load_settings
from etkasim.offering import CoxSampler, StepSurvival
from etkasim.policy import (AGE_FILTER_CURVES, AgeFilterConfig, PolicyConfig,
                            SlidingScaleConfig, validated)
from etkasim.posttransplant import (AGE_BUCKETS, TIME_BUCKETS, RelistCurveSet,
                                    StepCurve, WeibullModel,
                                    sample_failure_time, sample_relist_time)
from etkasim.synthetic import generate_population

from fixtures_tables import (ESP_DIALYSIS_DAYS, ETKAS_ROWS, MATCH_DAY,
                             build_engine_list, build_esp_fixture,
                             build_etkas_fixture)
from oracle.hla import MmpInputs, compute_mmp, compute_vpra
from oracle.matchlist import build_match_list
from test_fixture_tables import expected_hla_points


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


class TestCriterion1MatchListFidelity:
    def test_published_tables_reproduce(self):
        with criterion(1, "match-list fidelity"):
            fx = build_etkas_fixture()
            ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                                  fx["policy"], fx["ctx"], MATCH_DAY)
            assert [r.candidate_id for r in ml.records] == [
                f"R{i:02d}" for i in range(1, 15)]
            for rank, rec in enumerate(ml.records, start=1):
                row = ETKAS_ROWS[rank - 1]
                _, _, mm, dial_pts, ped, bal, dist, mmp_pts, total = row
                got = rec.points.rounded()
                assert abs(got["dialysis"] - dial_pts) <= 1
                assert abs(got["hla"] - expected_hla_points(mm, ped)) <= 1
                assert got["pediatric"] == (100 if ped else 0)
                assert abs(got["balance"] - bal) <= 1
                assert abs(got["distance"] - dist) <= 1
                assert abs(got["mmp"] - mmp_pts) <= 1
                assert abs(rec.points.display_total - total) <= 1
            # rank 1 carries the exact published decomposition
            top = ml.records[0].points.rounded()
            assert (top["dialysis"], top["hla"], top["mmp"]) == (298, 400, 24)
            assert ml.records[0].points.display_total == 722
            ped_rows = [r for r in ml.records
                        if r.points.rounded()["pediatric"] == 100]
            assert any(r.points.rounded()["hla"] == 400 for r in ped_rows)

            esp = build_esp_fixture()
            ml2 = build_match_list(esp["donor"], esp["states"], esp["ledger"],
                                   esp["policy"], esp["ctx"], MATCH_DAY)
            assert [r.dialysis_days for r in ml2.records] == ESP_DIALYSIS_DAYS
            assert [int(r.total) for r in ml2.records] == ESP_DIALYSIS_DAYS

    def test_engine_reproduces_published_tables(self):
        with criterion(1, "match-list fidelity, engine path"):
            store, arrays = build_engine_list(build_etkas_fixture())
            assert arrays.program == "ETKAS"
            assert [store.ids[row] for row in arrays.rows.tolist()] == [
                f"R{i:02d}" for i in range(1, 15)]
            names = ("dialysis", "hla", "pediatric", "hu", "balance",
                     "distance", "mmp")
            for i, row in enumerate(ETKAS_ROWS):
                _, _, mm, dial_pts, ped, bal, dist, mmp_pts, total = row
                got = {name: round_half_up(float(arrays.comp[name][i]))
                       for name in names}
                assert (int(arrays.mm_a[i]), int(arrays.mm_b[i]),
                        int(arrays.mm_dr[i])) == mm
                assert abs(got["dialysis"] - dial_pts) <= 1
                assert abs(got["hla"] - expected_hla_points(mm, ped)) <= 1
                assert got["pediatric"] == (100 if ped else 0)
                assert got["hu"] == 0
                assert abs(got["balance"] - bal) <= 1
                assert abs(got["distance"] - dist) <= 1
                assert abs(got["mmp"] - mmp_pts) <= 1
                assert abs(sum(got.values()) - total) <= 1
                if i == 0:
                    # the exact published decomposition of rank 1
                    assert (got["dialysis"], got["hla"], got["mmp"]) == (
                        298, 400, 24)
                    assert sum(got.values()) == 722
            # zero-mismatch tier on top, everyone else in the default tier
            assert arrays.tier.tolist() == [12] + [4] * 13
            assert arrays.filtered.all()

            store, arrays = build_engine_list(build_esp_fixture())
            assert arrays.program == "ESP"
            assert [store.ids[row] for row in arrays.rows.tolist()] == [
                f"E{i:02d}" for i in range(1, 12)]
            assert arrays.dial_days.tolist() == ESP_DIALYSIS_DAYS
            assert [round_half_up(t) for t in arrays.total.tolist()] == (
                ESP_DIALYSIS_DAYS)


class TestCriterion2MmpFormula:
    def test_grid_against_long_double_log_domain(self):
        with criterion(2, "MMP formula precision"):
            fs = np.linspace(0.05, 1.0, 10)
            vs = np.linspace(0.0, 1.0, 10)
            ps = np.geomspace(1e-4, 0.5, 10)
            checked = 0
            for f in fs:
                for v in vs:
                    for p in ps:
                        got = compute_mmp(MmpInputs(f_bg=float(f),
                                                    vpra=float(v),
                                                    p_leq1mm=float(p)))
                        x = (np.longdouble(f) * (1 - np.longdouble(v))
                             * np.longdouble(p))
                        want = float(np.exp(np.longdouble(1000)
                                            * np.log1p(-x)))
                        if want == 0.0:
                            assert got == 0.0
                        else:
                            assert abs(got - want) / want < 1e-9, (f, v, p)
                        checked += 1
            assert checked == 1000
            assert compute_mmp(MmpInputs(0.5, 1.0, 0.5)) == 1.0
            assert compute_mmp(MmpInputs(1.0, 0.0, 1.0)) == 0.0


class TestCriterion3VpraOracle:
    def test_twenty_panels_fifty_sets(self):
        with criterion(3, "vPRA oracle equivalence"):
            table = AntigenTable.from_file(data_path("antigens.csv"))
            rng = np.random.default_rng(2024)
            a = ["A1", "A2", "A3", "A9", "A23", "A24", "A11"]
            b = ["B5", "B7", "B8", "B51", "B12", "B44", "B35"]
            dr = ["DR1", "DR4", "DR15", "DR16", "DR7", "DR11", "DR13"]
            all_codes = a + b + dr
            for _ in range(20):
                rows = [HlaTyping({"A": tuple(rng.choice(a, 2)),
                                   "B": tuple(rng.choice(b, 2)),
                                   "DR": tuple(rng.choice(dr, 2))})
                        for _ in range(200)]
                panel = DonorPanel(rows, path=None)
                for _ in range(50):
                    k = int(rng.integers(0, 7))
                    unacc = frozenset(
                        str(c) for c in rng.choice(all_codes, k,
                                                   replace=False))
                    hits = 0
                    for t in rows:
                        carried = {c for cs in t.antigens.values() for c in cs}
                        carried |= {table.resolve(c).broad for c in carried}
                        if carried & unacc:
                            hits += 1
                    assert compute_vpra(unacc, panel, table) == hits / 200


class TestCriterion4SamplingCorrectness:
    def test_weibull_inverse_transform(self):
        with criterion(4, "sampling correctness (Weibull/Cox/KM)"):
            model = WeibullModel(coefficients={}, intercept=2000.0,
                                 shape_by_country={"DE": 1.5})
            rng = np.random.default_rng(41)
            draws = np.sort([sample_failure_time({}, "DE", model,
                                                 rng.random())
                             for _ in range(10_000)])
            emp = np.arange(1, 10_001) / 10_000
            theo = 1.0 - np.exp(-(draws / 2000.0) ** 1.5)
            assert float(np.max(np.abs(emp - theo))) < 0.02

            ks = tuple(range(1, 81))
            s0 = tuple(float(np.exp(-0.07 * k)) for k in ks)
            sampler = CoxSampler({}, {"ESP": StepSurvival(ks=ks, s0=s0)},
                                 model_id="max_offers")
            rng = np.random.default_rng(42)
            draws = np.array([sampler.sample("ESP", "", {}, rng.random())
                              or 81 for _ in range(10_000)])
            ks_dist = max(abs(float((draws <= k).mean()) - (1.0 - s))
                          for k, s in zip(ks, s0))
            assert ks_dist < 0.02

            curve = StepCurve(grid=(0.25, 0.5, 0.75), survival=(0.6, 0.4, 0.3))
            curves = RelistCurveSet({(tb, ab): curve for tb in TIME_BUCKETS
                                     for ab in AGE_BUCKETS})

            # exact crossing points of the hand-built step curve
            assert sample_relist_time(1000, 50, curves, 0.10) == 250.0
            assert sample_relist_time(1000, 50, curves, 0.40) == 250.0
            assert sample_relist_time(1000, 50, curves, 0.45) == 500.0
            assert sample_relist_time(1000, 50, curves, 0.60) == 500.0
            assert sample_relist_time(1000, 50, curves, 0.65) == 750.0
            assert sample_relist_time(1000, 50, curves, 0.70) == 750.0
            assert sample_relist_time(1000, 50, curves, 0.75) is None


class TestCriterion5ConservationAndReplay:
    def test_accounting_identities(self, monkeypatch):
        with criterion(5, "conservation and accounting"):
            from engine_fixture import (always_relist_curves, candidate,
                                        donor, make_inputs,
                                        quick_failure_weibull,
                                        watch_conservation)
            failures = watch_conservation(monkeypatch)
            rng = np.random.default_rng(55)
            regs = [candidate(f"C{i:03d}",
                              country=("BE" if i % 3 else "DE"),
                              center=("BEC01" if i % 3 else "DEC01"),
                              bg=("A" if i % 4 else "O"),
                              age=float(rng.uniform(5, 80)),
                              mm=[(0, 0, 0), (1, 1, 1), (1, 0, 1)][i % 3],
                              dialysis_days=int(rng.integers(0, 3000)))
                    for i in range(120)]
            donors = [donor(f"D{j:02d}", int(rng.integers(1, 330)),
                            age=int(rng.uniform(10, 85)),
                            bg=("A" if j % 4 else "O"),
                            kidneys=2 if j % 3 else 1) for j in range(40)]
            inputs = make_inputs(regs, donors, center_p=0.8, patient_p=0.45,
                                 unplaced_mode="discard",
                                 weibull=quick_failure_weibull(250.0),
                                 curves=always_relist_curves(0.5))
            output = run(initialize(inputs, seed=5))
            c = output.counters
            assert (c["kidneys.transplanted"] + c["kidneys.discarded"]
                    == c["kidneys.available"])
            assert failures == []
            assert verify_replay(output) == []


class TestCriterion6Determinism:
    def test_byte_identical_runs_and_zero_delta_compare(self, tmp_path):
        with criterion(6, "determinism"):
            pop = tmp_path / "pop"
            generate_population(pop, n_candidates=250, n_donors=80,
                                start=date(2021, 4, 1),
                                end=date(2022, 4, 1), seed=66,
                                panel_size=400)
            out1, out2 = tmp_path / "r1", tmp_path / "r2"
            args = ["run", "--settings", str(pop / "settings.yaml"),
                    "--seed", "17", "--trace"]
            assert cli_main(args + ["--out", str(out1)]) == 0
            assert cli_main(args + ["--out", str(out2)]) == 0
            for name in ("transplants.csv", "final_states.csv", "stats.csv",
                         "offer_trace.csv"):
                assert ((out1 / name).read_bytes()
                        == (out2 / name).read_bytes()), name

            inputs = load_inputs(load_settings(pop / "settings.yaml"))
            seeds = list(range(1, 5))
            base = run_batch(inputs, seeds)
            again = run_batch(inputs, seeds)
            rows = reporting.compare_policies(base.per_run_stats,
                                              again.per_run_stats,
                                              paired=True)
            assert rows
            assert all(r.delta == 0.0 for r in rows)
            assert all(r.stars == "" for r in rows)


@pytest.fixture(scope="module")
def case_study(tmp_path_factory):
    """2,000-candidate / 600-donor population with a 20-run baseline."""
    pop = tmp_path_factory.mktemp("case_study")
    settings_path = generate_population(
        pop, n_candidates=2000, n_donors=600,
        start=date(2021, 4, 1), end=date(2023, 1, 1), seed=99,
        panel_size=2000, unplaced_mode="force")
    inputs = load_inputs(load_settings(settings_path))
    seeds = list(range(1, 21))
    t0 = time.time()
    baseline = run_batch(inputs, seeds)
    elapsed = time.time() - t0
    return {"inputs": inputs, "seeds": seeds, "baseline": baseline,
            "baseline_seconds": elapsed}


def _compare_policy(case, policy, label):
    t0 = time.time()
    variant = run_batch(case["inputs"].with_policy(policy), case["seeds"])
    elapsed = time.time() - t0
    rows = {r.name: r
            for r in reporting.compare_policies(
                case["baseline"].per_run_stats, variant.per_run_stats,
                paired=True)}
    return rows, elapsed


class TestCriterion7DirectionalPolicyEffects:
    def test_b2dr_reduces_dr_mismatches_and_homozygote_access(self, case_study):
        with criterion(7, "case study (a): B+2DR reweighting"):
            policy = validated(PolicyConfig().with_hla_betas(0.0, -66.7,
                                                             -133.3))
            rows, elapsed = _compare_policy(case_study, policy, "b2dr")
            level4 = rows["etkas.quality.level4"]
            assert level4.delta < 0
            assert level4.p_value is not None and level4.p_value < 0.05
            assert rows["etkas.homozygosity.dr"].delta < 0
            assert elapsed < 60.0, f"policy batch took {elapsed:.1f}s"

    def test_sliding_scale_lifts_mid_band_vpra(self, case_study):
        with criterion(7, "case study (b): vPRA sliding scale"):
            policy = validated(PolicyConfig(
                sliding_scale=SlidingScaleConfig(
                    enabled=True, max_points=133.0, base=5.0,
                    hmpp_replaces_mmp=True)))
            rows, elapsed = _compare_policy(case_study, policy, "sliding")
            assert rows["etkas.vpra.mid"].delta > 0
            assert elapsed < 60.0, f"policy batch took {elapsed:.1f}s"

    def test_strict_age_filter_moves_matching_and_geography(self, case_study):
        with criterion(7, "case study (c): strict age filter"):
            policy = validated(PolicyConfig(
                age_filter=AgeFilterConfig(
                    enabled=True,
                    curve=tuple(AGE_FILTER_CURVES["strict"]))))
            rows, elapsed = _compare_policy(case_study, policy, "age")
            within5 = rows["etkas.agediff.within_5"]
            assert within5.delta > 0
            assert within5.p_value is not None and within5.p_value < 0.05
            intl = rows["etkas.geo.international"]
            assert intl.delta > 0
            assert intl.p_value is not None and intl.p_value < 0.05
            assert elapsed < 60.0, f"policy batch took {elapsed:.1f}s"
            assert case_study["baseline_seconds"] < 60.0


class TestCriterion8Throughput:
    def test_validation_scale_single_run(self, tmp_path):
        with criterion(8, "single-run throughput at validation scale"):
            pop = tmp_path / "big"
            generate_population(pop, n_candidates=24_000, n_donors=4_300,
                                start=date(2021, 4, 1),
                                end=date(2024, 1, 1), seed=8,
                                panel_size=10_000)
            inputs = load_inputs(load_settings(pop / "settings.yaml"))
            assert len(inputs.registrations) == 24_000
            assert len(inputs.donors) == 4_300
            t0 = time.time()
            output = run_once(inputs, 1)
            elapsed = time.time() - t0
            assert output.transplants
            assert elapsed < 30.0, f"validation-scale run took {elapsed:.1f}s"

    @pytest.mark.skipif(os.cpu_count() < 8,
                        reason="batch scaling-efficiency measurement needs "
                               ">= 8 CPU cores; this host has "
                               f"{os.cpu_count()}")
    def test_batch_scaling_efficiency(self, tmp_path):
        with criterion(8, "200-run batch scaling on 8 workers"):
            pop = tmp_path / "scale"
            generate_population(pop, n_candidates=2000, n_donors=600,
                                start=date(2021, 4, 1),
                                end=date(2023, 1, 1), seed=5,
                                panel_size=2000, unplaced_mode="force")
            inputs = load_inputs(load_settings(pop / "settings.yaml"))
            # serial cost per run estimated from a sample, then the full
            # 200-run batch on 8 workers
            sample = list(range(1, 9))
            t0 = time.time()
            run_batch(inputs, sample, workers=1)
            serial_per_run = (time.time() - t0) / len(sample)
            seeds = list(range(1, 201))
            t0 = time.time()
            run_batch(inputs, seeds, workers=8)
            parallel = time.time() - t0
            efficiency = (serial_per_run * len(seeds)) / (8 * parallel)
            assert efficiency >= 0.7, f"scaling efficiency {efficiency:.2f}"
