"""The two published match-list examples, rebuilt row by row."""

from __future__ import annotations

import numpy as np
import pytest

from etkasim.common import round_half_up

from fixtures_tables import (ETKAS_ROWS, MATCH_DAY, build_engine_list,
                             build_esp_fixture, build_etkas_fixture,
                             ESP_DIALYSIS_DAYS)
from oracle.matchlist import build_match_list


@pytest.fixture(scope="module")
def etkas_fx():
    return build_etkas_fixture()


@pytest.fixture(scope="module")
def esp_fx():
    return build_esp_fixture()


def expected_hla_points(mm, pediatric):
    raw = max(0.0, 400.0 - 66.7 * sum(mm))
    if pediatric:
        raw *= 2.0
    return round_half_up(raw)


class TestEtkasTable:
    def test_scalar_ordering_and_breakdowns(self, etkas_fx):
        fx = etkas_fx
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        assert [r.candidate_id for r in ml.records] == [
            f"R{i:02d}" for i in range(1, 15)]

        for rank, rec in enumerate(ml.records, start=1):
            row = ETKAS_ROWS[rank - 1]
            country, center, mm, dial_pts, ped, bal, dist, mmp_pts, total = row
            got = rec.points.rounded()
            assert got["dialysis"] == dial_pts, rank
            assert got["hla"] == expected_hla_points(mm, ped), rank
            assert got["pediatric"] == (100 if ped else 0), rank
            assert got["hu"] == 0
            assert got["balance"] == bal, rank
            assert got["distance"] == dist, rank
            assert got["mmp"] == mmp_pts, rank
            assert abs(rec.points.display_total - total) <= 1, rank
            assert rec.mm.as_tuple() == mm

        assert ml.records[0].tier == (3, 0)
        assert all(r.tier == (1, 0) for r in ml.records[1:])
        assert all(r.filtered_visible for r in ml.records)

    def test_zero_mismatch_tier_beats_higher_points(self, etkas_fx):
        fx = etkas_fx
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        top = ml.records[0]
        assert top.total < max(r.total for r in ml.records[1:])
        assert top.candidate_id == "R01"

    def test_vector_path_matches_table(self, etkas_fx):
        store, arrays = build_engine_list(etkas_fx)
        ids = [store.ids[int(r)] for r in arrays.rows]
        assert ids == [f"R{i:02d}" for i in range(1, 15)]
        for rank in range(1, 15):
            row = ETKAS_ROWS[rank - 1]
            i = rank - 1
            assert round_half_up(float(arrays.comp["dialysis"][i])) == row[3]
            assert round_half_up(float(arrays.comp["balance"][i])) == row[5]
            assert round_half_up(float(arrays.comp["distance"][i])) == row[6]
            assert round_half_up(float(arrays.comp["mmp"][i])) == row[7]
            assert (int(arrays.mm_a[i]), int(arrays.mm_b[i]),
                    int(arrays.mm_dr[i])) == row[2]

    def test_permuting_input_order_is_irrelevant(self, etkas_fx):
        fx = etkas_fx
        rng = np.random.default_rng(3)
        states = list(fx["states"])
        for _ in range(3):
            perm = [states[i] for i in rng.permutation(len(states))]
            ml = build_match_list(fx["donor"], perm, fx["ledger"],
                                  fx["policy"], fx["ctx"], MATCH_DAY)
            assert [r.candidate_id for r in ml.records] == [
                f"R{i:02d}" for i in range(1, 15)]

    def test_unfiltered_position_with_filtered_fillers(self):
        fx = build_etkas_fixture(include_fillers=True)
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        assert len(ml.records) == 67
        assert len(ml.filtered()) == 14
        # the filler rows (higher points, filtered out by their allocation
        # profile) push the accepting candidate from rank 14 to rank 67
        unfiltered_rank = 1 + [r.candidate_id for r in ml.records].index("R14")
        assert unfiltered_rank == 67
        filtered_ids = [r.candidate_id for r in ml.filtered()]
        assert filtered_ids == [f"R{i:02d}" for i in range(1, 15)]
        # filtered list is a subsequence of the unfiltered list
        it = iter([r.candidate_id for r in ml.records])
        assert all(fid in it for fid in filtered_ids)


class TestEspTable:
    def test_scalar_dialysis_day_ordering(self, esp_fx):
        fx = esp_fx
        ml = build_match_list(fx["donor"], fx["states"], fx["ledger"],
                              fx["policy"], fx["ctx"], MATCH_DAY)
        assert ml.program == "ESP"
        assert [r.candidate_id for r in ml.records] == [
            f"E{i:02d}" for i in range(1, 12)]
        assert [int(r.total) for r in ml.records] == ESP_DIALYSIS_DAYS
        assert [r.dialysis_days for r in ml.records] == ESP_DIALYSIS_DAYS
        # single geography tier: every candidate in the donor's subregion
        assert len({r.tier for r in ml.records}) == 1
        assert all(r.filtered_visible for r in ml.records)

    def test_vector_path_matches(self, esp_fx):
        store, arrays = build_engine_list(esp_fx)
        assert arrays.program == "ESP"
        ids = [store.ids[int(r)] for r in arrays.rows]
        assert ids == [f"E{i:02d}" for i in range(1, 12)]
        assert [int(d) for d in arrays.dial_days] == ESP_DIALYSIS_DAYS
