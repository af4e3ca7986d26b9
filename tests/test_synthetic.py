"""The synthetic input generator produces valid, loadable streams."""

from __future__ import annotations

from datetime import date

import pytest

from etkasim.common import to_days
from etkasim.io import data_path, load_inputs, load_settings
from etkasim.synthetic import generate_population, write_model_files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    settings_path = generate_population(
        out, n_candidates=150, n_donors=40,
        start=date(2021, 4, 1), end=date(2022, 4, 1), seed=3,
        panel_size=300)
    return load_inputs(load_settings(settings_path))


class TestGeneratedPopulation:
    def test_counts(self, inputs):
        assert len(inputs.registrations) == 150
        assert len(inputs.donors) == 40
        assert len(inputs.panel) == 300

    def test_every_stream_terminates(self, inputs):
        for reg in inputs.registrations:
            stream = inputs.updates[reg.id]
            urgencies = [u.value for u in stream if u.kind == "URG"]
            assert urgencies[-1] in ("R", "D"), reg.id

    def test_screenings_keep_candidates_fresh(self, inputs):
        # gaps between screenings stay under the 180-day staleness bound
        for reg in inputs.registrations[:30]:
            days = [u.day for u in inputs.updates[reg.id] if u.kind == "URG"]
            days += [int(d) for d in inputs.screenings.get(reg.id, ())]
            terminal = max(u.day for u in inputs.updates[reg.id]
                           if u.kind == "URG")
            last = reg.registration_day
            for d in sorted(days):
                if d > terminal:
                    break
                assert d - last < 180
                last = d

    def test_repeat_listings_have_pre_window_transplants(self, inputs):
        for reg in inputs.registrations:
            if reg.previous_transplant_day is not None:
                assert reg.previous_transplant_day < to_days(date(2021, 4, 1))

    def test_donor_mix_includes_esp_age(self, inputs):
        ages = [d.age for d in inputs.donors]
        assert any(a >= 65 for a in ages)
        assert any(a < 65 for a in ages)

    def test_typings_resolve(self, inputs):
        for reg in inputs.registrations[:50]:
            reg.hla.validate(inputs.antigen_table)


MODEL_FILES = ("cox_max_offers.csv", "cox_baselines.csv",
               "accept_etkas_center.csv", "accept_etkas_patient.csv",
               "accept_esp_center.csv", "accept_esp_patient.csv", "dual.csv",
               "weibull_post_transplant.csv", "relist_curves.csv",
               "relist_pool.csv", "relist_pool_updates.csv")


def test_write_model_files_regenerates_the_packaged_ones(tmp_path):
    write_model_files(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(MODEL_FILES)
    for name in MODEL_FILES:
        assert ((tmp_path / name).read_bytes()
                == data_path(name).read_bytes()), name
