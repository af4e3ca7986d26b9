"""Set-up runs with the cyclic garbage collector paused: ``load_inputs`` and
``initialize`` leave it as they found it, and leave no cyclic garbage that
the pause would keep from being freed."""

from __future__ import annotations

import gc
from dataclasses import replace
from datetime import date

import pytest

from etkasim.common import InputError, gc_paused
from etkasim.engine import initialize
from etkasim.io import load_inputs, load_settings
from etkasim.synthetic import generate_population

from engine_fixture import candidate, make_inputs


@pytest.fixture(scope="module")
def settings(tmp_path_factory):
    out = tmp_path_factory.mktemp("population")
    generate_population(out, n_candidates=120, n_donors=30,
                        start=date(2021, 4, 1), end=date(2022, 4, 1),
                        seed=5, panel_size=200)
    return load_settings(out / "settings.yaml")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's setting before the call, restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_load_and_initialize_restore_the_collector(settings, collector):
    inputs = load_inputs(settings)
    assert gc.isenabled() == collector
    initialize(inputs)
    assert gc.isenabled() == collector


def test_a_failed_set_up_restores_the_collector(settings, collector):
    no_panel = replace(settings, paths={key: path for key, path
                                        in settings.paths.items()
                                        if key != "panel"})
    with pytest.raises(InputError, match="donor panel"):
        load_inputs(no_panel)
    assert gc.isenabled() == collector
    twice = [candidate("C1"), candidate("C1")]
    with pytest.raises(InputError, match="duplicate registration id"):
        initialize(make_inputs(twice, []))
    assert gc.isenabled() == collector


def test_pauses_nest(collector):
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() == collector


def test_set_up_leaves_no_cyclic_garbage(settings):
    # a cycle built while paused would outlive the pause; after a warm-up
    # (module-level caches fill on first use) there must be none to free.
    # Under DEBUG_SAVEALL every collection, also the one that runs when a
    # pause ends, keeps what it finds in gc.garbage
    initialize(load_inputs(settings))
    flags = gc.get_debug()
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        state = initialize(load_inputs(settings))
        found = gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
    assert state.store.n > 0
    assert (found, garbage) == (0, 0)
