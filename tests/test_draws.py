"""One owner for the random draws of a run.

A run's draws all come from ``engine.Draws``, which holds its one random
stream.  Samplers take their uniforms as arguments, and code whose number
of draws depends on the data takes the ``Draws``.  So no module of the
package but ``synthetic``, which writes populations from a stream of its
own, imports or calls ``default_rng`` or a Generator's ``random``,
``integers`` or ``choice`` outside the ``Draws`` class.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import etkasim
from etkasim.engine import Draws

SRC = Path(etkasim.__file__).parent

RNG_NAMES = {"default_rng", "random", "integers", "choice"}
# (module, top-level definition) allowed to draw; None: the whole module
OWNERS = {("engine.py", "Draws"), ("synthetic.py", None)}


def _names(node):
    """Each name called, as a name or an attribute, and each name imported
    under ``node``, with its line."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                yield func.id, child.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, child.lineno
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                yield alias.name.rpartition(".")[2], child.lineno


def rng_uses(src: Path) -> list[tuple[str, int, str]]:
    """(module, line, name) of each call or import of one of RNG_NAMES in
    the modules of ``src`` outside OWNERS."""
    found = []
    for path in sorted(src.glob("*.py")):
        if (path.name, None) in OWNERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (path.name, getattr(node, "name", None)) in OWNERS:
                continue
            found.extend((path.name, line, name)
                         for name, line in _names(node) if name in RNG_NAMES)
    return sorted(found)


def test_only_draws_and_synthetic_use_a_generator():
    assert rng_uses(SRC) == []


def test_the_scan_finds_each_way_to_draw(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy.random import default_rng\n\n\n"
        "class Draws:\n    def u(self):\n        return self._rng.random()\n"
        "\n\ndef f(rng, xs):\n    return rng.integers(0, 3), rng.choice(xs)"
        "\n\n\ndef g(choice):\n    np.random.default_rng(1)\n"
        "    return choice, g.choice\n")
    (tmp_path / "synthetic.py").write_text("import random\n")
    assert rng_uses(tmp_path) == [
        ("mod.py", 2, "default_rng"), ("mod.py", 7, "random"),
        ("mod.py", 11, "choice"), ("mod.py", 11, "integers"),
        ("mod.py", 15, "default_rng")]


def test_draws_read_one_stream_in_call_order():
    rng = np.random.default_rng(7)
    draws = Draws(7)
    got = [draws.max_offers(), draws.center(), draws.patient(),
           draws.dual(), draws.failure(), draws.relist(),
           draws.pool_entry(5), draws.immunization()]
    want = [rng.random() for _ in range(6)] + [int(rng.integers(0, 5)),
                                              rng.random()]
    assert got == want
