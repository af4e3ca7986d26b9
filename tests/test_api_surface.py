"""The package holds no API that only tests read.

Every name ``src/etkasim`` defines at module level or in a class body must
be referenced somewhere in the package: as a name, an attribute or a
keyword argument.  The check goes by name only, so a reference to any
attribute of the same name counts.  The names below are the package's
entry points for users and tools, which nothing inside it calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import etkasim

SRC = Path(etkasim.__file__).parent

ALLOWED = {
    "generate_population": "writes a synthetic input directory: the "
                           "population tool of users, tests and perfbench",
    "write_model_files": "regenerates the packaged model files under data/",
    "write_match_list_csv": "writes a donor's list in the published "
                            "match-list layouts, for users",
    "reconciliation_problems": "checks a run's statistics against each "
                               "other; perfbench calls it on every run",
    "with_hla_betas": "builds the case study's B+2DR policy variant, for "
                      "users and perfbench",
}


def _defined(body, owner=None):
    """(owner class or None, name) of the definitions in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield owner, node.name
            if isinstance(node, ast.ClassDef):
                yield from _defined(node.body, node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield owner, target.id
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield owner, node.target.id


def _referenced(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names


def unreferenced(src: Path) -> list[tuple[str, str | None, str]]:
    """(module, owner class or None, name) of each name the modules of
    ``src`` define and never reference, dunder names aside."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    referenced = _referenced(trees.values())
    return [(module, owner, name)
            for module, tree in trees.items()
            for owner, name in _defined(tree.body)
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_name_is_used_by_the_package():
    unused = [entry for entry in unreferenced(SRC)
              if entry[2] not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_defined_and_still_unused():
    # an allowance the package no longer needs is dropped, not kept
    names = {name for _, _, name in unreferenced(SRC)}
    assert set(ALLOWED) - names == set()


def test_the_scan_finds_a_name_only_tests_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n    x: int = 0\n\n    def used(self):\n"
        "        return self.x\n\n    def unused(self):\n"
        "        return 1\n\n\ndef main():\n    return A().used()\n")
    assert unreferenced(tmp_path) == [("mod.py", "A", "unused"),
                                      ("mod.py", None, "main")]
