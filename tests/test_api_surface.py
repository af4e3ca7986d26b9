"""The package holds no API that only tests read.

Every name ``src/etkasim`` defines at module level or in a class body must
be referenced somewhere in the package: as a name, an attribute or a
keyword argument.  A method (a function defined in a class body) must be
read as an attribute (``x.name``), since a local variable of the same name
does not use it.  The check goes by name only, so a reference to any
attribute of the same name counts.  The names below are the package's
entry points for users and tools, which nothing inside it calls.

The same holds for parameters with a default, of the functions and methods
defined at module level or in a class body: some call in the package must
pass the parameter, and some call must leave it to its default.  A call
counts by the callee's name, as above; calling a class, by its name or as
``cls`` in its own body, calls its ``__init__``.  A call that unpacks
``*args`` or ``**kwargs`` counts as passing every parameter.  Dataclass
fields are not parameters here.
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
    "run_once": "one untraced run from inputs and a seed, for users and "
                "tests; perfbench times it",
}

# (function, parameter): why a default the package never uses, or always
# overrides, stays
ALLOWED_PARAMS = {
    ("main", "argv"): "the console script calls main() and argparse reads "
                      "sys.argv",
    ("run_batch", "workers"): "users and perfbench run serial batches "
                              "through the default",
    **{("generate_population", name): "the population tool's options, set "
                                      "by users, tests and perfbench"
       for name in ("seed", "panel_size", "unplaced_mode")},
}


def _defined(body, owner=None):
    """(owner class or None, name, whether it is a method) of the
    definitions in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield owner, node.name, (owner is not None
                                     and not isinstance(node, ast.ClassDef))
            if isinstance(node, ast.ClassDef):
                yield from _defined(node.body, node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield owner, target.id, False
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield owner, node.target.id, False


def _referenced(trees) -> tuple[set[str], set[str]]:
    """(every name read as a name, an attribute or a keyword argument, the
    names read as attributes)."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store):
                attributes.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names | attributes, attributes


def unreferenced(src: Path) -> list[tuple[str, str | None, str]]:
    """(module, owner class or None, name) of each name the modules of
    ``src`` define and never reference, and of each method they never read
    as an attribute, dunder names aside."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    referenced, attributes = _referenced(trees.values())
    return [(module, owner, name)
            for module, tree in trees.items()
            for owner, name, method in _defined(tree.body)
            if name not in (attributes if method else referenced)
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


def test_the_scan_finds_a_method_read_only_as_a_local_name(tmp_path):
    # ``row`` is read as a name, but no code reads the method ``A.row``
    (tmp_path / "mod.py").write_text(
        "class A:\n    def row(self):\n        return 1\n\n"
        "    def size(self):\n        return 2\n\n\n"
        "def main(rows):\n    for row in rows:\n        print(row)\n"
        "    return A().size()\n")
    assert unreferenced(tmp_path) == [("mod.py", "A", "row"),
                                      ("mod.py", None, "main")]


def _functions(body, owner=None):
    """(owner class or None, definition) of the functions in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, node


def _calls(node, owner=None, found=None) -> dict[str, list[ast.Call]]:
    """The calls under ``node`` by callee name; ``cls`` names its class."""
    found = {} if found is None else found
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _calls(child, child.name, found)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "cls" and owner is not None:
                name = owner
            if name is not None:
                found.setdefault(name, []).append(child)
        _calls(child, owner, found)
    return found


def _parameters(fn, method: bool) -> tuple[list[str], list[str]]:
    """The positional parameters of ``fn`` a caller fills (``self`` or
    ``cls`` aside), and the parameters that have a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                  if default is not None]
    return positional, defaulted


def unused_defaults(src: Path) -> list[tuple[str, str, str, str]]:
    """(module, function, parameter, finding) of each defaulted parameter
    that no call in ``src`` passes ("never passed"), or that every call
    passes ("never defaulted")."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
    findings = []
    for module, tree in trees.items():
        for owner, fn in _functions(tree.body):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            positional, defaulted = _parameters(fn, owner is not None
                                                and not static)
            callee = owner if fn.name == "__init__" else fn.name
            passed = []
            for call in calls.get(callee, []):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.append(set(defaulted))
                else:
                    passed.append({*positional[:len(call.args)],
                                   *(k.arg for k in call.keywords)})
            name = f"{owner}.{fn.name}" if owner else fn.name
            for param in defaulted:
                n = sum(param in names for names in passed)
                if n == 0:
                    findings.append((module, name, param, "never passed"))
                elif n == len(passed):
                    findings.append((module, name, param, "never defaulted"))
    return findings


def test_every_default_is_both_used_and_overridden():
    found = [entry for entry in unused_defaults(SRC)
             if entry[1:3] not in ALLOWED_PARAMS]
    assert found == []


def test_every_allowed_parameter_is_still_needed():
    # an allowance the package no longer needs is dropped, not kept
    found = {entry[1:3] for entry in unused_defaults(SRC)}
    assert set(ALLOWED_PARAMS) - found == set()


def test_the_scan_finds_an_unused_and_an_always_overridden_default(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n    def __init__(self, x=0, y=1):\n        self.x = x\n"
        "\n    @classmethod\n    def make(cls):\n        return cls(y=2)\n"
        "\n\ndef f(a, b=1, *, c=2):\n    return a + b + c\n"
        "\n\ndef g(a, d=5):\n    return a + d\n"
        "\n\ndef main():\n    A(1, 2)\n"
        "    return f(1, c=3) + f(2, 3, c=4) + g(1)\n")
    assert unused_defaults(tmp_path) == [
        ("mod.py", "A.__init__", "y", "never defaulted"),
        ("mod.py", "f", "c", "never defaulted"),
        ("mod.py", "g", "d", "never passed")]
