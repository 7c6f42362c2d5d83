"""The package holds no code that only the tests reach, no import that
nothing reads, and no constant that nothing reads."""

import ast
import re
from collections import Counter
from pathlib import Path

import mmmkit

PACKAGE = Path(mmmkit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _unreferenced(package):
    """Module-level functions and classes of ``package`` that no module of it
    names, other than by defining them, as ``(file name, name)`` pairs.

    A name counts wherever the code reads it: as a bare name, an attribute,
    or an imported name, f-strings included; docstrings and comments do not
    count.
    """
    named = Counter()
    defined = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
    return [(module, name) for module, name in defined if not named[name]]


def _unused_imports(package):
    """Names that a module of ``package`` imports and never reads, as
    ``(file name, name)`` pairs.

    ``__init__.py`` is left out, since it imports to re-export, and so are
    ``from __future__`` imports.  A name is read where it appears as a bare
    name anywhere in the module, f-strings included.
    """
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unused += [(path.name, name) for name in imported if name not in read]
    return unused


def _unread_constants(package, bench):
    """Module-level constants of ``package`` that nothing reads, as
    ``(file name, name)`` pairs.

    A constant is a name that a module-level assignment binds; dunders such
    as ``__all__`` are exempt.  A private one (leading underscore) must be
    read in its own module.  A public one must be read in some module of
    the package, as a bare name or an attribute, or be named in a Python
    file under ``bench``.
    """
    read = {}
    defined = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read[path.name] = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)
        }
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (path.name, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
    bench_text = "\n".join(path.read_text() for path in sorted(bench.rglob("*.py")))
    read_anywhere = set().union(*read.values())
    unread = []
    for module, name in defined:
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("_"):
            found = name in read[module]
        else:
            found = name in read_anywhere or re.search(rf"\b{name}\b", bench_text)
        if not found:
            unread.append((module, name))
    return unread


def test_every_module_level_definition_is_used_in_the_package_or_exported():
    unused = [
        (module, name)
        for module, name in _unreferenced(PACKAGE)
        if name not in mmmkit.__all__
    ]
    assert unused == [], "move test-only code to tests/oracles.py or delete it"


def test_the_check_finds_a_definition_that_nothing_names(tmp_path):
    (tmp_path / "a.py").write_text(
        'from .b import used\n\n\ndef orphan():\n    """used is named here only in prose."""\n'
    )
    (tmp_path / "b.py").write_text(
        'def used():\n    return f"{helper()}"\n\n\n'
        "def helper():\n    return 1\n\n\n"
        "class Lonely:\n    pass\n"
    )
    assert _unreferenced(tmp_path) == [("a.py", "orphan"), ("b.py", "Lonely")]


def test_every_import_is_read_in_its_module():
    assert _unused_imports(PACKAGE) == [], "drop the imports that nothing reads"


def test_the_check_finds_an_import_that_nothing_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .b import Error, exported\n\n\n"
        "def f():\n"
        '    """gcd is named here only in prose."""\n'
        "    import json\n"
        '    return f"{os.sep}{least(2, 3)}", json, exported.attr\n'
    )
    assert _unused_imports(tmp_path) == [("a.py", "gcd"), ("a.py", "Error")]


def test_every_constant_is_read():
    assert _unread_constants(PACKAGE, PERFBENCH) == [], "delete the constants that nothing reads"


def test_the_check_finds_a_constant_that_nothing_reads(tmp_path):
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "a.py").write_text(
        "__all__ = []\n"
        "_READ = 1\n"
        "_READ_ELSEWHERE = 2\n"
        "PUBLIC: int = 3\n"
        "BENCHED = 4\n"
        "LONE, _LONE = 5, 6\n\n\n"
        "def f():\n"
        '    """LONE is named here only in prose."""\n'
        "    return _READ\n"
    )
    (package / "b.py").write_text(
        "from . import a\n\n\ndef g():\n    return a.PUBLIC, a._READ_ELSEWHERE\n"
    )
    (bench / "run.py").write_text('CMD = "import a; print(a.BENCHED)"\n')
    assert _unread_constants(package, bench) == [
        ("a.py", "_READ_ELSEWHERE"),
        ("a.py", "LONE"),
        ("a.py", "_LONE"),
    ]
