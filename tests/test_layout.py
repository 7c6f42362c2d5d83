"""The package holds no code that only the tests reach."""

import ast
from collections import Counter
from pathlib import Path

import mmmkit

PACKAGE = Path(mmmkit.__file__).parent


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
