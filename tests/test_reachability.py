"""Every top-level function and class of the package is used by the package.

A definition that only tests call is dead weight for the commands: this
guard fails on it, so test-only helpers live in the tests.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "parabolab")


def _references(node) -> set:
    """Names that node reads, as a bare name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_top_level_definition_is_referenced_outside_its_own_body():
    statements = []  # (file, top-level statement, the names it reads)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        statements += [(os.path.basename(path), stmt, _references(stmt)) for stmt in tree.body]
    assert statements
    unreached = [f"{name}:{stmt.name}" for name, stmt, _ in statements
                 if name != "__init__.py"
                 and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 and not any(stmt.name in refs for _, other, refs in statements
                             if other is not stmt)]
    assert unreached == []
