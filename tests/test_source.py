"""Checks on the package source itself."""

import ast
import collections
from pathlib import Path

import twistfuse

# Assert statements allowed in the package, by (module, enclosing function)
# and count: none.  Every check must raise: python -O strips asserts, so a
# gate written as one is silently off.
ASSERT_ALLOWLIST = {}


def _asserts(path):
    """Count the assert statements of one module by enclosing function."""
    counts = collections.Counter()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                counts[path.name, ".".join(scope)] += 1
            inner = (scope + [child.name] if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else scope)
            walk(child, inner)

    walk(ast.parse(path.read_text(), str(path)), [])
    return counts


def test_no_assert_outside_allowlist():
    paths = sorted(Path(twistfuse.__file__).parent.glob("*.py"))
    assert paths, "no module found"
    found = sum(map(_asserts, paths), collections.Counter())
    extra = {site: n for site, n in found.items()
             if n > ASSERT_ALLOWLIST.get(site, 0)}
    assert not extra, f"assert statements outside the allowlist: {extra}"
