"""Checks on the package source itself."""

import ast
import collections
import importlib
import importlib.util
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


def _module_names(tree):
    """The module-level functions, classes and constants a module defines,
    each with its defining node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _used_names(tree, skip=None):
    """Names read in tree, as names or attributes, outside the node skip."""
    used = collections.Counter()

    def walk(node):
        if node is skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(tree)
    return used


def test_no_dead_module_names():
    # A module-level name that no code in the package reads and that the
    # package does not export is dead code; an import alone is no use.
    paths = sorted(Path(twistfuse.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum((_used_names(tree) for tree in trees.values()), collections.Counter())
    dead = []
    for path, tree in trees.items():
        for name, node in _module_names(tree):
            if name.startswith("__") or name in twistfuse.__all__:
                continue
            # Uses inside its own definition (recursion) do not count.
            if used[name] == _used_names(node)[name]:
                dead.append(f"{path.name}: {name}")
    assert not dead, f"module-level names no code reads: {dead}"


def test_traced_names_exist():
    # The benchmark's tracer wraps package functions by name, and a traced
    # run that misses one reports correct: false.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"twistfuse.{module}.{name}"
               for module, names in tracer.TRACED.items() for name in names
               if not hasattr(importlib.import_module(f"twistfuse.{module}"), name)]
    assert not missing, f"traced names the package lacks: {missing}"
