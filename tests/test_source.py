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


# Every cache in the package, by (module, qualified function name), with its
# bound: the lru_cache maxsize, or "instance" for a cached_property, which
# holds one value per instance for the instance's life.
CACHES = {
    ("cartan.py", "CartanDatum.M_index"): "instance",
    ("cartan.py", "build_cartan"): None,
    ("cli.py", "build_parser"): 1,
    ("fold.py", "_build_folding"): None,
    ("fusion.py", "_sector_matrices"): 8,
    ("rep.py", "root_table"): 64,
    ("rep.py", "_gram_int"): 64,
    ("rep.py", "_dim"): 4096,
    ("rep.py", "_weight_system"): 256,
    ("weyl.py", "weyl_order"): 64,
}
# Unbounded on purpose: they intern data, and inner_product detects
# MixedDatum by identity.  No other cache may grow without limit.
UNBOUNDED = {("cartan.py", "build_cartan"), ("fold.py", "_build_folding")}
_CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def _cache_name(node):
    """The functools cache a decorator (or the callee of one) names, if any."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in _CACHE_NAMES else None


def _bound(decorator):
    name = _cache_name(decorator)
    if name == "cached_property":
        return "instance"
    if name == "cache":
        return None
    if not isinstance(decorator, ast.Call):
        return 128  # lru_cache's default maxsize
    args = [kw.value for kw in decorator.keywords if kw.arg == "maxsize"] + decorator.args
    return ast.literal_eval(args[0]) if args else 128


def _caches(path):
    """(sites with their bounds, references to a cache name outside imports)."""
    tree = ast.parse(path.read_text(), str(path))
    found, decorators = {}, 0

    def walk(node, scope):
        nonlocal decorators
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in child.decorator_list:
                    if _cache_name(dec):
                        found[path.name, ".".join(scope + [child.name])] = _bound(dec)
                        decorators += 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
            else:
                walk(child, scope)

    walk(tree, [])
    refs = sum(1 for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))
               and _cache_name(node) and not isinstance(getattr(node, "ctx", None), ast.Store))
    return found, refs - decorators


def test_caches_are_listed():
    # Each cache is listed with its bound, so a new or resized one shows
    # here; only the interning builders may be unbounded.
    found, stray = {}, []
    for path in sorted(Path(twistfuse.__file__).parent.glob("*.py")):
        sites, refs = _caches(path)
        found.update(sites)
        if refs:
            stray.append(path.name)
    assert not stray, f"a cache made other than as a decorator in {stray}"
    assert found == CACHES
    assert {site for site, bound in found.items() if bound is None} == UNBOUNDED


def _raised_names(tree):
    """Names of the exceptions raised in tree, as `raise Name(...)`,
    `raise Name` or `raise module.Name(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_is_raised():
    # An exception class that nothing raises is a retired check whose name
    # stayed behind; test_no_dead_module_names skips it, as it is exported.
    package = Path(twistfuse.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {name for path in package.glob("*.py")
              for name in _raised_names(ast.parse(path.read_text(), str(path)))}
    unraised = sorted(classes - raised - {"TwistfuseError", "CheckFailed"})
    assert not unraised, f"error classes with no raise site: {unraised}"
