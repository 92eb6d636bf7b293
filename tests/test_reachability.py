"""Every function, class and method of the package has a caller outside the
tests: the package itself or the benchmark; every parameter of a package
function is read by its body; and every name a package module imports is
read in that module.  The demos do not count as callers:
they narrate, and a name that only a demo reaches has no checked use.

A top-level definition counts as used when its name appears, outside its
own definition, as a name, an attribute, an imported name or a string
constant (the benchmark's tracer patches functions by name).  Uses inside a
definition count only once that definition is itself used, so a helper
reached only from unused code is unused too.  A method (dunder methods
aside, which Python calls) counts as used when its name appears as an
attribute outside its own definition, read from anything but a module that
an ``import`` statement binds (``json.dumps`` is no use of a ``dumps``
method); methods are told apart by name only, so each method whose name
another package class, a builtin container, ``str`` or ``np.ndarray`` also
defines is pinned to a list checked by hand.
``__init__.py`` only re-exports, so it is not read, and neither are the
tests.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

from corona_lab import CoronaLabError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "corona_lab").glob("*.py") if p.name != "__init__.py")
CALLERS = sorted((ROOT / "perfbench").glob("*.py"))
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parsed() -> dict:
    return {path: ast.parse(path.read_text()) for path in PACKAGE + CALLERS}


def _names(node) -> set:
    """Every identifier that ``node`` mentions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _modules(tree) -> set:
    """The names that ``import`` statements in ``tree`` bind to modules."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _attributes(node, modules: set) -> Counter:
    """Attribute names read in ``node``, except those read from ``modules``
    (``np.linalg.norm`` names no method)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                out[sub.attr] += 1
    return out


def unreached() -> list:
    """Top-level definitions of the package that nothing outside the tests
    reaches, as ``module.name``."""
    defs = {}  # name -> (module, names used in its body)
    used = set()
    for path, tree in _parsed().items():
        for node in tree.body:
            if isinstance(node, DEFINITION) and path in PACKAGE:
                defs[node.name] = (path.stem, _names(node) - {node.name})
            else:
                used |= _names(node)
    reached, frontier = set(), used & defs.keys()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[n][1] for n in frontier)) & defs.keys() - reached
    return sorted(f"{defs[n][0]}.{n}" for n in defs.keys() - reached)


def unused_methods() -> list:
    """Methods of the package's classes that no attribute outside their own
    definition names, as ``module.Class.method``."""
    trees = _parsed()
    modules = {path: _modules(tree) for path, tree in trees.items()}
    attributes = sum((_attributes(tree, modules[path]) for path, tree in trees.items()), Counter())
    out = []
    for path in PACKAGE:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, DEFINITION) or method.name.startswith("__"):
                    continue
                if attributes[method.name] == _attributes(method, modules[path])[method.name]:
                    out.append(f"{path.stem}.{cls.name}.{method.name}")
    return out


def shared_methods() -> dict:
    """Package methods that the name-only check of :func:`unused_methods`
    cannot tell apart, as name -> ``module.Class`` of each definition: names
    defined by two or more package classes, or also by a builtin container,
    ``str`` or ``np.ndarray``, whose own calls count as uses."""
    defined = {}
    for path in PACKAGE:
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, DEFINITION) and not m.name.startswith("__"):
                        defined.setdefault(m.name, set()).add(f"{path.stem}.{cls.name}")
    builtins = set().union(*map(dir, (np.ndarray, dict, list, str, tuple, set)))
    return {name: cls for name, cls in defined.items() if len(cls) > 1 or name in builtins}


def _functions(node, prefix=""):
    """(qualified name, definition) of every function in ``node``, nested
    ones and methods included."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, DEFINITION):
            name = f"{prefix}{sub.name}"
            if not isinstance(sub, ast.ClassDef):
                yield name, sub
            yield from _functions(sub, f"{name}.")
        else:
            yield from _functions(sub, prefix)


def unread_parameters() -> list:
    """Parameters of package functions that the function's body never reads,
    as ``module.function(parameter)``; ``self``, ``cls`` and names starting
    with ``_`` are exempt."""
    out = []
    for path in PACKAGE:
        for name, fn in _functions(ast.parse(path.read_text())):
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                sub.id
                for stmt in fn.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            out += [
                f"{path.stem}.{name}({p.arg})"
                for p in params
                if p and p.arg not in read | {"self", "cls"} and not p.arg.startswith("_")
            ]
    return out


def unraised_errors() -> list:
    """Subclasses of :class:`CoronaLabError` that no ``raise`` statement of
    the package raises, by the name it calls or raises."""
    family, todo = set(), [CoronaLabError]
    while todo:
        for cls in todo.pop().__subclasses__():
            family.add(cls.__name__)
            todo.append(cls)
    raised = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return sorted(family - raised)


def unused_imports() -> list:
    """Names that a package module imports and never reads, as
    ``module.name``; ``from __future__`` imports are exempt."""
    out = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_package_definition_has_a_caller_outside_the_tests():
    assert unreached() == []


def test_every_method_has_a_caller_outside_the_tests():
    assert unused_methods() == []


# Each method below was checked by hand for a caller outside the tests; a
# new method with a shared name fails the test below until it is.
_REVIEWED_SHARED_METHODS = {
    # tensor_unit and quasi_unitary_residual; list, str and tuple have a count
    "count": {"weak_units.PositiveUnit"},
    # Chain: build_tree; Tower: SesTower.__post_init__
    "depth": {"tree.Chain", "limits.Tower"},
    # BlockStructure: stratify_against; PositiveUnit: quasi_unitary_residual
    "dim": {"operators.BlockStructure", "weak_units.PositiveUnit"},
    # Tower: cmd_limits; AbGroupPresentation: Tower.from_json
    "from_json": {"limits.Tower", "limits.AbGroupPresentation"},
    # CoherenceTree: cmd_tree; SparseSet: cmd_tree and cmd_stratify;
    # TorusElement: CoherenceTree.to_json
    "to_json": {"tree.CoherenceTree", "partitions.SparseSet", "torus.TorusElement"},
    # no package caller (the package calls np.ndarray.tolist): it serves
    # README's json.dumps(doc, default=RunList.tolist) recipe and the oracle
    # of test_emit_matches_json_dumps
    "tolist": {"torus.RunList"},
    # ad_sandwich and quasi_unitary_residual; dict has a values
    "values": {"torus.TorusElement"},
}


def test_shared_method_names_are_reviewed():
    # methods are told apart by name only, so each shared name is pinned
    assert shared_methods() == _REVIEWED_SHARED_METHODS


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_error_class_is_raised():
    # an error class outlives the check that raised it only as dead weight
    assert unraised_errors() == []


def test_every_import_is_used():
    # pyflakes' unused-import check, which the test environment may lack
    assert unused_imports() == []
