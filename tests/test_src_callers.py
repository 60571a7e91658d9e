"""Every module-level function, class and constant of the package has a
caller in the program: in ``src/incmine`` itself or in the benchmark
(``perfbench/*.py``). Code that only the tests call belongs with the tests.
Likewise every exception class of the package is caught somewhere in the
package: a class that no ``except`` names tells no caller anything that
its message does not. And every field of a package dataclass is read, as
an attribute, in the package or the benchmark: a field that only its
constructor sets is work and memory for nothing.

The files are parsed, not imported or run, and only read. A name counts as
referenced by a ``Name`` load, by an attribute of a name bound to an incmine
module (``langmodel.train``, ``rules_mod.fisinfis_mine``), by a
``from ... import`` of it, or by an entry of the benchmark tracer's
``TARGETS`` table, which wraps functions by name."""

import ast
import builtins
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO, "src", "incmine")
PACKAGE_FILES = sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py")))
CALLER_FILES = PACKAGE_FILES + sorted(glob.glob(os.path.join(REPO, "perfbench", "*.py")))
MODULES = {os.path.splitext(os.path.basename(p))[0] for p in PACKAGE_FILES}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _module_aliases(tree):
    """Names bound to an incmine module by ``from . import`` or
    ``from incmine import``."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level == 1 and node.module is None or node.module == "incmine")
            for a in node.names if a.name in MODULES}


def _tracer_targets(tree):
    """First component of each ``TARGETS`` attribute, e.g. ``TfIdfMatrix``."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return {entry.elts[1].value.split(".")[0] for entry in node.value.elts}
    return set()


def referenced_names():
    names = set()
    for path in CALLER_FILES:
        tree = _parse(path)
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
        if os.path.basename(path) == "tracer.py":
            names |= _tracer_targets(tree)
    return names


def _top_level_names(node):
    """Names a top-level statement defines: a def, a class, or the plain
    names an ``Assign`` or ``AnnAssign`` binds (dunders such as ``__all__``
    exempt)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))]


def defined_names():
    """(module, name) of each top-level def, class and constant of the package."""
    return [(os.path.basename(path), name)
            for path in PACKAGE_FILES for node in _parse(path).body
            for name in _top_level_names(node)]


def test_every_package_function_and_class_has_a_program_caller():
    defined = defined_names()
    assert len(defined) > 50  # the scan found the package
    names = referenced_names()
    uncalled = [f"{module}:{name}" for module, name in defined if name not in names]
    assert uncalled == []


def _name(node):
    """The name a base class or an ``except`` entry refers to:
    ``IncmineError`` for ``IncmineError`` and ``errors.IncmineError``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes():
    """(module, name) of each class in the package that derives from a
    built-in exception, directly or through another such class."""
    classes = [(os.path.basename(path), node) for path in PACKAGE_FILES
               for node in ast.walk(_parse(path)) if isinstance(node, ast.ClassDef)]
    bases = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = []
    while True:
        new = [(module, node.name) for module, node in classes
               if node.name not in bases and any(_name(b) in bases for b in node.bases)]
        if not new:
            return found
        found += new
        bases.update(name for _, name in new)


def caught_names():
    """Every name an ``except`` clause of the package catches, tuples included."""
    names = set()
    for path in PACKAGE_FILES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                entries = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(_name(entry) for entry in entries)
    return names


def test_every_package_exception_class_is_caught_in_the_package():
    defined = exception_classes()
    assert ("errors.py", "IncmineError") in defined  # the scan found the package's
    caught = caught_names()
    uncaught = [f"{module}:{name}" for module, name in defined if name not in caught]
    assert uncaught == []


def _is_dataclass(node):
    """True for a class decorated ``@dataclass``, ``@dataclass(...)`` or
    ``@dataclasses.dataclass``."""
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def dataclass_fields():
    """(module, class, field) of each annotated field of a package dataclass."""
    return [(os.path.basename(path), node.name, stmt.target.id)
            for path in PACKAGE_FILES for node in ast.walk(_parse(path))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attribute_loads():
    """Every attribute name the package or the benchmark reads: ``x.name``."""
    return {node.attr for path in CALLER_FILES for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    defined = dataclass_fields()
    assert ("langmodel.py", "LmConfig", "learning_rate") in defined  # the scan found them
    read = attribute_loads()
    unread = [f"{module}:{cls}.{field}" for module, cls, field in defined if field not in read]
    assert unread == []
