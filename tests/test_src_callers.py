"""Every module-level function, class and constant of the package has a
caller in the program: in ``src/incmine`` itself or in the benchmark
(``perfbench/*.py``). Code that only the tests call belongs with the tests.
Likewise every exception class of the package is caught somewhere in the
package: a class that no ``except`` names tells no caller anything that
its message does not. And every field of a package dataclass is read, as
an attribute, in the package or the benchmark: a field that only its
constructor sets is work and memory for nothing. And a parameter whose
default is None and whose ``if p is None:`` assigns it a fallback is
omitted by some call of the package, the benchmark or a README.md
``python`` block: a fallback that only the tests take is a second path
that no user runs.

The files are parsed, not imported or run, and only read. A name counts as
referenced by a ``Name`` load, by an attribute of a name bound to an incmine
module (``langmodel.train``, ``rules_mod.fisinfis_mine``), by a
``from ... import`` of it, or by an entry of the benchmark tracer's
``TARGETS`` table, which wraps functions by name."""

import ast
import builtins
import glob
import os
import re

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


def readme_blocks():
    """Each ``python`` block of README.md, parsed; one that does not parse
    raises ``SyntaxError``."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return [ast.parse(block, filename=f"README.md, python block {i + 1}")
            for i, block in enumerate(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))]


def _functions(tree):
    """(class name or None, def) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _is_none_check(test, name):
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == name and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None)


def _assigns(statements, name):
    return any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)
               for stmt in statements for node in ast.walk(stmt))


def none_fallbacks():
    """(label, callee name, position, parameter) of each parameter that
    defaults to None and gets a fallback in an ``if p is None:`` of its
    function. The callee of ``__init__`` is its class; the position counts
    call arguments, so a method's first parameter is not one, and is None
    for a keyword-only parameter."""
    found = []
    for path in PACKAGE_FILES:
        module = os.path.splitext(os.path.basename(path))[0]
        for cls, fn in _functions(_parse(path)):
            positional = fn.args.posonlyargs + fn.args.args
            defaults = dict(zip(positional[len(positional) - len(fn.args.defaults):],
                                fn.args.defaults))
            defaults.update(zip(fn.args.kwonlyargs, fn.args.kw_defaults))
            skip = 0 if cls is None else 1  # self or cls
            for arg, default in defaults.items():
                if not (isinstance(default, ast.Constant) and default.value is None):
                    continue
                if not any(isinstance(node, ast.If) and _is_none_check(node.test, arg.arg)
                           and _assigns(node.body, arg.arg) for node in ast.walk(fn)):
                    continue
                position = positional.index(arg) - skip if arg in positional else None
                callee = cls if fn.name == "__init__" else fn.name
                label = f"{module}.{cls + '.' if cls else ''}{fn.name}({arg.arg})"
                found.append((label, callee, position, arg.arg))
    return found


def _omits(call, position, param):
    """True when ``call`` leaves ``param`` to its default, or may, through
    ``*`` or ``**``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return False
    return position is None or len(call.args) <= position


def test_every_none_fallback_has_a_program_caller():
    fallbacks = none_fallbacks()
    # the scan found the package's: these four keep a caller
    assert len(fallbacks) >= 4
    assert "vectors.TfIdfMatrix.toarray(hi)" in [label for label, *_ in fallbacks]
    calls = [node for tree in [_parse(p) for p in CALLER_FILES] + readme_blocks()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert len(calls) > 1000
    untaken = [label for label, callee, position, param in fallbacks
               if not any(_name(call.func) == callee and _omits(call, position, param)
                          for call in calls)]
    assert untaken == []
