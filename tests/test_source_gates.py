"""Source gates: where the program may name things, read from its parsed
source, one table row per rule.

Every ``src/incmine/*.py`` (the package), ``perfbench/*.py`` (the
benchmark) and README.md ``python`` block is parsed once, not imported or
run, into one index of (file, scope, node). A node's scope is its innermost
enclosing function, ``file:function``, or else the file.

One-place rows: only the listed scopes of the package use the name, loaded
anywhere outside ``import`` statements. An import that would hide the name
from the scan is refused outright.

- file_moves (``os.replace``, ``os.rename``, ``shutil.rmtree``, ``tempfile``):
  ``cli._output_set``, which stages a call's outputs and commits the set. A
  second user would be a second way to write, rename or remove an output.
- int64_views (``.view(np.int64)``): ``_kernels._distinct_index``, which
  finds a float64 column's distinct bit patterns and each row's position
  among them for the miner's order, both exporters and the tf-idf text. A
  second would be a second way to find a column's distinct values.
- lexsort: no scope, for the same reason.
- preprocess: ``corpus.tokenize``, the one record loop, and
  ``langmodel.predict_consequence``, which tokenizes its one text. A second
  record loop would be a second tokenization for a stage to drift from.
- csv_writer (``csv.writer``): ``cli._write_csv``, which writes every CSV
  output of the CLI, and ``rules.rules_to_csv``, which quotes each distinct
  rule label once.

Program-reference rows:

- callers: each module-level def, class and constant of the package is
  named in the package or the benchmark: by a ``Name`` load, an attribute
  of a name bound to an incmine module (``langmodel.train``), a ``from ...
  import`` or an entry of the tracer's ``TARGETS``, which wraps functions by
  name. Code that only the tests call belongs with the tests.
- caught: each exception class of the package is caught by some ``except``
  of the package; one that none names tells no caller more than its message.
- fields: each field of a package dataclass is read as an attribute in the
  package or the benchmark. A field that only its constructor sets is work
  and memory for nothing.
- fallbacks: a parameter that defaults to None and gets a fallback in an
  ``if p is None:`` is omitted by some call of the package, the benchmark or
  README. A fallback that only the tests take is a second path no user runs.

Each row carries mutants, snippets that break its rule. The self-test
appends each to a real module's text, re-runs the row's scan and asserts
that the row reports it, so every gate shows that it can fail.
"""

import ast
import builtins
import functools
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

REPO = Path(__file__).resolve().parent.parent


class Source(NamedTuple):
    kind: str  # "package", "perfbench" or "readme"
    file: str  # "cli.py", "perfbench/run.py", "README.md, python block 2"
    text: str
    tree: ast.Module
    nodes: list  # (scope, node) of every node of ``tree``


def parse(kind, file, text):
    tree = ast.parse(text, filename=file)
    nodes, stack = [], [(file, tree)]
    while stack:
        scope, node = stack.pop()
        nodes.append((scope, node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{file}:{node.name}"
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))
    return Source(kind, file, text, tree, nodes)


@functools.cache
def sources():
    """Every source, parsed once; a README block that does not parse
    raises ``SyntaxError``."""
    package = sorted((REPO / "src" / "incmine").glob("*.py"))
    bench = sorted((REPO / "perfbench").glob("*.py"))
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text("utf-8"),
                        re.M | re.S)
    return tuple([parse("package", p.name, p.read_text("utf-8")) for p in package]
                 + [parse("perfbench", f"perfbench/{p.name}", p.read_text("utf-8")) for p in bench]
                 + [parse("readme", f"README.md, python block {i + 1}", block)
                    for i, block in enumerate(blocks)])


def _walk(srcs, *kinds):
    """(source, scope, node) of every node of the sources of ``kinds``."""
    return ((s, scope, node) for s in srcs if s.kind in kinds for scope, node in s.nodes)


def _name(node):
    """``IncmineError`` for ``IncmineError`` and ``errors.IncmineError``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _dotted(node):
    """``os.replace`` for an attribute of a bare name, ``x`` for a bare name, else ''."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def one_place(allowed, uses, hides=None):
    """The check that only the scopes ``allowed`` use a name: ``uses(node)``
    tells a use, and ``hides("module.name", alias)`` an import that hides one."""
    def check(srcs):
        users, hidden = set(), []
        for source, scope, node in _walk(srcs, "package"):
            if uses(node):
                users.add(scope)
            elif hides and isinstance(node, ast.ImportFrom) \
                    and any(hides(f"{node.module}.{a.name}", a) for a in node.names):
                hidden.append(f"{source.file}:{node.lineno} hides the name")
        return ([f"{scope} uses it" for scope in sorted(users - allowed)]
                + [f"{scope} no longer uses it" for scope in sorted(allowed - users)]
                + hidden)
    return check


FILE_MOVES = {"os.replace", "os.rename", "shutil.rmtree"}
INT64 = {"int64", "i8", "<i8", "=i8"}


def _views_as_int64(node):
    """True for ``x.view(t)``, t ``np.int64``, ``int64`` or an int64 dtype string."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "view"
            and any(_name(arg) == "int64" or isinstance(arg, ast.Constant) and arg.value in INT64
                    for arg in node.args + [k.value for k in node.keywords]))


def uncalled(srcs):
    """Module-level defs, classes and constants of the package that the
    package and the benchmark never name."""
    modules = {s.file[:-3] for s in srcs if s.kind == "package"}
    names = set()
    for source in (s for s in srcs if s.kind != "readme"):
        aliases = {a.asname or a.name for _, node in source.nodes
                   if isinstance(node, ast.ImportFrom)
                   and (node.level == 1 and node.module is None or node.module == "incmine")
                   for a in node.names if a.name in modules}
        for _, node in source.nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
        if source.file == "perfbench/tracer.py":
            # first component of each target attribute, e.g. ``TfIdfMatrix``
            names.update(entry.elts[1].value.split(".")[0] for node in source.tree.body
                         if isinstance(node, ast.AnnAssign) and _name(node.target) == "TARGETS"
                         for entry in node.value.elts)
    defined = [(s.file, name) for s in srcs if s.kind == "package"
               for node in s.tree.body for name in _top_level_names(node)]
    assert len(defined) > 50  # the scan found the package
    return [f"{module}:{name}" for module, name in defined if name not in names]


def _top_level_names(node):
    """Names a top-level statement defines: a def, a class, or the plain names
    an ``Assign`` or ``AnnAssign`` binds (dunders such as ``__all__`` exempt)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))]


def uncaught(srcs):
    """Exception classes of the package, those deriving from a built-in
    exception directly or through another, that no ``except`` catches."""
    classes = [(s.file, node) for s, _, node in _walk(srcs, "package")
               if isinstance(node, ast.ClassDef)]
    bases = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    defined = []
    while new := [(module, node.name) for module, node in classes
                  if node.name not in bases and any(_name(b) in bases for b in node.bases)]:
        defined += new
        bases.update(name for _, name in new)
    assert ("errors.py", "IncmineError") in defined  # the scan found the package's
    caught = {_name(entry) for _, _, node in _walk(srcs, "package")
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for entry in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
    return [f"{module}:{name}" for module, name in defined if name not in caught]


def unread(srcs):
    """Fields of package dataclasses that no attribute load reads."""
    defined = [(s.file, node.name, stmt.target.id) for s, _, node in _walk(srcs, "package")
               if isinstance(node, ast.ClassDef)
               and any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                       for d in node.decorator_list)
               for stmt in node.body
               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert ("langmodel.py", "LmConfig", "learning_rate") in defined  # the scan found them
    read = {node.attr for _, _, node in _walk(srcs, "package", "perfbench")
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{cls}.{field}" for module, cls, field in defined if field not in read]


def _functions(tree):
    """(class name or None, def) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _falls_back(fn, name):
    """True when ``fn`` has an ``if name is None:`` that assigns ``name``."""
    return any(isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
               and isinstance(node.test.left, ast.Name) and node.test.left.id == name
               and len(node.test.ops) == 1 and isinstance(node.test.ops[0], ast.Is)
               and isinstance(node.test.comparators[0], ast.Constant)
               and node.test.comparators[0].value is None
               and any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Store)
                       for stmt in node.body for n in ast.walk(stmt))
               for node in ast.walk(fn))


def _omits(call, position, param):
    """True when ``call`` leaves ``param`` to its default, or may, through
    ``*`` or ``**``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return False
    return position is None or len(call.args) <= position


def untaken(srcs):
    """The None fallbacks that no call of the package, the benchmark or
    README takes. The callee of ``__init__`` is its class; the position
    counts call arguments, so a method's first parameter is not one, and is
    None for a keyword-only parameter."""
    fallbacks = []
    for source in (s for s in srcs if s.kind == "package"):
        for cls, fn in _functions(source.tree):
            positional = fn.args.posonlyargs + fn.args.args
            defaults = dict(zip(positional[len(positional) - len(fn.args.defaults):],
                                fn.args.defaults))
            defaults.update(zip(fn.args.kwonlyargs, fn.args.kw_defaults))
            for arg, default in defaults.items():
                if isinstance(default, ast.Constant) and default.value is None \
                        and _falls_back(fn, arg.arg):
                    position = positional.index(arg) - (cls is not None) \
                        if arg in positional else None
                    label = f"{source.file[:-3]}.{cls + '.' if cls else ''}{fn.name}({arg.arg})"
                    fallbacks.append((label, cls if fn.name == "__init__" else fn.name,
                                      position, arg.arg))
    # the scan found the package's: these four keep a caller
    assert len(fallbacks) >= 4
    assert "vectors.TfIdfMatrix.toarray(hi)" in [label for label, *_ in fallbacks]
    calls = [node for _, _, node in _walk(srcs, "package", "perfbench", "readme")
             if isinstance(node, ast.Call)]
    assert len(calls) > 1000
    return [label for label, callee, position, param in fallbacks
            if not any(_name(call.func) == callee and _omits(call, position, param)
                       for call in calls)]


class Row(NamedTuple):
    name: str
    check: Callable  # sources -> findings, [] while the rule holds
    mutants: tuple  # (package file, snippet appended to it, a finding it makes)


ROWS = [
    Row("file_moves", one_place(
        {"cli.py:_output_set"},
        lambda node: _dotted(node) in FILE_MOVES or _dotted(node).split(".")[0] == "tempfile",
        lambda name, alias: name in FILE_MOVES or name.startswith("tempfile.")), (
        ("rules.py", "def _second(a, b): os.replace(a, b)\n", "rules.py:_second uses it"),
        ("corpus.py", "def _second(): return tempfile.mkdtemp()\n", "corpus.py:_second uses it"),
        ("cli.py", "from os import replace\n", "cli.py:{line} hides the name"),
        ("cli.py", "from tempfile import mkdtemp\n", "cli.py:{line} hides the name"))),
    Row("int64_views", one_place({"_kernels.py:_distinct_index"}, _views_as_int64), (
        ("rules.py", "def _bits(x): return x.view(np.int64)\n", "rules.py:_bits uses it"),
        ("vectors.py", "def _bits(x): return x.view(dtype='<i8')\n",
         "vectors.py:_bits uses it"))),
    Row("lexsort", one_place(
        set(), lambda node: _name(node) == "lexsort"
        or isinstance(node, ast.alias) and node.name == "lexsort"), (
        ("rules.py", "def _order(a, b): return np.lexsort((a, b))\n", "rules.py:_order uses it"),
        ("rules.py", "from numpy import lexsort as _ls\n", "rules.py uses it"))),
    Row("preprocess", one_place(
        {"corpus.py:tokenize", "langmodel.py:predict_consequence"},
        lambda node: _name(node) == "preprocess",
        lambda name, alias: alias.name == "preprocess"
        and alias.asname not in (None, "preprocess")), (
        ("corpus.py", "def _second(ts, c): return [preprocess(t, c) for t in ts]\n",
         "corpus.py:_second uses it"),
        ("vectors.py", "def _second(t, c): return corpus_mod.preprocess(t, c)\n",
         "vectors.py:_second uses it"),
        ("vectors.py", "from .corpus import preprocess as _p\n",
         "vectors.py:{line} hides the name"))),
    Row("csv_writer", one_place(
        {"cli.py:_write_csv", "rules.py:rules_to_csv"},
        lambda node: _dotted(node) == "csv.writer", lambda name, alias: name == "csv.writer"), (
        ("cli.py", "def _second(fh): return csv.writer(fh)\n", "cli.py:_second uses it"),
        ("rules.py", "from csv import writer\n", "rules.py:{line} hides the name"))),
    Row("callers", uncalled, (
        ("rules.py", "def _unused(): pass\n", "rules.py:_unused"),
        ("clustering.py", "_UNUSED = 1\n", "clustering.py:_UNUSED"))),
    Row("caught", uncaught, (
        ("errors.py", "class ProbeError(IncmineError): pass\n", "errors.py:ProbeError"),
        ("corpus.py", "class ProbeError(ValueError): pass\n", "corpus.py:ProbeError"))),
    Row("fields", unread, (
        ("rules.py", "@dataclass\nclass _Probe: never_read: int\n",
         "rules.py:_Probe.never_read"),)),
    Row("fallbacks", untaken, (
        ("rules.py", "def _probe(x=None):\n    if x is None: x = 0\n_probe(1)\n",
         "rules._probe(x)"),
        ("vectors.py", "def _probe(*, x=None):\n    if x is None: x = 0\n_probe(x=1)\n",
         "vectors._probe(x)"))),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_rule_holds(row):
    assert row.check(sources()) == []


@pytest.mark.parametrize("row, file, snippet, finding", [
    pytest.param(row, *mutant, id=f"{row.name}-{i}")
    for row in ROWS for i, mutant in enumerate(row.mutants)])
def test_each_mutant_is_reported(row, file, snippet, finding):
    real = sources()
    (text,) = [s.text for s in real if s.kind == "package" and s.file == file]
    mutated = tuple(parse(s.kind, s.file, text + snippet) if s.file == file else s
                    for s in real)
    assert finding.format(line=text.count("\n") + 1) in row.check(mutated)
