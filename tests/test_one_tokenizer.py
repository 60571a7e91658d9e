"""Text reaches every stage through one tokenizer, and CSV files leave the
CLI through one writer.

- ``corpus.tokenize`` is the only scope that calls ``preprocess`` over a
  corpus; ``langmodel.predict_consequence`` tokenizes the one text it is
  given. A second record loop over ``preprocess`` would be a second
  tokenization for a stage to drift from.
- ``cli._write_csv`` writes every CSV output of the CLI; ``rules.rules_to_csv``
  quotes each distinct rule label once through ``csv.writer``.

The files are parsed, not imported or run. A name counts wherever it is
loaded, as a bare name or an attribute (``corpus_mod.preprocess``,
``csv.writer``), outside ``import`` statements; a use outside any function
counts as the module's own. Importing either name under another name is
refused outright, since it would hide the name from the scan."""

import ast
import os

from test_one_write_path import PACKAGE_FILES, _scopes

# (module of the name, the name) -> the scopes that may name it
ALLOWED = {
    ("corpus", "preprocess"): {"corpus.py:tokenize", "langmodel.py:predict_consequence"},
    ("csv", "writer"): {"cli.py:_write_csv", "rules.py:rules_to_csv"},
}


def _named(node):
    """The watched name ``node`` loads, or None."""
    if isinstance(node, ast.Name) and node.id == "preprocess":
        return "corpus", "preprocess"
    if isinstance(node, ast.Attribute):
        if node.attr == "preprocess":
            return "corpus", "preprocess"
        if node.attr == "writer" and isinstance(node.value, ast.Name) \
                and node.value.id == "csv":
            return "csv", "writer"
    return None


def _hides_a_name(node):
    """An import that binds ``preprocess`` or ``csv.writer`` to another name."""
    if not isinstance(node, ast.ImportFrom):
        return False
    return any((alias.name == "preprocess" and alias.asname not in (None, "preprocess"))
               or (node.module == "csv" and alias.name == "writer")
               for alias in node.names)


def users():
    """{watched name: scopes that load it}, and the hiding imports."""
    found = {name: set() for name in ALLOWED}
    hidden = []
    for path in PACKAGE_FILES:
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for scope, node in _scopes(tree, module):
            name = _named(node)
            if name is not None:
                found[name].add(scope)
            elif _hides_a_name(node):
                hidden.append(f"{module}:{node.lineno}")
    return found, hidden


def test_one_tokenizer_and_one_csv_writer():
    found, hidden = users()
    assert found == ALLOWED
    assert hidden == []


def test_the_scan_sees_each_form():
    tree = ast.parse("def f():\n    preprocess(t, c)\n"
                     "def g():\n    corpus_mod.preprocess(t, c)\n"
                     "def h():\n    csv.writer(fh)\n"
                     "from .corpus import preprocess as p\n"
                     "from csv import writer\n")
    seen = sorted((scope, _named(node)) for scope, node in _scopes(tree, "m.py")
                  if _named(node) is not None)
    assert seen == [("m.py:f", ("corpus", "preprocess")),
                    ("m.py:g", ("corpus", "preprocess")),
                    ("m.py:h", ("csv", "writer"))]
    assert sum(_hides_a_name(node) for node in ast.walk(tree)) == 2
