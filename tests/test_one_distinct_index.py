"""Metric columns are sorted one way: ``_kernels._distinct_index`` turns a
float64 column into its distinct int64 bit patterns and each row's position
among them, and the miner's order, both exporters and the tf-idf text read
that. So at most that one scope of the package views floats as int64 bit
patterns (``.view(np.int64)``), and no scope names ``lexsort``: a second
sort of the same column would be a second way to find its distinct values.

The files are parsed, not imported or run. A use outside any function counts
as the module's own."""

import ast
import glob
import os

from test_one_write_path import _scopes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_FILES = sorted(glob.glob(os.path.join(REPO, "src", "incmine", "*.py")))
INT64 = {"int64", "i8", "<i8", "=i8"}


def _is_int64(node):
    """True for ``np.int64``, ``numpy.int64``, ``int64`` and the int64 dtype strings."""
    if isinstance(node, ast.Attribute):
        return node.attr == "int64"
    if isinstance(node, ast.Name):
        return node.id == "int64"
    return isinstance(node, ast.Constant) and node.value in INT64


def _views_as_int64(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "view"
            and any(_is_int64(arg) for arg in node.args + [k.value for k in node.keywords]))


def _names_lexsort(node):
    return (isinstance(node, ast.Attribute) and node.attr == "lexsort") or \
        (isinstance(node, ast.Name) and node.id == "lexsort") or \
        (isinstance(node, ast.alias) and node.name == "lexsort")


def distinct_index_users():
    """Scopes that view floats as int64 bit patterns, and those naming lexsort."""
    views, lexsorts = set(), set()
    for path in PACKAGE_FILES:
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for scope, node in _scopes(tree, module):
            if _views_as_int64(node):
                views.add(scope)
            if _names_lexsort(node):
                lexsorts.add(scope)
    return views, lexsorts


def test_one_scope_views_floats_as_int64_and_none_lexsorts():
    views, lexsorts = distinct_index_users()
    assert views == {"_kernels.py:_distinct_index"}
    assert lexsorts == set()
