"""Outputs reach disk one way: the CLI stages every file of a call and
commits the set (``cli._output_set``). So at most one function of the
package names ``os.replace``, ``os.rename``, ``shutil.rmtree`` or the
``tempfile`` module. A second one would be a second way to write, rename or
remove an output.

The files are parsed, not imported or run. A name counts wherever it is
loaded, outside ``import`` statements; a use outside any function counts as
the module's own. ``from os import replace`` and the like are refused
outright, since they would hide the name from the scan."""

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_FILES = sorted(glob.glob(os.path.join(REPO, "src", "incmine", "*.py")))
FILE_MOVES = {("os", "replace"), ("os", "rename"), ("shutil", "rmtree")}


def _names_a_file_move(node):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in FILE_MOVES or node.value.id == "tempfile"
    return isinstance(node, ast.Name) and node.id == "tempfile"


def _scopes(tree, module):
    """(scope, node) for every node of ``tree``; the scope is the innermost
    enclosing function, or ``module``."""
    stack = [(module, tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{module}:{node.name}"
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def write_path_users():
    """Scopes that name a file move, and the hidden imports of one."""
    users, hidden = set(), []
    for path in PACKAGE_FILES:
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for scope, node in _scopes(tree, module):
            if _names_a_file_move(node):
                users.add(scope)
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "tempfile"
                    or any((node.module, a.name) in FILE_MOVES for a in node.names)):
                hidden.append(f"{module}:{node.lineno}")
    return users, hidden


def test_one_function_stages_renames_and_removes_outputs():
    users, hidden = write_path_users()
    assert users == {"cli.py:_output_set"}
    assert hidden == []
