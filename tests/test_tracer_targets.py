"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions by
name and reports a missing one only as ``trace.absent_targets``. This test
loads the tracer's table read-only, by file path, and fails when a rename in
``src/`` leaves one of its targets unresolved."""

import importlib
import importlib.util
import os

import incmine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO, "src", "incmine")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(REPO, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves_in_the_package():
    assert os.path.dirname(os.path.abspath(incmine.__file__)) == PACKAGE_DIR
    targets = _tracer_targets()
    assert targets
    unresolved = []
    for module_name, attr, metric, _ in targets:
        module = importlib.import_module(module_name)
        assert os.path.dirname(os.path.abspath(module.__file__)) == PACKAGE_DIR
        owner = module
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            unresolved.append(f"{module_name}.{attr} ({metric})")
    assert unresolved == []
