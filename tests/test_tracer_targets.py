"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions by
name and reports a missing one only as ``trace.absent_targets``. These tests
load the tracer read-only, by file path, and fail when a rename in ``src/``
leaves one of its targets unresolved, or when a signature change leaves a
counter reading the wrong argument."""

import importlib
import importlib.util
import os

import numpy as np

import incmine
from incmine import _kernels
from incmine.clustering import ClusterConfig, sweep_k

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO, "src", "incmine")


REAL_SWAP = _kernels.pam_swap


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(REPO, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves_in_the_package():
    assert os.path.dirname(os.path.abspath(incmine.__file__)) == PACKAGE_DIR
    targets = _tracer_module().TARGETS
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


def test_swap_and_build_counters_read_the_real_calls():
    # the counters read max_iter as pam_swap's third positional argument and
    # the passes as result[1]; a signature change would skew them silently
    tracer_module = _tracer_module()
    targets = [t for t in tracer_module.TARGETS if t[1] in ("pam_build", "pam_swap")]
    assert [t[2] for t in targets] == ["clustering.build_s", "clustering.swap_s"]
    tracer = tracer_module.Tracer(targets)
    # BUILD gives medoids (1, 0) for k = 2, and one SWAP moves 1 to 2
    points = np.array([[0.0], [2.0], [3.0], [3.0]])
    tracer.install()
    try:
        _, report = sweep_k(points, ClusterConfig(k_range=(2, 4), max_iter=1))
    finally:
        tracer.uninstall()
    assert _kernels.pam_swap is REAL_SWAP
    traced = tracer.report()
    assert traced["absent"] == [] and traced["counter_errors"] == []
    passes = [fit.swap_passes for _, fit in report.fits]
    assert passes[0] == 1
    assert traced["counts"] == {
        "clustering.build_medoids": 4, "clustering.k_fitted": 1,
        "clustering.swap_passes": sum(passes),
        "clustering.swap_max_iter_hits": sum(p >= 1 for p in passes)}
