import inspect
import itertools
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incmine import _kernels, clustering, errors
from incmine.clustering import (
    METRICS,
    ClusterConfig,
    IpcaModel,
    ipca_fit,
    load_embedding_ids,
    load_embeddings,
    pairwise_distances,
    reduce_to_variance,
    sweep_k,
)
from incmine.errors import IncmineError
from incmine.vectors import TfIdfMatrix

import pam_oracle
import whole_matrix_oracle
from helpers import plain_and_bom, save_embeddings

FOUR_POINTS = np.array([[0.0], [1.0], [10.0], [11.0]])


def fit_k(points, k, **config):
    """PAM for one fixed k: the sweep over (k, k)."""
    return sweep_k(points, ClusterConfig(k_range=(k, k), **config))[0]


def sweep(points, k_lo, k_hi, **config):
    return sweep_k(points, ClusterConfig(k_range=(k_lo, k_hi), **config))


def mean_silhouette(points, labels):
    """Mean silhouette of a labelling with clusters 0 and 1."""
    dist = pairwise_distances(points, "euclidean")
    return float(_kernels.silhouette_samples_from_dist(dist, np.asarray(labels), 2).mean())


def small_fixture_suite():
    """Deterministic n <= 10, k = 2 instances with clustered geometry."""
    return [
        FOUR_POINTS,
        np.array([[0.0], [0.5], [1.0], [20.0], [20.5]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                  [9.0, 9.0], [10.0, 9.0], [9.0, 10.0]]),
        np.array([[i, 0.0] for i in range(5)] + [[i, 30.0] for i in range(5)]),
        np.zeros((6, 2)),
        np.array([[0.0], [2.0], [4.0], [50.0], [52.0], [54.0], [56.0]]),
    ]


def exhaustive_two_medoids(dist):
    """Optimal cost over all medoid pairs, lexicographic tie-break."""
    n = dist.shape[0]
    best = None
    for pair in itertools.combinations(range(n), 2):
        cost = np.minimum(dist[:, pair[0]], dist[:, pair[1]]).sum()
        if best is None or cost < best[0] - 1e-12:
            best = (cost, pair)
    return best


def principal_angles(a, b):
    """Angles between the row spans of two orthonormal matrices."""
    sv = np.linalg.svd(a @ b.T, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


class TestPairwiseDistances:
    def test_identical_rows_exact_zero(self):
        pts = np.ones((4, 3))
        assert (pairwise_distances(pts, "euclidean") == 0.0).all()

    def test_euclidean_values(self):
        d = pairwise_distances(FOUR_POINTS, "euclidean")
        assert d[0, 2] == 10.0 and d[0, 1] == 1.0

    def test_cosine_scale_invariance(self, rng):
        pts = rng.normal(size=(12, 4)) + 3.0
        scaled = pts.copy()
        scaled[3] *= 7.5
        scaled[8] *= 0.02
        base = fit_k(pts, 3, metric="cosine")
        other = fit_k(scaled, 3, metric="cosine")
        assert (base.labels == other.labels).all()

    def test_cosine_zero_rows(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        d = pairwise_distances(pts, "cosine")
        assert d[0, 1] == 0.0
        assert d[0, 2] == 1.0

    @pytest.mark.parametrize("n", [1, 3, 129, 301])
    def test_cosine_exactly_symmetric(self, n, rng):
        pts = rng.normal(size=(n, 7)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        pts[::4] = 0.0
        d = pairwise_distances(pts, "cosine")
        assert np.array_equal(d, d.T)
        assert np.array_equal(pairwise_distances(np.asfortranarray(pts), "cosine"), d)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS),
           n=st.integers(1, 30), dim=st.integers(1, 5), zero_rows=st.booleans(),
           duplicates=st.booleans(), small_blocks=st.booleans())
    def test_matches_whole_matrix_oracle(self, seed, metric, n, dim, zero_rows,
                                         duplicates, small_blocks):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
        if zero_rows:
            pts[rng.integers(0, n, size=max(1, n // 3))] = 0.0
        if duplicates:
            pts = np.vstack([pts, pts[rng.integers(0, n, size=max(1, n // 2))]])
        # chunks of a few rows, so chunk edges fall everywhere, or the
        # module's own size
        budget = clustering._CHUNK_BUDGET
        if small_blocks:
            budget = int(rng.integers(1, 3 * dim * n + 1))
        with mock.patch.object(clustering, "_CHUNK_BUDGET", budget):
            got = pairwise_distances(pts, metric)
        assert np.array_equal(got, whole_matrix_oracle.pairwise_distances(pts, metric))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("extra", [-1, 0, 1, 5])
    def test_matches_oracle_at_block_edges(self, metric, extra, rng):
        # blocks of 4 rows: n one short of, at, just past and between edges
        dim = 3
        n = 12 + extra
        pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        pts[[0, n // 2]] = 0.0
        with mock.patch.object(clustering, "_CHUNK_BUDGET", 4 * dim):
            got = pairwise_distances(pts, metric)
        assert np.array_equal(got, whole_matrix_oracle.pairwise_distances(pts, metric))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS),
           n=st.integers(1, 40), n_cols=st.integers(1, 9),
           density=st.floats(0.0, 1.0), budget=st.integers(1, 200))
    def test_sparse_rows_match_their_dense_matrix(self, seed, metric, n, n_cols, density,
                                                  budget):
        # a TfIdfMatrix is read a block of rows at a time; empty rows, a
        # single row, one column and blocks that do not divide n all occur
        rng = np.random.default_rng(seed)
        stored = rng.random((n, n_cols)) < density
        rows, cols = np.nonzero(stored)  # sorted by (row, col)
        weights = rng.random(rows.shape[0]) * 10.0 ** rng.integers(-3, 4) + 1e-3
        matrix = TfIdfMatrix(n_rows=n, n_cols=n_cols, rows=rows.astype(np.int64),
                             cols=cols.astype(np.int64), weights=weights)
        with mock.patch.object(clustering, "_CHUNK_BUDGET", budget):
            got = pairwise_distances(matrix, metric)
        assert np.array_equal(got, pairwise_distances(matrix.toarray(), metric))

    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_oracle_across_tiles(self, metric, rng):
        # several chunks at the module's size, with zero and duplicate rows
        pts = rng.normal(size=(300, 8))
        pts[::7] = 0.0
        pts[1::5] = pts[2::5]
        got = pairwise_distances(pts, metric)
        assert np.array_equal(got, whole_matrix_oracle.pairwise_distances(pts, metric))

    @pytest.mark.parametrize("metric", METRICS)
    def test_peak_memory_is_about_one_matrix(self, metric, rng):
        pts = rng.normal(size=(512, 8))
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            d = pairwise_distances(pts, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * d.nbytes

    def test_size_guard_refuses_before_allocating(self):
        pts = np.zeros((100_000, 1))  # an 80 GB matrix
        tracemalloc.start()
        try:
            with pytest.raises(IncmineError, match="distance matrix"):
                pairwise_distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * pts.nbytes

    def test_size_guard_cap(self, monkeypatch):
        pts = np.zeros((10, 2))
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 10 * 10 * 8)
        assert pairwise_distances(pts).shape == (10, 10)
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 10 * 10 * 8 - 1)
        for fit in (lambda: pairwise_distances(pts, "cosine"),
                    lambda: fit_k(pts, 2),
                    lambda: sweep(pts, 2, 3)):
            with pytest.raises(IncmineError, match="10 points"):
                fit()


class TestKMedoids:
    def test_two_separated_pairs(self):
        fit = fit_k(FOUR_POINTS, 2)
        assert fit.cost == 2.0
        assert list(fit.labels) == [0, 0, 1, 1]
        assert fit.medoids[0] in (0, 1) and fit.medoids[1] in (2, 3)

    def test_matches_exhaustive_optimum(self):
        dist = pairwise_distances(FOUR_POINTS, "euclidean")
        best_cost, _ = exhaustive_two_medoids(dist)
        fit = fit_k(FOUR_POINTS, 2)
        assert abs(fit.cost - best_cost) < 1e-12

    def test_k_equals_n(self):
        fit = fit_k(FOUR_POINTS, 4)
        assert fit.medoids == (0, 1, 2, 3)
        assert fit.cost == 0.0

    def test_identical_points(self):
        fit = fit_k(np.zeros((5, 2)), 2)
        assert fit.medoids == (0, 1)
        assert fit.cost == 0.0
        assert fit.silhouette == 0.0

    def test_k_too_large(self):
        for k_lo, k_hi in ((5, 5), (5, 9)):
            with pytest.raises(IncmineError, match="k=5 exceeds number of points n=4"):
                sweep(FOUR_POINTS, k_lo, k_hi)

    def test_non_finite_rejected(self):
        pts = np.array([[0.0], [np.nan]])
        with pytest.raises(IncmineError, match="points contain non-finite values"):
            fit_k(pts, 2)

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1-D", "3-D"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda pts: fit_k(pts, 2), id="sweep_k-euclidean"),
        pytest.param(lambda pts: fit_k(pts, 2, metric="cosine"), id="sweep_k-cosine"),
        pytest.param(pairwise_distances, id="pairwise_distances"),
        pytest.param(ipca_fit, id="ipca_fit"),
        pytest.param(lambda pts: reduce_to_variance(ipca_fit(np.arange(6.0)[:, None]), pts),
                     id="reduce_to_variance"),
    ])
    def test_points_must_form_a_matrix(self, call, shape):
        # a 1-D array is refused, not read as one column
        pts = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
        with pytest.raises(IncmineError, match=r"^points must form a 2-D matrix$"):
            call(pts)

    @pytest.mark.parametrize("points", [[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], np.array([1.0])],
                             ids=["list", "1-D-shorter-than-k"])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_rank_is_checked_before_k(self, points, metric):
        # the rank refusal comes first: not an AttributeError on a list, nor
        # "k=2 exceeds number of points n=1" on a one-element 1-D array
        with pytest.raises(IncmineError, match=r"^points must form a 2-D matrix$"):
            fit_k(points, 2, metric=metric)
        with pytest.raises(IncmineError, match=r"^points must form a 2-D matrix$"):
            pairwise_distances(points, metric)

    def test_medoid_labels_own_cluster(self, rng):
        pts = rng.normal(size=(30, 3))
        fit = fit_k(pts, 4)
        for ci, m in enumerate(fit.medoids):
            assert fit.labels[m] == ci

    def test_cost_matches_label_assignment(self, rng):
        pts = rng.normal(size=(25, 2))
        fit = fit_k(pts, 3)
        dist = pairwise_distances(pts, "euclidean")
        manual = sum(dist[i, fit.medoids[fit.labels[i]]] for i in range(25))
        assert abs(fit.cost - manual) < 1e-9

    def test_small_fixture_suite_reaches_optimum(self):
        # deterministic n <= 10, k = 2 fixtures: PAM equals exhaustive search
        for pts in small_fixture_suite():
            dist = pairwise_distances(pts, "euclidean")
            best_cost, _ = exhaustive_two_medoids(dist)
            fit = fit_k(pts, 2)
            assert fit.cost <= best_cost * 1.05 + 1e-12
            assert abs(fit.cost - best_cost) < 1e-9

    def test_random_blob_instances_reach_optimum(self, rng):
        # clustered geometry, n <= 10: the swap heuristic lands on the optimum
        for _ in range(30):
            n1 = int(rng.integers(2, 6))
            n2 = int(rng.integers(2, 6))
            pts = np.vstack([rng.normal(size=(n1, 2)),
                             rng.normal(size=(n2, 2)) + 8.0])
            dist = pairwise_distances(pts, "euclidean")
            best_cost, _ = exhaustive_two_medoids(dist)
            fit = fit_k(pts, 2)
            assert fit.cost <= best_cost * 1.05 + 1e-12
            assert abs(fit.cost - best_cost) < 1e-9

    def test_swap_pass_costs_strictly_decrease(self, rng):
        # find a seeded instance where SWAP actually fires, then step max_iter
        for attempt in range(200):
            local = np.random.default_rng(attempt)
            pts = local.normal(size=(14, 2)) + np.repeat(
                local.normal(scale=4.0, size=(3, 2)), (5, 5, 4), axis=0)
            dist = pairwise_distances(pts, "euclidean")
            build = _kernels.pam_build(dist, 3)
            _, passes = _kernels.pam_swap(dist, build, 100, _kernels.SwapSums(len(dist)))
            if passes >= 2:
                break
        assert passes >= 2, "no swapping instance found"
        costs = []
        for cap in range(passes + 1):
            med, _ = _kernels.pam_swap(dist, build, cap, _kernels.SwapSums(len(dist)))
            _, d1 = _kernels.assign_to_medoids(dist, np.sort(med))
            costs.append(d1.sum())
        assert all(costs[i + 1] < costs[i] for i in range(len(costs) - 1))
        build_cost = _kernels.assign_to_medoids(dist, np.sort(build))[1].sum()
        assert costs[-1] <= build_cost


class TestSilhouette:
    def test_separated_pairs_value(self):
        # a = 1 for every point, b = 10.5 or 9.5; frozen from hand computation
        value = mean_silhouette(FOUR_POINTS, [0, 0, 1, 1])
        expected = (19 / 21 + 17 / 19) / 2
        assert abs(value - expected) < 1e-12
        assert fit_k(FOUR_POINTS, 2).silhouette == value

    def test_wide_separation_above_09(self):
        pts = np.array([[0.0], [1.0], [100.0], [101.0]])
        assert mean_silhouette(pts, [0, 0, 1, 1]) > 0.9

    def test_identical_points_zero(self):
        assert mean_silhouette(np.zeros((4, 2)), [0, 0, 1, 1]) == 0.0

    def test_singleton_scores_zero(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        dist = pairwise_distances(pts, "euclidean")
        samples = _kernels.silhouette_samples_from_dist(
            dist, np.array([0, 0, 1]), 2)
        assert samples[2] == 0.0

    def test_single_cluster_error(self):
        # the fit never scores one cluster: k starts at 2
        with pytest.raises(ValueError, match="k must be >= 2"):
            fit_k(FOUR_POINTS, 1)


class TestSweep:
    def test_two_blobs_selects_two(self, rng):
        pts = np.vstack([rng.normal(size=(10, 2)),
                         rng.normal(size=(10, 2)) + 12.0])
        best, report = sweep(pts, 2, 5)
        assert len(best.medoids) == 2
        assert set(np.unique(best.labels[:10])) != set(np.unique(best.labels[10:]))
        assert [k for k, _ in report.fits] == [2, 3, 4, 5]

    def test_truncation_flagged(self):
        best, report = sweep(FOUR_POINTS, 2, 9)
        assert report.truncated
        assert report.fits[-1][0] == 4

    def test_single_k_sweep(self):
        best, report = sweep(FOUR_POINTS, 2, 2)
        assert len(report.fits) == 1 and not report.truncated
        assert len(best.medoids) == 2
        assert report.fits[0] == (2, best)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24),
           metric=st.sampled_from(METRICS), max_iter=st.sampled_from((0, 1, 100)))
    def test_matches_per_k_fits(self, seed, n, metric, max_iter):
        # one BUILD to the largest k, and each k's SWAP started from the sums
        # of the k before, must give every k what it gets on its own
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
        k_hi = int(rng.integers(2, n + 3))
        swaps = []
        real_swap = _kernels.pam_swap

        def recording_swap(dist, medoids, limit, sums):
            medoids_out, passes = real_swap(dist, medoids, limit, sums)
            swaps.append((medoids_out.tolist(), passes))
            return medoids_out, passes

        with mock.patch.object(_kernels, "pam_swap", recording_swap):
            best, report = sweep(pts, 2, k_hi, metric=metric, max_iter=max_iter)
            swept = swaps[:]
            # each k alone: its own BUILD, and SWAP from fresh sums
            dist = pairwise_distances(pts, metric)
            fits = {k: clustering._swap_and_score(dist, _kernels.pam_build(dist, k),
                                                  max_iter, _kernels.SwapSums(n))
                    for k, _ in report.fits}
        assert swept == swaps[len(swept):]
        assert [k for k, _ in report.fits] == list(range(2, min(k_hi, n) + 1))
        for k, got in report.fits:
            want = fits[k]
            assert (got.medoids, got.cost, got.silhouette, got.swap_passes) == \
                (want.medoids, want.cost, want.silhouette, want.swap_passes)
            assert got.labels.tolist() == want.labels.tolist()
        want = fits[len(best.medoids)]
        assert best.medoids == want.medoids
        assert best.labels.tolist() == want.labels.tolist()
        assert (best.cost, best.silhouette) == (want.cost, want.silhouette)
        assert best.silhouette == max(f.silhouette for f in fits.values())
        assert all(f.silhouette < best.silhouette for k, f in fits.items()
                   if k < len(best.medoids))

    def test_build_runs_once_to_largest_k(self):
        calls = []
        real_build = _kernels.pam_build

        def recording_build(dist, k):
            calls.append(k)
            return real_build(dist, k)

        with mock.patch.object(_kernels, "pam_build", recording_build):
            sweep(FOUR_POINTS, 2, 9)
        assert calls == [4]

    def test_swap_signals_reported(self):
        # BUILD gives medoids (1, 0), one SWAP moves 1 to 2 (see below)
        pts = np.array([[0.0], [2.0], [3.0], [3.0]])
        assert fit_k(pts, 2).swap_passes == 1
        assert fit_k(pts, 2, max_iter=0).swap_passes == 0
        _, report = sweep(pts, 2, 3, max_iter=0)
        assert [(k, fit.swap_passes) for k, fit in report.fits] == [(2, 0), (3, 0)]


def _oracle_points(data, kind, n):
    if kind == "integer":
        # 1-D integer points: every distance sum is exact, so ties are real
        values = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        return np.array(values, dtype=np.float64)[:, None]
    seed = data.draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(n, 3))


def _swap_matches_oracle(dist, start, max_iter, exact_ties):
    """Run SWAP one pass at a time beside the loop oracle; return its medoids.

    The two sum swap deltas in different orders. On integer points every sum
    is exact, so they must pick the same swap each pass. On other points an
    exact tie (say, either point of a new two-point cluster as its medoid)
    may round either way; there both picks must cost the same, and the walk
    goes on from the kernel's pick.
    """
    medoids, passes = start, 0
    while passes < max_iter:
        got, step = _kernels.pam_swap(dist, medoids, 1, _kernels.SwapSums(len(dist)))
        want, want_step = pam_oracle.pam_swap_loop(dist, medoids, 1)
        assert step == want_step
        if step == 0:
            break
        if got.tolist() != want.tolist():
            assert not exact_ties
            cost_got, cost_want = (dist[:, m].min(axis=1).sum() for m in (got, want))
            assert abs(cost_got - cost_want) <= 1e-9
        medoids, passes = got, passes + 1
    full, full_passes = _kernels.pam_swap(dist, start, max_iter,
                                          _kernels.SwapSums(len(dist)))
    assert full.tolist() == medoids.tolist() and full_passes == passes
    return full


def _match_loop_oracle(data, kind, n, max_iter):
    """BUILD, SWAP, assignment and silhouette against the scalar loops."""
    k = data.draw(st.integers(2, n))
    dist = pairwise_distances(_oracle_points(data, kind, n), "euclidean")
    built = _kernels.pam_build(dist, k)
    assert built.tolist() == pam_oracle.pam_build_loop(dist, k).tolist()
    # SWAP from arbitrary medoids, where far more improving swaps tie,
    # and from BUILD, whose result the rest of the test goes on with
    arbitrary = np.array(data.draw(st.permutations(range(n)))[:k], dtype=np.int64)
    exact_ties = kind == "integer"
    _swap_matches_oracle(dist, arbitrary, max_iter, exact_ties)
    swapped = _swap_matches_oracle(dist, built, max_iter, exact_ties)
    medoids = np.sort(swapped)
    labels, d1 = _kernels.assign_to_medoids(dist, medoids)
    want_labels, want_d1 = pam_oracle.assign_loop(dist, medoids)
    assert labels.tolist() == want_labels.tolist()
    assert np.allclose(d1, want_d1, rtol=0.0, atol=1e-12)
    # fitted labels, then arbitrary ones that may leave clusters empty
    drawn = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                        min_size=n, max_size=n)))
    for lab in (labels, drawn):
        sil = _kernels.silhouette_samples_from_dist(dist, lab, k)
        want_sil = pam_oracle.silhouette_loop(dist, lab, k)
        assert np.allclose(sil, want_sil, rtol=0.0, atol=1e-12)


class TestKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("normal", "integer")),
           n=st.integers(2, 16), max_iter=st.sampled_from((0, 1, 2, 100)))
    def test_pam_and_silhouette_match_loop_oracle(self, data, kind, n, max_iter):
        _match_loop_oracle(data, kind, n, max_iter)

    @pytest.mark.parametrize("rows", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("normal", "integer")),
           n=st.integers(2, 16), max_iter=st.sampled_from((0, 1, 2, 100)))
    def test_row_blocks_match_loop_oracle(self, rows, data, kind, n, max_iter):
        # blocks of 2 or 3 rows leave a last block of 1 row for many n
        with mock.patch.object(_kernels, "PAM_ROWS", rows):
            _match_loop_oracle(data, kind, n, max_iter)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("normal", "integer")),
           metric=st.sampled_from(METRICS), n=st.integers(1, 40),
           rows=st.sampled_from((1, 2, 3, _kernels.PAM_ROWS)))
    def test_row_blocks_match_whole_matrix_floats(self, data, kind, metric, n, rows):
        dist = pairwise_distances(_oracle_points(data, kind, n), metric)
        k = data.draw(st.integers(1, n))
        medoids = np.array(data.draw(st.permutations(range(n)))[:k], dtype=np.int64)
        d_near = dist[:, medoids].min(axis=1)
        with mock.patch.object(_kernels, "PAM_ROWS", rows):
            costs = _kernels._build_costs(dist, d_near)
            deltas = _kernels.SwapSums(n).deltas(dist, medoids)
        assert np.array_equal(costs, whole_matrix_oracle.build_costs(dist, d_near))
        assert np.array_equal(deltas, whole_matrix_oracle.swap_deltas(dist, medoids))

    def test_fortran_and_float32_matrices(self, rng):
        # the fit's kernels take a distance matrix as it is
        pts = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 9.0])
        dist = pairwise_distances(pts)
        want = fit_k(pts, 2)
        for other in (np.asfortranarray(dist), dist.astype(np.float32)):
            with mock.patch.object(clustering, "pairwise_distances",
                                   lambda points, metric: other):
                got = fit_k(pts, 2)
            assert got.medoids == want.medoids
            assert got.labels.tolist() == want.labels.tolist()

    def test_build_is_prefix_stable(self, rng):
        dist = pairwise_distances(rng.normal(size=(60, 2)))
        full = _kernels.pam_build(dist, 20)
        for k in range(1, 21):
            assert _kernels.pam_build(dist, k).tolist() == full[:k].tolist()

    def test_swap_tie_breaks_to_lowest_index(self):
        # BUILD gives medoids (1, 0); replacing 1 by point 2 or by its
        # duplicate 3 gains the same, and the lower index must win
        dist = pairwise_distances(np.array([[0.0], [2.0], [3.0], [3.0]]))
        built = _kernels.pam_build(dist, 2)
        assert built.tolist() == [1, 0]
        swapped, passes = _kernels.pam_swap(dist, built, 100, _kernels.SwapSums(len(dist)))
        assert (swapped.tolist(), passes) == ([2, 0], 1)
        assert pam_oracle.pam_swap_loop(dist, built, 100)[0].tolist() == [2, 0]


class _RecordingSums(_kernels.SwapSums):
    """SwapSums that keeps each pass's medoids and deltas."""

    def __init__(self, n):
        super().__init__(n)
        self.seen = []

    def deltas(self, dist, medoids):
        got = super().deltas(dist, medoids)
        self.seen.append((medoids.copy(), got.copy()))
        return got


def _swap_points(data, kind, metric, n):
    pts = _oracle_points(data, kind, n)
    if metric == "cosine" and data.draw(st.booleans()):
        pts[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = 0.0
    return pts


def _check_every_pass(dist, sums, start, max_iter):
    """SWAP from ``start`` on ``sums``; every pass's deltas must be the floats
    of fresh sums and of the whole-matrix formula."""
    n, k = dist.shape[0], start.shape[0]
    sums.seen = []
    medoids, passes = _kernels.pam_swap(dist, start, max_iter, sums)
    # a pass per swap, and one more that finds none unless max_iter stops it
    if k < n and max_iter > 0:
        assert len(sums.seen) == passes + (passes < max_iter)
    else:
        assert sums.seen == []
    for at, deltas in sums.seen:
        assert np.array_equal(deltas, _kernels.SwapSums(n).deltas(dist, at))
        assert np.array_equal(deltas, whole_matrix_oracle.swap_deltas(dist, at))
    if sums.seen:
        # the caller's sums are left at the start medoids
        assert sums.seen[0][0].tolist() == start.tolist()
        assert np.array_equal(sums.total - sums.lost + sums.gained, sums.seen[0][1])
    return medoids, passes


class TestIncrementalSwap:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("normal", "integer")),
           metric=st.sampled_from(METRICS), n=st.integers(2, 30),
           rows=st.sampled_from((1, 2, 3, 32)), share=st.sampled_from((0.0, 0.5, 1.0)),
           max_iter=st.sampled_from((0, 1, 2, 100)))
    def test_every_pass_matches_fresh_sums_and_whole_matrix(
            self, data, kind, metric, n, rows, share, max_iter):
        # share 0 sums all of total again whenever a column is dirty, share 1
        # never does; integer points give exact ties, duplicates and zeros
        dist = pairwise_distances(_swap_points(data, kind, metric, n), metric)
        k = data.draw(st.integers(1, n))
        start = np.array(data.draw(st.permutations(range(n)))[:k], dtype=np.int64)
        with mock.patch.object(_kernels, "PAM_ROWS", rows), \
                mock.patch.object(_kernels, "PAM_REFRESH_SHARE", share):
            sums = _RecordingSums(n)
            got = _check_every_pass(dist, sums, start, max_iter)
            # go on from those sums with other medoids, of another k too,
            # as the sweep does from one k to the next
            k2 = data.draw(st.integers(1, n))
            other = np.array(data.draw(st.permutations(range(n)))[:k2], dtype=np.int64)
            _check_every_pass(dist, sums, other, max_iter)
            again = _check_every_pass(dist, sums, start, max_iter)
        want = _kernels.pam_swap(dist, start, max_iter, _kernels.SwapSums(len(dist)))
        for medoids, passes in (got, again):
            assert (medoids.tolist(), passes) == (want[0].tolist(), want[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_one_dirty_column_is_summed_row_after_row(self, seed):
        # numpy sums a one-column block pairwise; the kernel must not
        rng = np.random.default_rng(seed)
        n = 200
        dist = rng.random((n, n)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
        d1 = rng.random(n) * dist.max()
        row = int(rng.integers(0, n))
        h = int(np.argmin(dist[row]))
        reach = np.array([np.partition(dist[row], 1)[1]])  # only h lies below
        cols = _kernels._dirty_columns(dist, np.array([row]), reach)
        assert h in cols.tolist()
        total = np.zeros(n)
        _kernels._sum_total(dist, d1, total, cols)
        column = np.minimum(dist[:, h] - d1, 0.0)
        sequential = 0.0
        for term in column.tolist():
            sequential += term
        assert total[h] == sequential

    @pytest.mark.parametrize("share", [0.0, 1.0])
    def test_sweep_matches_fresh_swaps_at_either_share(self, share, rng):
        pts = np.vstack([rng.normal(size=(40, 2)) + c for c in (0.0, 6.0, 12.0)])
        pts[::9] = pts[1::9][:pts[::9].shape[0]]  # duplicate points
        dist = pairwise_distances(pts)
        built = _kernels.pam_build(dist, 12)
        with mock.patch.object(_kernels, "PAM_REFRESH_SHARE", share):
            sums = _RecordingSums(dist.shape[0])
            for k in range(2, 13):
                got, passes = _check_every_pass(dist, sums, built[:k], 100)
                want, want_passes = _kernels.pam_swap(dist, built[:k], 100,
                                                      _kernels.SwapSums(len(dist)))
                assert (got.tolist(), passes) == (want.tolist(), want_passes)


def _route_sums(dist, sums, route):
    """(total, lost, gained) summed again by one route from the nearest and
    second-nearest medoids ``sums`` holds, starting from NaN."""
    n, k = dist.shape[0], sums.lost.shape[0]
    total, group_sums = np.full(n, np.nan), np.full((k, 2, n), np.nan)
    if route == "all rows":
        _kernels._sum_all_rows(dist, sums.n1, sums.d1, sums.gap, total, group_sums, sums.work)
    else:
        _kernels._sum_groups(dist, sums.n1, sums.d1, sums.gap, np.arange(k), group_sums,
                             sums.work)
        _kernels._sum_total(dist, sums.d1, total, slice(None))
    return total, group_sums[:, 0], group_sums[:, 1]


def _assert_routes_agree(dist, sums):
    routed = _route_sums(dist, sums, "all rows")
    grouped = _route_sums(dist, sums, "per group")
    for a, b, held in zip(routed, grouped, (sums.total, sums.lost, sums.gained)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert np.array_equal(a, held)
        assert np.array_equal(np.signbit(a), np.signbit(held))


def _spy_routes():
    return (mock.patch.object(_kernels, "_sum_all_rows", wraps=_kernels._sum_all_rows),
            mock.patch.object(_kernels, "_sum_groups", wraps=_kernels._sum_groups))


class TestAllDirtyRoute:
    """A pass whose medoid groups are all dirty sums every row once, routing
    each to its group; it must give the per-group route's floats."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("normal", "integer")),
           metric=st.sampled_from(METRICS), n=st.integers(2, 70),
           rows=st.sampled_from((1, 2, 3, 32)),
           k_kind=st.sampled_from(("one", "n - 1", "any")))
    def test_routes_give_the_same_sums(self, data, kind, metric, n, rows, k_kind):
        # integer points give ties, duplicate points and exact zeros; cosine
        # may get zero rows; n up to 70 leaves a short last block of 32
        dist = pairwise_distances(_swap_points(data, kind, metric, n), metric)
        k = {"one": 1, "n - 1": n - 1, "any": data.draw(st.integers(1, n - 1))}[k_kind]
        order = data.draw(st.permutations(range(n)))
        first = np.array(order[:k], dtype=np.int64)
        k2 = data.draw(st.integers(1, n - 1))
        second = np.array(data.draw(st.permutations(range(n)))[:k2], dtype=np.int64)
        with mock.patch.object(_kernels, "PAM_ROWS", rows):
            sums = _kernels.SwapSums(n)
            for medoids in (first, second, first):
                deltas = sums.deltas(dist, medoids)
                assert np.array_equal(deltas, whole_matrix_oracle.swap_deltas(dist, medoids))
                _assert_routes_agree(dist, sums)

    @pytest.mark.parametrize("rows", [1, 2, 3, 32])
    @pytest.mark.parametrize("metric", METRICS)
    def test_taken_on_every_all_dirty_pass(self, rows, metric, rng):
        # distinct points: each medoid of a set disjoint from the last one
        # moves its own row's d1 to 0, so every group is dirty again
        n = 47  # not a multiple of any block size above 1
        pts = rng.normal(size=(n, 3))
        if metric == "cosine":
            pts[[4, 17]] = 0.0
        dist = pairwise_distances(pts, metric)
        sets = [np.array(m, dtype=np.int64)
                for m in ([0, 1, 2], [3, 4, 5, 6], [7], [8, 9, 10, 11, 12], [13, 14])]
        all_rows, groups = _spy_routes()
        with mock.patch.object(_kernels, "PAM_ROWS", rows), all_rows as spy, groups as other:
            sums = _kernels.SwapSums(n)
            for medoids in sets:
                deltas = sums.deltas(dist, medoids)
                assert (spy.call_count, other.call_count) == (1, 0)
                assert np.array_equal(deltas, whole_matrix_oracle.swap_deltas(dist, medoids))
                _assert_routes_agree(dist, sums)
                spy.reset_mock()
                other.reset_mock()

    def test_not_taken_on_a_partial_pass(self):
        # three groups on a line: moving the far group's medoid leaves the
        # nearest and second-nearest medoids of the other two groups as
        # they were, so only that group is summed again
        pts = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 100.0, 101.0, 102.0, 103.0])[:, None]
        dist = pairwise_distances(pts)
        all_rows, groups = _spy_routes()
        with all_rows as spy, groups as other:
            sums = _kernels.SwapSums(dist.shape[0])
            sums.deltas(dist, np.array([1, 4, 7]))
            assert (spy.call_count, other.call_count) == (1, 0)
            deltas = sums.deltas(dist, np.array([1, 4, 8]))
            assert (spy.call_count, other.call_count) == (1, 1)
            assert other.call_args.args[4].tolist() == [2]
        assert np.array_equal(deltas, whole_matrix_oracle.swap_deltas(dist, np.array([1, 4, 8])))
        _assert_routes_agree(dist, sums)

class TestKernelModule:
    def test_one_plain_function_per_kernel(self):
        for name in ("pam_build", "pam_swap", "assign_to_medoids",
                     "silhouette_samples_from_dist", "support_counts"):
            fn = getattr(_kernels, name)
            assert inspect.isfunction(fn)
            assert (fn.__module__, fn.__name__) == ("incmine._kernels", name)

    def test_no_dispatch_or_environment_switch(self):
        for name in ("implementations", "USE_NUMBA", "_HAVE_NUMBA"):
            assert not hasattr(_kernels, name)
        source = inspect.getsource(_kernels)
        assert "environ" not in source and "getenv" not in source


class TestIpca:
    def test_rank_one_line(self):
        t = np.linspace(-3.0, 3.0, 50)
        line = np.stack([t, 2.0 * t], axis=1)
        model = ipca_fit(line, batch_size=7)
        assert abs(model.explained_variance_ratio[0] - 1.0) < 1e-9
        direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
        dot = abs(float(model.components[0] @ direction))
        assert abs(dot - 1.0) < 1e-9

    def test_isotropic_ratios(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(1000, 2))
        model = ipca_fit(data, batch_size=128)
        assert (0.4 <= model.explained_variance_ratio).all()
        assert (model.explained_variance_ratio <= 0.6).all()

    def test_single_batch_matches_batch_pca(self, rng):
        data = rng.normal(size=(120, 8)) @ rng.normal(size=(8, 8))
        model = ipca_fit(data)
        centered = data - data.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        m = 5
        angles = principal_angles(model.components[:m], vt[:m])
        assert angles.max() < 1e-6

    def test_batched_matches_batch_pca(self, rng):
        data = rng.normal(size=(500, 32)) * np.linspace(3.0, 0.2, 32)
        model = ipca_fit(data, batch_size=64)
        centered = data - data.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        ratios = s ** 2 / (s ** 2).sum()
        m = 10
        angles = principal_angles(model.components[:m], vt[:m])
        assert angles.max() < 1e-3
        assert np.allclose(model.explained_variance_ratio[:m], ratios[:m],
                           atol=1e-3)

    def test_components_orthonormal_and_ratios_sorted(self, rng):
        data = rng.normal(size=(200, 12))
        model = ipca_fit(data, batch_size=37)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8)
        ratios = model.explained_variance_ratio
        assert (np.diff(ratios) <= 1e-12).all()
        assert ratios.sum() <= 1.0 + 1e-9

    def test_needs_two_samples(self):
        with pytest.raises(IncmineError, match="incremental PCA needs at least 2 samples"):
            ipca_fit(np.ones((1, 4)))


class TestReduceToVariance:
    def test_rank_one_needs_one(self):
        t = np.linspace(-3.0, 3.0, 50)
        line = np.stack([t, 2.0 * t], axis=1)
        model = ipca_fit(line)
        _, m = reduce_to_variance(model, line, 0.85)
        assert m == 1

    def test_isotropic_needs_two(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(1000, 2))
        model = ipca_fit(data)
        _, m = reduce_to_variance(model, data, 0.85)
        assert m == 2

    def test_zero_threshold_single_component(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 3))
        model = ipca_fit(data)
        _, m = reduce_to_variance(model, data, 0.0)
        assert m == 1

    def test_unreachable_threshold_reports_max(self, rng):
        data = rng.normal(size=(50, 6))
        model = IpcaModel(mean=np.zeros(6), components=np.eye(6)[:2],
                          explained_variance_ratio=np.array([0.375, 0.25]))
        with pytest.raises(IncmineError, match="explain only 0.625000 < 0.999"):
            reduce_to_variance(model, data, 0.999)

    def test_distance_preservation_on_full_rank(self, rng):
        data = rng.normal(size=(30, 4))
        model = ipca_fit(data)
        reduced, m = reduce_to_variance(model, data, 1.0)
        before = pairwise_distances(data, "euclidean")
        after = pairwise_distances(reduced, "euclidean")
        assert np.allclose(before, after, atol=1e-8)


class TestEmbeddingsIO:
    def test_text_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(3, 16))
        path = tmp_path / "emb.txt"
        save_embeddings(matrix, path, fmt="text")
        loaded = load_embeddings(path, fmt="text")
        assert loaded.shape == (3, 16)
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        assert np.array_equal(loaded, matrix)

    def test_binary_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(5, 4)).astype(np.float32)
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path, fmt="binary")
        loaded = load_embeddings(path, fmt="binary")
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        assert np.array_equal(loaded, matrix)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n1 2 3 4\n1 2 3\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="bad.txt:3: expected 4 values, got 3"):
            load_embeddings(path, fmt="text")

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 2\n3 4\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="declares 3"):
            load_embeddings(path, fmt="text")

    def test_rows_past_the_header_are_counted(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 2\n3 4\n5 6\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="declares 1 rows, found 3"):
            load_embeddings(path, fmt="text")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nnan 1.0\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="embedding matrix contains non-finite values"):
            load_embeddings(path, fmt="text")

    @pytest.mark.parametrize("value", ["NaN", "-inf", "+INF", "Infinity", "-iNfInItY"])
    def test_non_finite_spellings_reach_the_finite_check(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n{value} 1.0\n", encoding="utf-8")
        with pytest.raises(IncmineError,
                           match="bad.txt: embedding matrix contains non-finite values"):
            load_embeddings(path, fmt="text")

    def test_number_forms(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("+1 7\n1 -2.5 +.5 3. 1e-3 2E+2 -0\n", encoding="utf-8")
        assert load_embeddings(path, fmt="text").tolist() == [
            [1.0, -2.5, 0.5, 3.0, 0.001, 200.0, -0.0]]

    # float() reads 1_5 as 15 and U+0661, ARABIC-INDIC DIGIT ONE, as 1
    @pytest.mark.parametrize("value", ["1_5", "0x1", "1e", ".", "nan1", "\u0661", "\uff11"])
    def test_loose_values_refused(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n0.5 {value}\n", encoding="utf-8")
        with pytest.raises(IncmineError, match=re.escape(
                f"bad.txt:2: could not convert string to float: {value!r}")):
            load_embeddings(path, fmt="text")

    def test_space_and_tab_separate(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2\t2 \n1\t2\n \t3  \t4 \n\t\n", encoding="utf-8")
        assert load_embeddings(path, fmt="text").tolist() == [[1.0, 2.0], [3.0, 4.0]]

    # str.split() also splits on these, so 1<U+00A0>2 read as the row [1, 2]
    @pytest.mark.parametrize("sep", ["\u00a0", "\u2003", "\u3000", "\x0b", "\x0c",
                                     "\x1f", "\x85"])
    def test_other_whitespace_does_not_separate(self, tmp_path, sep):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n1{sep}2\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="bad.txt:2: expected 2 values, got 1"):
            load_embeddings(path, fmt="text")
        path.write_text(f"1 1\n{sep}1\n", encoding="utf-8")
        with pytest.raises(IncmineError, match=re.escape(
                f"bad.txt:2: could not convert string to float: {sep + '1'!r}")):
            load_embeddings(path, fmt="text")
        path.write_text(f"1{sep}2\n1 2\n", encoding="utf-8")
        with pytest.raises(IncmineError, match="bad.txt: header must be 'n_rows n_cols'"):
            load_embeddings(path, fmt="text")

    def test_binary_signalling_nan_rejected_without_a_warning(self, tmp_path):
        # float32 0xffa00000 warns when cast; RuntimeWarning is an error here
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<QQI", 1, 1, 0xFFA00000))
        with pytest.raises(IncmineError, match="embedding matrix contains non-finite values"):
            load_embeddings(path, fmt="binary")

    def test_binary_payload_size_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<QQ", 2, 4) + b"\x00" * 28)
        with pytest.raises(IncmineError, match="28 bytes"):
            load_embeddings(path, fmt="binary")

    @pytest.mark.parametrize("header, message", [
        ("-1 3", "negative size, -1 x 3"),
        ("3 -2", "negative size, 3 x -2"),
        ("5 0", "embedding matrix has no columns"),
        ("1_0 2", r"bad.txt:1: bad header \['1_0', '2'\]"),  # int() reads 1_0 as 10
        ("1 \u0662", "bad.txt:1: bad header"),
        ("1.0 2", "bad.txt:1: bad header"),
        ("nan 2", "bad.txt:1: bad header"),
    ])
    def test_bad_header_sizes_refused(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(IncmineError, match=message):
            load_embeddings(path, fmt="text")

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_header_over_the_size_guard_refused_before_any_row(self, tmp_path,
                                                               monkeypatch, fmt):
        # the rows after the header are malformed, so reading any of them
        # would raise a different error
        path = tmp_path / "emb"
        if fmt == "text":
            path.write_text("2 3\nnot a row\n", encoding="utf-8")
        else:
            path.write_bytes(struct.pack("<QQ", 2, 3) + b"\x00" * 5)
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 2 * 3 * 8 - 1)
        with pytest.raises(IncmineError, match="the 2 x 3 embedding matrix needs"):
            load_embeddings(path, fmt=fmt)
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 2 * 3 * 8)
        with pytest.raises(IncmineError, match=r"emb:2: could not convert|payload is 5 bytes"):
            load_embeddings(path, fmt=fmt)

    def test_text_load_peak_memory(self, tmp_path):
        # one float64 matrix filled row by row, not a list of Python floats
        matrix = np.random.default_rng(4).normal(size=(2000, 64))
        path = tmp_path / "emb.txt"
        save_embeddings(matrix, path, fmt="text")
        tracemalloc.start()
        try:
            loaded = load_embeddings(path, fmt="text")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, matrix)
        assert peak <= 1.5 * matrix.nbytes

    def test_ids_loader(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("s1\ns2\n\ns3\n", encoding="utf-8")
        assert load_embedding_ids(path) == ["s1", "s2", "s3"]

    def test_text_byte_order_mark_is_skipped(self, tmp_path):
        plain, bom = plain_and_bom(tmp_path, "txt", "2 2\n1.5 -2\n0 3\n")
        assert np.array_equal(load_embeddings(bom, fmt="text"),
                              load_embeddings(plain, fmt="text"))

    def test_ids_byte_order_mark_is_skipped(self, tmp_path):
        plain, bom = plain_and_bom(tmp_path, "ids", "s1\ns2\n")
        assert load_embedding_ids(bom) == load_embedding_ids(plain) == ["s1", "s2"]


class TestClusterConfig:
    def test_k_lower_bound(self):
        for k_range in ((1, 1), (1, 5)):
            with pytest.raises(ValueError, match="k must be >= 2"):
                ClusterConfig(k_range=k_range)

    def test_sweep_bounds(self):
        with pytest.raises(ValueError):
            ClusterConfig(k_range=(5, 2))
