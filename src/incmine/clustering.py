"""K-medoids (PAM) clustering over a range of k, and incremental PCA.

PAM runs on a precomputed distance matrix: greedy BUILD, then repeated
single-best SWAP passes. Equal computed costs break to the lowest index; an
exact tie may differ in its last bit as summed, and then rounding decides.
Nothing here draws a random number, so the fit needs no seed.
``sweep_k`` is the one fit: it fits every k of ``ClusterConfig.k_range`` and
picks the best by mean silhouette, and a fixed k is the range (k, k). It
builds the distance matrix and runs BUILD once, to the largest k, and starts
each k's SWAP from the first k BUILD medoids. The first k + 1 BUILD medoids
only add one to the first k, so each k's first SWAP pass starts from the sums
of the k before (``_kernels.SwapSums``) and recomputes only the medoid groups
and the columns the added medoid changed; a term that is +0.0 before and
after leaves its column's sum as it was, so every fit is the one a fresh
SWAP gives. The matrix is the only n x n array: distances are computed in
cache-sized chunks in place, and the BUILD/SWAP kernels in ``_kernels`` read
it in row blocks.

Incremental PCA consumes an externally produced sentence-embedding matrix in
row batches, keeping every principal direction up to the data rank seen so
far, so at desk scale it reproduces batch PCA exactly.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import IncmineError, check_allocation, strict_float, strict_int

METRICS = ("euclidean", "cosine")

# float64 elements of the row-difference scratch of exact euclidean distances
# (128 KiB, so a chunk stays in cache)
_CHUNK_BUDGET = 16_384

# explained-variance share the embedding reduction keeps by default
VARIANCE_THRESHOLD = 0.85


@dataclass(frozen=True)
class ClusterConfig:
    k_range: tuple[int, int]  # (lo, hi), both fitted; a fixed k is (k, k)
    metric: str = "euclidean"
    max_iter: int = 100

    def __post_init__(self):
        lo, hi = self.k_range
        if lo < 2:
            raise ValueError("k must be >= 2")
        if lo > hi:
            raise ValueError("sweep range must satisfy 2 <= k_lo <= k_hi")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass(frozen=True)
class ClusterAssignment:
    medoids: tuple[int, ...]
    labels: np.ndarray
    cost: float
    silhouette: float
    swap_passes: int  # improving SWAP passes made; at max_iter SWAP may not have converged


@dataclass(frozen=True)
class SweepReport:
    fits: tuple[tuple[int, ClusterAssignment], ...]  # (k, fit), k ascending
    truncated: bool  # k_range reached past n, so the sweep stopped at k = n


@dataclass(frozen=True)
class IpcaModel:
    mean: np.ndarray
    components: np.ndarray                # (m, n_cols) orthonormal rows
    explained_variance_ratio: np.ndarray  # non-increasing, sums to <= 1

    @property
    def n_cols(self) -> int:
        return self.components.shape[1]


def _validate_points(points) -> np.ndarray:
    """An array or ``TfIdfMatrix`` rows as float64; 2-D and finite, or refused."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise IncmineError("points must form a 2-D matrix")
    if not np.isfinite(points).all():
        raise IncmineError("points contain non-finite values")
    return points


def pairwise_distances(points, metric: str = "euclidean") -> np.ndarray:
    """Full symmetric distance matrix, built as its only n x n array.

    ``points`` is a 2-D array or a ``vectors.TfIdfMatrix``, whose row slices
    ``points[lo:hi]`` give dense rows. Euclidean distances take every row at
    once and are computed from explicit row differences, not the
    expanded-dot-product identity, so identical rows give exactly 0. A
    difference and its negation square to the same float, so each chunk of
    rows fills its upper triangle and mirrors it. Cosine distances read the
    rows a block at a time into one array of unit rows, then clip and
    subtract in place in the Gram matrix, which is exactly symmetric.
    """
    if len(getattr(points, "shape", ())) != 2:
        raise IncmineError("points must form a 2-D matrix")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    n = points.shape[0]
    check_allocation(n * n * 8, f"the distance matrix of {n} points")
    if metric == "euclidean":
        d = _euclidean_distances(_validate_points(points[:]))
    else:
        d = _cosine_distances(points)
    np.fill_diagonal(d, 0.0)
    return d


def _euclidean_distances(points) -> np.ndarray:
    """Rows [lo, hi) against columns [lo, n), in tiles whose (rows, cols,
    dim) difference scratch holds at most ``_CHUNK_BUDGET`` elements, or
    one pair. A tile spans every remaining column whenever the budget allows
    it; either way each pair reduces its own contiguous ``dim`` squares."""
    n, dim = points.shape
    d = np.empty((n, n))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _CHUNK_BUDGET // max(1, (n - lo) * dim)))
        step = max(1, _CHUNK_BUDGET // max(1, (hi - lo) * dim))
        for col in range(lo, n, step):
            stop = min(n, col + step)
            diff = points[lo:hi, None, :] - points[None, col:stop, :]
            np.multiply(diff, diff, out=diff)
            block = diff.sum(axis=2)
            np.sqrt(block, out=block)
            d[lo:hi, col:stop] = block
            d[col:stop, lo:hi] = block.T
        lo = hi
    return d


def _cosine_distances(points) -> np.ndarray:
    """1 - cos over the rows of a 2-D ``points``, read ``_CHUNK_BUDGET``
    elements of rows at a time.

    Each row's norm is reduced along that row alone, so a block gives it the
    float the whole matrix gives, and ``unit`` is the array the whole-matrix
    division makes.
    """
    n, dim = points.shape
    step = max(1, _CHUNK_BUDGET // max(1, dim))
    unit = np.empty((n, dim))
    zero = np.empty(n, dtype=bool)
    for lo in range(0, n, step):
        block = _validate_points(points[lo:lo + step])
        norms = np.linalg.norm(block, axis=1)
        zero[lo:lo + step] = norms == 0.0
        norms[zero[lo:lo + step]] = 1.0
        np.divide(block, norms[:, None], out=unit[lo:lo + step])
    # exactly symmetric: BLAS computes this as a symmetric rank-k update
    # (syrk) and mirrors the triangle, and numpy's own loop sums each pair in
    # the same order either way round
    d = unit @ unit.T
    for lo in range(0, n, step):
        rows = d[lo:lo + step]
        np.clip(rows, -1.0, 1.0, out=rows)
        np.subtract(1.0, rows, out=rows)
    if zero.any():
        d[zero, :] = 1.0
        d[:, zero] = 1.0
        d[np.ix_(zero, zero)] = 0.0  # two zero rows are identical points
    return d


def _swap_and_score(dist, built, max_iter: int, sums) -> ClusterAssignment:
    """SWAP from the BUILD medoids, then labels, cost and mean silhouette.

    ``sums`` (``_kernels.SwapSums``) carries SWAP's first-pass sums from one
    call to the next."""
    medoids, passes = _kernels.pam_swap(dist, built, max_iter, sums)
    medoids = np.sort(medoids)
    labels, d_near = _kernels.assign_to_medoids(dist, medoids)
    cost = float(d_near.sum())
    k = len(medoids)
    sil = float(_kernels.silhouette_samples_from_dist(dist, labels, k).mean())
    return ClusterAssignment(medoids=tuple(int(m) for m in medoids),
                             labels=labels, cost=cost, silhouette=sil,
                             swap_passes=passes)


def sweep_k(points, config: ClusterConfig) -> tuple[ClusterAssignment, SweepReport]:
    """Fit every k in ``config.k_range`` up to n; best = max silhouette, ties
    to the smaller k. ``points`` are as ``pairwise_distances`` takes them.

    BUILD runs once, to the largest k: greedy BUILD only adds medoids, so its
    first k are the BUILD result for k.
    """
    dist = pairwise_distances(points, config.metric)
    n = dist.shape[0]
    k_lo, k_hi = config.k_range
    if k_lo > n:
        raise IncmineError(f"k={k_lo} exceeds number of points n={n}")
    ks = range(k_lo, min(k_hi, n) + 1)
    built = _kernels.pam_build(dist, ks[-1])
    sums = _kernels.SwapSums(n)
    fits = tuple((k, _swap_and_score(dist, built[:k], config.max_iter, sums)) for k in ks)
    best = max((fit for _, fit in fits), key=lambda fit: fit.silhouette)  # first on ties
    return best, SweepReport(fits=fits, truncated=k_hi > n)


# --------------------------------------------------------------------------
# incremental PCA
# --------------------------------------------------------------------------

def ipca_fit(data, batch_size: Optional[int] = None) -> IpcaModel:
    """Fit incremental PCA over ``batch_size``-row batches of ``data`` (one
    batch when None), retaining min(n_cols, n_seen) components."""
    data = _validate_points(data)
    n_rows, n_cols = data.shape
    if batch_size is None:
        batch_size = max(1, n_rows)
    elif batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    mean = None
    m2 = None           # per-column sum of squared deviations, merged per batch
    singular = None
    components = None
    n_seen = 0
    for lo in range(0, n_rows, batch_size):
        batch = data[lo:lo + batch_size]
        m = batch.shape[0]
        batch_mean = batch.mean(axis=0)
        centered = batch - batch_mean
        batch_m2 = (centered * centered).sum(axis=0)
        if n_seen == 0:
            mean = batch_mean
            m2 = batch_m2
            _, s, vt = np.linalg.svd(centered, full_matrices=False)
            singular, components = s, vt
            n_seen = m
        else:
            total = n_seen + m
            delta = batch_mean - mean
            correction = np.sqrt(n_seen * m / total) * delta
            stack = np.vstack([singular[:, None] * components,
                               centered,
                               correction[None, :]])
            _, s, vt = np.linalg.svd(stack, full_matrices=False)
            singular, components = s, vt
            mean = mean + delta * (m / total)
            m2 = m2 + batch_m2 + delta * delta * (n_seen * m / total)
            n_seen = total
        keep = min(n_cols, n_seen)
        singular = singular[:keep]
        components = components[:keep]
    if n_seen < 2:
        raise IncmineError("incremental PCA needs at least 2 samples")
    total_var = m2.sum() / (n_seen - 1)
    explained = (singular ** 2) / (n_seen - 1)
    if total_var > 0:
        ratio = explained / total_var
    else:
        ratio = np.zeros_like(explained)
    return IpcaModel(mean=mean, components=components, explained_variance_ratio=ratio)


def reduce_to_variance(model: IpcaModel, points,
                       variance_threshold: float = VARIANCE_THRESHOLD
                       ) -> tuple[np.ndarray, int]:
    """Project onto the smallest component prefix explaining >= variance_threshold."""
    points = _validate_points(points)
    if points.shape[1] != model.n_cols:
        raise IncmineError(
            f"points have {points.shape[1]} columns, model expects {model.n_cols}")
    if not 0.0 <= variance_threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    cum = np.cumsum(model.explained_variance_ratio)
    reached = np.nonzero(cum >= variance_threshold)[0]
    if len(reached) == 0:
        raise IncmineError(f"retained components explain only {cum[-1]:.6f} < "
                           f"{variance_threshold} of variance")
    m = int(reached[0]) + 1
    reduced = (points - model.mean) @ model.components[:m].T
    return reduced, m


# --------------------------------------------------------------------------
# embedding file formats
# --------------------------------------------------------------------------

# a field of a text embedding file: separators are ASCII spaces and tabs
# only, so a field holding another space, such as U+00A0, fails the number
# grammar instead of splitting
_FIELD = re.compile(r"[^ \t\n]+")


def load_embeddings(path, fmt: str = "text") -> np.ndarray:
    """Read an embedding matrix as a C-contiguous (n_rows, n_cols) float64 array.

    Text format: first line `n_rows n_cols`, then one row of floats per
    line, fields separated by ASCII spaces and tabs. Binary format: two little-endian uint64 (n_rows, n_cols)
    followed by n_rows*n_cols little-endian float32, row-major. The header is
    checked before any row is read: a negative size or no columns is
    refused, and so is a float64 matrix over ``MAX_ALLOCATION_BYTES``; a
    binary payload must be the size the header declares. A text size or
    value must match ``errors.NUMBER``. Every value must be finite.
    """
    if fmt == "text":
        with open(path, encoding="utf-8-sig") as fh:
            header = _FIELD.findall(fh.readline())
            if len(header) != 2:
                raise IncmineError(f"{path}: header must be 'n_rows n_cols'")
            try:
                n_rows, n_cols = map(strict_int, header)
            except ValueError as exc:
                raise IncmineError(f"{path}:1: bad header {header}") from exc
            _check_header(path, n_rows, n_cols)
            matrix = np.empty((n_rows, n_cols))
            found = 0
            for lineno, line in enumerate(fh, start=2):
                row = _FIELD.findall(line)
                if not row:
                    continue
                if len(row) != n_cols:
                    raise IncmineError(
                        f"{path}:{lineno}: expected {n_cols} values, got {len(row)}")
                try:
                    values = [strict_float(v) for v in row]
                except ValueError as exc:
                    raise IncmineError(f"{path}:{lineno}: {exc}") from exc
                if found < n_rows:  # past it, rows are only checked and counted
                    matrix[found] = values
                found += 1
        if found != n_rows:
            raise IncmineError(f"{path}: header declares {n_rows} rows, found {found}")
    elif fmt == "binary":
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise IncmineError(f"{path}: truncated binary header")
            n_rows, n_cols = struct.unpack("<QQ", head)
            _check_header(path, n_rows, n_cols)
            payload = os.fstat(fh.fileno()).st_size - len(head)
            expected = n_rows * n_cols * 4
            if payload != expected:
                raise IncmineError(
                    f"{path}: payload is {payload} bytes, expected {expected}")
            stored = np.empty((n_rows, n_cols), dtype="<f4")
            if fh.readinto(stored.view(np.uint8)) != expected:
                raise IncmineError(f"{path} shrank while being read")
        with np.errstate(invalid="ignore"):  # a signalling NaN; refused below
            matrix = stored.astype(np.float64)
    else:
        raise ValueError("fmt must be 'text' or 'binary'")
    if not np.isfinite(matrix).all():
        raise IncmineError(f"{path}: embedding matrix contains non-finite values")
    return matrix


def _check_header(path, n_rows: int, n_cols: int) -> None:
    if n_rows < 0 or n_cols < 0:
        raise IncmineError(f"{path}: header declares a negative size, {n_rows} x {n_cols}")
    if n_cols == 0:
        # a header of n rows by 0 columns needs no payload, yet n ids
        raise IncmineError(f"{path}: embedding matrix has no columns")
    check_allocation(n_rows * n_cols * 8, f"the {n_rows} x {n_cols} embedding matrix")


def load_embedding_ids(path) -> list[str]:
    """Companion id list: one sentence id per line."""
    with open(path, encoding="utf-8-sig") as fh:
        return [line.strip() for line in fh if line.strip()]
