"""K-medoids (PAM) clustering over a range of k, and incremental PCA.

PAM runs on a precomputed distance matrix: greedy BUILD, then repeated
single-best SWAP passes. Equal computed costs break to the lowest index; an
exact tie may differ in its last bit as summed, and then rounding decides.
Either way the result does not depend on the seed, which is only echoed
into reports.
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

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import IncmineError, check_allocation

METRICS = ("euclidean", "cosine")

# float64 elements of the row-difference scratch of exact euclidean distances
# (128 KiB, so a chunk stays in cache)
_CHUNK_BUDGET = 16_384

# explained-variance share the embedding reduction keeps by default
VARIANCE_THRESHOLD = 0.85


class ClusteringError(IncmineError):
    pass


class EmbeddingFormatError(IncmineError):
    pass


@dataclass(frozen=True)
class EmbeddingMatrix:
    values: np.ndarray  # (n_rows, n_cols) float64, row-major

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise ClusteringError("embedding matrix must be 2-D")
        if values.shape[1] == 0:
            # a header of n rows by 0 columns needs no payload, yet n ids
            raise EmbeddingFormatError("embedding matrix has no columns")
        if not np.isfinite(values).all():
            raise EmbeddingFormatError("embedding matrix contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ClusterConfig:
    k_range: tuple[int, int]  # (lo, hi), both fitted; a fixed k is (k, k)
    metric: str = "euclidean"
    max_iter: int = 100
    seed: int = 0

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
    singular_values: np.ndarray
    explained_variance_ratio: np.ndarray  # non-increasing, sums to <= 1
    n_seen: int

    @property
    def n_cols(self) -> int:
        return self.components.shape[1]


def _validate_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ClusteringError("points must form a 2-D matrix")
    if not np.isfinite(points).all():
        raise ClusteringError("points contain non-finite values")
    return points


def pairwise_distances(points, metric: str = "euclidean") -> np.ndarray:
    """Full symmetric distance matrix, built as its only n x n array.

    Euclidean distances are computed from explicit row differences, not the
    expanded-dot-product identity, so identical rows give exactly 0. A
    difference and its negation square to the same float, so each chunk of
    rows fills its upper triangle and mirrors it. Cosine distances clip and
    subtract in place in the Gram matrix, which is exactly symmetric.
    """
    points = _validate_points(points)
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    n = points.shape[0]
    check_allocation(n * n * 8, f"the distance matrix of {n} points")
    if metric == "euclidean":
        d = _euclidean_distances(points)
    else:
        d = _cosine_distances(points)
    np.fill_diagonal(d, 0.0)
    return d


def _euclidean_distances(points) -> np.ndarray:
    n, dim = points.shape
    d = np.empty((n, n))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _CHUNK_BUDGET // max(1, (n - lo) * dim)))
        diff = points[lo:hi, None, :] - points[None, lo:, :]
        np.multiply(diff, diff, out=diff)
        block = diff.sum(axis=2)
        np.sqrt(block, out=block)
        d[lo:hi, lo:] = block
        d[lo:, lo:hi] = block.T
        lo = hi
    return d


def _cosine_distances(points) -> np.ndarray:
    norms = np.linalg.norm(points, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = points / safe[:, None]
    # exactly symmetric: BLAS computes this as a symmetric rank-k update
    # (syrk) and mirrors the triangle, and numpy's own loop sums each pair in
    # the same order either way round
    d = unit @ unit.T
    np.clip(d, -1.0, 1.0, out=d)
    zero = norms == 0.0
    if zero.any():
        d[zero, :] = 0.0
        d[:, zero] = 0.0
        d[np.ix_(zero, zero)] = 1.0  # two zero rows are identical points
    np.subtract(1.0, d, out=d)
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
    to the smaller k.

    BUILD runs once, to the largest k: greedy BUILD only adds medoids, so its
    first k are the BUILD result for k.
    """
    points = _validate_points(points)
    n = points.shape[0]
    k_lo, k_hi = config.k_range
    if k_lo > n:
        raise ClusteringError(f"k={k_lo} exceeds number of points n={n}")
    ks = range(k_lo, min(k_hi, n) + 1)
    dist = pairwise_distances(points, config.metric)
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
        raise ClusteringError("incremental PCA needs at least 2 samples")
    total_var = m2.sum() / (n_seen - 1)
    explained = (singular ** 2) / (n_seen - 1)
    if total_var > 0:
        ratio = explained / total_var
    else:
        ratio = np.zeros_like(explained)
    return IpcaModel(mean=mean, components=components, singular_values=singular,
                     explained_variance_ratio=ratio, n_seen=n_seen)


def reduce_to_variance(model: IpcaModel, points,
                       threshold: float = VARIANCE_THRESHOLD) -> tuple[np.ndarray, int]:
    """Project onto the smallest component prefix explaining >= threshold."""
    points = _validate_points(points)
    if points.shape[1] != model.n_cols:
        raise ClusteringError(
            f"points have {points.shape[1]} columns, model expects {model.n_cols}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    cum = np.cumsum(model.explained_variance_ratio)
    reached = np.nonzero(cum >= threshold)[0]
    if len(reached) == 0:
        raise ClusteringError(
            f"retained components explain only {cum[-1]:.6f} < {threshold} of variance")
    m = int(reached[0]) + 1
    reduced = (points - model.mean) @ model.components[:m].T
    return reduced, m


# --------------------------------------------------------------------------
# embedding file formats
# --------------------------------------------------------------------------

def load_embeddings(path, fmt: str = "text") -> EmbeddingMatrix:
    """Read an embedding matrix.

    Text format: first line `n_rows n_cols`, then one row of space-separated
    floats per line. Binary format: two little-endian uint64 (n_rows, n_cols)
    followed by n_rows*n_cols little-endian float32, row-major.
    """
    if fmt == "text":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise EmbeddingFormatError(f"{path}: header must be 'n_rows n_cols'")
            try:
                n_rows, n_cols = int(header[0]), int(header[1])
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}: bad header {header}") from exc
            values = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = line.split()
                if len(row) != n_cols:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: expected {n_cols} values, got {len(row)}")
                try:
                    values.append([float(v) for v in row])
                except ValueError as exc:
                    raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(values) != n_rows:
            raise EmbeddingFormatError(
                f"{path}: header declares {n_rows} rows, found {len(values)}")
        matrix = np.asarray(values, dtype=np.float64).reshape(n_rows, n_cols)
    elif fmt == "binary":
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise EmbeddingFormatError(f"{path}: truncated binary header")
            n_rows, n_cols = struct.unpack("<QQ", head)
            payload = fh.read()
        expected = n_rows * n_cols * 4
        if len(payload) != expected:
            raise EmbeddingFormatError(
                f"{path}: payload is {len(payload)} bytes, expected {expected}")
        matrix = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        matrix = matrix.reshape(n_rows, n_cols)
    else:
        raise ValueError("fmt must be 'text' or 'binary'")
    return EmbeddingMatrix(values=matrix)


def load_embedding_ids(path) -> list[str]:
    """Companion id list: one sentence id per line."""
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]
