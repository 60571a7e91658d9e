"""Whole-matrix numpy formulas, the float-exact reference for the blocked code.

``clustering.pairwise_distances`` and the BUILD/SWAP kernels in ``_kernels``
work in chunks, tiles and row blocks so that no n x n temporary is built.
They must still give the same floats, bit for bit, as these straightforward
versions, which build every n x n intermediate at once.
"""

import numpy as np

# float64 elements of the row-difference scratch (128 MB)
_CHUNK_BUDGET = 16_000_000


def pairwise_distances(points, metric="euclidean"):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if metric == "euclidean":
        d = np.empty((n, n))
        step = max(1, _CHUNK_BUDGET // max(1, n * points.shape[1]))
        for start in range(0, n, step):
            stop = min(n, start + step)
            diff = points[start:stop, None, :] - points[None, :, :]
            d[start:stop] = np.sqrt((diff * diff).sum(axis=2))
    else:
        norms = np.linalg.norm(points, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        unit = points / safe[:, None]
        sim = np.clip(unit @ unit.T, -1.0, 1.0)
        zero = norms == 0.0
        if zero.any():
            sim[zero, :] = 0.0
            sim[:, zero] = 0.0
            sim[np.ix_(zero, zero)] = 1.0
        d = 1.0 - sim
    d = (d + d.T) * 0.5
    np.fill_diagonal(d, 0.0)
    return d


def build_costs(dist, d_near):
    """Total cost with each point added to medoids at distance ``d_near``."""
    return np.minimum(dist, d_near[:, None]).sum(axis=0)


def swap_deltas(dist, medoids):
    """(k, n) change of total cost when medoid position m is swapped for point h."""
    n = dist.shape[0]
    k = medoids.shape[0]
    rows = np.arange(n)
    sub = dist[:, medoids]
    order = np.argsort(sub, axis=1, kind="stable")
    n1 = order[:, 0]
    d1 = sub[rows, n1]
    d2 = sub[rows, order[:, 1]] if k > 1 else np.full(n, np.inf)
    base = np.minimum(dist, d1[:, None]) - d1[:, None]
    base_total = base.sum(axis=0)
    deltas = np.empty((k, n))
    for m in range(k):
        mask = n1 == m
        own = (np.minimum(dist[mask], d2[mask, None]) - d1[mask, None]).sum(axis=0)
        deltas[m] = base_total - base[mask].sum(axis=0) + own
    return deltas
