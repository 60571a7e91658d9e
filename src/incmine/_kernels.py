"""Hot inner loops, one numpy implementation per kernel.

Itemset support counting packs item columns as uint64 bitsets over the
transactions, ANDs them per candidate in fixed-size blocks and counts with
``np.bitwise_count`` (numpy >= 2.0).

PAM (k-medoids) BUILD/SWAP, nearest-medoid assignment and the silhouette work
on a precomputed distance matrix. Equal computed costs break to the lowest
index; on non-integer data an exact tie may differ in its last bit as summed
here, and then rounding decides.

Readable scalar-loop references for every kernel live under ``tests/``
(``support_oracle.py``, ``pam_oracle.py``) and are checked against these.
"""

import numpy as np


# --------------------------------------------------------------------------
# itemset support counting
# --------------------------------------------------------------------------

# candidates ANDed per block; bounds the (chunk, n_words) uint64 scratch array
SUPPORT_CHUNK = 4096


def support_counts(presence, cands):
    """Transactions containing every item of each candidate.

    presence: (n_transactions, n_items) bool; cands: (n_cands, size) int64
    item indices. Each item column is packed into uint64 words over the
    transactions (a vertical bitset); a candidate's count is the popcount of
    the AND of its items' bitsets.
    """
    words = _item_bitsets(presence)
    out = np.empty(cands.shape[0], dtype=np.int64)
    for lo in range(0, cands.shape[0], SUPPORT_CHUNK):
        block = cands[lo:lo + SUPPORT_CHUNK]
        acc = words[block[:, 0]]
        for j in range(1, block.shape[1]):
            acc &= words[block[:, j]]
        out[lo:lo + block.shape[0]] = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    return out


def _item_bitsets(presence):
    """(n_items, n_words) uint64: bit t of item i's row is presence[t, i]."""
    packed = np.packbits(presence, axis=0, bitorder="little")  # (n_bytes, n_items)
    n_bytes = -(-packed.shape[0] // 8) * 8
    rows = np.zeros((presence.shape[1], n_bytes), dtype=np.uint8)
    rows[:, :packed.shape[0]] = packed.T
    return rows.view(np.uint64)


# --------------------------------------------------------------------------
# PAM (k-medoids) BUILD / SWAP on a precomputed distance matrix
# --------------------------------------------------------------------------

def pam_build(dist, k):
    """Greedy BUILD: k medoid indices, each the one that most lowers total cost."""
    n = dist.shape[0]
    medoids = np.empty(k, dtype=np.int64)
    j = int(np.argmin(dist.sum(axis=0)))  # argmin keeps the lowest index on ties
    medoids[0] = j
    chosen = np.zeros(n, dtype=bool)
    chosen[j] = True
    d_near = dist[:, j].copy()
    for m in range(1, k):
        costs = np.minimum(dist, d_near[:, None]).sum(axis=0)
        costs[chosen] = np.inf
        j = int(np.argmin(costs))
        medoids[m] = j
        chosen[j] = True
        np.minimum(d_near, dist[:, j], out=d_near)
    return medoids


def pam_swap(dist, medoids, max_iter):
    """Best-improvement SWAP passes until none helps; returns (medoids, passes)."""
    n = dist.shape[0]
    k = medoids.shape[0]
    medoids = medoids.copy()
    passes = 0
    if k >= n:
        return medoids, passes
    rows = np.arange(n)
    while passes < max_iter:
        sub = dist[:, medoids]
        order = np.argsort(sub, axis=1, kind="stable")
        n1 = order[:, 0]
        d1 = sub[rows, n1]
        d2 = sub[rows, order[:, 1]] if k > 1 else np.full(n, np.inf)
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        base = np.minimum(dist, d1[:, None]) - d1[:, None]
        base_total = base.sum(axis=0)
        deltas = np.empty((k, n))
        for m in range(k):
            mask = n1 == m
            own = (np.minimum(dist[mask], d2[mask, None]) - d1[mask, None]).sum(axis=0)
            deltas[m] = base_total - base[mask].sum(axis=0) + own
        deltas[:, is_medoid] = np.inf
        flat = int(np.argmin(deltas))  # C-order argmin: lowest m, then lowest h
        best_m, best_h = divmod(flat, n)
        if deltas[best_m, best_h] >= -1e-12:
            break
        medoids[best_m] = best_h
        passes += 1
    return medoids, passes


def assign_to_medoids(dist, medoids):
    """Nearest medoid position per point and its distance: (labels, d1)."""
    sub = dist[:, medoids]
    labels = np.argmin(sub, axis=1).astype(np.int64)
    d1 = sub[np.arange(sub.shape[0]), labels]
    return labels, d1.copy()


# --------------------------------------------------------------------------
# silhouette from a distance matrix
# --------------------------------------------------------------------------

def silhouette_samples_from_dist(dist, labels, k):
    """Per-point silhouette for labels in [0, k); singletons score 0."""
    n = dist.shape[0]
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[rows, labels] = 1.0
    counts = onehot.sum(axis=0)
    sums = dist @ onehot
    own = counts[labels]
    a = np.where(own > 1, sums[rows, labels] / np.maximum(own - 1, 1), 0.0)
    means = sums / np.maximum(counts, 1)[None, :]
    means[:, counts == 0] = np.inf
    means[rows, labels] = np.inf
    b = means.min(axis=1)
    finite = np.isfinite(b)
    denom = np.maximum(a, b)
    ok = finite & (denom > 0)
    s = np.zeros(n)
    np.divide(b - a, denom, out=s, where=ok)
    s[own <= 1] = 0.0
    return s
