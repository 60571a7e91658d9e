"""Hot inner loops.

Itemset support counting has one implementation: item columns packed as
uint64 bitsets over the transactions, ANDed per candidate in fixed-size
blocks and counted with ``np.bitwise_count`` (numpy >= 2.0).

The PAM (k-medoids) and silhouette kernels still exist twice: a scalar-loop
version that numba JIT-compiles, and a vectorized pure-numpy fallback. Set
INCMINE_NO_NUMBA=1 to force the numpy path; when numba is not installed the
numpy path is used automatically. Both paths implement identical tie-breaking
(lowest index wins), so results agree except for last-ulp float summation
differences.
"""

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA and not os.environ.get("INCMINE_NO_NUMBA")


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

def _pam_build_loop(dist, k):
    n = dist.shape[0]
    medoids = np.empty(k, dtype=np.int64)
    best_j = 0
    best_tot = np.inf
    for j in range(n):
        tot = 0.0
        for i in range(n):
            tot += dist[i, j]
        if tot < best_tot:
            best_tot = tot
            best_j = j
    medoids[0] = best_j
    chosen = np.zeros(n, dtype=np.bool_)
    chosen[best_j] = True
    d_near = dist[:, best_j].copy()
    for m in range(1, k):
        best_j = -1
        best_cost = np.inf
        for j in range(n):
            if chosen[j]:
                continue
            cost = 0.0
            for i in range(n):
                dij = dist[i, j]
                cost += dij if dij < d_near[i] else d_near[i]
            if cost < best_cost:
                best_cost = cost
                best_j = j
        medoids[m] = best_j
        chosen[best_j] = True
        for i in range(n):
            if dist[i, best_j] < d_near[i]:
                d_near[i] = dist[i, best_j]
    return medoids


def _pam_build_np(dist, k):
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


def _pam_swap_loop(dist, medoids, max_iter):
    n = dist.shape[0]
    k = medoids.shape[0]
    medoids = medoids.copy()
    passes = 0
    if k >= n:
        return medoids, passes
    is_medoid = np.zeros(n, dtype=np.bool_)
    for m in range(k):
        is_medoid[medoids[m]] = True
    d1 = np.empty(n)
    d2 = np.empty(n)
    n1 = np.empty(n, dtype=np.int64)
    while passes < max_iter:
        for i in range(n):
            b1 = np.inf
            b2 = np.inf
            bj = -1
            for m in range(k):
                d = dist[i, medoids[m]]
                if d < b1:
                    b2 = b1
                    b1 = d
                    bj = m
                elif d < b2:
                    b2 = d
            d1[i] = b1
            d2[i] = b2
            n1[i] = bj
        # delta(m, h) = base_total[h] + correction for points losing medoid m;
        # one O(n^2) sweep builds both terms
        base_total = np.zeros(n)
        corr = np.zeros((k, n))
        for i in range(n):
            m = n1[i]
            d1i = d1[i]
            d2i = d2[i]
            for h in range(n):
                dih = dist[i, h]
                base = dih - d1i if dih < d1i else 0.0
                base_total[h] += base
                alt = dih if dih < d2i else d2i
                corr[m, h] += (alt - d1i) - base
        # delta < -1e-12 required: strict improvement, immune to float noise
        best_delta = -1e-12
        best_m = -1
        best_h = -1
        for m in range(k):
            for h in range(n):
                if is_medoid[h]:
                    continue
                delta = base_total[h] + corr[m, h]
                if delta < best_delta:
                    best_delta = delta
                    best_m = m
                    best_h = h
        if best_m < 0:
            break
        is_medoid[medoids[best_m]] = False
        is_medoid[best_h] = True
        medoids[best_m] = best_h
        passes += 1
    return medoids, passes


def _pam_swap_np(dist, medoids, max_iter):
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


def _assign_loop(dist, medoids):
    n = dist.shape[0]
    k = medoids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d1 = np.empty(n)
    for i in range(n):
        best = np.inf
        bj = -1
        for m in range(k):
            d = dist[i, medoids[m]]
            if d < best:
                best = d
                bj = m
        labels[i] = bj
        d1[i] = best
    return labels, d1


def _assign_np(dist, medoids):
    sub = dist[:, medoids]
    labels = np.argmin(sub, axis=1).astype(np.int64)
    d1 = sub[np.arange(sub.shape[0]), labels]
    return labels, d1.copy()


# --------------------------------------------------------------------------
# silhouette from a distance matrix
# --------------------------------------------------------------------------

def _silhouette_loop(dist, labels, k):
    n = dist.shape[0]
    counts = np.zeros(k, dtype=np.int64)
    for i in range(n):
        counts[labels[i]] += 1
    out = np.zeros(n)
    sums = np.empty(k)
    for i in range(n):
        for c in range(k):
            sums[c] = 0.0
        for j in range(n):
            sums[labels[j]] += dist[i, j]
        ci = labels[i]
        if counts[ci] <= 1:
            out[i] = 0.0
            continue
        a = sums[ci] / (counts[ci] - 1)
        b = np.inf
        for c in range(k):
            if c == ci or counts[c] == 0:
                continue
            mb = sums[c] / counts[c]
            if mb < b:
                b = mb
        if not np.isfinite(b):
            out[i] = 0.0
            continue
        denom = a if a > b else b
        out[i] = 0.0 if denom <= 0.0 else (b - a) / denom
    return out


def _silhouette_np(dist, labels, k):
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


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

if USE_NUMBA:
    _pam_build_jit = njit(cache=True)(_pam_build_loop)
    _pam_swap_jit = njit(cache=True)(_pam_swap_loop)
    _assign_jit = njit(cache=True)(_assign_loop)
    _silhouette_jit = njit(cache=True)(_silhouette_loop)

    pam_build = _pam_build_jit
    pam_swap = _pam_swap_jit
    assign_to_medoids = _assign_jit
    silhouette_samples_from_dist = _silhouette_jit
else:
    pam_build = _pam_build_np
    pam_swap = _pam_swap_np
    assign_to_medoids = _assign_np
    silhouette_samples_from_dist = _silhouette_np


def implementations():
    """Map kernel name -> (active, numpy fallback); used by tests."""
    return {
        "pam_build": (pam_build, _pam_build_np),
        "pam_swap": (pam_swap, _pam_swap_np),
        "assign_to_medoids": (assign_to_medoids, _assign_np),
        "silhouette_samples": (silhouette_samples_from_dist, _silhouette_np),
    }
