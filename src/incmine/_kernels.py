"""Hot inner loops, one numpy implementation per kernel.

Itemset support counting packs item columns as uint64 bitsets over the
transactions, ANDs them per candidate in fixed-size blocks and counts with
``np.bitwise_count`` (numpy >= 2.0).

PAM (k-medoids) BUILD/SWAP, nearest-medoid assignment and the silhouette work
on a precomputed distance matrix. BUILD costs and SWAP deltas are computed
``PAM_ROWS`` rows of the matrix at a time, so their scratch stays in cache
instead of spanning n x n. Each column is still summed down the rows in
ascending order, carried from block to block, so every cost and delta is the
float the whole-matrix formula gives. (Blocks run over rows, not columns:
numpy sums an (n, 1) block pairwise, so a one-column block would change the
floats.) Equal computed costs break to the lowest index; on non-integer data
an exact tie may differ in its last bit as summed here, and then rounding
decides.

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

# rows of ``dist`` per BUILD/SWAP block; bounds their (rows, n) scratch arrays
PAM_ROWS = 32


def _add_rows(acc, buf, rows):
    """acc += buf[1], buf[2], ..., buf[rows], one row after another.

    numpy sums a C-ordered array down axis 0 one row at a time, so carrying
    ``acc`` in as row 0 goes on with the running column sums exactly as one
    ``sum(axis=0)`` over all the rows would.
    """
    buf[0] = acc
    buf[:rows + 1].sum(axis=0, out=acc)


def pam_build(dist, k):
    """Greedy BUILD: k medoid indices, each the one that most lowers total cost.

    Each step only adds to the medoids before it, so ``pam_build(dist, k)`` is
    ``pam_build(dist, k_hi)[:k]`` for every k <= k_hi.
    """
    n = dist.shape[0]
    medoids = np.empty(k, dtype=np.int64)
    j = int(np.argmin(dist.sum(axis=0)))  # argmin keeps the lowest index on ties
    medoids[0] = j
    chosen = np.zeros(n, dtype=bool)
    chosen[j] = True
    d_near = dist[:, j].copy()
    for m in range(1, k):
        costs = _build_costs(dist, d_near)
        costs[chosen] = np.inf
        j = int(np.argmin(costs))
        medoids[m] = j
        chosen[j] = True
        np.minimum(d_near, dist[:, j], out=d_near)
    return medoids


def _build_costs(dist, d_near):
    """Total cost with each point added as a medoid, one row block at a time.

    Bit for bit ``np.minimum(dist, d_near[:, None]).sum(axis=0)``.
    """
    n = dist.shape[0]
    buf = np.empty((PAM_ROWS + 1, n))
    costs = np.zeros(n)
    for lo in range(0, n, PAM_ROWS):
        hi = min(n, lo + PAM_ROWS)
        np.minimum(dist[lo:hi], d_near[lo:hi, None], out=buf[1:hi - lo + 1])
        _add_rows(costs, buf, hi - lo)
    return costs


def pam_swap(dist, medoids, max_iter):
    """Best-improvement SWAP passes until none helps; returns (medoids, passes)."""
    n = dist.shape[0]
    k = medoids.shape[0]
    medoids = medoids.copy()
    passes = 0
    if k >= n:
        return medoids, passes
    while passes < max_iter:
        deltas = _swap_deltas(dist, medoids)
        deltas[:, medoids] = np.inf
        flat = int(np.argmin(deltas))  # C-order argmin: lowest m, then lowest h
        best_m, best_h = divmod(flat, n)
        if deltas[best_m, best_h] >= -1e-12:
            break
        medoids[best_m] = best_h
        passes += 1
    return medoids, passes


def _swap_deltas(dist, medoids):
    """(k, n) change of total cost when medoid position m is swapped for point h.

    FastPAM1's shared pass (Schubert & Rousseeuw 2019). With x = dist[i, h] -
    d1[i] (d1, d2: distance to the nearest and second-nearest medoid), the
    change is the sum of min(x, 0) over all points i (those nearer to h move
    to it), minus that sum over the points of m, plus the sum of min(x, d2[i]
    - d1[i]) over them (they go to h or to their second medoid). These equal
    ``min(dist, d) - d1`` exactly, as subtraction and rounding are monotone,
    and every sum runs down ascending rows, so each delta is the float the
    whole-matrix ``sum(axis=0)`` formula gives.
    """
    n = dist.shape[0]
    k = medoids.shape[0]
    rows = np.arange(n)
    sub = dist[:, medoids]
    n1 = np.argmin(sub, axis=1)  # the first nearest medoid on ties
    d1 = sub[rows, n1][:, None]
    sub[rows, n1] = np.inf
    gap = sub.min(axis=1, keepdims=True) - d1  # inf when k == 1
    buf = np.empty((PAM_ROWS + 1, n))
    total = np.zeros(n)
    for lo in range(0, n, PAM_ROWS):
        hi = min(n, lo + PAM_ROWS)
        x = buf[1:hi - lo + 1]
        np.subtract(dist[lo:hi], d1[lo:hi], out=x)
        np.minimum(x, 0.0, out=x)
        _add_rows(total, buf, hi - lo)
    lost = np.zeros((k, n))
    gained = np.zeros((k, n))
    scratch = np.empty((PAM_ROWS, n))
    by_medoid = np.argsort(n1, kind="stable")  # rows of each medoid, ascending
    counts = np.bincount(n1, minlength=k)
    ends = np.cumsum(counts)
    for m in range(k):
        for lo in range(ends[m] - counts[m], ends[m], PAM_ROWS):
            own = by_medoid[lo:min(ends[m], lo + PAM_ROWS)]
            r = own.shape[0]
            x = np.subtract(dist[own], d1[own], out=scratch[:r])
            np.minimum(x, 0.0, out=buf[1:r + 1])
            _add_rows(lost[m], buf, r)
            np.minimum(x, gap[own], out=buf[1:r + 1])
            _add_rows(gained[m], buf, r)
    return total - lost + gained


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
