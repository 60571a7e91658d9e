"""Hot inner loops in numpy.

Itemset support counting packs item columns as uint64 bitsets over the
transactions, ANDs them per candidate in fixed-size blocks and counts with
``np.bitwise_count`` (numpy >= 2.0).

PAM (k-medoids) BUILD/SWAP, nearest-medoid assignment and the silhouette work
on a precomputed distance matrix. BUILD costs and SWAP deltas are computed
``PAM_ROWS`` rows of the matrix at a time, so their scratch stays in cache
instead of spanning n x n. Each column is still summed down the rows in
ascending order, carried from block to block, so every cost and delta is the
float the whole-matrix formula gives. (numpy sums a one-column block
pairwise, so a lone column is never summed on its own.) Equal computed costs
break to the lowest index; on non-integer data an exact tie may differ in
its last bit as summed here, and then rounding decides.

SWAP keeps FastPAM1's sums (``SwapSums``) from one pass to the next, and
``clustering.sweep_k`` from one k's first pass to the next k's, and
recomputes only what the new medoids changed. A medoid's group sums are
recomputed when one of its points, or their nearest or second-nearest
medoid distance, changed. The all-points sum is recomputed only in the
columns where a point whose nearest distance changed has a nonzero term
before or after: elsewhere both terms are +0.0, and the sequential sum keeps
its float. So the deltas of every pass are the floats a fresh computation
gives, and SWAP takes the same path.

The group sums have two routes, picked by what a pass changed. When every
group is dirty, one pass down ``dist`` reads each row block once, sums the
all-points total from it and adds each row's (lost, gained) pair to its
group's pair with one add. Otherwise each dirty group gathers its own rows a
block at a time, and the dirty total columns are summed apart. Each route is
the faster one where it is used: the one pass reads each row once instead of
three times, while per-row adds cost more than the gathers when few groups
are dirty. Both add a group's rows in ascending order, so they give the same
floats.

Readable scalar-loop references for every kernel live under ``tests/``
(``support_oracle.py``, ``pam_oracle.py``) and are checked against these.
"""

import copy

import numpy as np


# --------------------------------------------------------------------------
# itemset support counting
# --------------------------------------------------------------------------

# bytes of one block's (rows, n_words) uint64 scratch array: candidates are
# ANDed a block of rows at a time, at least one row per block
SUPPORT_BLOCK_BYTES = 4096 * 48 * 8


def support_counts(presence, cands):
    """Transactions containing every item of each candidate.

    presence: (n_transactions, n_items) bool; cands: (n_cands, size) int64
    item indices. Each item column is packed into uint64 words over the
    transactions (a vertical bitset); a candidate's count is the popcount of
    the AND of its items' bitsets.
    """
    words = _item_bitsets(presence)
    out = np.empty(cands.shape[0], dtype=np.int64)
    rows = max(1, SUPPORT_BLOCK_BYTES // max(1, words[:1].nbytes))
    for lo in range(0, cands.shape[0], rows):
        block = cands[lo:lo + rows]
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

# share of SWAP's dirty columns above which it sums all of ``total`` again
PAM_REFRESH_SHARE = 0.5


def _add_rows(acc, buf, rows):
    """acc += buf[1], buf[2], ..., buf[rows], one row after another.

    numpy sums a 2-D array with contiguous rows down axis 0 one row at a
    time, whatever the stride between rows, so carrying ``acc`` in as row 0
    goes on with the running column sums exactly as one ``sum(axis=0)`` over
    all the rows would.
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


def pam_swap(dist, medoids, max_iter, sums):
    """Best-improvement SWAP passes until none helps; returns (medoids, passes).

    ``sums``, a new ``SwapSums`` or that of earlier medoids on ``dist``,
    gives the first pass sums to start from. Once a pass has run it holds
    the sums of ``medoids`` as passed in, so the next call can start there.
    """
    n = dist.shape[0]
    k = medoids.shape[0]
    medoids = medoids.copy()
    passes = 0
    if k >= n:
        return medoids, passes
    while passes < max_iter:
        deltas = sums.deltas(dist, medoids)
        deltas[:, medoids] = np.inf
        flat = int(np.argmin(deltas))  # C-order argmin: lowest m, then lowest h
        best_m, best_h = divmod(flat, n)
        if deltas[best_m, best_h] >= -1e-12:
            break
        if passes == 0:
            sums = sums.copy()  # the caller's sums stay at the medoids it passed
        medoids[best_m] = best_h
        passes += 1
    return medoids, passes


class SwapSums:
    """FastPAM1's shared-pass sums (Schubert & Rousseeuw 2019) of one medoid set.

    With x = dist[i, h] - d1[i] (d1, d2: distance to the nearest and
    second-nearest medoid), the change of total cost when medoid position m
    is swapped for point h is ``total[h] - lost[m, h] + gained[m, h]``:
    ``total`` sums min(x, 0) over all points i (those nearer to h move to
    it), ``lost[m]`` sums the same over the points of m, and ``gained[m]``
    sums min(x, d2[i] - d1[i]) over them (they go to h or to their second
    medoid). These equal ``min(dist, d) - d1`` exactly, as subtraction and
    rounding are monotone, and every sum runs down ascending rows, so each
    delta is the float the whole-matrix ``sum(axis=0)`` formula gives.

    ``deltas`` moves the sums to another medoid set and recomputes only what
    that changed. A row's terms depend only on its dist row, d1 and d2 - d1,
    so a group row ``lost[m]``/``gained[m]`` whose points and their d1 and
    d2 - d1 are all bit for bit unchanged keeps its sums. A changed d1 alters
    row i's ``total`` term only in the columns where dist[i, h] is below the
    old or the new d1: elsewhere both terms are +0.0, so the sequential sum
    is the same float. When more than ``PAM_REFRESH_SHARE`` of the columns
    are dirty, all of ``total`` is summed again. When every group is dirty,
    ``_sum_all_rows`` sums ``total`` and every group in one pass down the
    rows; otherwise ``_sum_groups`` sums the dirty groups from their own
    rows and ``_sum_total`` the dirty columns. A new ``SwapSums`` holds no
    terms (d1 = -inf makes every term 0), so the first pass recomputes
    whatever its medoids make nonzero.
    """

    def __init__(self, n):
        self.n1 = np.full(n, -1)         # nearest medoid position; -1: none
        self.d1 = np.full(n, -np.inf)
        self.gap = np.full(n, np.inf)    # d2 - d1
        self.total = np.zeros(n)
        self.group_sums = np.zeros((0, 2, n))  # [m, 0]: lost[m], [m, 1]: gained[m]
        # row-block scratch of every pass, shared by copies: a fresh one per
        # pass would touch fresh pages whenever the heap was trimmed
        self.work = np.empty((PAM_ROWS + 1, 2, n))

    @property
    def lost(self):
        return self.group_sums[:, 0]

    @property
    def gained(self):
        return self.group_sums[:, 1]

    def copy(self):
        """A copy whose sums ``deltas`` can move without changing these."""
        other = copy.copy(self)  # n1, d1 and gap are replaced, never written
        other.total, other.group_sums = self.total.copy(), self.group_sums.copy()
        return other

    def deltas(self, dist, medoids):
        """(k, n) change of total cost when medoid position m is swapped for
        point h; leaves these sums at ``medoids``."""
        n = dist.shape[0]
        k = medoids.shape[0]
        rows = np.arange(n)
        sub = dist[:, medoids]
        n1 = np.argmin(sub, axis=1)  # the first nearest medoid on ties
        d1 = sub[rows, n1]
        sub[rows, n1] = np.inf
        gap = sub.min(axis=1) - d1  # inf when k == 1
        moved = d1 != self.d1
        changed = moved | (n1 != self.n1) | (gap != self.gap)
        dirty = np.zeros(k, dtype=bool)  # groups that gained, lost or changed a row
        dirty[n1[changed]] = True
        left = self.n1[changed]
        dirty[left[(left >= 0) & (left < k)]] = True
        if k != self.group_sums.shape[0]:
            self.group_sums = _resize_rows(self.group_sums, k)
        if dirty.all():
            _sum_all_rows(dist, n1, d1, gap, self.total, self.group_sums, self.work)
        else:
            _sum_groups(dist, n1, d1, gap, np.flatnonzero(dirty), self.group_sums, self.work)
            reach = np.maximum(self.d1[moved], d1[moved])
            cols = _dirty_columns(dist, np.flatnonzero(moved), reach)
            _sum_total(dist, d1, self.total, cols)
        self.n1, self.d1, self.gap = n1, d1, gap
        return self.total - self.lost + self.gained


def _sum_all_rows(dist, n1, d1, gap, total, group_sums, work):
    """``total`` and every group's (k, 2, n) ``group_sums`` again, in one pass.

    Each ``PAM_ROWS``-row slice of ``dist`` is read once into the (rows, 2,
    n) ``work`` block: each row's min(x, 0) in slot 0, its min(x, gap) in
    slot 1. The slot-0 rows go on ``total`` as ``_sum_total`` adds them (a
    strided ``sum(axis=0)`` still adds row after row), and each row's pair
    goes on its group's pair with one add, in ascending order, so every sum
    is the float ``_sum_groups`` gives.
    """
    n = dist.shape[0]
    total[:] = 0.0
    group_sums[:] = 0.0
    block_rows, pair_rows = list(work[1:]), list(group_sums)
    groups = n1.tolist()
    for lo in range(0, n, PAM_ROWS):
        hi = min(n, lo + PAM_ROWS)
        x = np.subtract(dist[lo:hi], d1[lo:hi, None], out=work[1:hi - lo + 1, 1])
        np.minimum(x, 0.0, out=work[1:hi - lo + 1, 0])
        _add_rows(total, work[:, 0], hi - lo)
        np.minimum(x, gap[lo:hi, None], out=x)
        for row, m in zip(block_rows, groups[lo:hi]):
            np.add(pair_rows[m], row, out=pair_rows[m])


def _sum_groups(dist, n1, d1, gap, groups, group_sums, work):
    """``group_sums[m]`` (lost, gained) again for each m of ``groups``, each
    from its own rows gathered ``PAM_ROWS`` at a time, ascending."""
    rows = work.reshape(-1, dist.shape[0])
    buf, scratch = rows[:PAM_ROWS + 1], rows[PAM_ROWS + 1:]
    for m in groups.tolist():
        own = np.flatnonzero(n1 == m)  # ascending rows
        lost_m, gained_m = group_sums[m]
        group_sums[m] = 0.0
        for lo in range(0, own.shape[0], PAM_ROWS):
            block = own[lo:lo + PAM_ROWS]
            r = block.shape[0]
            x = np.subtract(dist[block], d1[block, None], out=scratch[:r])
            np.minimum(x, 0.0, out=buf[1:r + 1])
            _add_rows(lost_m, buf, r)
            np.minimum(x, gap[block, None], out=buf[1:r + 1])
            _add_rows(gained_m, buf, r)


def _resize_rows(a, k):
    """``a`` cut or zero-padded to k rows."""
    out = np.zeros((k,) + a.shape[1:])
    keep = min(k, a.shape[0])
    out[:keep] = a[:keep]
    return out


def _dirty_columns(dist, rows, reach):
    """Columns h with dist[i, h] < reach[i] for some i of ``rows``, ascending;
    ``slice(None)`` once they are more than ``PAM_REFRESH_SHARE`` of all."""
    n = dist.shape[0]
    dirty = np.zeros(n, dtype=bool)
    for lo in range(0, rows.shape[0], PAM_ROWS):
        near = dist[rows[lo:lo + PAM_ROWS]] < reach[lo:lo + PAM_ROWS, None]
        dirty |= near.any(axis=0)
        if np.count_nonzero(dirty) > PAM_REFRESH_SHARE * n:
            return slice(None)
    cols = np.flatnonzero(dirty)
    if cols.shape[0] == 1:
        # numpy sums an (r, 1) block pairwise, not row after row; the second
        # column is clean, and summing it again gives the float it holds
        cols = np.array([cols[0], (cols[0] + 1) % n])
    return cols


def _sum_total(dist, d1, total, cols):
    """total[cols] = column sums of min(dist[:, cols] - d1, 0), rows ascending."""
    n = dist.shape[0]
    sums = np.zeros(total[cols].shape[0])
    if sums.shape[0] == 0:
        return
    buf = np.empty((PAM_ROWS + 1, sums.shape[0]))
    for lo in range(0, n, PAM_ROWS):
        hi = min(n, lo + PAM_ROWS)
        x = buf[1:hi - lo + 1]
        np.subtract(dist[lo:hi, cols], d1[lo:hi, None], out=x)
        np.minimum(x, 0.0, out=x)
        _add_rows(sums, buf, hi - lo)
    total[cols] = sums


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
