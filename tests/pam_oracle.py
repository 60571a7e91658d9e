"""Scalar-loop PAM and silhouette kernels, the reference for ``_kernels``.

One point, one medoid and one candidate at a time, with no vectorization, so
that they share nothing with the numpy kernels they check. Ties break to the
lowest index, as in the kernels: BUILD and SWAP keep the first candidate with
a strictly smaller cost, and assignment keeps the first nearest medoid.
"""

import numpy as np


def pam_build_loop(dist, k):
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


def pam_swap_loop(dist, medoids, max_iter):
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


def assign_loop(dist, medoids):
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


def silhouette_loop(dist, labels, k):
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
