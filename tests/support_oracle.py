"""Scalar-loop support counter, the reference for ``_kernels.support_counts``.

One transaction and one item at a time, with no packing or vectorization, so
that it shares nothing with the bitset kernel it checks.
"""

import numpy as np


def support_counts_loop(presence, cands):
    """Transactions whose row holds every item of each candidate."""
    n_transactions = presence.shape[0]
    out = np.zeros(cands.shape[0], dtype=np.int64)
    for c, items in enumerate(cands.tolist()):
        for t in range(n_transactions):
            if all(presence[t, item] for item in items):
                out[c] += 1
    return out
