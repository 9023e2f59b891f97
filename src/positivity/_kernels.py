"""The per-feature split scan used by tree building, in numpy.

Counts enter the arithmetic as exact integers, and the Gini expression
``1 - (p*p + q*q)`` is symmetric under class swap, which keeps
tie-breaking deterministic.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def scan_sorted_feature(values, labels):
    """Best threshold for one feature, vectorized.

    ``values`` is ascending and ``labels`` (0/1) is aligned with it.
    Returns ``(weighted_gini, threshold, found)`` where the score is the
    child-size-weighted Gini impurity of the best cut. Candidates are
    midpoints between consecutive distinct values; the lowest-scoring
    candidate wins, ties resolved toward the lowest threshold.
    """
    n = values.shape[0]
    if n < 2:
        return np.inf, 0.0, False
    cut = np.nonzero(values[:-1] != values[1:])[0]
    if cut.size == 0:
        return np.inf, 0.0, False
    cpos = np.cumsum(labels)
    total_pos = float(cpos[-1])
    nf = float(n)
    nl = (cut + 1).astype(np.float64)
    nr = nf - nl
    lp = cpos[cut].astype(np.float64)
    lneg = nl - lp
    rp = total_pos - lp
    rneg = nr - rp
    pl = lp / nl
    ql = lneg / nl
    gl = 1.0 - (pl * pl + ql * ql)
    pr = rp / nr
    qr = rneg / nr
    gr = 1.0 - (pr * pr + qr * qr)
    score = (nl * gl + nr * gr) / nf
    k = int(np.argmin(score))
    i = int(cut[k])
    return float(score[k]), 0.5 * (values[i] + values[i + 1]), True
