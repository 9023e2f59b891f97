"""Suspected-bin selection, per-bin tests, FDR correction, and verdict.

A bin is suspected when, after zeroing counts at or below the noise
threshold, exactly one treatment group is present in it. Each suspected
bin is tested for a difference in bin-membership proportions between
groups, the p-values are corrected with the Benjamini-Hochberg step-up
over the suspected bins only, and the positivity hypothesis is rejected
when any corrected p-value stays below alpha.

Conventions, fixed here and relied on by callers:

* two-sided p-values throughout;
* a bin empty in both groups tests at p = 1.0;
* the pooled two-proportion z statistic uses the combined proportion in
  its standard error, and the normal tail is computed via the error
  function (``erfc``), accurate to well below 1e-12;
* Fisher's exact test sums hypergeometric probabilities of all tables
  with the observed margins whose probability does not exceed the
  observed table's (a relative slack of 1e-7 keeps exact rational ties
  together despite log-space rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import Config
from .density import GroupHistograms, bin_indices

_SQRT2 = math.sqrt(2.0)
_LOG_TIE_SLACK = 1e-7

# log k! for k in [0, len); rebuilt whole when it grows. A sequential
# cumsum's prefix does not depend on its length, so no entry depends on
# the sizes asked for before. Supports n up to ~1e7 (about 80 MB).
_LOG_FACT = np.zeros(1, dtype=np.float64)


def _log_factorials(n: int) -> NDArray[np.float64]:
    global _LOG_FACT
    if n >= _LOG_FACT.shape[0]:
        grown = np.zeros(n + 1, dtype=np.float64)
        logs = np.log(np.arange(1, n + 1, dtype=np.float64))
        np.cumsum(logs, out=grown[1:])
        _LOG_FACT = grown
    return _LOG_FACT


@dataclass(frozen=True)
class BinTest:
    """Outcome of one suspected-bin proportion test."""

    index: int
    k0: int
    k1: int
    p_raw: float
    p_adj: float
    significant: bool


@dataclass(frozen=True)
class ViolationReport:
    """Detection outcome over all bins plus per-sample labels.

    ``bin_mask[i]`` is True when bin i is suspected and stays
    significant after FDR correction. ``sample_labels0`` and
    ``sample_labels1`` flag the samples of each group (in dataset row
    order restricted to that group) that sit in a significant bin where
    their own group's count exceeds the noise threshold.
    """

    bins: int
    suspected: tuple[int, ...]
    tests: tuple[BinTest, ...]
    bin_mask: NDArray[np.bool_]
    sample_labels0: NDArray[np.bool_]
    sample_labels1: NDArray[np.bool_]
    alpha: float

    def __post_init__(self) -> None:
        for field_name in ("bin_mask", "sample_labels0", "sample_labels1"):
            arr = np.array(getattr(self, field_name), dtype=bool, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)

    @property
    def violation_detected(self) -> bool:
        return bool(self.bin_mask.any())


def violation_bins(hist: GroupHistograms, noise_threshold: int = 0) -> list[int]:
    """Bins where exactly one group is present above the noise threshold.

    Counts at or below ``noise_threshold`` are treated as zero, so with
    the default 0 this is the exclusive-or of plain bin occupancy.
    """
    if noise_threshold < 0:
        raise ValueError("noise_threshold must be >= 0")
    present0 = hist.counts0 > noise_threshold
    present1 = hist.counts1 > noise_threshold
    return [int(i) for i in np.nonzero(present0 ^ present1)[0]]


def _check_counts(k0: int, n0: int, k1: int, n1: int) -> None:
    if n0 < 1 or n1 < 1:
        raise ValueError(f"group sizes must be >= 1, got n0={n0}, n1={n1}")
    if not 0 <= k0 <= n0 or not 0 <= k1 <= n1:
        raise ValueError(
            f"counts out of range: k0={k0} of n0={n0}, k1={k1} of n1={n1}"
        )


def two_proportion_test(k0: int, n0: int, k1: int, n1: int) -> float:
    """Two-sided pooled two-proportion z-test p-value.

    Tests whether the share of group-0 samples falling in a bin (k0 of
    n0) differs from the group-1 share (k1 of n1). Returns 1.0 when
    both counts are zero.
    """
    _check_counts(k0, n0, k1, n1)
    if k0 + k1 == 0:
        return 1.0
    pooled = (k0 + k1) / (n0 + n1)
    if pooled >= 1.0:
        # both groups entirely inside the bin, proportions equal
        return 1.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n0 + 1.0 / n1))
    z = (k0 / n0 - k1 / n1) / se
    return math.erfc(abs(z) / _SQRT2)


def fisher_exact_test(k0: int, n0: int, k1: int, n1: int) -> float:
    """Two-sided Fisher exact p-value for a 2x2 table with fixed margins.

    The table is (in-bin, out-of-bin) x (group 0, group 1). All tables
    with the observed margins whose hypergeometric probability is at
    most the observed table's are summed. Factorials are evaluated in
    log space from a cached table, so group sizes up to about 1e7 are
    supported (the cache grows to the largest total seen).
    """
    _check_counts(k0, n0, k1, n1)
    if k0 + k1 == 0:
        return 1.0
    total = n0 + n1
    in_bin = k0 + k1
    lf = _log_factorials(total)
    lo = max(0, in_bin - n1)
    hi = min(in_bin, n0)
    k = np.arange(lo, hi + 1, dtype=np.int64)
    # log C(n0, k) + log C(n1, in_bin - k) - log C(total, in_bin)
    log_p = (
        lf[n0] - lf[k] - lf[n0 - k]
        + lf[n1] - lf[in_bin - k] - lf[n1 - in_bin + k]
        - (lf[total] - lf[in_bin] - lf[total - in_bin])
    )
    observed = log_p[k0 - lo]
    p = float(np.exp(log_p[log_p <= observed + _LOG_TIE_SLACK]).sum())
    return min(p, 1.0)


def bh_fdr(pvalues) -> NDArray[np.float64]:
    """Benjamini-Hochberg adjusted p-values.

    For sorted p-values, the adjusted value at rank k is
    ``min over j >= k of min(1, m * p(j) / j)``. Output is aligned with
    the input order; empty input yields an empty array.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("pvalues must be one-dimensional")
    if p.size == 0:
        return np.empty(0, dtype=np.float64)
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("p-values must lie in [0, 1]")
    m = p.shape[0]
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1, dtype=np.float64)
    adjusted_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    np.minimum(adjusted_sorted, 1.0, out=adjusted_sorted)
    adjusted = np.empty(m, dtype=np.float64)
    adjusted[order] = adjusted_sorted
    return adjusted


def detect(
    hist: GroupHistograms,
    config: Config,
    scores: NDArray[np.float64],
    treatment: NDArray[np.int64],
) -> ViolationReport:
    """Run suspected-bin tests and build the violation report.

    ``scores`` and ``treatment`` must be the vectors the histograms were
    built from; they are used to attach per-sample labels. The FDR
    correction runs over the suspected bins only, so the number of tests
    equals the number of suspected bins.
    """
    scores = np.asarray(scores, dtype=np.float64)
    treatment = np.asarray(treatment)
    mask0 = treatment == 0
    mask1 = treatment == 1
    if int(mask0.sum()) != hist.n0 or int(mask1.sum()) != hist.n1:
        raise ValueError(
            "scores/treatment do not match the histogram group sizes"
        )
    suspected = violation_bins(hist, config.noise_threshold)
    test = two_proportion_test if config.test_kind == "z" else fisher_exact_test
    p_raw = np.array(
        [
            test(int(hist.counts0[i]), hist.n0, int(hist.counts1[i]), hist.n1)
            for i in suspected
        ],
        dtype=np.float64,
    )
    p_adj = bh_fdr(p_raw)
    bin_mask = np.zeros(hist.bins, dtype=bool)
    tests = []
    for j, i in enumerate(suspected):
        significant = bool(p_adj[j] < config.alpha)
        bin_mask[i] = significant
        tests.append(
            BinTest(
                index=i,
                k0=int(hist.counts0[i]),
                k1=int(hist.counts1[i]),
                p_raw=float(p_raw[j]),
                p_adj=float(p_adj[j]),
                significant=significant,
            )
        )
    idx = bin_indices(scores, hist.bins)
    tau = config.noise_threshold
    labels0 = bin_mask[idx[mask0]] & (hist.counts0[idx[mask0]] > tau)
    labels1 = bin_mask[idx[mask1]] & (hist.counts1[idx[mask1]] > tau)
    return ViolationReport(
        bins=hist.bins,
        suspected=tuple(suspected),
        tests=tuple(tests),
        bin_mask=bin_mask,
        sample_labels0=labels0,
        sample_labels1=labels1,
        alpha=config.alpha,
    )
