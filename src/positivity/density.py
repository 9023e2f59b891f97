"""Histogram density estimation of propensity scores per treatment group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class GroupHistograms:
    """Per-group bin counts over [0, 1] with ``bins`` equal-width bins."""

    bins: int
    counts0: NDArray[np.int64]
    counts1: NDArray[np.int64]
    n0: int
    n1: int

    def __post_init__(self) -> None:
        c0 = np.array(self.counts0, dtype=np.int64, copy=True)
        c1 = np.array(self.counts1, dtype=np.int64, copy=True)
        if c0.shape != (self.bins,) or c1.shape != (self.bins,):
            raise ValueError(
                f"count arrays must have shape ({self.bins},), got "
                f"{c0.shape} and {c1.shape}"
            )
        if (c0 < 0).any() or (c1 < 0).any():
            raise ValueError("negative bin count")
        if int(c0.sum()) != self.n0 or int(c1.sum()) != self.n1:
            raise ValueError("bin counts do not sum to group sizes")
        c0.setflags(write=False)
        c1.setflags(write=False)
        object.__setattr__(self, "counts0", c0)
        object.__setattr__(self, "counts1", c1)


def bin_indices(scores: NDArray[np.float64], bins: int) -> NDArray[np.int64]:
    """Bin of each score in [0, 1]: floor(score * bins), clamped so 1.0
    lands in the last bin. Bins are half-open except the closed last one.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        bad = scores[(scores < 0.0) | (scores > 1.0)][0]
        raise ValueError(f"score {bad} outside [0, 1]")
    idx = (scores * bins).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    return idx


def estimate_histograms(
    scores: NDArray[np.float64],
    treatment: NDArray[np.int64],
    bins: int,
) -> GroupHistograms:
    """Bin scores into per-group histograms.

    Both groups must be non-empty and scores must lie in [0, 1]. Counts
    sum to the group sizes; sample order does not matter.
    """
    scores = np.asarray(scores, dtype=np.float64)
    treatment = np.asarray(treatment)
    if scores.shape != treatment.shape:
        raise ValueError(
            f"scores shape {scores.shape} does not match treatment "
            f"shape {treatment.shape}"
        )
    idx = bin_indices(scores, bins)
    if scores.size == 0:
        raise ValueError("no samples")
    mask1 = treatment == 1
    mask0 = treatment == 0
    if not mask0.any():
        raise ValueError("control group (treatment == 0) is empty")
    if not mask1.any():
        raise ValueError("treated group (treatment == 1) is empty")
    return GroupHistograms(
        bins=bins,
        counts0=np.bincount(idx[mask0], minlength=bins),
        counts1=np.bincount(idx[mask1], minlength=bins),
        n0=int(mask0.sum()),
        n1=int(mask1.sum()),
    )
