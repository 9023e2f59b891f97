"""Synthetic email-campaign datasets with planted positivity violations.

Covariates are drawn first, treatment is a Bernoulli draw on a sigmoid
of an affine score, and the carve is applied last. Because the carve
never consumes random numbers, a carved and an uncarved run with the
same seed agree everywhere outside the carved region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .propensity import _sigmoid

# profile_age in (1500, 1800] and days_since_last_email in (-1, 50];
# the -1 lower bound makes the second clause "at most 50 days" for a
# covariate that is never negative.
DEFAULT_CARVE = (
    ("profile_age", 1500.0, 1800.0),
    ("days_since_last_email", -1.0, 50.0),
)

_NOISE_PREFIX = "noise_"


@dataclass(frozen=True)
class SynthSpec:
    """Generation recipe: covariates, treatment score, carved region.

    The covariates are ``profile_age``, uniform over [0, 3000), and
    ``days_since_last_email``, uniform over [0, 365), followed by
    ``noise_covariates`` standard-normal columns named ``noise_k``.
    ``logit_weights`` aligns with those columns in that order; empty
    means all-zero, which gives a coin-flip treatment draw. The
    carve is a conjunction of per-feature (low, high] bounds; samples
    inside it are forced to control (``reassign``) or, with ``delete``,
    their treated members are dropped.
    """

    n: int = 20000
    noise_covariates: int = 0
    logit_intercept: float = 0.0
    logit_weights: tuple[float, ...] = ()
    carve: tuple[tuple[str, float, float], ...] = DEFAULT_CARVE
    carve_mode: str = "reassign"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.noise_covariates < 0:
            raise ValueError("noise_covariates must be non-negative")
        if self.carve_mode not in ("reassign", "delete"):
            raise ValueError(
                f"carve_mode must be 'reassign' or 'delete', got"
                f" {self.carve_mode!r}"
            )
        names = self.feature_names()
        if self.logit_weights and len(self.logit_weights) != len(names):
            raise ValueError(
                f"logit_weights has {len(self.logit_weights)} entries for"
                f" {len(names)} covariates"
            )
        if not math.isfinite(self.logit_intercept) or any(
            not math.isfinite(w) for w in self.logit_weights
        ):
            raise ValueError("logit coefficients must be finite")
        seen_carve: set[str] = set()
        for name, low, high in self.carve:
            if name not in names:
                raise ValueError(f"carve references unknown feature {name!r}")
            if name in seen_carve:
                raise ValueError(f"carve bounds feature {name!r} twice")
            seen_carve.add(name)
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(f"carve bounds for {name!r} must be finite")
            if not low < high:
                raise ValueError(
                    f"carve bounds for {name!r} must satisfy low < high"
                )

    def feature_names(self) -> tuple[str, ...]:
        noise = tuple(
            f"{_NOISE_PREFIX}{k}" for k in range(self.noise_covariates)
        )
        return ("profile_age", "days_since_last_email") + noise


def carve_mask(
    spec: SynthSpec, features: np.ndarray, feature_names: tuple[str, ...]
) -> np.ndarray:
    """Rows inside the carved region (all-False when no carve is set)."""
    mask = np.full(features.shape[0], bool(spec.carve))
    for name, low, high in spec.carve:
        col = features[:, feature_names.index(name)]
        mask &= (col > low) & (col <= high)
    return mask


def generate(spec: SynthSpec, seed: int = 0) -> Dataset:
    """Draw a dataset from ``spec`` with the generator seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    names = spec.feature_names()
    # one column at a time into the matrix the Dataset keeps, with the
    # draws in the order of the columns
    features = np.empty((spec.n, len(names)), dtype=np.float64)
    features[:, 0] = rng.uniform(0.0, 3000.0, spec.n)
    features[:, 1] = rng.uniform(0.0, 365.0, spec.n)
    for j in range(2, len(names)):
        features[:, j] = rng.standard_normal(spec.n)

    logit = np.full(spec.n, spec.logit_intercept, dtype=np.float64)
    if spec.logit_weights:
        logit += features @ np.asarray(spec.logit_weights, dtype=np.float64)
    treatment = (rng.random(spec.n) < _sigmoid(logit)).astype(np.int64)

    inside = carve_mask(spec, features, names)
    if spec.carve_mode == "reassign":
        treatment[inside] = 0
    else:
        keep = ~(inside & (treatment == 1))
        features = features[keep]
        treatment = treatment[keep]
    return Dataset._adopt(features, treatment, names)
