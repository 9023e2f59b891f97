"""Synthetic email-campaign datasets with planted positivity violations.

Covariates are drawn first, treatment is a Bernoulli draw on a sigmoid
of an affine score, and the carve is applied last. Because the carve
never consumes random numbers, a carved and an uncarved run with the
same seed agree everywhere outside the carved region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .propensity import _sigmoid

DEFAULT_COVARIATES = (
    ("profile_age", "uniform", (0.0, 3000.0)),
    ("days_since_last_email", "uniform", (0.0, 365.0)),
)

# profile_age in (1500, 1800] and days_since_last_email in (-1, 50];
# the -1 lower bound makes the second clause "at most 50 days" for a
# covariate that is never negative.
DEFAULT_CARVE = (
    ("profile_age", 1500.0, 1800.0),
    ("days_since_last_email", -1.0, 50.0),
)

_NOISE_PREFIX = "noise_"


@dataclass(frozen=True)
class CovariateSpec:
    """One covariate column: ``uniform`` over [a, b) or ``normal`` (mean, std)."""

    name: str
    kind: str = "uniform"
    params: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("covariate name must be non-empty")
        a, b = self.params
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"covariate {self.name!r}: non-finite params")
        if self.kind == "uniform":
            if not a < b:
                raise ValueError(
                    f"covariate {self.name!r}: uniform needs low < high"
                )
        elif self.kind == "normal":
            if not b > 0:
                raise ValueError(
                    f"covariate {self.name!r}: normal needs std > 0"
                )
        else:
            raise ValueError(f"covariate {self.name!r}: unknown kind {self.kind!r}")


def _default_covariates() -> tuple[CovariateSpec, ...]:
    return tuple(CovariateSpec(n, k, p) for n, k, p in DEFAULT_COVARIATES)


@dataclass(frozen=True)
class SynthSpec:
    """Generation recipe: covariates, treatment score, carved region.

    ``logit_weights`` aligns with covariates followed by noise columns;
    empty means all-zero, which gives a coin-flip treatment draw. The
    carve is a conjunction of per-feature (low, high] bounds; samples
    inside it are forced to control (``reassign``) or, with ``delete``,
    their treated members are dropped.
    """

    n: int = 20000
    seed: int = 0
    covariates: tuple[CovariateSpec, ...] = field(
        default_factory=_default_covariates
    )
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
        if len(set(names)) != len(names):
            raise ValueError("covariate names must be unique")
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
        own = tuple(c.name for c in self.covariates)
        noise = tuple(
            f"{_NOISE_PREFIX}{k}" for k in range(self.noise_covariates)
        )
        return own + noise


def carve_mask(
    spec: SynthSpec, features: np.ndarray, feature_names: tuple[str, ...]
) -> np.ndarray:
    """Rows inside the carved region (all-False when no carve is set)."""
    mask = np.zeros(features.shape[0], dtype=bool) if not spec.carve else None
    for name, low, high in spec.carve:
        col = features[:, feature_names.index(name)]
        clause = (col > low) & (col <= high)
        mask = clause if mask is None else (mask & clause)
    return mask


def generate(spec: SynthSpec, seed: int | None = None) -> Dataset:
    """Draw a dataset from ``spec``; ``seed`` overrides ``spec.seed``."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    names = spec.feature_names()
    columns = []
    for cov in spec.covariates:
        a, b = cov.params
        if cov.kind == "uniform":
            columns.append(rng.uniform(a, b, size=spec.n))
        else:
            columns.append(rng.normal(a, b, size=spec.n))
    for _ in range(spec.noise_covariates):
        columns.append(rng.standard_normal(spec.n))
    features = np.column_stack(columns)

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
    return Dataset(features, treatment, names)
