"""Workload definitions: the synthetic data recipe, the pinned analysis
settings and the ground truth each workload is scored against.

Every ``Config`` field is written out, so a change to a library default
cannot silently change what a workload measures. The data seed is the
benchmark's ``--seed``; the analysis seed (fold shuffle) is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from positivity import Config, Dataset, Rule, RuleSet, SynthSpec
from positivity.synth import DEFAULT_CARVE, carve_mask

TREATMENT_COLUMN = "treatment"

# what ``positivity analyze`` writes
REPORT_FILES = (
    "report.txt",
    "report.json",
    "histogram.svg",
    "tree_control.txt",
    "tree_treated.txt",
)

# Ground truth on confounded_raw adds the rows whose generator propensity
# lies outside [EPS, 1 - EPS]: there one group is expected fewer than
# once in 1/EPS rows, so a propensity-histogram detector should flag them.
EPS = 0.01

_NOISE = 8

# 11% of rows; the default carve's 1.4% is found on some seeds only once
# the in-sample fit has 1962 columns, so quality would swing by seed
WIDE_CARVE = (
    ("profile_age", 1000.0, 2000.0),
    ("days_since_last_email", -1.0, 120.0),
)


def _config(cross_fit_folds: int, propensity_bins: int) -> Config:
    return Config(
        bins=100,
        alpha=0.01,
        beta=0.9,
        gamma=0.01,
        noise_threshold=0,
        test_kind="z",
        max_depth=10,
        cross_fit_folds=cross_fit_folds,
        seed=0,
        propensity_bins=propensity_bins,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: SynthSpec
    config: Config
    # generator propensity band outside which rows count as violating;
    # None means the carve alone is the ground truth
    eps: float | None = None

    def sized(self, n: int) -> "Workload":
        """The same workload at another sample count (smoke runs)."""
        return replace(self, spec=replace(self.spec, n=n))

    def ground_truth(self, dataset: Dataset) -> np.ndarray:
        """Rows the generator made violating (carve, plus the band)."""
        truth = carve_mask(self.spec, dataset.features, dataset.feature_names)
        if self.eps is not None:
            logit = self.spec.logit_intercept + dataset.features @ np.asarray(
                self.spec.logit_weights, dtype=np.float64
            )
            lo = np.log(self.eps / (1.0 - self.eps))
            truth = truth | (logit < lo) | (logit > -lo)
        return truth


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted_xfit",
            why=(
                "README design with 5-fold cross-fitting: the fit runs as k "
                "fits plus k held-out predicts, so per-fit costs show 5x"
            ),
            spec=SynthSpec(n=20000, carve=DEFAULT_CARVE, carve_mode="reassign"),
            config=_config(cross_fit_folds=5, propensity_bins=16),
        ),
        Workload(
            name="wide_d10",
            why=(
                "8 noise covariates hit the 2048-column expansion cap: the "
                "dense in-sample fit dominates time and sets peak memory"
            ),
            spec=SynthSpec(
                n=10000, noise_covariates=_NOISE, carve=WIDE_CARVE,
                carve_mode="reassign",
            ),
            config=_config(cross_fit_folds=1, propensity_bins=16),
        ),
        Workload(
            name="confounded_raw",
            why=(
                "large n, strong confounding, no expansion: CSV load and "
                "tree growth dominate, the fit is small"
            ),
            spec=SynthSpec(
                n=50000,
                noise_covariates=_NOISE,
                # the diagonal boundary -0.4 + 0.01 age - 0.08 days = 0,
                # ten times as steep: at the unscaled slope which extreme
                # histogram bins come out empty changes from seed to seed
                logit_intercept=-4.0,
                logit_weights=(0.1, -0.8) + (0.0,) * _NOISE,
                carve=DEFAULT_CARVE,
                carve_mode="reassign",
            ),
            config=_config(cross_fit_folds=1, propensity_bins=0),
            eps=EPS,
        ),
    )
}


def rulesets_from_report(doc: dict) -> list[RuleSet]:
    """The rule sets a parsed report.json lists, as RuleSet objects."""
    return [
        RuleSet(
            rules=tuple(Rule(**rule) for rule in rs["rules"]),
            group=group["group"],
            n_pos=rs["n_pos"],
            n_neg=rs["n_neg"],
            coverage=rs["coverage"],
        )
        for group in doc["groups"]
        for rs in group["rulesets"]
    ]
