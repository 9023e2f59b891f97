"""End-to-end orchestration: dataset in, verdict and explanations out.

The propensity model is fit on an expanded design (bin indicators and
pairwise cells, see :func:`positivity.propensity.expand_features`) so
that interior covariate regions with missing treatment mass produce
separated scores. Histograms, tests, and labels run on those scores;
the explanation trees are always trained on the raw features, which is
what keeps the extracted rules readable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .data import Config, Dataset, validate
from .density import GroupHistograms, estimate_histograms
from .explain import RuleSet, extract_rules
from .propensity import PropensityResult, expand_features, fit_predict
from .tree import ExplanationTree, build_tree, prune
from .violation import ViolationReport, detect

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Raised when a dataset fails semantic validation."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = tuple(diagnostics)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analysis produced, ready for rendering."""

    config: Config
    dataset: Dataset
    propensity: PropensityResult
    histograms: GroupHistograms
    report: ViolationReport
    trees: tuple[ExplanationTree | None, ExplanationTree | None]
    rulesets: tuple[RuleSet, ...]

    @property
    def violation_detected(self) -> bool:
        return self.report.violation_detected


def analyze_dataset(dataset: Dataset, config: Config = Config()) -> AnalysisResult:
    """Run the full detection and explanation chain on one dataset."""
    diagnostics = validate(dataset)
    if diagnostics:
        raise DataError(diagnostics)

    if config.propensity_bins > 0:
        model_input = expand_features(dataset, bins=config.propensity_bins)
    else:
        model_input = dataset
    logger.info(
        "propensity design: %d columns (%d raw)", model_input.d, dataset.d
    )
    propensity = fit_predict(model_input, config)
    logger.info(
        "propensity fit: auc=%.4f log_loss=%.4f", propensity.auc,
        propensity.log_loss,
    )

    histograms = estimate_histograms(
        propensity.scores, dataset.treatment, config.bins
    )
    report = detect(histograms, config, propensity.scores, dataset.treatment)
    logger.info(
        "detection: %d suspected bins, %d significant, verdict=%s",
        len(report.suspected), int(report.bin_mask.sum()),
        "violation" if report.violation_detected else "clean",
    )

    trees: list[ExplanationTree | None] = [None, None]
    rulesets: list[RuleSet] = []
    for group, labels in ((0, report.sample_labels0), (1, report.sample_labels1)):
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == labels.size:
            if n_pos:
                logger.info(
                    "group %d: all %d samples labeled, no tree", group, n_pos
                )
            continue
        grown = build_tree(
            dataset.features[dataset.treatment == group],
            labels,
            config,
            feature_names=dataset.feature_names,
            group=group,
            pruned=True,
        )
        # the identity on a pre-pruned tree; perfbench/worker.py wraps
        # pipeline.prune by name, so the call stays
        pruned = prune(grown, config.beta, config.gamma)
        trees[group] = pruned
        rulesets.extend(extract_rules(pruned, config.beta))

    return AnalysisResult(
        config=config,
        dataset=dataset,
        propensity=propensity,
        histograms=histograms,
        report=report,
        trees=(trees[0], trees[1]),
        rulesets=tuple(rulesets),
    )
