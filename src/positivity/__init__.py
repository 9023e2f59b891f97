"""Detect and explain positivity violations in observational data.

The pipeline fits a propensity model, histograms its scores per
treatment group, flags bins where one group is present and the other
is absent, tests those bins with multiplicity control, and explains
the flagged samples with per-group decision trees reduced to readable
threshold rules.
"""

from .data import Config, Dataset, load_csv, validate, write_csv
from .density import GroupHistograms, bin_indices, estimate_histograms
from .explain import (
    NO_VIOLATION_TEXT,
    Rule,
    RuleSet,
    extract_rules,
    render_report,
    render_text,
    ruleset_mask,
)
from .figures import emit_histogram_svg, render_histogram_svg
from .pipeline import AnalysisResult, DataError, analyze_dataset
from .propensity import (
    PropensityModel,
    PropensityResult,
    auc,
    expand_features,
    fit,
    fit_predict,
    log_loss,
    logistic_loss_grad,
    predict,
)
from .synth import CovariateSpec, SynthSpec, generate
from .tree import (
    ExplanationTree,
    TreeNode,
    best_split,
    build_tree,
    gini,
    prune,
    render_tree_text,
)
from .violation import (
    BinTest,
    ViolationReport,
    bh_fdr,
    detect,
    fisher_exact_test,
    two_proportion_test,
    violation_bins,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BinTest",
    "Config",
    "CovariateSpec",
    "DataError",
    "Dataset",
    "ExplanationTree",
    "GroupHistograms",
    "NO_VIOLATION_TEXT",
    "PropensityModel",
    "PropensityResult",
    "Rule",
    "RuleSet",
    "SynthSpec",
    "TreeNode",
    "ViolationReport",
    "__version__",
    "analyze_dataset",
    "auc",
    "best_split",
    "bh_fdr",
    "bin_indices",
    "build_tree",
    "detect",
    "emit_histogram_svg",
    "estimate_histograms",
    "expand_features",
    "extract_rules",
    "fisher_exact_test",
    "fit",
    "fit_predict",
    "generate",
    "gini",
    "load_csv",
    "log_loss",
    "logistic_loss_grad",
    "predict",
    "prune",
    "render_histogram_svg",
    "render_report",
    "render_text",
    "render_tree_text",
    "ruleset_mask",
    "two_proportion_test",
    "validate",
    "violation_bins",
    "write_csv",
]
