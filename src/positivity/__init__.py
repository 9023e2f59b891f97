"""Detect and explain positivity violations in observational data.

The pipeline fits a propensity model, histograms its scores per
treatment group, flags bins where one group is present and the other
is absent, tests those bins with multiplicity control, and explains
the flagged samples with per-group decision trees reduced to readable
threshold rules.
"""

from .data import Config, Dataset, load_csv, write_csv
from .explain import Rule, RuleSet, render_report, render_text, ruleset_mask
from .figures import emit_histogram_svg
from .pipeline import AnalysisResult, DataError, analyze_dataset
from .synth import SynthSpec, generate
from .tree import render_tree_text

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "Config",
    "DataError",
    "Dataset",
    "Rule",
    "RuleSet",
    "SynthSpec",
    "analyze_dataset",
    "emit_histogram_svg",
    "generate",
    "load_csv",
    "render_report",
    "render_text",
    "render_tree_text",
    "ruleset_mask",
    "write_csv",
]
