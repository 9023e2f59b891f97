"""Command-line driver.

Subcommands: ``analyze`` runs the full detection chain on a CSV and
writes report.txt, report.json, histogram.svg, and per-group tree
dumps; ``synth`` writes a synthetic dataset CSV; ``explain-tree``
prints the pruned per-group trees and extracted rules to stdout.

Exit codes: 0 clean, 3 violation detected, 1 usage or file problem,
2 invalid data. The split keeps the scientific verdict distinguishable
from plumbing failures in shell pipelines. Commands return the verdict
code and raise on failure; :func:`main` alone maps failures to codes.
A :class:`DataError`, a CSV that ``load_csv`` rejects included, exits 2
with one ``error: invalid data:`` line per diagnostic; any other
``OSError`` or ``ValueError`` (unreadable or unwritable file,
out-of-range option, analysis limit) exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

from .data import _TEST_KINDS, Config, load_csv, write_csv
from .explain import NO_VIOLATION_TEXT, render_report, render_text
from .figures import emit_histogram_svg
from .pipeline import AnalysisResult, DataError, analyze_dataset
from .synth import DEFAULT_CARVE, SynthSpec, generate
from .tree import render_tree_text

logger = logging.getLogger(__name__)

ENV_LOG = "POSITIVITY_LOG"

EXIT_CLEAN = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3

_GROUP_FILES = {0: "tree_control.txt", 1: "tree_treated.txt"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _configure_logging() -> None:
    name = os.environ.get(ENV_LOG, "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = Config()
    parser.add_argument(
        "--treatment-col", required=True,
        help="name of the binary treatment column",
    )

    def flag(name, field, kind, text, **extra):
        parser.add_argument(
            name, type=kind, dest=field, default=getattr(defaults, field),
            help=f"{text} (default %(default)s)", **extra,
        )

    flag("--bins", "bins", int, "histogram bin count")
    flag("--alpha", "alpha", float, "significance level")
    flag("--beta", "beta", float, "pruning purity threshold")
    flag("--gamma", "gamma", float, "pruning mass threshold")
    flag("--noise-threshold", "noise_threshold", int,
         "histogram count treated as noise")
    flag("--test", "test_kind", str, "per-bin test", choices=_TEST_KINDS)
    flag("--max-depth", "max_depth", int, "tree depth limit")
    flag("--folds", "cross_fit_folds", int,
         "cross-fitting folds, 1 = in-sample", metavar="FOLDS")
    flag("--seed", "seed", int, "random seed")
    flag("--propensity-bins", "propensity_bins", int,
         "expansion bins per feature for the propensity fit, 0 = raw columns")


def _config_from_args(args: argparse.Namespace) -> Config:
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config)})


def _analyze(args: argparse.Namespace) -> AnalysisResult:
    """Validate the config, then load the CSV and run the analysis."""
    config = _config_from_args(args)
    try:
        dataset = load_csv(args.input, args.treatment_col)
    except ValueError as exc:
        raise DataError([str(exc)]) from exc
    return analyze_dataset(dataset, config)


def _write_outputs(result: AnalysisResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rulesets = list(result.rulesets)

    def write(name: str, text: str) -> None:
        with open(
            os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(text)

    write("report.txt", render_text(rulesets, result.report, result.propensity))
    doc = render_report(
        result.config, result.report, result.propensity, rulesets
    )
    write("report.json", json.dumps(doc, indent=2) + "\n")
    emit_histogram_svg(
        result.histograms, result.report,
        os.path.join(out_dir, "histogram.svg"),
    )
    for group, filename in _GROUP_FILES.items():
        tree = result.trees[group]
        write(
            filename,
            render_tree_text(tree)
            if tree is not None
            else f"group {group}: no tree (no violating samples to explain)\n",
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    result = _analyze(args)
    _write_outputs(result, args.out)
    if result.violation_detected:
        print(f"Positivity violation detected. Reports in {args.out}")
        return EXIT_VIOLATION
    print(f"{NO_VIOLATION_TEXT} Reports in {args.out}")
    return EXIT_CLEAN


def cmd_explain_tree(args: argparse.Namespace) -> int:
    result = _analyze(args)
    if not result.violation_detected:
        print(NO_VIOLATION_TEXT)
        return EXIT_CLEAN
    chunks = []
    for group in (0, 1):
        tree = result.trees[group]
        if tree is not None:
            chunks.append(render_tree_text(tree))
    chunks.append(
        render_text(list(result.rulesets), result.report, result.propensity)
    )
    print("\n".join(chunks), end="")
    return EXIT_CLEAN


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n=args.n,
        noise_covariates=args.noise_covariates,
        carve=() if args.no_carve else DEFAULT_CARVE,
        carve_mode=args.carve_mode,
    )
    dataset = generate(spec, args.seed)
    write_csv(dataset, args.output, args.treatment_col)
    print(
        f"wrote {dataset.n} rows x {dataset.d} features to {args.output}"
    )
    return EXIT_CLEAN


def build_parser() -> _Parser:
    parser = _Parser(
        prog="positivity",
        description=(
            "Detect and explain positivity violations in observational "
            "datasets via propensity score histograms."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    p_analyze = sub.add_parser(
        "analyze", help="run detection on a CSV and write reports"
    )
    p_analyze.add_argument("input", help="input CSV path")
    _add_config_flags(p_analyze)
    p_analyze.add_argument(
        "--out", default="positivity_out",
        help="output directory (default positivity_out)",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_explain = sub.add_parser(
        "explain-tree", help="print pruned per-group trees and rules"
    )
    p_explain.add_argument("input", help="input CSV path")
    _add_config_flags(p_explain)
    p_explain.set_defaults(func=cmd_explain_tree)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic dataset CSV"
    )
    p_synth.add_argument("output", help="output CSV path")
    p_synth.add_argument("--n", type=int, default=20000,
                         help="sample count (default 20000)")
    p_synth.add_argument("--seed", type=int, default=0,
                         help="random seed (default 0)")
    p_synth.add_argument("--noise-covariates", type=int, default=0,
                         help="extra standard-normal columns (default 0)")
    p_synth.add_argument("--no-carve", action="store_true",
                         help="skip the planted violation region")
    p_synth.add_argument(
        "--carve-mode", choices=("reassign", "delete"), default="reassign",
        help="force carved samples to control, or drop their treated "
        "members (default reassign)",
    )
    p_synth.add_argument("--treatment-col", default="treatment",
                         help="treatment column name (default treatment)")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        for line in exc.diagnostics:
            print(f"error: invalid data: {line}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
