"""One benchmark repetition in a fresh process.

Does what ``positivity analyze`` does: load the CSV, run the analysis
with the workload's pinned Config, and write the five report files with
the public render functions.

    python3 perfbench/worker.py CSV OUT_DIR WORKLOAD TRACE

Prints one JSON line. ``t_done`` is ``time.monotonic()`` just after the
last report file is closed (a system-wide clock, so the driver times the
repetition from spawn to that instant); what follows it is checking,
not timed work. With TRACE=1 the public functions are wrapped at each
module boundary and the spans are written to OUT_DIR/trace.json.
"""

import time

_T0 = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from positivity import (  # noqa: E402
    emit_histogram_svg,
    load_csv,
    render_report,
    render_text,
    render_tree_text,
    ruleset_mask,
)
from positivity import pipeline, propensity, tree  # noqa: E402

from tracing import Tracer, maxrss_kib  # noqa: E402
from workloads import TREATMENT_COLUMN, WORKLOADS, rulesets_from_report  # noqa: E402


def write_outputs(result, out_dir: str) -> None:
    """The five files ``positivity analyze`` writes, byte for byte."""
    rulesets = list(result.rulesets)

    def write(name: str, text: str) -> None:
        with open(
            os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(text)

    write("report.txt", render_text(rulesets, result.report, result.propensity))
    doc = render_report(result.config, result.report, result.propensity, rulesets)
    write("report.json", json.dumps(doc, indent=2) + "\n")
    emit_histogram_svg(
        result.histograms, result.report, os.path.join(out_dir, "histogram.svg")
    )
    for group, name in ((0, "tree_control.txt"), (1, "tree_treated.txt")):
        grown = result.trees[group]
        write(
            name,
            render_tree_text(grown)
            if grown is not None
            else f"group {group}: no tree (no violating samples to explain)\n",
        )


def instrument(tracer) -> None:
    """Wrap the calls ``analyze_dataset`` makes into each module."""

    def on_expand(attrs, args, design):
        attrs["n"] = design.n
        attrs["d"] = design.d

    def on_fit(attrs, args, model):
        attrs["n"] = args[0].n
        attrs["d"] = args[0].d
        attrs["iters"] = model.n_iter
        attrs["converged"] = bool(model.converged)

    def on_detect(attrs, args, report):
        attrs["suspected_bins"] = len(report.suspected)
        attrs["significant_bins"] = int(report.bin_mask.sum())
        attrs["labelled_rows"] = int(
            report.sample_labels0.sum() + report.sample_labels1.sum()
        )

    def on_rules(attrs, args, rulesets):
        attrs["n_rules"] = len(rulesets)

    def on_split(counters, args):
        features = args[0]
        counters["best_split_calls"] = counters.get("best_split_calls", 0) + 1
        counters["split_rows_scanned"] = (
            counters.get("split_rows_scanned", 0) + features.shape[0] * features.shape[1]
        )

    tracer.wrap(pipeline, "expand_features", "propensity.expand_features", on_expand)
    tracer.wrap(pipeline, "fit_predict", "propensity.fit_predict")
    # fit_predict looks these up in its own module, once per fold
    tracer.wrap(propensity, "fit", "propensity.fit", on_fit)
    tracer.wrap(propensity, "predict", "propensity.predict")
    tracer.wrap(pipeline, "estimate_histograms", "density.estimate_histograms")
    tracer.wrap(pipeline, "detect", "violation.detect", on_detect)
    tracer.wrap(pipeline, "build_tree", "tree.build_tree")
    tracer.count(tree, "best_split", on_split)
    tracer.wrap(pipeline, "prune", "tree.prune")
    tracer.wrap(pipeline, "extract_rules", "explain.extract_rules", on_rules)


def check_rules(doc: dict, dataset, report) -> bool:
    """Every rule in report.json reselects exactly its n_pos / n_neg rows."""
    labels = {0: report.sample_labels0, 1: report.sample_labels1}
    for ruleset in rulesets_from_report(doc):
        rows = dataset.features[dataset.treatment == ruleset.group]
        mask = ruleset_mask(ruleset, rows, dataset.feature_names)
        lab = labels[ruleset.group]
        if int((mask & lab).sum()) != ruleset.n_pos:
            return False
        if int((mask & ~lab).sum()) != ruleset.n_neg:
            return False
    return True


def main(argv: list[str]) -> int:
    csv_path, out_dir, workload, traced = argv[0], argv[1], argv[2], argv[3] == "1"
    config = WORKLOADS[workload].config
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    if traced:
        tracer = Tracer()
        with tracer.span("worker", start=_T0):
            with tracer.span("startup", start=_T0):
                instrument(tracer)
            with tracer.span("data.load_csv"):
                dataset = load_csv(csv_path, TREATMENT_COLUMN)
            with tracer.span("pipeline.analyze_dataset"):
                result = pipeline.analyze_dataset(dataset, config)
            with tracer.span("figures.render"):
                write_outputs(result, out_dir)
    else:
        dataset = load_csv(csv_path, TREATMENT_COLUMN)
        result = pipeline.analyze_dataset(dataset, config)
        write_outputs(result, out_dir)
    t_done = time.monotonic()

    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        raw = fh.read()
    out = {
        "t_done": t_done,
        "maxrss_kib": maxrss_kib(),
        "report_sha256": hashlib.sha256(raw).hexdigest(),
        "rules_ok": check_rules(json.loads(raw), dataset, result.report),
    }
    if tracer is not None:
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
