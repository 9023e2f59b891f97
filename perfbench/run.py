"""CSV-to-reports benchmark for positivity.

Each timed repetition is one fresh process (``worker.py``) that does what
``positivity analyze`` does: CSV in, five report files out. Repetitions
run one at a time from this driver. Run from the repository root:

    python3 perfbench/run.py --workload all

prints every metric of every workload by name and unit. One workload,
in the form ``BENCHMARK.json`` declares:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = ".perfbench_out"

# set-up is repeated and its median reported; the CSV must come out
# byte-identical every time
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0
# traced run: |traced run_s - sum of per-layer self times| may be at most
# this plus TRACE_TOLERANCE_SHARE of run_s (interpreter boot before the
# worker's first line is the expected remainder)
TRACE_TOLERANCE_S = 0.2
TRACE_TOLERANCE_SHARE = 0.02
SMOKE_N = {"planted_xfit": 8000, "wide_d10": 1500, "confounded_raw": 5000}

MIB = 1024.0 * 1024.0

# name: (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "pass_rate": ("ratio", "higher"),
    "hole_recall": ("ratio", "higher"),
    "rule_precision": ("ratio", "higher"),
}

# name: (unit, better); self times of the layers that sum to run_s
# are marked in SELF_TIMES
PER_LAYER = {
    "startup.import_s": ("s", "lower"),
    "data.load_s": ("s", "lower"),
    "data.csv_mb": ("MiB", "lower"),
    "data.load_mb_per_s": ("MiB/s", "higher"),
    "data.load_rss_delta_mb": ("MiB", "lower"),
    "propensity.expand_s": ("s", "lower"),
    "propensity.design_cols": ("count", "lower"),
    "propensity.design_mb": ("MiB", "lower"),
    "propensity.expand_rss_delta_mb": ("MiB", "lower"),
    "propensity.fit_s": ("s", "lower"),
    "propensity.fit_calls": ("count", "lower"),
    "propensity.newton_iters": ("count", "lower"),
    "propensity.fit_converged": ("bool", "higher"),
    "propensity.fit_s_per_iter": ("s", "lower"),
    "propensity.hessian_gflop": ("GFLOP", "lower"),
    "propensity.predict_s": ("s", "lower"),
    "propensity.fit_predict_self_s": ("s", "lower"),
    "propensity.fit_rss_delta_mb": ("MiB", "lower"),
    "violation.detect_s": ("s", "lower"),
    "violation.suspected_bins": ("count", "lower"),
    "violation.significant_bins": ("count", "lower"),
    "violation.labelled_rows": ("count", "lower"),
    "tree.build_s": ("s", "lower"),
    "tree.best_split_calls": ("count", "lower"),
    "tree.split_rows_scanned": ("count", "lower"),
    "tree.prune_s": ("s", "lower"),
    "explain.extract_s": ("s", "lower"),
    "explain.n_rules": ("count", "lower"),
    "render.write_s": ("s", "lower"),
    "render.bytes_written": ("bytes", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

SELF_TIMES = (
    "startup.import_s",
    "data.load_s",
    "propensity.expand_s",
    "propensity.fit_s",
    "propensity.predict_s",
    "propensity.fit_predict_self_s",
    "violation.detect_s",
    "tree.build_s",
    "tree.prune_s",
    "explain.extract_s",
    "render.write_s",
    "pipeline.self_s",
)


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment() -> dict:
    """What the numbers depend on besides the code; saved with every result."""
    import numpy as np

    from positivity import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernel_backend": _kernels.active_backend(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _span_total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _spans_named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def layer_metrics(trace: dict, csv_bytes: int) -> dict:
    """Per-layer numbers of one traced repetition."""
    from tracing import self_times

    spans = trace["spans"]
    own = self_times(spans)

    def self_of(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    def rss_delta_mb(name: str) -> float:
        return sum(s["rss1_kib"] - s["rss0_kib"] for s in _spans_named(spans, name)) / 1024.0

    fits = [s["attrs"] for s in _spans_named(spans, "propensity.fit")]
    expand = _spans_named(spans, "propensity.expand_features")
    # without expansion the fit sees the raw columns of all rows
    design = expand[0]["attrs"] if expand else fits[0]
    detect = _spans_named(spans, "violation.detect")[0]["attrs"]
    load_s = _span_total(spans, "data.load_csv")
    fit_s = _span_total(spans, "propensity.fit")
    iters = sum(f["iters"] for f in fits)
    counters = trace["counters"]
    m = {
        "startup.import_s": self_of("startup"),
        "data.load_s": load_s,
        "data.csv_mb": csv_bytes / MIB,
        "data.load_mb_per_s": csv_bytes / MIB / load_s,
        "data.load_rss_delta_mb": rss_delta_mb("data.load_csv"),
        "propensity.expand_s": _span_total(spans, "propensity.expand_features"),
        "propensity.design_cols": design["d"],
        "propensity.design_mb": design["n"] * design["d"] * 8 / MIB,
        "propensity.expand_rss_delta_mb": rss_delta_mb("propensity.expand_features"),
        "propensity.fit_s": fit_s,
        "propensity.fit_calls": len(fits),
        "propensity.newton_iters": iters,
        "propensity.fit_converged": float(all(f["converged"] for f in fits)),
        "propensity.fit_s_per_iter": fit_s / iters if iters else 0.0,
        "propensity.hessian_gflop": sum(f["n"] * f["d"] ** 2 * f["iters"] for f in fits) / 1e9,
        "propensity.predict_s": _span_total(spans, "propensity.predict"),
        "propensity.fit_predict_self_s": self_of("propensity.fit_predict"),
        "propensity.fit_rss_delta_mb": rss_delta_mb("propensity.fit_predict"),
        "violation.detect_s": _span_total(spans, "density.estimate_histograms")
        + _span_total(spans, "violation.detect"),
        "violation.suspected_bins": detect["suspected_bins"],
        "violation.significant_bins": detect["significant_bins"],
        "violation.labelled_rows": detect["labelled_rows"],
        "tree.build_s": _span_total(spans, "tree.build_tree"),
        "tree.best_split_calls": counters.get("best_split_calls", 0),
        "tree.split_rows_scanned": counters.get("split_rows_scanned", 0),
        "tree.prune_s": _span_total(spans, "tree.prune"),
        "explain.extract_s": _span_total(spans, "explain.extract_rules"),
        "explain.n_rules": sum(
            s["attrs"]["n_rules"] for s in _spans_named(spans, "explain.extract_rules")
        ),
        "render.write_s": _span_total(spans, "figures.render"),
        "pipeline.self_s": self_of("pipeline.analyze_dataset"),
    }
    return m


def run_rep(csv_path: str, out_dir: str, workload: str, traced: bool, first_sha):
    """Spawn one worker and check what it wrote; returns a record."""
    from workloads import REPORT_FILES

    rec = {"traced": traced, "problems": []}
    t_spawn = time.monotonic()
    try:
        # subprocess.run kills and reaps the worker when it times out
        proc = subprocess.run(
            [sys.executable, WORKER, csv_path, out_dir, workload, "1" if traced else "0"],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    rec["wall_s"] = time.monotonic() - t_spawn
    if proc is None or proc.returncode != 0:
        reason = "timed out" if proc is None else f"exited {proc.returncode}: {proc.stderr[-2000:]}"
        rec["problems"].append(f"worker {reason}")
        return rec
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["run_s"] = out["t_done"] - t_spawn
    rec["peak_rss_mb"] = out["maxrss_kib"] / 1024.0
    rec["report_sha256"] = out["report_sha256"]
    paths = [os.path.join(out_dir, name) for name in REPORT_FILES]
    missing = [os.path.basename(p) for p in paths if not os.path.isfile(p)]
    if missing:
        rec["problems"].append(f"missing outputs: {missing}")
        return rec
    rec["bytes_written"] = sum(os.path.getsize(p) for p in paths)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        rec["report"] = json.load(fh)
    if rec["report"]["verdict"] != "violation":
        rec["problems"].append(f"verdict {rec['report']['verdict']!r}, expected 'violation'")
    if first_sha is not None and out["report_sha256"] != first_sha:
        rec["problems"].append("report.json differs from the first repetition")
    if not out["rules_ok"]:
        rec["problems"].append("a rule does not reproduce its n_pos/n_neg")
    if traced:
        with open(os.path.join(out_dir, "trace.json"), encoding="utf-8") as fh:
            rec["layers"] = layer_metrics(json.load(fh), os.path.getsize(csv_path))
        rec["layers"]["render.bytes_written"] = rec["bytes_written"]
        rec["layers"]["trace.unattributed_s"] = rec["run_s"] - sum(
            rec["layers"][name] for name in SELF_TIMES
        )
        if not rec["layers"]["propensity.fit_converged"]:
            rec["problems"].append("a propensity fit did not converge")
        tolerance = TRACE_TOLERANCE_S + TRACE_TOLERANCE_SHARE * rec["run_s"]
        if abs(rec["layers"]["trace.unattributed_s"]) > tolerance:
            rec["problems"].append(
                f"layer self times miss run_s by {rec['layers']['trace.unattributed_s']:.3f} s"
            )
    return rec


def quality(report: dict, dataset, truth) -> tuple[float, float]:
    """(hole_recall, rule_precision) of the report's rules against the truth.

    A rule set is read as a region of covariate space: it covers every
    row inside it, whatever the row's treatment group.
    """
    import numpy as np

    from positivity import ruleset_mask
    from workloads import rulesets_from_report

    covered = np.zeros(dataset.n, dtype=bool)
    for ruleset in rulesets_from_report(report):
        covered |= ruleset_mask(ruleset, dataset.features, dataset.feature_names)
    hits = int((covered & truth).sum())
    return hits / int(truth.sum()), hits / max(int(covered.sum()), 1)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up one workload, time repetitions for ``seconds``, check them."""
    from positivity import generate, write_csv
    from workloads import TREATMENT_COLUMN, WORKLOADS

    workload = WORKLOADS[name]
    if smoke:
        workload = workload.sized(SMOKE_N[name])
    run_dir = os.path.join(OUT_ROOT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    csv_path = os.path.join(run_dir, "input.csv")
    problems = []

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        dataset = generate(workload.spec, seed)
        write_csv(dataset, csv_path, TREATMENT_COLUMN)
        setup_times.append(time.perf_counter() - t)
        digests.add(_sha256(csv_path))
    if len(digests) != 1:
        problems.append("set-up wrote different CSV bytes from the same seed")
    truth = workload.ground_truth(dataset)

    reps = []
    first_report = first_sha = None
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        out_dir = os.path.join(run_dir, f"rep{len(reps)}")
        rec = run_rep(csv_path, out_dir, name, traced, first_sha)
        report = rec.pop("report", None)
        if report is not None and first_report is None:
            first_report, first_sha = report, rec["report_sha256"]
        shutil.rmtree(out_dir, ignore_errors=True)
        reps.append(rec)
        # start another repetition only if it should end less than half a
        # repetition after the deadline
        elapsed = time.monotonic() - start
        expected = _median([r["wall_s"] for r in reps])
        if len(reps) >= (2 if trace else 1) and elapsed + expected / 2 > seconds:
            break
    os.remove(csv_path)

    failed = sum(1 for r in reps if r["problems"])
    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    run_s = [r["run_s"] for r in plain]
    recall, precision = (
        quality(first_report, dataset, truth) if first_report else (0.0, 0.0)
    )
    if trace:
        traced_reps = [r for r in reps if "layers" in r]
        metrics = {
            key: _median([r["layers"][key] for r in traced_reps])
            for key in PER_LAYER
            if key != "trace_overhead_s"
        }
        metrics["trace_overhead_s"] = _median(
            [r["run_s"] for r in traced_reps]
        ) - _median(run_s)
        table = PER_LAYER
    else:
        metrics = {
            "run_s": _median(run_s),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "setup_s": _median(setup_times),
            "pass_rate": (len(reps) - failed) / len(reps),
            "hole_recall": recall,
            "rule_precision": precision,
        }
        table = END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": table[key][0]} for key in table
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "n": workload.spec.n,
        "environment": environment(),
        "setup_s_samples": setup_times,
        "run_s_samples": run_s,
        "report_sha256": first_sha,
        "problems": problems + [p for r in reps for p in r["problems"]],
        "reps": reps,
        "result": result,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def supported_percentile(count: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    if count < 20:
        return f"{count} samples: median only (a percentile needs 10 samples beyond it)"
    return f"{count} samples: up to p{int(100 * (1 - 10 / count))}"


def print_table(detail: dict) -> None:
    result = detail["result"]
    table = PER_LAYER if detail["trace"] else END_TO_END
    mode = "per-layer (traced)" if detail["trace"] else "end-to-end"
    print(
        f"{detail['workload']} seed={detail['seed']} n={detail['n']} {mode}: "
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    print(f"  environment: {json.dumps(detail['environment'])}")
    for key, (unit, better) in table.items():
        value = result["metrics"][key]["value"]
        print(f"  {key:34s} {value:14.6g} {unit:6s} ({better} is better)")
    if not detail["trace"]:
        print(f"  run_s: {supported_percentile(len(detail['run_s_samples']))}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, to check the benchmark runs"
    )
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "positivity", "__init__.py")):
        print("error: src/positivity not found; run from the repository root", file=sys.stderr)
        return 2
    threads = str(_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all")

    if args.workload == "all":
        summary = {}
        for name in WORKLOADS:
            for trace in (False, True):
                detail = run_workload(name, args.seed, args.seconds, trace, args.smoke)
                print_table(detail)
                summary.setdefault(name, {})["trace" if trace else "end_to_end"] = detail["result"]
        print(json.dumps(summary))
        return 0
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_table(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
