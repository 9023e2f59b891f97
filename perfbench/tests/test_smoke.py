"""Tiny-size runs of every workload, to catch benchmark rot.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each test starts the benchmark with the command BENCHMARK.json declares
(plus ``--smoke``, which shrinks the inputs) and checks the result line
against the metric list there.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from tracing import self_times  # noqa: E402
from workloads import REPORT_FILES, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_benchmark_json_matches_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(
        "--workload", "planted_xfit", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_worker_writes_what_the_cli_writes(tmp_path):
    from positivity import generate, write_csv

    workload = WORKLOADS["planted_xfit"].sized(8000)
    csv_path = str(tmp_path / "in.csv")
    write_csv(generate(workload.spec, 1), csv_path, "treatment")
    config = workload.config
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cli = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from positivity.cli import main; sys.exit(main(sys.argv[1:]))",
            "analyze", csv_path, "--treatment-col", "treatment",
            "--out", str(tmp_path / "cli"), "--folds", str(config.cross_fit_folds),
            "--seed", str(config.seed),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert cli.returncode == 3, cli.stderr  # violation detected
    worker = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
            csv_path, str(tmp_path / "worker"), "planted_xfit", "1",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert worker.returncode == 0, worker.stderr
    assert json.loads(worker.stdout.strip().splitlines()[-1])["rules_ok"]
    for name in REPORT_FILES:
        assert (tmp_path / "cli" / name).read_bytes() == (
            tmp_path / "worker" / name
        ).read_bytes(), name


def test_self_times_subtract_children():
    spans = [
        {"name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "b", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "c", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0
