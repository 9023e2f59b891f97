"""Exit codes, output files, figure structure, and byte determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from positivity import (
    Config,
    NO_VIOLATION_TEXT,
    estimate_histograms,
    render_histogram_svg,
)
from positivity.cli import _config_from_args, build_parser, main
from positivity.violation import BinTest, ViolationReport


@pytest.fixture(scope="module")
def carved_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "carved.csv"
    assert main(["synth", str(path), "--seed", "1"]) == 0
    return str(path)


@pytest.fixture(scope="module")
def null_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "null.csv"
    assert main(["synth", str(path), "--seed", "3", "--no-carve"]) == 0
    return str(path)


# The carved analysis is shared by several tests; run it once.
@pytest.fixture(scope="module")
def carved_run(tmp_path_factory, carved_csv):
    out = tmp_path_factory.mktemp("cli") / "out"
    code = main(
        [
            "analyze", carved_csv, "--treatment-col", "treatment",
            "--out", str(out),
        ]
    )
    return code, out


class TestUsageErrors:
    def test_missing_file_exit_1(self, tmp_path):
        code = main(
            [
                "analyze", str(tmp_path / "absent.csv"),
                "--treatment-col", "t", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_unknown_flag_exit_1(self, carved_csv, capsys):
        assert main(["analyze", carved_csv, "--bogus"]) == 1
        capsys.readouterr()

    def test_no_subcommand_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_out_of_range_flag_exit_1(self, carved_csv, tmp_path):
        code = main(
            [
                "analyze", carved_csv, "--treatment-col", "treatment",
                "--alpha", "2.0", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_missing_treatment_flag_exit_1(self, carved_csv, capsys):
        assert main(["analyze", carved_csv]) == 1
        capsys.readouterr()

    def test_propensity_bins_one_exit_1(self, carved_csv, tmp_path, capsys):
        code = main(
            [
                "analyze", carved_csv, "--treatment-col", "treatment",
                "--propensity-bins", "1", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "propensity_bins must be 0 or >= 2" in capsys.readouterr().err

    def test_bins_past_column_cap_exit_1(self, carved_csv, tmp_path, capsys):
        code = main(
            [
                "analyze", carved_csv, "--treatment-col", "treatment",
                "--propensity-bins", "3000", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "column cap 2048" in err
        assert not (tmp_path / "o").exists()

    def test_more_folds_than_rows_exit_1(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        assert main(["synth", str(small), "--n", "300", "--seed", "2"]) == 0
        capsys.readouterr()
        code = main(
            [
                "analyze", str(small), "--treatment-col", "treatment",
                "--folds", "400", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: cross_fit_folds=400 exceeds the 300 samples\n"
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_exit_1(self, carved_csv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        code = main(
            [
                "analyze", carved_csv, "--treatment-col", "treatment",
                "--out", str(blocker),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestDataErrors:
    def test_non_binary_treatment_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,t\n1,5\n2,0\n", encoding="utf-8")
        code = main(
            [
                "analyze", str(path), "--treatment-col", "t",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "invalid data" in capsys.readouterr().err

    def test_single_group_exit_2(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,t\n1,1\n2,1\n", encoding="utf-8")
        code = main(
            [
                "analyze", str(path), "--treatment-col", "t",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestAnalyzeCarved:
    def test_exit_3(self, carved_run):
        code, _ = carved_run
        assert code == 3

    def test_all_outputs_written(self, carved_run):
        _, out = carved_run
        for name in (
            "report.txt", "report.json", "histogram.svg",
            "tree_control.txt", "tree_treated.txt",
        ):
            assert (out / name).is_file()

    def test_report_names_planted_bounds(self, carved_run):
        _, out = carved_run
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "Positivity violation detected." in text
        assert "profile_age is greater than" in text
        assert "days_since_last_email is lesser than or equal to" in text

    def test_json_verdict_matches_exit_code(self, carved_run):
        _, out = carved_run
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc["verdict"] == "violation"
        assert doc["config"]["bins"] == 100
        assert any(b["significant"] for b in doc["bins"])

    def test_svg_bar_and_marker_structure(self, carved_run):
        _, out = carved_run
        svg = (out / "histogram.svg").read_text(encoding="utf-8")
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert svg.count('class="bar-control"') == 100
        assert svg.count('class="bar-treated"') == 100
        n_significant = sum(1 for b in doc["bins"] if b["significant"])
        assert svg.count('class="mark-fdr"') == n_significant
        assert n_significant >= 1
        assert svg.count('class="mark-suspected"') == len(doc["bins"])

    def test_control_tree_dump_present(self, carved_run):
        _, out = carved_run
        dump = (out / "tree_control.txt").read_text(encoding="utf-8")
        assert dump.startswith("group 0:")
        assert "if " in dump
        treated = (out / "tree_treated.txt").read_text(encoding="utf-8")
        assert treated.startswith("group 1:")


class TestAnalyzeNull:
    def test_exit_0_and_clean_text(self, null_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "analyze", null_csv, "--treatment-col", "treatment",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert NO_VIOLATION_TEXT in capsys.readouterr().out
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert text.startswith(NO_VIOLATION_TEXT)
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc["verdict"] == "no_violation"


class TestDeterminism:
    def test_byte_identical_outputs(self, carved_csv, carved_run, tmp_path):
        _, first = carved_run
        second = tmp_path / "again"
        code = main(
            [
                "analyze", carved_csv, "--treatment-col", "treatment",
                "--out", str(second),
            ]
        )
        assert code == 3
        for name in ("report.json", "histogram.svg", "report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestExplainTree:
    def test_prints_tree_and_rules(self, carved_csv, capsys):
        code = main(
            ["explain-tree", carved_csv, "--treatment-col", "treatment"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("group 0:")
        assert "profile_age is greater than" in output

    def test_clean_dataset_message(self, null_csv, capsys):
        code = main(
            ["explain-tree", null_csv, "--treatment-col", "treatment"]
        )
        assert code == 0
        assert NO_VIOLATION_TEXT in capsys.readouterr().out


class TestSynthCommand:
    def test_custom_treatment_column(self, tmp_path):
        path = tmp_path / "t.csv"
        code = main(
            [
                "synth", str(path), "--n", "200", "--treatment-col", "arm",
                "--seed", "2",
            ]
        )
        assert code == 0
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",")[-1] == "arm"

    def test_bad_n_exit_1(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "x.csv"), "--n", "0"]) == 1
        capsys.readouterr()

    def test_treatment_column_collision_exit_1(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code = main(
            [
                "synth", str(path), "--n", "10",
                "--treatment-col", "profile_age",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: treatment column name 'profile_age' collides with "
            "a feature\n"
        )
        assert not path.exists()

    def test_console_script_runs(self, tmp_path):
        path = tmp_path / "s.csv"
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from positivity.cli import entrypoint; "
                "sys.argv = ['positivity', 'synth', %r, '--n', '60']; "
                "entrypoint()" % str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert path.is_file()

    def test_module_run_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "positivity.cli", "synth", str(path),
                "--n", "200",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert path.is_file()


def test_flag_defaults_are_config_defaults():
    args = build_parser().parse_args(
        ["analyze", "x.csv", "--treatment-col", "t"]
    )
    assert _config_from_args(args) == Config()
    assert args.propensity_bins == Config().propensity_bins


def test_propensity_bins_flag_reaches_config():
    args = build_parser().parse_args(
        ["analyze", "x.csv", "--treatment-col", "t", "--propensity-bins", "0"]
    )
    assert _config_from_args(args) == Config(propensity_bins=0)


class TestSvgRendering:
    def clean_report(self, bins):
        return ViolationReport(
            bins=bins,
            suspected=(),
            tests=(),
            bin_mask=np.zeros(bins, dtype=bool),
            sample_labels0=np.zeros(2, dtype=bool),
            sample_labels1=np.zeros(2, dtype=bool),
            alpha=0.01,
        )

    def test_no_markers_without_suspected_bins(self):
        hist = estimate_histograms(
            np.array([0.2, 0.7]), np.array([0, 1]), 10
        )
        svg = render_histogram_svg(hist, self.clean_report(10))
        assert "mark-" not in svg
        assert svg.count('class="bar-control"') == 10
        assert svg.count('class="bar-treated"') == 10

    def test_single_significant_bin_single_circle(self):
        hist = estimate_histograms(
            np.array([0.2, 0.7]), np.array([0, 1]), 10
        )
        test = BinTest(
            index=7, k0=0, k1=1, p_raw=1e-6, p_adj=1e-6, significant=True
        )
        mask = np.zeros(10, dtype=bool)
        mask[7] = True
        report = ViolationReport(
            bins=10,
            suspected=(2, 7),
            tests=(test,),
            bin_mask=mask,
            sample_labels0=np.zeros(2, dtype=bool),
            sample_labels1=np.array([False, True]),
            alpha=0.01,
        )
        svg = render_histogram_svg(hist, report)
        assert svg.count('class="mark-fdr"') == 1
        assert svg.count('class="mark-raw"') == 1
        assert svg.count('class="mark-suspected"') == 2

    def test_bin_count_mismatch_rejected(self):
        hist = estimate_histograms(
            np.array([0.2, 0.7]), np.array([0, 1]), 10
        )
        with pytest.raises(ValueError):
            render_histogram_svg(hist, self.clean_report(12))
