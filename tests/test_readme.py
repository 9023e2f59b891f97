"""The README quick start runs as written and prints the report it shows."""

from pathlib import Path

from positivity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_report_block():
    """The fenced block that follows the `demo_out/report.txt` caption."""
    text = README.read_text(encoding="utf-8")
    after = text.split("`demo_out/report.txt`:", 1)[1]
    return after.split("```\n", 2)[1]


def test_quick_start_report_matches_readme(tmp_path):
    csv = tmp_path / "demo.csv"
    out = tmp_path / "demo_out"
    assert main(["synth", str(csv), "--seed", "0"]) == 0
    code = main(
        [
            "analyze", str(csv), "--treatment-col", "treatment",
            "--out", str(out),
        ]
    )
    assert code == 3
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert report == readme_report_block()
