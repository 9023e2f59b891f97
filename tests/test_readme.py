"""The README quick start runs as written and prints the report it shows,
and its "Library use" section lists exactly the package's exports."""

import re
from pathlib import Path

import positivity
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


def readme_exported_names():
    """Backticked names before the colon of each "Library use" bullet."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n- ", section)[1:]
    return [
        name
        for bullet in bullets
        for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])
    ]


def test_library_use_lists_all_exports():
    names = readme_exported_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(positivity.__all__)
