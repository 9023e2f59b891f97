"""The project's pytest settings still let hypothesis report a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_MODULE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
'''


def test_failing_given_test_shows_falsifying_example(tmp_path):
    # With warnings as errors, a deprecation warning raised while
    # hypothesis reports the failure turned it into an INTERNALERROR
    # that hid the example and stopped the run.
    module = tmp_path / "test_failing.py"
    module.write_text(FAILING_MODULE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
