"""An in-sample analysis never imports numpy.random.

Importing numpy.random costs tens of milliseconds and several MiB of
RSS, and only cross-fitting and the synthetic generator draw random
numbers. The probe compares against the modules ``import numpy`` alone
loads, so it stays valid on a numpy that imports numpy.random eagerly.
"""

import subprocess
import sys

from positivity import SynthSpec, generate, write_csv

PROBE = """
import sys

import numpy

baseline = set(sys.modules)

from positivity import Config, analyze_dataset, load_csv

analyze_dataset(load_csv(sys.argv[1], "treatment"), Config())
loaded = sorted(
    name for name in set(sys.modules) - baseline
    if name == "numpy.random" or name.startswith("numpy.random.")
)
print(" ".join(loaded))
"""


def test_in_sample_analysis_leaves_numpy_random_unloaded(tmp_path):
    # the data are drawn here, since drawing them is what needs the RNG
    path = tmp_path / "data.csv"
    write_csv(generate(SynthSpec(n=2000)), str(path))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
