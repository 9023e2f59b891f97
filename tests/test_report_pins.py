"""report.json bytes pinned by digest on designs whose fit merges rows.

The sha256 digests were recorded before the propensity fit merged rows
that share every feature's level. The reports hold only the verdict,
the tests of the flagged bins and the rules, so these pins hold as long
as the fit's scores move by rounding alone.
"""

import hashlib
import json

import numpy as np
import pytest

from positivity import Config, Dataset, SynthSpec, analyze_dataset, generate
from positivity import render_report


def one_hot_dataset():
    """The synthetic covariates plus a 5-level categorical, one-hot coded.

    16384 rows: its level product 16 * 2^5 * 16 is n / 2, the largest
    product the fit still merges. Treatment follows the synthetic draw,
    except that level 4 is never treated above a profile_age of 2250.
    """
    base = generate(SynthSpec(n=16384), seed=3)
    level = np.random.default_rng(3).integers(0, 5, base.n)
    one_hot = (level[:, None] == np.arange(5)).astype(np.float64)
    treatment = np.where(
        (level == 4) & (base.features[:, 0] > 2250.0), 0, base.treatment
    )
    return Dataset(
        np.column_stack([base.features, one_hot]),
        treatment,
        base.feature_names + tuple(f"region_{i}" for i in range(5)),
    )


def report_bytes(dataset, config):
    result = analyze_dataset(dataset, config)
    doc = render_report(
        result.config, result.report, result.propensity, result.rulesets
    )
    return (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "make, config, digest",
    [
        pytest.param(
            # the README demo: `positivity synth demo.csv`, then analyze
            lambda: generate(SynthSpec(), seed=0),
            Config(),
            "af4117a56d826cee819b67098783161c"
            "dde084709b037adb5f28b3e3ee504cf5",
            id="demo",
        ),
        pytest.param(
            lambda: generate(SynthSpec(), seed=0),
            Config(cross_fit_folds=5),
            "f651790550fae69e5d6a8dfd1392c810"
            "bf4afad911c20895e0d8a11ca25af08c",
            id="demo-folds5",
        ),
        pytest.param(
            one_hot_dataset,
            Config(),
            "919d5d8f0106ba09b8534a4a2cb92e0e"
            "71fc549ce6c0bf166c68ca869ba1d56e",
            id="one-hot",
        ),
    ],
)
def test_report_json_pinned(make, config, digest):
    assert hashlib.sha256(report_bytes(make(), config)).hexdigest() == digest
