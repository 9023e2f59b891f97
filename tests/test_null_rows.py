"""Null scenarios whose default verdict is clean on every data seed.

Each row generates data in which positivity holds, runs the analysis
with the default ``Config`` on data seeds 0-9, and requires no
"violation" verdict. Rows enter here once the detector passes them;
the smaller-n and wider nulls that still say "violation" are tracked
in ROADMAP.md, not here.
"""

import pytest

from positivity import SynthSpec, analyze_dataset, generate

NULL_ROWS = [
    pytest.param(SynthSpec(n=5000, carve=()), id="coin_flip_n5000"),
    pytest.param(
        # true propensity in [0.12, 0.88] along profile_age
        SynthSpec(
            n=20000, carve=(), logit_intercept=-2.0,
            logit_weights=(4 / 3000, 0.0),
        ),
        id="confounded_n20000",
    ),
]


@pytest.mark.parametrize("spec", NULL_ROWS)
def test_null_row_clean_on_every_seed(spec):
    flagged = [
        seed for seed in range(10)
        if analyze_dataset(generate(spec, seed=seed)).violation_detected
    ]
    assert flagged == []
