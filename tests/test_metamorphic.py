"""Metamorphic relations: transforms of a dataset that change no row's
overlap must leave the analysis's verdict (and, where stated, its
significant bins and the rows its rule sets cover) unchanged.

Every relation runs the default in-sample ``Config``, and an added
constant column also 5 folds. Cross-fitting assigns folds by row
position, so under a row shuffle only in-sample scoring promises the
same bins and rules; with ``--folds`` above 1 only rates over many
datasets (verdict share, recall) would agree.
"""

import numpy as np
import pytest

from positivity import Config, Dataset, SynthSpec, analyze_dataset, generate
from positivity import ruleset_mask
from positivity.cli import _write_outputs

GROUPS = (0, 1)
REPORT_FILES = (
    "report.txt", "report.json", "histogram.svg", "tree_control.txt",
    "tree_treated.txt",
)


@pytest.fixture(
    scope="module",
    params=[(0, 1), (0, 2), (2, 1), (2, 2)],
    ids=lambda p: f"noise{p[0]}-seed{p[1]}",
)
def base(request):
    noise, seed = request.param
    dataset = generate(SynthSpec(n=4000, noise_covariates=noise), seed)
    return dataset, analyze_dataset(dataset, Config())


def analyze(dataset, features=None, treatment=None, names=None):
    return analyze_dataset(
        Dataset(
            dataset.features if features is None else features,
            dataset.treatment if treatment is None else treatment,
            dataset.feature_names if names is None else names,
        ),
        Config(),
    )


def covered(result, group):
    """Rows of the whole dataset inside any of the group's rule sets."""
    data = result.dataset
    mask = np.zeros(data.n, dtype=bool)
    for ruleset in result.rulesets:
        if ruleset.group == group:
            mask |= ruleset_mask(ruleset, data.features, data.feature_names)
    return mask


def test_label_swap_mirrors_bins_and_exchanges_rules(base):
    dataset, want = base
    got = analyze(dataset, treatment=1 - dataset.treatment)
    assert got.violation_detected == want.violation_detected
    # a swapped score is 1 - p, so bin i lands in bin bins - 1 - i
    assert np.array_equal(got.report.bin_mask, want.report.bin_mask[::-1])
    for group in GROUPS:
        assert np.array_equal(covered(got, 1 - group), covered(want, group))


def test_affine_rescale_keeps_bins_and_covered_rows(base):
    dataset, want = base
    got = analyze(dataset, features=37.0 * dataset.features + 1000.0)
    assert got.violation_detected == want.violation_detected
    assert np.array_equal(got.report.bin_mask, want.report.bin_mask)
    for group in GROUPS:
        assert np.array_equal(covered(got, group), covered(want, group))


def test_row_shuffle_permutes_covered_rows(base):
    # in-sample only: cross-fit folds follow row positions
    dataset, want = base
    perm = np.random.default_rng(0).permutation(dataset.n)
    got = analyze(
        dataset, features=dataset.features[perm],
        treatment=dataset.treatment[perm],
    )
    assert got.violation_detected == want.violation_detected
    assert np.array_equal(got.report.bin_mask, want.report.bin_mask)
    for group in GROUPS:
        assert np.array_equal(covered(got, group), covered(want, group)[perm])


def test_appended_column_copy_keeps_verdict(base):
    # the copy adds feature pairs to the propensity design, which can
    # move significant bins, so only the verdict is a relation
    dataset, want = base
    got = analyze(
        dataset,
        features=np.column_stack([dataset.features, dataset.features[:, 0]]),
        names=dataset.feature_names + ("copy_of_0",),
    )
    assert got.violation_detected == want.violation_detected


def test_names_like_indicator_columns_change_nothing(base):
    # the propensity design counts its indicator columns instead of
    # naming them, so a raw name shaped like a bin or cell is just a name
    dataset, want = base
    names = list(dataset.feature_names)
    names[1] = "profile_age::bin0"
    if dataset.d > 2:
        names[2] = "profile_age*profile_age::bin0::cell0x0"
    got = analyze(dataset, names=tuple(names))
    np.testing.assert_array_equal(
        got.propensity.scores.view(np.int64),
        want.propensity.scores.view(np.int64),
    )
    assert got.violation_detected == want.violation_detected
    assert np.array_equal(got.report.bin_mask, want.report.bin_mask)
    for group in GROUPS:
        assert np.array_equal(covered(got, group), covered(want, group))


def report_files(dataset, config, out_dir):
    """The bytes of the five files ``positivity analyze`` writes."""
    _write_outputs(analyze_dataset(dataset, config), str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in REPORT_FILES}


@pytest.mark.parametrize("folds", [1, 5], ids=["in-sample", "folds5"])
@pytest.mark.parametrize("at", [0, 1], ids=["first", "between"])
def test_constant_column_changes_no_report_byte(at, folds, tmp_path):
    # a constant column has no levels, so the design's blocks, numbered
    # by its level rows, are the same; the trees never split on it
    dataset = generate(SynthSpec(), seed=0)
    config = Config(cross_fit_folds=folds)
    names = dataset.feature_names
    padded = Dataset(
        np.insert(dataset.features, at, 7.0, axis=1),
        dataset.treatment,
        names[:at] + ("constant",) + names[at:],
    )
    assert report_files(padded, config, tmp_path / "padded") == (
        report_files(dataset, config, tmp_path / "base")
    )
