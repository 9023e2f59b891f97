"""Synthetic generator: carve guarantees, determinism, distributions."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from positivity import SynthSpec, generate, write_csv
from positivity.synth import DEFAULT_CARVE, carve_mask


def in_default_carve(features, names):
    age = features[:, names.index("profile_age")]
    days = features[:, names.index("days_since_last_email")]
    return (age > 1500.0) & (age <= 1800.0) & (days > -1.0) & (days <= 50.0)


class TestDefaults:
    def test_default_spec_shape(self):
        ds = generate(SynthSpec(n=500))
        assert ds.n == 500
        assert ds.feature_names == (
            "profile_age", "days_since_last_email",
        )

    def test_covariate_ranges(self):
        ds = generate(SynthSpec(n=5000))
        age = ds.features[:, 0]
        days = ds.features[:, 1]
        assert 0.0 <= age.min() and age.max() < 3000.0
        assert 0.0 <= days.min() and days.max() < 365.0


class TestCarve:
    def test_no_treated_samples_inside_region(self):
        ds = generate(SynthSpec(n=20000), seed=0)
        inside = in_default_carve(ds.features, ds.feature_names)
        assert inside.sum() > 0
        assert ds.treatment[inside].sum() == 0

    def test_reassignment_preserves_sample_count(self):
        ds = generate(SynthSpec(n=20000), seed=1)
        assert ds.n == 20000

    def test_labels_differ_only_inside_region(self):
        carved = generate(SynthSpec(n=20000), seed=2)
        plain = generate(SynthSpec(n=20000, carve=()), seed=2)
        np.testing.assert_array_equal(carved.features, plain.features)
        inside = in_default_carve(plain.features, plain.feature_names)
        changed = carved.treatment != plain.treatment
        assert not changed[~inside].any()
        np.testing.assert_array_equal(
            changed, inside & (plain.treatment == 1)
        )

    def test_delete_mode_drops_treated_inside_only(self):
        kept = generate(
            SynthSpec(n=20000, carve_mode="delete"), seed=3
        )
        plain = generate(SynthSpec(n=20000, carve=()), seed=3)
        inside = in_default_carve(plain.features, plain.feature_names)
        dropped = int((inside & (plain.treatment == 1)).sum())
        assert kept.n == 20000 - dropped
        still_inside = in_default_carve(kept.features, kept.feature_names)
        assert kept.treatment[still_inside].sum() == 0

    def test_carve_mask_helper(self):
        spec = SynthSpec(n=10)
        features = np.array(
            [[1600.0, 10.0], [1600.0, 60.0], [1400.0, 10.0], [1800.0, 50.0]]
        )
        mask = carve_mask(spec, features, spec.feature_names())
        np.testing.assert_array_equal(mask, [True, False, False, True])

    def test_boundary_semantics_low_open_high_closed(self):
        spec = SynthSpec(n=10)
        features = np.array(
            [[1500.0, 10.0], [1500.0000001, 10.0], [1800.0, 10.0],
             [1800.0000001, 10.0]]
        )
        mask = carve_mask(spec, features, spec.feature_names())
        np.testing.assert_array_equal(mask, [False, True, True, False])


class TestNullGeneration:
    def test_coin_flip_fraction(self):
        ds = generate(SynthSpec(n=20000, carve=()), seed=5)
        fraction = ds.treatment.mean()
        assert 0.48 <= fraction <= 0.52

    def test_logit_shifts_fraction(self):
        spec = SynthSpec(n=20000, carve=(), logit_intercept=2.0)
        ds = generate(spec, seed=6)
        assert ds.treatment.mean() > 0.85


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(SynthSpec(n=2000), seed=9)
        b = generate(SynthSpec(n=2000), seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.treatment, b.treatment)

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(n=1000), seed=1)
        b = generate(SynthSpec(n=1000), seed=2)
        assert not np.array_equal(a.features, b.features)


# sha256 of the CSV bytes; the first is also `positivity synth demo.csv
# --seed 0`, the file the README quick start analyses
GOLDEN_CSV = [
    (
        SynthSpec(),
        0,
        "a591b2b5465af00275113f1e97796568528c31f8b02a3a9d5486f960783a0c97",
    ),
    (
        SynthSpec(
            n=2000,
            noise_covariates=8,
            logit_intercept=-4.0,
            logit_weights=(0.1, -0.8) + (0.0,) * 8,
        ),
        1,
        "0aa8152c3e2ce0e1cfe6fd0c086d80a80f13b150a59515c9072d7859bb90d83b",
    ),
    (
        SynthSpec(n=2000, carve_mode="delete"),
        1,
        "adca46e038279d8d9febcac9f45e76367994f91ef45417e1a35f532b5185f271",
    ),
]


@pytest.mark.parametrize(
    "spec, seed, digest", GOLDEN_CSV, ids=["default", "confounded", "delete"]
)
def test_csv_bytes_pinned(tmp_path, spec, seed, digest):
    path = tmp_path / "synth.csv"
    write_csv(generate(spec, seed), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generate_peak_memory_within_twice_feature_bytes():
    spec = SynthSpec(n=20_000, noise_covariates=8)
    # the first draw imports numpy.random's modules; trace the second
    generate(SynthSpec(n=10), 0)
    tracemalloc.start()
    try:
        ds = generate(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix the Dataset keeps, plus a few n-vectors for the
    # treatment draw
    assert peak <= 2 * ds.features.nbytes


class TestNoiseCovariates:
    def test_noise_columns_present_and_standard(self):
        spec = SynthSpec(n=20000, noise_covariates=2)
        ds = generate(spec, seed=7)
        assert ds.feature_names[-2:] == ("noise_0", "noise_1")
        for j in (-2, -1):
            col = ds.features[:, j]
            assert abs(col.mean()) < 0.05
            assert abs(col.std() - 1.0) < 0.05

    def test_weights_align_with_noise_columns(self):
        spec = SynthSpec(
            n=20000,
            carve=(),
            noise_covariates=1,
            logit_weights=(0.0, 0.0, 3.0),
        )
        ds = generate(spec, seed=8)
        noise = ds.features[:, 2]
        assert ds.treatment[noise > 1.0].mean() > 0.9
        assert ds.treatment[noise < -1.0].mean() < 0.1


class TestValidation:
    def test_unknown_carve_feature(self):
        with pytest.raises(ValueError, match="unknown"):
            SynthSpec(carve=(("bogus", 0.0, 1.0),))

    def test_unordered_carve_bounds(self):
        with pytest.raises(ValueError, match="low < high"):
            SynthSpec(carve=(("profile_age", 5.0, 5.0),))

    def test_duplicate_carve_feature(self):
        with pytest.raises(ValueError, match="twice"):
            SynthSpec(
                carve=(
                    ("profile_age", 0.0, 1.0),
                    ("profile_age", 2.0, 3.0),
                )
            )

    def test_bad_carve_mode(self):
        with pytest.raises(ValueError, match="carve_mode"):
            SynthSpec(carve_mode="explode")

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="logit_weights"):
            SynthSpec(logit_weights=(1.0,))

    def test_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be"):
            SynthSpec(n=0)

    def test_default_carve_matches_module_constant(self):
        assert SynthSpec().carve == DEFAULT_CARVE
