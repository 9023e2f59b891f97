"""Histogram binning: boundary rules, counts, refinement, permutation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positivity.density import (
    GroupHistograms,
    bin_indices,
    estimate_histograms,
)


def bin_of(score, bins):
    return int(bin_indices(np.array([score]), bins)[0])


class TestBinIndex:
    def test_low_score_first_bin(self):
        assert bin_of(0.005, 100) == 0

    def test_one_clamped_to_last_bin(self):
        assert bin_of(1.0, 100) == 99

    def test_half_open_boundary_goes_up(self):
        assert bin_of(0.50, 100) == 50

    def test_zero(self):
        assert bin_of(0.0, 100) == 0

    @pytest.mark.parametrize("score", [-0.01, 1.01])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ValueError, match="outside"):
            bin_indices(np.array([0.5, score]), 100)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            bin_indices(np.array([0.5]), 1)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        scores = rng.random(500)
        idx = bin_indices(scores, 37)
        for s, i in zip(scores, idx):
            assert min(int(float(s) * 37), 36) == i


class TestEstimateHistograms:
    def test_small_example(self):
        hist = estimate_histograms(
            np.array([0.1, 0.1, 0.9]), np.array([0, 0, 1]), 10
        )
        assert hist.n0 == 2
        assert hist.n1 == 1
        assert hist.counts0[1] == 2
        assert hist.counts1[9] == 1
        assert hist.counts0.sum() == 2
        assert hist.counts1.sum() == 1

    def test_exact_one_in_last_bin(self):
        hist = estimate_histograms(
            np.array([0.0, 1.0, 0.999999, 0.5]), np.array([0, 0, 0, 1]), 100
        )
        assert hist.counts0[0] == 1
        assert hist.counts0[99] == 2
        assert hist.counts1[50] == 1

    def test_equal_scores_give_identical_normalized_vectors(self):
        scores = np.tile(np.array([0.2, 0.4, 0.6, 0.8]), 2)
        treatment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        hist = estimate_histograms(scores, treatment, 10)
        np.testing.assert_allclose(
            hist.counts0 / hist.n0, hist.counts1 / hist.n1
        )

    def test_uniform_envelope(self):
        # 10000 uniforms in one group: each of 100 bins is binomial with
        # mean 100; a 6-sigma envelope is [55, 145] normal-wise and the
        # fixed seed keeps the draw stable.
        rng = np.random.default_rng(42)
        scores = np.concatenate([rng.random(10000), [0.5]])
        treatment = np.concatenate([np.zeros(10000, np.int64), [1]])
        hist = estimate_histograms(scores, treatment, 100)
        assert hist.counts0.min() >= 55
        assert hist.counts0.max() <= 145

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="group"):
            estimate_histograms(
                np.array([0.1, 0.2]), np.array([0, 0]), 10
            )

    def test_score_outside_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_histograms(
                np.array([0.1, 1.2]), np.array([0, 1]), 10
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_histograms(
                np.array([0.1, 0.2]), np.array([0, 1, 0]), 10
            )


class TestGroupHistogramsInvariants:
    def test_count_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GroupHistograms(
                bins=2,
                counts0=np.array([1, 1]),
                counts1=np.array([1, 0]),
                n0=3,
                n1=1,
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GroupHistograms(
                bins=2,
                counts0=np.array([-1, 2]),
                counts1=np.array([1, 0]),
                n0=1,
                n1=1,
            )


@st.composite
def scores_and_treatment(draw):
    n = draw(st.integers(2, 80))
    scores = draw(
        st.lists(
            st.floats(0, 1, allow_nan=False), min_size=n, max_size=n
        )
    )
    treatment = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda t: 0 < sum(t) < len(t)
        )
    )
    return np.array(scores), np.array(treatment, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(case=scores_and_treatment(), bins=st.integers(2, 60))
def test_refinement_reaggregates_exactly(case, bins):
    scores, treatment = case
    coarse = estimate_histograms(scores, treatment, bins)
    fine = estimate_histograms(scores, treatment, 2 * bins)
    np.testing.assert_array_equal(
        coarse.counts0, fine.counts0.reshape(bins, 2).sum(axis=1)
    )
    np.testing.assert_array_equal(
        coarse.counts1, fine.counts1.reshape(bins, 2).sum(axis=1)
    )


@settings(max_examples=80, deadline=None)
@given(case=scores_and_treatment(), seed=st.integers(0, 2**31))
def test_permutation_invariance(case, seed):
    scores, treatment = case
    order = np.random.default_rng(seed).permutation(len(scores))
    base = estimate_histograms(scores, treatment, 20)
    perm = estimate_histograms(scores[order], treatment[order], 20)
    np.testing.assert_array_equal(base.counts0, perm.counts0)
    np.testing.assert_array_equal(base.counts1, perm.counts1)
