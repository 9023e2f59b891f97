"""One-sided presence sets, per-bin tests, FDR correction, labels."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bh_rejections_oracle
from positivity import violation
from positivity import Config
from positivity.density import GroupHistograms, estimate_histograms
from positivity.violation import (
    bh_fdr,
    detect,
    fisher_exact_test,
    two_proportion_test,
    violation_bins,
)

# Frozen against a 50-digit mpmath normal CDF (tests/oracles.py rebuilds
# them): z for (0,500,30,500) is -5.5612799832 and the two-sided p
# values follow.
P_Z_0_500_30_500 = 2.67803150184e-8
P_Z_0_10_1_10 = 0.304901788179


def hist_from_counts(counts0, counts1):
    counts0 = np.asarray(counts0, dtype=np.int64)
    counts1 = np.asarray(counts1, dtype=np.int64)
    return GroupHistograms(
        bins=len(counts0),
        counts0=counts0,
        counts1=counts1,
        n0=int(counts0.sum()),
        n1=int(counts1.sum()),
    )


def brute_force_bins(counts0, counts1, tau):
    out = []
    for i, (a, b) in enumerate(zip(counts0, counts1)):
        present0 = a > tau
        present1 = b > tau
        if present0 != present1:
            out.append(i)
    return out


class TestViolationBins:
    def test_xor_definition(self):
        hist = hist_from_counts([3, 0, 2], [0, 4, 5])
        assert violation_bins(hist, 0) == [0, 1]

    def test_identical_histograms_empty(self):
        hist = hist_from_counts([2, 3], [2, 3])
        assert violation_bins(hist, 0) == []

    def test_threshold_marks_small_counts_as_noise(self):
        hist = hist_from_counts([1, 0], [0, 9])
        assert violation_bins(hist, 1) == [1]

    def test_negative_threshold_rejected(self):
        hist = hist_from_counts([1, 0], [0, 1])
        with pytest.raises(ValueError):
            violation_bins(hist, -1)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1,
        max_size=40,
    ),
    tau=st.sampled_from([0, 1, 5]),
)
def test_violation_bins_matches_brute_force(counts, tau):
    counts0 = [a for a, _ in counts]
    counts1 = [b for _, b in counts]
    hist = hist_from_counts(counts0, counts1)
    assert violation_bins(hist, tau) == brute_force_bins(counts0, counts1, tau)


class TestTwoProportion:
    def test_equal_proportions_give_one(self):
        assert two_proportion_test(5, 100, 5, 100) == 1.0

    def test_frozen_strong_separation(self):
        p = two_proportion_test(0, 500, 30, 500)
        assert p == pytest.approx(P_Z_0_500_30_500, rel=1e-9)

    def test_frozen_weak_separation(self):
        p = two_proportion_test(0, 10, 1, 10)
        assert p == pytest.approx(P_Z_0_10_1_10, rel=1e-9)

    def test_empty_table_convention(self):
        assert two_proportion_test(0, 10, 0, 10) == 1.0

    def test_all_successes_convention(self):
        assert two_proportion_test(10, 10, 10, 10) == 1.0

    @pytest.mark.parametrize(
        "args",
        [(-1, 10, 0, 10), (11, 10, 0, 10), (0, 0, 1, 10)],
    )
    def test_invalid_counts_rejected(self, args):
        with pytest.raises(ValueError):
            two_proportion_test(*args)


class TestFisherExact:
    def test_frozen_small_table(self):
        assert fisher_exact_test(0, 5, 3, 5) == pytest.approx(
            1.0 / 6.0, abs=1e-4
        )

    def test_symmetric_table_gives_one(self):
        assert fisher_exact_test(4, 9, 4, 9) == 1.0

    def test_single_possible_table_gives_one(self):
        assert fisher_exact_test(0, 1000, 0, 1000) == 1.0

    def test_large_counts_finite(self):
        p = fisher_exact_test(0, 100000, 500, 100000)
        assert 0.0 <= p < 1e-100

    def test_p_value_independent_of_earlier_calls(self, monkeypatch):
        # The log-factorial table is shared across calls; growing it in
        # steps must leave every entry as a single build would.
        table = (3, 24000, 0, 26000)
        monkeypatch.setattr(violation, "_LOG_FACT", np.zeros(1))
        fresh = fisher_exact_test(*table)
        single = violation._LOG_FACT.copy()
        monkeypatch.setattr(violation, "_LOG_FACT", np.zeros(1))
        for total in (60, 1000, 7777, 20000):
            fisher_exact_test(1, total // 2, 2, total - total // 2)
        assert fisher_exact_test(*table).hex() == fresh.hex()
        np.testing.assert_array_equal(violation._LOG_FACT, single)


@settings(max_examples=150, deadline=None)
@given(
    n0=st.integers(1, 40),
    n1=st.integers(1, 40),
    k0=st.integers(0, 40),
    k1=st.integers(0, 40),
)
def test_tests_are_label_symmetric_and_in_range(n0, n1, k0, k1):
    k0 = min(k0, n0)
    k1 = min(k1, n1)
    p = two_proportion_test(k0, n0, k1, n1)
    assert 0.0 <= p <= 1.0
    # the swapped z is an exact negation, so the p-value is bit-equal
    assert p == two_proportion_test(k1, n1, k0, n0)
    p = fisher_exact_test(k0, n0, k1, n1)
    assert 0.0 <= p <= 1.0
    # log-factorial terms reorder under the swap; equal only to rounding
    assert math.isclose(p, fisher_exact_test(k1, n1, k0, n0), rel_tol=1e-12)


class TestBhFdr:
    def test_empty(self):
        assert bh_fdr([]).size == 0

    def test_frozen_example_all_rejected(self):
        adjusted = bh_fdr([0.001, 0.008, 0.039, 0.041])
        np.testing.assert_allclose(adjusted, [0.004, 0.016, 0.041, 0.041])
        assert (adjusted < 0.05).all()

    def test_single_value_identity(self):
        np.testing.assert_allclose(bh_fdr([0.03]), [0.03])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.5])

    def test_capped_at_one(self):
        assert bh_fdr([1.0, 1.0, 1.0]).max() == 1.0

    def test_rejections_match_classic_rule_in_exact_arithmetic(self):
        # Thresholding adjusted values at alpha equals the classic
        # largest-k step-up rule. The equivalence holds on exact
        # rationals; in floats the two formulas can round a boundary
        # case (p*m/k == alpha) to opposite sides, so the comparison
        # runs on Fractions and the float output is checked against the
        # exact adjustment separately.
        rng = np.random.default_rng(23)
        alphas = (Fraction(1, 100), Fraction(1, 20), Fraction(3, 10))
        for _ in range(50):
            m = int(rng.integers(1, 31))
            pvalues = np.round(rng.random(m), 2)
            order = sorted(range(m), key=lambda i: (pvalues[i], i))
            exact = [Fraction(0)] * m
            running = Fraction(1)
            for rank in range(m, 0, -1):
                i = order[rank - 1]
                running = min(running, Fraction(pvalues[i]) * m / rank)
                exact[i] = running
            adjusted = bh_fdr(pvalues)
            for i in range(m):
                assert abs(adjusted[i] - float(exact[i])) <= 1e-12
            for alpha in alphas:
                stepup = {i for i in range(m) if exact[i] <= alpha}
                assert stepup == bh_rejections_oracle(list(pvalues), alpha)


def bh_stepup_oracle(pvalues):
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, pvalues[i] * m / rank)
        adjusted[i] = running
    return adjusted


@settings(max_examples=200, deadline=None)
@given(
    pvalues=st.lists(st.floats(0, 1, allow_nan=False), max_size=50)
)
def test_bh_matches_literal_stepup(pvalues):
    got = bh_fdr(pvalues)
    want = bh_stepup_oracle(pvalues)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)
    assert (got >= np.asarray(pvalues) - 1e-15).all()


@settings(max_examples=100, deadline=None)
@given(
    pvalues=st.lists(
        st.floats(0, 1, allow_nan=False), min_size=1, max_size=50
    ),
    alphas=st.tuples(st.floats(0.001, 0.5), st.floats(0.001, 0.5)),
)
def test_bh_rejections_monotone_in_alpha(pvalues, alphas):
    low, high = sorted(alphas)
    adjusted = bh_fdr(pvalues)
    rejected_low = set(np.nonzero(adjusted < low)[0])
    rejected_high = set(np.nonzero(adjusted < high)[0])
    assert rejected_low <= rejected_high


class TestDetect:
    def one_bin_case(self, test_kind="z"):
        # Group 0: 500 scores in bin 1; group 1: 470 in bin 1, 30 in
        # bin 8 -> suspected bin 8 with k0=0, k1=30.
        scores = np.concatenate(
            [
                np.full(500, 0.15),
                np.full(470, 0.15),
                np.full(30, 0.85),
            ]
        )
        treatment = np.concatenate(
            [np.zeros(500, np.int64), np.ones(500, np.int64)]
        )
        hist = estimate_histograms(scores, treatment, 10)
        config = Config(bins=10, alpha=0.01, test_kind=test_kind)
        return detect(hist, config, scores, treatment), hist

    def test_single_suspected_bin_rejected_and_labeled(self):
        report, _ = self.one_bin_case()
        assert report.suspected == (8,)
        assert report.violation_detected
        assert report.bin_mask.sum() == 1
        assert bool(report.bin_mask[8])
        assert report.sample_labels0.sum() == 0
        assert report.sample_labels1.sum() == 30
        test = report.tests[0]
        assert test.k0 == 0
        assert test.k1 == 30
        assert test.p_raw == pytest.approx(P_Z_0_500_30_500, rel=1e-9)
        assert test.p_adj == test.p_raw
        assert test.significant

    def test_fisher_kind_also_rejects(self):
        report, _ = self.one_bin_case("fisher")
        assert report.violation_detected
        assert report.tests[0].p_raw < 0.01

    def test_no_suspected_bins_clean_verdict(self):
        scores = np.array([0.2, 0.2, 0.2, 0.2])
        treatment = np.array([0, 0, 1, 1])
        hist = estimate_histograms(scores, treatment, 10)
        report = detect(hist, Config(bins=10), scores, treatment)
        assert report.suspected == ()
        assert report.tests == ()
        assert not report.violation_detected
        assert report.sample_labels0.sum() == 0
        assert report.sample_labels1.sum() == 0

    def test_adjusted_at_least_raw(self):
        report, _ = self.one_bin_case()
        for test in report.tests:
            assert test.p_adj >= test.p_raw

    def test_mismatched_group_sizes_rejected(self):
        report, hist = self.one_bin_case()
        scores = np.array([0.1, 0.9])
        treatment = np.array([0, 1])
        with pytest.raises(ValueError):
            detect(hist, Config(bins=10), scores, treatment)

    def test_labels_require_own_group_presence(self):
        # Suspected bin belongs to group 1; group 0 samples in other
        # bins must stay unlabeled even though the bin is significant.
        report, hist = self.one_bin_case()
        assert hist.counts0[8] == 0
        assert not report.sample_labels0.any()
