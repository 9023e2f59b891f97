"""Logistic propensity model: loss, fit, predict, metrics, expansion."""

import gc
import hashlib
import logging
import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positivity import Config, Dataset, SynthSpec, analyze_dataset, generate
from positivity.propensity import (
    MAX_DESIGN_COLUMNS,
    auc,
    expand_features,
    fit,
    fit_predict,
    log_loss,
    logistic_loss_grad,
    predict,
)
from positivity import _schwarz, pipeline, propensity
from positivity.synth import DEFAULT_CARVE

from oracles import reference_sigmoid, reference_softplus


def logit(p):
    return math.log(p / (1.0 - p))


def raw_design(features, treatment, names=()):
    """The raw design of a dataset: its columns and no indicator passes."""
    return expand_features(Dataset(features, treatment, names), 0)


def make_design(n=200, d=3, seed=0, weights=None, intercept=0.0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    if weights is None:
        weights = np.zeros(d)
    z = features @ weights + intercept
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)
    if treatment.min() == treatment.max():
        treatment[0] = 1 - treatment[0]
    return raw_design(features, treatment)


class TestLossGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((40, 3))
        labels = rng.integers(0, 2, 40).astype(np.float64)
        for _ in range(20):
            params = rng.standard_normal(4)
            _, grad = logistic_loss_grad(params, features, labels, 0.01)
            eps = 1e-6
            for j in range(4):
                bump = np.zeros(4)
                bump[j] = eps
                hi, _ = logistic_loss_grad(
                    params + bump, features, labels, 0.01
                )
                lo, _ = logistic_loss_grad(
                    params - bump, features, labels, 0.01
                )
                numeric = (hi - lo) / (2 * eps)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(grad[j] - numeric) / denom < 1e-5

    def test_penalty_excludes_intercept(self):
        features = np.zeros((4, 1))
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        params = np.array([0.0, 3.0])
        loss_small, _ = logistic_loss_grad(params, features, labels, 0.0)
        loss_big, _ = logistic_loss_grad(params, features, labels, 100.0)
        assert loss_small == loss_big


_LOGISTIC_EDGES = np.array([
    0.0, 1e-300, 1e-17, 0.5, 1.0, 18.0, 36.0, 37.0,
    709.0, 710.0, 745.0, 746.0, 800.0, np.inf,
])
LOGISTIC_GRID = np.concatenate([
    _LOGISTIC_EDGES,
    -_LOGISTIC_EDGES,
    np.linspace(-60.0, 60.0, 4801),
    np.random.default_rng(24).uniform(-800.0, 800.0, 2000),
])


class TestLogisticTerms:
    """The one-exp logistic terms against the earlier two-branch forms."""

    def test_sigmoid_bitwise_equal_to_masked_form(self):
        want = reference_sigmoid(LOGISTIC_GRID).view(np.int64)
        got = propensity._sigmoid(LOGISTIC_GRID)
        np.testing.assert_array_equal(got.view(np.int64), want)
        _, p = propensity._softplus_sigmoid(LOGISTIC_GRID)
        np.testing.assert_array_equal(p.view(np.int64), want)

    def test_softplus_within_ulps_of_logaddexp(self):
        got, _ = propensity._softplus_sigmoid(LOGISTIC_GRID)
        want = reference_softplus(LOGISTIC_GRID)
        # np.exp and np.log1p may run vectorized kernels that round apart
        # from the C library calls inside np.logaddexp, by up to two ulps
        # each; at 0 and at the far ends both forms are exact
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
        exact = np.isin(np.abs(LOGISTIC_GRID), (0.0, 800.0, np.inf))
        np.testing.assert_array_equal(got[exact], want[exact])


class TestFit:
    def test_separated_data_positive_weight(self):
        features = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        treatment = np.array([0] * 10 + [1] * 10)
        model = fit(raw_design(features, treatment))
        assert model.weights[0] > 0

    def test_constant_feature_weight_exactly_zero(self):
        rng = np.random.default_rng(1)
        features = np.column_stack(
            [rng.standard_normal(50), np.full(50, 7.0)]
        )
        treatment = rng.integers(0, 2, 50)
        treatment[0], treatment[1] = 0, 1
        model = fit(raw_design(features, treatment))
        assert model.weights[1] == 0.0
        assert model.feature_stds[1] == 1.0

    def test_huge_lambda_collapses_to_intercept_model(self, monkeypatch):
        ds = make_design(n=400, seed=2, weights=np.array([1.0, -1.0, 0.5]))
        monkeypatch.setattr(propensity, "_L2_LAMBDA", 1e6)
        model = fit(ds)
        target = logit(ds.treatment.mean())
        assert np.abs(model.weights).max() < 1e-3
        assert model.intercept == pytest.approx(target, abs=1e-3)

    def test_reports_convergence(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="positivity.propensity"):
            model = fit(make_design(seed=3))
        assert model.converged
        assert model.n_iter >= 1
        assert len(model.cg_iters) == model.n_iter
        assert all(iters >= 1 for iters in model.cg_iters)
        assert (
            f"converged in {model.n_iter} iterations, "
            f"{sum(model.cg_iters)} CG iterations" in caplog.text
        )

    def test_stops_at_first_failed_line_search(self, monkeypatch, caplog):
        real = propensity._loss_grad_p
        calls = []

        def every_step_worse(params, *args):
            loss, grad, p = real(params, *args)
            calls.append(None)
            return (loss if len(calls) == 1 else loss + 1.0), grad, p

        monkeypatch.setattr(propensity, "_loss_grad_p", every_step_worse)
        with caplog.at_level(logging.WARNING, logger="positivity.propensity"):
            model = fit(make_design(seed=3))
        assert model.n_iter == 1
        assert len(model.cg_iters) == 1
        assert not model.converged
        # the initial loss plus one search of 30 halvings
        assert len(calls) == 31
        assert "propensity fit stopped unconverged" in caplog.text
        assert (
            "at Newton step 1, whose line search found no halving"
            in caplog.text
        )
        assert "limit of" not in caplog.text

    def test_stops_at_newton_step_limit(self, monkeypatch, caplog):
        monkeypatch.setattr(propensity, "_MAX_NEWTON_STEPS", 1)
        with caplog.at_level(logging.WARNING, logger="positivity.propensity"):
            model = fit(make_design(n=400, seed=3, weights=np.ones(3)))
        assert model.n_iter == 1
        assert not model.converged
        assert (
            "propensity fit stopped unconverged at the limit of 1 Newton "
            "steps" in caplog.text
        )
        assert "line search" not in caplog.text

    @pytest.mark.parametrize(
        "group, missing", [(0, "treated (T=1)"), (1, "control (T=0)")]
    )
    def test_one_group_rejected(self, group, missing):
        ds = make_design(n=30, seed=2)
        one = raw_design(ds.raw, np.full(30, group, dtype=np.int64))
        with pytest.raises(ValueError) as info:
            fit(one)
        assert str(info.value) == (
            f"propensity fit: no {missing} row among the 30 training rows"
        )

    @pytest.mark.parametrize(
        "column, moment",
        [
            # the squares of the deviations overflow
            ([1e308, -1e308] * 25, "standard deviation"),
            ([1e200, -1e200] * 25, "standard deviation"),
            # the sum overflows
            ([1e308] * 49 + [0.0], "mean"),
        ],
        ids=["pm_1e308", "pm_1e200", "sum"],
    )
    def test_overflowing_column_rejected(self, column, moment):
        ds = make_design(n=50, d=1, seed=2)
        features = np.column_stack([ds.raw[:, 0], column])
        wide = raw_design(features, ds.treatment, ("u", "big"))
        lo, hi = min(column), max(column)
        with pytest.raises(ValueError) as info:
            fit(wide)
        assert str(info.value) == (
            f"propensity fit: column 'big' spans [{lo!r}, {hi!r}], so its "
            f"{moment} overflows"
        )

    def test_underflowing_column_rejected(self):
        # the squared deviations (1e-400) underflow to 0, so the std reads
        # 0 although the column separates the groups perfectly
        ds = make_design(n=50, d=1, seed=2)
        tiny = np.where(ds.treatment == 1, 1e-200, -1e-200)
        features = np.column_stack([ds.raw[:, 0], tiny])
        with pytest.raises(ValueError) as info:
            fit(raw_design(features, ds.treatment, ("u", "tiny")))
        assert str(info.value) == (
            "propensity fit: column 'tiny' spans [-1e-200, 1e-200], so its "
            "standard deviation underflows"
        )

    @pytest.mark.parametrize("bad_call", [1, 2])
    def test_non_finite_gradient_raises(self, monkeypatch, bad_call):
        real = propensity._loss_grad_p
        calls = []

        def nan_gradient(params, *args):
            loss, grad, p = real(params, *args)
            calls.append(None)
            if len(calls) == bad_call:
                grad = np.full_like(grad, np.nan)
            return loss, grad, p

        monkeypatch.setattr(propensity, "_loss_grad_p", nan_gradient)
        with pytest.raises(ValueError, match="non-finite loss .* or gradient"):
            fit(make_design(seed=3))
        assert len(calls) == bad_call


class TestPredict:
    def test_zero_model_gives_half(self):
        ds = make_design(n=50, seed=4)
        model = fit(ds)
        zeroed = model.__class__(
            weights=np.zeros_like(model.weights),
            intercept=0.0,
            feature_means=model.feature_means,
            feature_stds=model.feature_stds,
            feature_names=model.feature_names,
            n_iter=0,
            converged=True,
            cg_iters=(),
        )
        np.testing.assert_allclose(predict(zeroed, ds), 0.5)

    def test_intercept_only_model_hits_target(self):
        ds = make_design(n=50, seed=4)
        model = fit(ds)
        biased = model.__class__(
            weights=np.zeros_like(model.weights),
            intercept=logit(0.8),
            feature_means=model.feature_means,
            feature_stds=model.feature_stds,
            feature_names=model.feature_names,
            n_iter=0,
            converged=True,
            cg_iters=(),
        )
        np.testing.assert_allclose(predict(biased, ds), 0.8, atol=1e-12)

    def test_scores_strictly_inside_unit_interval(self):
        ds = make_design(n=100, seed=6)
        model = fit(ds)
        extreme = model.__class__(
            weights=np.array([1e3, 0.0, 0.0]),
            intercept=0.0,
            feature_means=model.feature_means,
            feature_stds=model.feature_stds,
            feature_names=model.feature_names,
            n_iter=0,
            converged=True,
            cg_iters=(),
        )
        op = propensity._Standardized(
            ds, extreme.feature_means, extreme.feature_stds
        )
        # the unclipped sigmoid rounds to exactly 0 and 1 on some rows
        raw = propensity._sigmoid(op @ extreme.weights + extreme.intercept)
        assert (raw == 0.0).any() and (raw == 1.0).any()
        scores = predict(extreme, ds)
        assert (scores > 0.0).all()
        assert (scores < 1.0).all()

    def test_feature_name_mismatch_rejected(self):
        ds = make_design(n=30, seed=7)
        model = fit(ds)
        renamed = raw_design(ds.raw, ds.treatment, ("a", "b", "c"))
        with pytest.raises(ValueError, match="feature names"):
            predict(model, renamed)

    def test_design_of_other_bins_rejected(self):
        # the same raw names, but 80 design columns where the model has 288
        rng = np.random.default_rng(7)
        treatment = rng.integers(0, 2, 200)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(rng.uniform(0, 1, (200, 2)), treatment)
        model = fit(expand_features(ds, 16))
        assert model.weights.size == 288
        with pytest.raises(ValueError, match="feature names"):
            predict(model, expand_features(ds, 8))


class TestFitPredict:
    def test_separable_auc_one(self):
        features = np.array([[-1.0]] * 5 + [[1.0]] * 5)
        treatment = np.array([0] * 5 + [1] * 5)
        result = fit_predict(raw_design(features, treatment), Config())
        assert result.auc == 1.0
        assert result.folds == 1

    def test_coin_flip_auc_near_half(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((10000, 2))
        treatment = rng.integers(0, 2, 10000)
        result = fit_predict(raw_design(features, treatment), Config())
        assert 0.45 <= result.auc <= 0.58

    def test_in_sample_deterministic(self):
        ds = make_design(n=300, seed=9, weights=np.array([0.5, 0.0, -0.5]))
        a = fit_predict(ds, Config())
        b = fit_predict(ds, Config())
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.auc == b.auc
        assert a.log_loss == b.log_loss

    def test_cross_fit_scores_every_row_once(self):
        ds = make_design(n=103, seed=10, weights=np.array([1.0, 0.0, 0.0]))
        result = fit_predict(ds, Config(cross_fit_folds=5, seed=3))
        assert result.folds == 5
        assert result.scores.shape == (103,)
        assert (result.scores > 0.0).all() and (result.scores < 1.0).all()
        # Different seed permutes folds, so out-of-fold scores move.
        other = fit_predict(ds, Config(cross_fit_folds=5, seed=4))
        assert not np.array_equal(result.scores, other.scores)

    @pytest.mark.parametrize("folds", [1, 3])
    def test_per_fold_fit_outcomes_match_direct_fits(self, folds):
        ds = make_design(n=120, seed=12, weights=np.array([1.0, 0.0, -0.5]))
        result = fit_predict(ds, Config(cross_fit_folds=folds, seed=6))
        if folds == 1:
            models = [fit(ds)]
        else:
            rng = np.random.default_rng(6)
            splits = np.array_split(rng.permutation(ds.n), folds)
            models = [
                fit(raw_design(np.delete(ds.raw, fold, axis=0),
                               np.delete(ds.treatment, fold)))
                for fold in splits
            ]
        assert result.n_iter == tuple(m.n_iter for m in models)
        assert result.converged == tuple(m.converged for m in models)
        assert result.cg_iters == tuple(sum(m.cg_iters) for m in models)
        assert len(result.n_iter) == folds
        assert all(result.converged)

    def test_cross_fit_more_folds_than_rows_rejected(self):
        ds = make_design(n=20, seed=11)
        with pytest.raises(ValueError, match="folds"):
            fit_predict(ds, Config(cross_fit_folds=21))

    def test_two_point_metrics(self):
        result_auc = auc(np.array([0.1, 0.9]), np.array([0, 1]))
        assert result_auc == 1.0
        loss = log_loss(np.array([0.1, 0.9]), np.array([0, 1]))
        assert loss == pytest.approx(-(math.log(0.9) + math.log(0.9)) / 2)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.2, 0.8]), np.array([0, 1])) == 1.0

    def test_ties_count_half(self):
        assert auc(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    def test_enumerated_pairs(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auc(scores, labels) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_pairwise_count_on_tie_heavy_scores(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        scores = rng.integers(0, 5, n) / 4.0
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        treated = scores[labels == 1][:, None]
        control = scores[labels == 0][None, :]
        # twice the Mann-Whitney U: 2 per pair won, 1 per pair tied
        twice_u = int(2 * (treated > control).sum() + (treated == control).sum())
        want = Fraction(twice_u, 2 * treated.size * control.size)
        assert auc(scores, labels) == float(want)

    @settings(max_examples=60, deadline=None)
    @given(
        # A 0.01 grid keeps distinct scores distinct after the sigmoid,
        # so the transform preserves the tie structure exactly.
        scores=st.lists(st.integers(1, 99), min_size=4, max_size=30),
        labels=st.lists(st.integers(0, 1), min_size=4, max_size=30).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        ),
    )
    def test_invariant_under_monotone_transform(self, scores, labels):
        k = min(len(scores), len(labels))
        scores = np.array(scores[:k]) / 100.0
        labels = np.array(labels[:k])
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        squashed = auc(1.0 / (1.0 + np.exp(-5.0 * scores)), labels)
        assert base == pytest.approx(squashed, abs=1e-12)


def indicator_blocks(design):
    """(codes, columns) of every indicator block, decoded from the passes.

    A pass gives its cell codes, then the bin levels of its grid rows
    (``codes // kb``) and of its grid columns (``codes % kb``). Blocks
    come back in column order.
    """
    blocks = []
    for codes, cells, grid, rows, cols in design.passes:
        blocks.append((codes, cells))
        if rows is not None:
            blocks.append((codes // grid[1], rows))
        if cols is not None:
            blocks.append((codes % grid[1], cols))
    return sorted(blocks, key=lambda block: block[1].start)


def dense(design):
    """The n x D float matrix a design stands for: the reference."""
    d_raw = design.raw.shape[1]
    x = np.zeros((design.n, design.d))
    x[:, :d_raw] = design.raw
    rows = np.arange(design.n)
    for codes, cols in indicator_blocks(design):
        x[rows, cols.start + codes] = 1.0
    return x


def block_at(design, start):
    """(codes, k) of the indicator block whose k columns start at start."""
    for codes, cols in indicator_blocks(design):
        if cols.start == start:
            return codes, cols.stop - cols.start
    raise AssertionError(f"no block starts at column {start}")


def raw_bins(col, bins):
    """Equal-width bin of each value over the column's range: the reference."""
    lo, hi = col.min(), col.max()
    edges = lo + (hi - lo) * np.arange(1, bins) / bins
    return np.searchsorted(edges, col, side="right")


def assert_partitions_rows(codes, k, n):
    """Every row sits in exactly one of the block's k columns."""
    assert codes.shape == (n,)
    assert np.issubdtype(codes.dtype, np.integer)
    assert 0 <= codes.min() and codes.max() < k


class TestExpandFeatures:
    def make(self):
        rng = np.random.default_rng(12)
        features = np.column_stack(
            [
                rng.uniform(0, 100, 60),
                rng.uniform(-5, 5, 60),
                rng.integers(0, 2, 60).astype(float),
                np.full(60, 3.0),
            ]
        )
        treatment = rng.integers(0, 2, 60)
        treatment[0], treatment[1] = 0, 1
        return Dataset(features, treatment, ("a", "b", "flag", "const"))

    # the layout of make() at 4 bins: the bins of a (0..3) and of b
    # (4..7), the two levels of flag (8, 9); the cells of a * b (10..25),
    # which carry both bin blocks, of a * flag (26..33), which carry
    # flag's levels, and of b * flag (34..41); const has no column

    def test_holds_no_raw_columns(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        assert out.feature_names == ds.feature_names
        assert out.raw.shape == (ds.n, 0)
        np.testing.assert_array_equal(out.treatment, ds.treatment)
        assert out.n == ds.n
        assert out.d == 42
        # the indicator blocks tile the columns from the first on
        cols = [cols for _, cols in indicator_blocks(out)]
        assert [c.start for c in cols] == [0] + [c.stop for c in cols[:-1]]
        assert cols[-1].stop == out.d

    def test_zero_bins_is_the_raw_design(self):
        ds = self.make()
        out = expand_features(ds, 0)
        assert out.passes == ()
        assert out.d == ds.d == 4
        assert out.feature_names == ds.feature_names
        np.testing.assert_array_equal(out.raw, ds.features)
        np.testing.assert_array_equal(out.treatment, ds.treatment)

    @pytest.mark.parametrize("bins", [-1, 1])
    def test_bins_neither_zero_nor_two_rejected(self, bins):
        message = f"^bins must be 0 or >= 2, got {bins}$"
        with pytest.raises(ValueError, match=message):
            expand_features(self.make(), bins)

    def test_indicator_blocks_partition_rows(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        for start, levels in ((0, 4), (4, 4), (8, 2)):
            codes, k = block_at(out, start)
            assert k == levels
            assert_partitions_rows(codes, k, ds.n)

    def test_binary_column_is_a_two_level_block(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        # flag's two levels are the grid columns of a * flag, the first
        # pair that contains it, and const is in no pass
        assert [p[1:] for p in out.passes] == [
            (slice(10, 26), (4, 4), slice(0, 4), slice(4, 8)),
            (slice(26, 34), (4, 2), None, slice(8, 10)),
            (slice(34, 42), (4, 2), None, None),
        ]
        assert out.pass_features == ((0, 1), (0, 2), (1, 2))
        codes, _ = block_at(out, 8)
        np.testing.assert_array_equal(codes, ds.features[:, 2])

    def test_pair_cells_partition_rows(self):
        ds = self.make()
        out = expand_features(ds, bins=3)
        # a * b follows the 3 bins of a and of b and the 2 levels of flag
        assert out.passes[0][1:3] == (slice(8, 17), (3, 3))
        codes, k = block_at(out, 8)
        assert k == 9
        assert_partitions_rows(codes, k, ds.n)

    def test_binary_column_pairs_at_two_bins(self):
        ds = self.make()
        out = expand_features(ds, bins=2)
        # the bins of a, then of b, then the levels of flag; then the
        # cells of a * b, a * flag and b * flag
        assert [cols for _, cols in indicator_blocks(out)] == [
            slice(0, 2), slice(2, 4), slice(4, 6),
            slice(6, 10), slice(10, 14), slice(14, 18),
        ]
        assert [p[2] for p in out.passes] == [(2, 2)] * 3
        codes, k = block_at(out, 10)
        assert k == 4
        assert_partitions_rows(codes, k, ds.n)
        flag = ds.features[:, 2]
        np.testing.assert_array_equal(np.isin(codes, (1, 3)), flag == 1.0)

    def test_default_cap_keeps_leading_pairs(self, caplog):
        rng = np.random.default_rng(14)
        n, d, bins = 200, 10, 16
        features = rng.uniform(0, 1, (n, d))
        treatment = rng.integers(0, 2, n)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(features, treatment)
        with caplog.at_level(logging.WARNING, logger="positivity.propensity"):
            out = expand_features(ds, bins=bins)
        assert "column cap 2048 reached" in caplog.text
        mains = d * bins
        kept = (MAX_DESIGN_COLUMNS - mains) // (bins * bins)
        assert out.d == mains + kept * bins * bins <= MAX_DESIGN_COLUMNS
        assert out.feature_names == ds.feature_names
        # x0 * x1 .. x0 * x7 carry the bins of x0 .. x7; x8 and x9 are alone
        assert len(out.passes) == 2 + kept
        pairs = list(combinations(range(d), 2))[:kept]
        for k, (a, b) in enumerate(pairs):
            codes, levels = block_at(out, mains + k * bins * bins)
            assert levels == bins * bins
            assert_partitions_rows(codes, levels, n)
            # the cell of a row is its bin of x_a times bins plus of x_b
            np.testing.assert_array_equal(
                codes,
                raw_bins(features[:, a], bins) * bins
                + raw_bins(features[:, b], bins),
            )

    def test_bin_blocks_past_cap_rejected(self):
        rng = np.random.default_rng(15)
        treatment = rng.integers(0, 2, 50)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(rng.uniform(0, 1, (50, 3)), treatment)
        with pytest.raises(ValueError, match="9000 columns .* cap 2048"):
            expand_features(ds, bins=3000)
        # just under the cap the bin blocks are kept and no pair fits
        out = expand_features(ds, bins=MAX_DESIGN_COLUMNS // 3)
        assert out.d == 3 * 682 <= MAX_DESIGN_COLUMNS
        assert len(out.passes) == 3

    def test_cap_checked_without_per_column_memory(self):
        # the cap is checked from counts, before any pair's codes exist
        rng = np.random.default_rng(15)
        treatment = rng.integers(0, 2, 50)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(rng.uniform(0, 1, (50, 3)), treatment)
        message = (
            "expand_features: 1200000 columns before any feature pair "
            "exceed the column cap 2048; use fewer bins"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                expand_features(ds, bins=400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one Python object per column of the 1.2M would take over 1 MiB
        assert peak < 2**20

    def test_bin_width_checked_before_cap(self):
        rng = np.random.default_rng(15)
        features = rng.uniform(0, 1, (50, 3))
        features[:2, 2] = -1.7e308, 1.7e308
        treatment = rng.integers(0, 2, 50)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(features, treatment, ("a", "b", "huge"))
        # the first two columns alone pass the cap
        with pytest.raises(ValueError, match="column 'huge' spans .* inf"):
            expand_features(ds, bins=400_000)

    @pytest.mark.parametrize("capped", [False, True], ids=["small", "capped"])
    def test_decoded_bins_match_raw_binning(self, capped):
        # capped: x0's bins are the grid rows of x0 * x1, x1's levels and
        # x2 .. x8's bins the grid columns of x0 * x1 .. x0 * x8, x9's a
        # pass of their own
        ds, bins = (capped_dataset(), 16) if capped else (self.make(), 4)
        out = expand_features(ds, bins=bins)
        # one block per non-constant feature, in feature order: a binary
        # feature's levels are its values; constant features have none
        want = {}
        end = 0
        for col in ds.features.T:
            if col.min() == col.max():
                continue
            binary = set(col) == {0.0, 1.0}
            want[end] = col if binary else raw_bins(col, bins)
            end += 2 if binary else bins
        decoded = {
            cols.start: codes for codes, cols in indicator_blocks(out)
            if cols.start < end
        }
        assert decoded.keys() == want.keys()
        for start, codes in want.items():
            np.testing.assert_array_equal(decoded[start], codes)

    def test_take_subsets_rows(self):
        out = expand_features(self.make(), bins=3)
        rows = np.array([5, 0, 17, 42])
        sub = out.take(rows)
        assert sub.feature_names == out.feature_names
        assert sub.n == 4 and sub.d == out.d
        np.testing.assert_array_equal(dense(sub), dense(out)[rows])
        np.testing.assert_array_equal(sub.treatment, out.treatment[rows])


def gapped_design():
    """A small design with a binary, a constant and a gapped column."""
    n = 300
    rng = np.random.default_rng(21)
    a = rng.uniform(0, 10, n)
    # bins=4 over [0, 4] puts every row in level 0 or 3
    gapped = rng.choice([0.0, 0.5, 3.5, 4.0], n)
    flag = rng.integers(0, 2, n).astype(float)
    features = np.column_stack([a, gapped, flag, np.full(n, 3.0)])
    z = 0.3 * (a - 5.0) - 0.8 * flag + ((a > 6) & (gapped > 2))
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    ds = Dataset(features, treatment, ("a", "gapped", "flag", "const"))
    return expand_features(ds, bins=4)


def capped_dataset():
    """The data of test_default_cap_keeps_leading_pairs with x1 binary."""
    rng = np.random.default_rng(14)
    features = rng.uniform(0, 1, (200, 10))
    features[:, 1] = features[:, 1] < 0.4
    treatment = rng.integers(0, 2, 200)
    treatment[0], treatment[1] = 0, 1
    return Dataset(features, treatment)


def capped_design():
    """A capped design: every kind of pass, see test_capped_pass_layout."""
    return expand_features(capped_dataset(), bins=16)


def test_capped_design_says_what_it_kept(caplog):
    # capped_design keeps x0 * x1 .. x0 * x8 of the 45 pairs
    with caplog.at_level(logging.INFO, logger="positivity"):
        analyze_dataset(capped_dataset(), Config())
    assert (
        "column cap 2048 reached: kept 8 of 45 feature pairs" in caplog.text
    )
    assert (
        "propensity design: 1970 columns (0 raw, 10 level blocks, 8 pairs)"
        in caplog.text
    )


def test_design_released_before_trees(monkeypatch):
    # the trees read the raw features, so the design's level codes and
    # the passes the fit cached must be freed before they grow
    designs, held = [], []
    expand, build = pipeline.expand_features, pipeline.build_tree

    def recording_expand(*args):
        design = expand(*args)
        designs.append(weakref.ref(design))
        return design

    def checking_build(*args, **kwargs):
        gc.collect()
        held.append(designs[0]() is not None)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "expand_features", recording_expand)
    monkeypatch.setattr(pipeline, "build_tree", checking_build)
    analyze_dataset(generate(SynthSpec(), seed=0), Config())
    assert held and not any(held)


def standardized(design):
    """The fit's standardized operator on a design of plain rows."""
    return propensity._Standardized(
        design, *propensity._column_moments(design, np.ones(design.n))
    )


def dense_standardized(design):
    x = dense(design)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    return (x - means) / np.where(stds == 0.0, 1.0, stds), stds == 0.0


def record_fits(monkeypatch):
    """The (training design, model) of every later ``fit``, in call order."""
    real = propensity.fit
    fits = []

    def recording(train):
        model = real(train)
        fits.append((train, model))
        return model

    monkeypatch.setattr(propensity, "fit", recording)
    return fits


class TestDesignParity:
    """The level-code operator against the materialized dense design."""

    def test_capped_pass_layout(self):
        # columns: 16 bins of x0, the 2 levels of the binary x1, 16 bins
        # for each of x2 .. x9. The cap keeps x0 * x1 .. x0 * x8: x0 * x1
        # carries x0's bins as its grid rows and x1's levels as its grid
        # columns, x0 * x2 .. x0 * x8 carry x2 .. x8's bins as grid
        # columns, and x9's bins, which no kept pair contains, get a pass
        # first
        levels = [slice(0, 16), slice(16, 18)] + [
            slice(start, start + 16) for start in range(18, 146, 16)
        ]
        pairs = [slice(146, 178)] + [
            slice(start, start + 256) for start in range(178, 1970, 256)
        ]
        layout = [(pairs[0], (16, 2), levels[0], levels[1])] + [
            (cells, (16, 16), None, cols)
            for cells, cols in zip(pairs[1:], levels[2:9])
        ]
        design = capped_design()
        assert design.d == 1970
        assert [p[1:] for p in design.passes] == [
            (levels[9], (16,), None, None)
        ] + layout
        assert design.pass_features == (
            ((9,),) + tuple((0, b) for b in range(1, 9))
        )

    def test_take_keeps_pass_layout(self):
        design = capped_design()
        rows = np.array([3, 1, 4])
        sub = design.take(rows)
        assert [p[1:] for p in sub.passes] == [p[1:] for p in design.passes]
        assert sub.pass_features == design.pass_features
        for got, full in zip(sub.passes, design.passes):
            np.testing.assert_array_equal(got[0], full[0][rows])

    @pytest.mark.parametrize(
        "make", [gapped_design, capped_design], ids=["gapped", "capped"]
    )
    def test_loss_grad_match_dense(self, make):
        design = make()
        x_std, _ = dense_standardized(design)
        op = standardized(design)
        labels = design.treatment.astype(np.float64)
        rng = np.random.default_rng(22)
        for lam in (0.0, 1e-4, 0.5):
            params = rng.standard_normal(design.d + 1)
            loss_op, grad_op = logistic_loss_grad(params, op, labels, lam)
            loss_x, grad_x = logistic_loss_grad(params, x_std, labels, lam)
            assert abs(loss_op - loss_x) <= 1e-12
            np.testing.assert_allclose(grad_op, grad_x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "make", [gapped_design, capped_design], ids=["gapped", "capped"]
    )
    def test_transposed_product_matches_dense(self, make):
        design = make()
        x_std, _ = dense_standardized(design)
        op = standardized(design)
        r = np.random.default_rng(24).standard_normal(design.n)
        got = r @ op
        # ndarray @ op deferred to op.__rmatmul__: no object array
        assert got.dtype == np.float64 and got.shape == (design.d,)
        np.testing.assert_allclose(got, r @ x_std, rtol=0, atol=1e-12)

    def test_moments_match_dense(self):
        design = gapped_design()
        x = dense(design)
        means, stds = propensity._column_moments(design, np.ones(design.n))
        # n rounding errors of one ulp each at most
        tol = design.n * np.finfo(np.float64).eps
        np.testing.assert_allclose(means, x.mean(axis=0), rtol=0, atol=tol)
        np.testing.assert_allclose(stds, x.std(axis=0), rtol=0, atol=tol)
        constant = x.std(axis=0) == 0.0
        np.testing.assert_array_equal(stds == 0.0, constant)
        # columns: the 4 bins of a and of gapped, then flag's 2 levels;
        # gapped's bins 1 and 2 (columns 5 and 6) hold no row
        constant_cols = set(np.flatnonzero(constant))
        assert {5, 6} <= constant_cols
        assert not {8, 9} & constant_cols

    def test_hessian_vector_matches_central_differences(self):
        design = gapped_design()
        op = standardized(design)
        labels = design.treatment.astype(np.float64)
        lam = propensity._L2_LAMBDA
        rng = np.random.default_rng(23)
        params = 0.3 * rng.standard_normal(design.d + 1)
        p = propensity._sigmoid(op @ params[:-1] + params[-1])
        curvature = p * (1.0 - p) / design.n
        eps = 1e-5
        for _ in range(5):
            v = rng.standard_normal(design.d + 1)
            hv = propensity._hess_vec(op, curvature, v)
            _, g_hi = logistic_loss_grad(params + eps * v, op, labels, lam)
            _, g_lo = logistic_loss_grad(params - eps * v, op, labels, lam)
            numeric = (g_hi - g_lo) / (2 * eps)
            np.testing.assert_allclose(hv, numeric, rtol=0, atol=1e-7)

    @pytest.mark.parametrize(
        "make, folds",
        [
            pytest.param(gapped_design, 1, id="1"),
            pytest.param(gapped_design, 3, id="3"),
            pytest.param(capped_design, 1, id="capped-1"),
            pytest.param(capped_design, 3, id="capped-3"),
        ],
    )
    def test_fit_predict_matches_dense_dataset(self, make, folds, monkeypatch):
        design = make()
        reference = raw_design(dense(design), design.treatment)
        config = Config(cross_fit_folds=folds, seed=5)
        fits = record_fits(monkeypatch)
        got = fit_predict(design, config)
        want = fit_predict(reference, config)
        assert got.folds == want.folds == folds
        if make is gapped_design:
            np.testing.assert_allclose(
                got.scores, want.scores, rtol=0, atol=1e-6
            )
            return
        # The dense reference has no passes, so its fit runs plain CG,
        # while the level-code fit is preconditioned: the two stop at
        # different points of the 1e-8 gradient ball. With about 133
        # training rows for 1970 columns at lambda 1e-4 that ball is wide
        # in scores, so each model is checked on the other's design.
        for (train, model), (dense_train, dense_model) in zip(
            fits[:folds], fits[folds:]
        ):
            assert_gradient_below_tolerance(model, dense_train)
            assert_gradient_below_tolerance(dense_model, train)

    def test_model_spans_every_design_column(self):
        design = gapped_design()
        model = fit(design)
        assert model.converged
        assert model.feature_names == design.feature_names
        for arr in (model.weights, model.feature_means, model.feature_stds):
            assert arr.shape == (design.d,)
        _, constant = dense_standardized(design)
        assert (model.weights[constant] == 0.0).all()
        assert (model.feature_stds[constant] == 1.0).all()


def assert_gradient_below_tolerance(model, design):
    """A fit reporting convergence must meet the test it claims to pass.

    Recomputes the gradient at the returned parameters on the design
    standardized as the fit standardizes it.
    """
    assert model.converged
    op = standardized(design)
    params = np.append(model.weights, model.intercept)
    labels = design.treatment.astype(np.float64)
    _, grad = logistic_loss_grad(params, op, labels, propensity._L2_LAMBDA)
    assert np.abs(grad).max() < 1e-8


def ten_covariate_dataset():
    return generate(SynthSpec(n=4000, noise_covariates=8), seed=1)


@pytest.fixture(scope="module")
def ten_covariate_design():
    """A 10-covariate design at the column cap: 1952 columns."""
    return expand_features(ten_covariate_dataset(), 16)


class TestInexactNewton:
    """The forcing term and the pass blocks cut products; convergence holds."""

    def test_hessian_products_counted_and_cut(
        self, ten_covariate_design, monkeypatch
    ):
        real = propensity._hess_vec
        calls = []

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(propensity, "_hess_vec", counting)
        model = fit(ten_covariate_design)
        assert model.converged
        assert len(calls) == sum(model.cg_iters)
        # plain CG at the Eisenstat-Walker forcing term spent 1813
        # products here in 11 Newton steps, the pass blocks 80 in 10
        assert len(calls) <= 124

    def test_capped_fit_convergence_is_real(self, ten_covariate_design):
        assert_gradient_below_tolerance(
            fit(ten_covariate_design), ten_covariate_design
        )

    def test_every_cross_fit_fold_convergence_is_real(self, monkeypatch):
        # the planted_xfit benchmark recipe: 288 columns, 5 folds
        spec = SynthSpec(n=20000, carve=DEFAULT_CARVE, carve_mode="reassign")
        design = expand_features(generate(spec, seed=1), 16)
        assert design.d == 288
        fits = record_fits(monkeypatch)
        result = fit_predict(design, Config(cross_fit_folds=5, seed=0))
        assert len(fits) == 5
        assert all(result.converged)
        for train, model in fits:
            assert_gradient_below_tolerance(model, train)


def dense_hessian(design, curvature, lam):
    """The Hessian of the loss on the dense standardized design."""
    x_std, _ = dense_standardized(design)
    x1 = np.column_stack([x_std, np.ones(design.n)])
    penalty = np.append(np.full(design.d, lam), 0.0)
    return x1.T @ (curvature[:, None] * x1) + np.diag(penalty)


def pass_blocks(design, lam, seed=31):
    """The passes' blocks at a random point, and the dense Hessian there."""
    op = standardized(design)
    rng = np.random.default_rng(seed)
    params = 0.3 * rng.standard_normal(design.d + 1)
    p = propensity._sigmoid(op @ params[:-1] + params[-1])
    curvature = p * (1.0 - p) / design.n
    groups, _ = _schwarz.pass_groups(design, op)
    blocks = [
        _schwarz.PassBlocks(group, curvature, lam) for group in groups
    ]
    return blocks, dense_hessian(design, curvature, lam), rng


class TestPassBlocks:
    """The exact per-pass blocks that precondition each Newton step."""

    def assert_solves_match_dense(self, design, lam):
        blocks, hessian, rng = pass_blocks(design, lam)
        assert sum(len(block.index) for block in blocks) == len(design.passes)
        for block in blocks:
            r = rng.standard_normal(block.index.shape)
            got = block.solve(r)
            for index, live, r_row, got_row in zip(
                block.index, block.live == 1.0, r, got
            ):
                sub = index[live]
                want = np.linalg.solve(hessian[np.ix_(sub, sub)], r_row[live])
                err = np.linalg.norm(got_row[live] - want)
                assert err <= 1e-10 * np.linalg.norm(want)
                assert (got_row[~live] == 0.0).all()

    @pytest.mark.parametrize("lam", [1e-4, 0.5])
    @pytest.mark.parametrize(
        "make", [gapped_design, capped_design], ids=["gapped", "capped"]
    )
    def test_block_solve_matches_dense(self, make, lam):
        self.assert_solves_match_dense(make(), lam)

    def test_designs_hold_every_kind_of_block(self):
        gapped, capped = gapped_design(), capped_design()
        grids = {p[2] for p in gapped.passes + capped.passes}
        assert grids == {(16,), (16, 2), (16, 16), (4, 4), (4, 2)}
        # gapped's empty bins 1 and 2 (columns 5 and 6), and the live
        # levels of the binary flag (8 and 9)
        _, constant = dense_standardized(gapped)
        assert constant[[5, 6]].all() and not constant[[8, 9]].any()

    @pytest.mark.parametrize("binary", [False, True], ids=["d2", "binary"])
    def test_one_block_spends_one_product_per_step(self, binary):
        # one pair pass: its block covers every non-constant column
        rng = np.random.default_rng(32)
        features = rng.uniform(0, 1, (3000, 2))
        if binary:
            features[:, 1] = features[:, 1] < 0.3
        z = 2.0 * features[:, 0] - 1.0 + features[:, 1]
        treatment = (rng.random(3000) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        design = expand_features(Dataset(features, treatment), 16)
        assert len(design.passes) == 1
        model = fit(design)
        assert model.converged
        assert model.cg_iters == (1,) * model.n_iter

    def test_fit_memory_bounded_by_codes_and_raw(self, ten_covariate_design):
        design = ten_covariate_design
        # the design holds the codes alone; the features stay in the dataset
        features = ten_covariate_dataset().features
        held = features.nbytes + sum(p[0].nbytes for p in design.passes)
        tracemalloc.start()
        try:
            fit(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # plain CG peaked at 0.72x; the blocks keep O(cells + m^2) each
        assert peak <= 1.5 * held

    def test_lone_passes_beat_plain_cg(self, monkeypatch):
        # 120 numeric columns leave no room under the cap for a pair:
        # one pass of bins each, 1920 columns. At 2000 rows, where the
        # columns nearly match the rows, the blocks spent 125-142 products
        # against plain CG's 180-235 on data seeds 0-5
        rng = np.random.default_rng(33)
        features = rng.uniform(0, 1, (4000, 120))
        z = features[:, 0] - features[:, 1]
        treatment = (rng.random(4000) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        design = expand_features(Dataset(features, treatment), 16)
        assert [p[2] for p in design.passes] == [(16,)] * 120
        blocked = fit(design)
        monkeypatch.setattr(
            _schwarz, "preconditioner", lambda *a: lambda r: r
        )
        plain = fit(design)
        assert blocked.converged and plain.converged
        # 120 against 214
        assert sum(blocked.cg_iters) < 0.75 * sum(plain.cg_iters)


class TestPasslessFit:
    """A design without row passes keeps the plain-CG arithmetic bit for bit.

    The sha256 digests of the scores and the CG iteration counts were
    recorded before the fit gained its pass blocks; they hold only if
    every operation on a raw design is unchanged.
    """

    @pytest.mark.parametrize(
        "spec, seed, digest, cg_iters",
        [
            pytest.param(
                # the confounded_raw benchmark recipe at n=2000
                SynthSpec(
                    n=2000,
                    noise_covariates=8,
                    logit_intercept=-4.0,
                    logit_weights=(0.1, -0.8) + (0.0,) * 8,
                    carve=DEFAULT_CARVE,
                    carve_mode="reassign",
                ),
                1,
                "0e144f180f37a7d93098f47cb03d70ae"
                "9cca6b7b3465b08423c54b703625522d",
                (18,),
                id="confounded_raw",
            ),
            pytest.param(
                SynthSpec(),
                0,
                "fb63d1adb341155269dcff1a3bab7ca7"
                "30f8fc8bc02fc592c0ec367dd530d3e7",
                (4,),
                id="default",
            ),
        ],
    )
    def test_scores_and_products_pinned(self, spec, seed, digest, cg_iters):
        design = expand_features(generate(spec, seed=seed), 0)
        assert design.passes == ()
        result = fit_predict(design, Config())
        assert result.cg_iters == cg_iters
        assert hashlib.sha256(result.scores.tobytes()).hexdigest() == digest


class TestPassFit:
    """Designs with row passes keep their preconditioned arithmetic bit
    for bit.

    The digests of the scores and the CG iteration counts were recorded
    with the pass blocks in place, on designs of level blocks and cells
    alone; they hold only if every operation of the preconditioned fit
    on these designs is unchanged.
    """

    def test_cross_fit_pinned(self):
        # the planted_xfit benchmark recipe at n=2000: 288 columns. Each
        # fold's 1600 rows merge into at most 256; the digest was taken
        # with the merge, whose scores differ from the row-by-row fit's
        # by at most 1.0e-14, at the same CG iterations
        spec = SynthSpec(n=2000, carve=DEFAULT_CARVE, carve_mode="reassign")
        design = expand_features(generate(spec, seed=1), 16)
        assert design.d == 288
        result = fit_predict(design, Config(cross_fit_folds=5, seed=0))
        assert result.cg_iters == (9, 9, 9, 9, 9)
        assert hashlib.sha256(result.scores.tobytes()).hexdigest() == (
            "8b663f953ba6719b6b323d023f4c9dcd"
            "9bf0c0ef7c5c0ab4fb4b67b3e198d125"
        )

    def test_capped_in_sample_pinned(self, ten_covariate_design):
        result = fit_predict(ten_covariate_design, Config())
        assert result.cg_iters == (80,)
        assert hashlib.sha256(result.scores.tobytes()).hexdigest() == (
            "3e301e6701460fe01311b3875747e786"
            "540cde6703697dba90c4b2120882b338"
        )


def one_hot_design(n=4000):
    """profile_age and a 5-level categorical, one-hot coded: 16 * 2^5
    level tuples, so the fit merges rows from n = 1024 on."""
    base = generate(SynthSpec(n=n), seed=4)
    level = np.random.default_rng(4).integers(0, 5, n)
    one_hot = (level[:, None] == np.arange(5)).astype(np.float64)
    features = np.column_stack([base.features[:, 0], one_hot])
    treatment = np.where(level == 2, 0, base.treatment)
    treatment[0] = 1
    return expand_features(Dataset(features, treatment), 16)


def binary_design(n=3000):
    """A numeric column and a binary one: 32 level tuples."""
    rng = np.random.default_rng(32)
    features = rng.uniform(0, 1, (n, 2))
    features[:, 1] = features[:, 1] < 0.3
    z = 2.0 * features[:, 0] - 1.0 + features[:, 1]
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    return expand_features(Dataset(features, treatment), 16)


def synth_design(n=4000):
    """The README recipe: two numeric columns, 256 level tuples."""
    return expand_features(generate(SynthSpec(n=n), seed=1), 16)


class TestDistinctRows:
    """Rows that share every feature's level are fit as one counted row."""

    @staticmethod
    def merged_and_plain(design, folds, monkeypatch):
        """fit_predict with rows merged, then with every row kept."""
        assert propensity._distinct_rows(design)[0].n <= design.n // 2
        config = Config(cross_fit_folds=folds, seed=0)
        merged = fit_predict(design, config)
        monkeypatch.setattr(
            propensity,
            "_distinct_rows",
            lambda d: (d, np.ones(d.n), d.treatment.astype(np.float64)),
        )
        return merged, fit_predict(design, config)

    @pytest.mark.parametrize(
        "make, folds",
        [
            pytest.param(synth_design, 1, id="d2"),
            pytest.param(binary_design, 1, id="binary"),
            pytest.param(synth_design, 5, id="d2-folds5"),
        ],
    )
    def test_merging_changes_only_rounding(self, make, folds, monkeypatch):
        merged, plain = self.merged_and_plain(make(), folds, monkeypatch)
        np.testing.assert_allclose(
            merged.scores, plain.scores, rtol=0, atol=1e-12
        )
        assert merged.n_iter == plain.n_iter
        assert merged.cg_iters == plain.cg_iters

    def test_merged_one_hot_fit_converges_on_every_row(self, monkeypatch):
        # The one-hot columns sum to 1 and level 2 is never treated, so
        # the fit is ill-conditioned and rounding alone moves its scores
        # well past 1e-12: a row permutation of the row-by-row fit moved
        # them by up to 4e-10 on data seeds 4-6, the merge by up to
        # 4.5e-8, at the 1e-8 gradient tolerance either way. The merged
        # model must still pass that tolerance on the rows themselves.
        design = one_hot_design()
        assert_gradient_below_tolerance(fit(design), design)
        merged, plain = self.merged_and_plain(design, 1, monkeypatch)
        assert merged.n_iter == plain.n_iter
        np.testing.assert_allclose(
            merged.scores, plain.scores, rtol=0, atol=1e-6
        )

    @pytest.mark.parametrize(
        "make", [synth_design, one_hot_design], ids=["d2", "one-hot"]
    )
    def test_duplicated_rows_give_the_same_model(self, make):
        # every count and n double exactly, so every sum doubles and
        # every mean is unchanged bit for bit
        design = make()
        doubled = design.take(np.tile(np.arange(design.n), 2))
        once, twice = fit(design), fit(doubled)
        np.testing.assert_array_equal(once.weights, twice.weights)
        assert once.intercept == twice.intercept
        assert (once.n_iter, once.cg_iters) == (twice.n_iter, twice.cg_iters)

    def test_merged_rows_carry_counts(self):
        design = binary_design()
        rows, counts, treated = propensity._distinct_rows(design)
        # every (bin, flag) tuple occurs at 3000 rows
        assert rows.n == 32 and rows.d == design.d
        assert counts.sum() == design.n
        assert treated.sum() == design.treatment.sum()
        assert (0 <= treated).all() and (treated <= counts).all()
        # integer counts per column: the moments match bit for bit
        for got, want in zip(
            propensity._column_moments(rows, counts),
            propensity._column_moments(design, np.ones(design.n)),
        ):
            np.testing.assert_array_equal(got, want)
        x, x_rows = dense(design), dense(rows)
        for row, count, n_treated in zip(x_rows, counts, treated):
            same = (x == row).all(axis=1)
            assert same.sum() == count
            assert design.treatment[same].sum() == n_treated

    @pytest.mark.parametrize("bins, merged", [(16, True), (17, False)])
    def test_merges_at_level_product_of_half_the_rows(self, bins, merged):
        # 2 columns: 16^2 = 256 level tuples merge at 512 rows, 17^2 = 289
        # do not
        design = expand_features(generate(SynthSpec(n=512), seed=1), bins)
        rows, counts, treated = propensity._distinct_rows(design)
        assert (rows.n < design.n) == merged
        if not merged:
            assert rows is design and (counts == 1.0).all()
            np.testing.assert_array_equal(treated, design.treatment)

    def test_raw_design_is_not_merged(self):
        # 0/1 raw columns repeat rows, but a raw design is never merged
        features = np.tile([[0.0, 1.0], [1.0, 0.0]], (50, 1))
        design = raw_design(features, np.tile([0, 1, 1, 0], 25))
        assert propensity._distinct_rows(design)[0] is design

    def test_log_names_distinct_rows(self, caplog):
        design = synth_design()
        with caplog.at_level(logging.DEBUG, logger="positivity.propensity"):
            fit(design)
        rows = propensity._distinct_rows(design)[0].n
        assert rows <= 256
        assert f"CG iterations on {rows} distinct rows of 4000" in caplog.text

    def test_fit_memory_bounded_by_codes_and_raw(self):
        # the planted_xfit benchmark recipe: the key and the count table
        # are O(n). The row-by-row fit peaked at 2.8x here, the merged
        # fit at 0.7x
        features = generate(SynthSpec(n=20000), seed=1).features
        design = expand_features(generate(SynthSpec(n=20000), seed=1), 16)
        held = features.nbytes + sum(p[0].nbytes for p in design.passes)
        tracemalloc.start()
        try:
            fit(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * held
