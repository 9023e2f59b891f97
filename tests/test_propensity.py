"""Logistic propensity model: loss, fit, predict, metrics, expansion."""

import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positivity import (
    Config,
    Dataset,
    auc,
    expand_features,
    fit,
    fit_predict,
    log_loss,
    logistic_loss_grad,
    predict,
)
from positivity import propensity
from positivity.propensity import MAX_DESIGN_COLUMNS


def logit(p):
    return math.log(p / (1.0 - p))


def make_dataset(n=200, d=3, seed=0, weights=None, intercept=0.0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    if weights is None:
        weights = np.zeros(d)
    z = features @ weights + intercept
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)
    if treatment.min() == treatment.max():
        treatment[0] = 1 - treatment[0]
    return Dataset(features, treatment)


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


class TestFit:
    def test_separated_data_positive_weight(self):
        features = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        treatment = np.array([0] * 10 + [1] * 10)
        model = fit(Dataset(features, treatment), l2_lambda=0.1)
        assert model.weights[0] > 0

    def test_constant_feature_weight_exactly_zero(self):
        rng = np.random.default_rng(1)
        features = np.column_stack(
            [rng.standard_normal(50), np.full(50, 7.0)]
        )
        treatment = rng.integers(0, 2, 50)
        treatment[0], treatment[1] = 0, 1
        model = fit(Dataset(features, treatment))
        assert model.weights[1] == 0.0
        assert model.feature_stds[1] == 1.0

    def test_huge_lambda_collapses_to_intercept_model(self):
        ds = make_dataset(n=400, seed=2, weights=np.array([1.0, -1.0, 0.5]))
        model = fit(ds, l2_lambda=1e6)
        target = logit(ds.treatment.mean())
        assert np.abs(model.weights).max() < 1e-3
        assert model.intercept == pytest.approx(target, abs=1e-3)

    def test_reports_convergence(self):
        model = fit(make_dataset(seed=3))
        assert model.converged
        assert model.n_iter >= 1

    def test_stops_at_first_failed_line_search(self, monkeypatch, caplog):
        real = propensity.logistic_loss_grad
        calls = []

        def every_step_worse(params, *args):
            loss, grad = real(params, *args)
            calls.append(None)
            return (loss if len(calls) == 1 else loss + 1.0), grad

        monkeypatch.setattr(propensity, "logistic_loss_grad", every_step_worse)
        with caplog.at_level(logging.WARNING, logger="positivity.propensity"):
            model = fit(make_dataset(seed=3), max_iter=50)
        assert model.n_iter == 1
        assert not model.converged
        # the initial loss plus one search of 30 halvings
        assert len(calls) == 31
        assert "propensity fit stopped unconverged" in caplog.text

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            fit(make_dataset(), l2_lambda=-1.0)


class TestPredict:
    def test_zero_model_gives_half(self):
        ds = make_dataset(n=50, seed=4)
        model = fit(ds)
        zeroed = model.__class__(
            weights=np.zeros_like(model.weights),
            intercept=0.0,
            feature_means=model.feature_means,
            feature_stds=model.feature_stds,
            feature_names=model.feature_names,
            l2_lambda=model.l2_lambda,
            n_iter=0,
            converged=True,
        )
        np.testing.assert_allclose(predict(zeroed, ds), 0.5)

    def test_intercept_only_model_hits_target(self):
        ds = make_dataset(n=50, seed=4)
        model = fit(ds)
        biased = model.__class__(
            weights=np.zeros_like(model.weights),
            intercept=logit(0.8),
            feature_means=model.feature_means,
            feature_stds=model.feature_stds,
            feature_names=model.feature_names,
            l2_lambda=model.l2_lambda,
            n_iter=0,
            converged=True,
        )
        np.testing.assert_allclose(predict(biased, ds), 0.8, atol=1e-12)

    def test_scores_strictly_inside_unit_interval(self):
        ds = make_dataset(n=100, seed=6, weights=np.array([50.0, 0.0, 0.0]))
        model = fit(ds, l2_lambda=1e-12, max_iter=200)
        scores = predict(model, ds)
        assert (scores > 0.0).all()
        assert (scores < 1.0).all()

    def test_feature_name_mismatch_rejected(self):
        ds = make_dataset(n=30, seed=7)
        model = fit(ds)
        renamed = Dataset(ds.features, ds.treatment, ("a", "b", "c"))
        with pytest.raises(ValueError, match="feature names"):
            predict(model, renamed)


class TestFitPredict:
    def test_separable_auc_one(self):
        features = np.array([[-1.0]] * 5 + [[1.0]] * 5)
        treatment = np.array([0] * 5 + [1] * 5)
        result = fit_predict(Dataset(features, treatment), Config())
        assert result.auc == 1.0
        assert result.folds == 1

    def test_coin_flip_auc_near_half(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((10000, 2))
        treatment = rng.integers(0, 2, 10000)
        result = fit_predict(Dataset(features, treatment), Config())
        assert 0.45 <= result.auc <= 0.58

    def test_in_sample_deterministic(self):
        ds = make_dataset(n=300, seed=9, weights=np.array([0.5, 0.0, -0.5]))
        a = fit_predict(ds, Config())
        b = fit_predict(ds, Config())
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.auc == b.auc
        assert a.log_loss == b.log_loss

    def test_cross_fit_scores_every_row_once(self):
        ds = make_dataset(n=103, seed=10, weights=np.array([1.0, 0.0, 0.0]))
        result = fit_predict(ds, Config(cross_fit_folds=5, seed=3))
        assert result.folds == 5
        assert result.scores.shape == (103,)
        assert (result.scores > 0.0).all() and (result.scores < 1.0).all()
        # Different seed permutes folds, so out-of-fold scores move.
        other = fit_predict(ds, Config(cross_fit_folds=5, seed=4))
        assert not np.array_equal(result.scores, other.scores)

    def test_cross_fit_more_folds_than_rows_rejected(self):
        ds = make_dataset(n=20, seed=11)
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


def dense(design):
    """The n x D float matrix a design stands for: the reference."""
    d_raw = design.raw.shape[1]
    x = np.zeros((design.n, design.d))
    x[:, :d_raw] = design.raw
    rows = np.arange(design.n)
    start = d_raw
    for codes, k in design.blocks:
        x[rows, start + codes] = 1.0
        start += k
    return x


def block_named(design, prefix):
    """(codes, k, names) of the block whose column names start with prefix."""
    start = design.raw.shape[1]
    for codes, k in design.blocks:
        names = design.feature_names[start:start + k]
        if names[0].startswith(prefix):
            return codes, k, names
        start += k
    raise AssertionError(f"no block named {prefix!r}")


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

    def test_keeps_raw_columns_first(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        assert out.feature_names[:4] == ds.feature_names
        np.testing.assert_array_equal(out.raw, ds.features)
        np.testing.assert_array_equal(out.treatment, ds.treatment)
        assert out.n == ds.n
        assert out.d == len(out.feature_names)

    def test_indicator_blocks_partition_rows(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        for base in ("a", "b"):
            codes, k, names = block_named(out, f"{base}::bin")
            assert k == 4
            assert names == tuple(f"{base}::bin{b}" for b in range(4))
            assert_partitions_rows(codes, k, ds.n)

    def test_binary_and_constant_columns_add_no_indicators(self):
        ds = self.make()
        out = expand_features(ds, bins=4)
        assert not any(n.startswith("flag::") for n in out.feature_names)
        assert not any("const" in n for n in out.feature_names[4:])

    def test_pair_cells_partition_rows(self):
        ds = self.make()
        out = expand_features(ds, bins=3)
        codes, k, names = block_named(out, "a*b::cell")
        assert k == 9
        assert all(n.startswith("a*b::cell") for n in names)
        assert_partitions_rows(codes, k, ds.n)

    def test_binary_column_pairs_at_two_bins(self):
        ds = self.make()
        out = expand_features(ds, bins=2)
        names = out.feature_names
        assert [n for n in names if n.startswith("a::")] == ["a::bin0", "a::bin1"]
        assert not any(n.startswith("flag::") for n in names)
        codes, k, block = block_named(out, "a*flag::")
        assert list(block) == [
            "a*flag::cell0x0", "a*flag::cell0x1",
            "a*flag::cell1x0", "a*flag::cell1x1",
        ]
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
        mains = d + d * bins
        kept = (MAX_DESIGN_COLUMNS - mains) // (bins * bins)
        assert out.d == mains + kept * bins * bins <= MAX_DESIGN_COLUMNS
        assert len(out.feature_names) == out.d
        assert len(out.blocks) == d + kept
        pairs = list(combinations(ds.feature_names, 2))[:kept]
        for k, (a, b) in enumerate(pairs):
            start = mains + k * bins * bins
            block = slice(start, start + bins * bins)
            assert all(
                name.startswith(f"{a}*{b}::cell")
                for name in out.feature_names[block]
            )
            codes, levels = out.blocks[d + k]
            assert levels == bins * bins
            assert_partitions_rows(codes, levels, n)

    def test_name_collision_rejected(self):
        rng = np.random.default_rng(13)
        features = np.column_stack(
            [rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)]
        )
        treatment = rng.integers(0, 2, 30)
        treatment[0], treatment[1] = 0, 1
        ds = Dataset(features, treatment, ("q", "q::bin0"))
        with pytest.raises(ValueError, match="collide"):
            expand_features(ds, bins=2)

    def test_take_subsets_rows(self):
        out = expand_features(self.make(), bins=3)
        rows = np.array([5, 0, 17, 42])
        sub = out.take(rows)
        assert sub.feature_names == out.feature_names
        assert sub.n == 4 and sub.d == out.d
        np.testing.assert_array_equal(dense(sub), dense(out)[rows])
        np.testing.assert_array_equal(sub.treatment, out.treatment[rows])


class TestDesignParity:
    """The level-code operator against the materialized dense design."""

    def make(self, n=300, seed=21):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 10, n)
        # bins=4 over [0, 4] puts every row in level 0 or 3
        gapped = rng.choice([0.0, 0.5, 3.5, 4.0], n)
        flag = rng.integers(0, 2, n).astype(float)
        features = np.column_stack([a, gapped, flag, np.full(n, 3.0)])
        z = 0.3 * (a - 5.0) - 0.8 * flag + ((a > 6) & (gapped > 2))
        treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        ds = Dataset(features, treatment, ("a", "gapped", "flag", "const"))
        return expand_features(ds, bins=4)

    def dense_standardized(self, design):
        x = dense(design)
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        return (x - means) / np.where(stds == 0.0, 1.0, stds), stds == 0.0

    def test_loss_grad_match_dense(self):
        design = self.make()
        x_std, constant = self.dense_standardized(design)
        names = np.array(design.feature_names)
        assert "const" in names[constant]
        assert {"gapped::bin1", "gapped::bin2"} <= set(names[constant])
        assert "flag" not in names[constant]
        op = propensity._Standardized(
            design, *propensity._column_moments(design)
        )
        labels = design.treatment.astype(np.float64)
        rng = np.random.default_rng(22)
        for lam in (0.0, 1e-4, 0.5):
            params = rng.standard_normal(design.d + 1)
            loss_op, grad_op = logistic_loss_grad(params, op, labels, lam)
            loss_x, grad_x = logistic_loss_grad(params, x_std, labels, lam)
            assert abs(loss_op - loss_x) <= 1e-12
            np.testing.assert_allclose(grad_op, grad_x, rtol=0, atol=1e-12)

    def test_moments_match_dense(self):
        design = self.make()
        x = dense(design)
        means, stds = propensity._column_moments(design)
        # n rounding errors of one ulp each at most
        tol = design.n * np.finfo(np.float64).eps
        np.testing.assert_allclose(means, x.mean(axis=0), rtol=0, atol=tol)
        np.testing.assert_allclose(stds, x.std(axis=0), rtol=0, atol=tol)
        np.testing.assert_array_equal(stds == 0.0, x.std(axis=0) == 0.0)

    def test_hessian_vector_matches_central_differences(self):
        design = self.make()
        op = propensity._Standardized(
            design, *propensity._column_moments(design)
        )
        labels = design.treatment.astype(np.float64)
        lam = 1e-3
        rng = np.random.default_rng(23)
        params = 0.3 * rng.standard_normal(design.d + 1)
        p = propensity._sigmoid(op @ params[:-1] + params[-1])
        curvature = p * (1.0 - p) / design.n
        eps = 1e-5
        for _ in range(5):
            v = rng.standard_normal(design.d + 1)
            hv = propensity._hess_vec(op, curvature, lam, v)
            _, g_hi = logistic_loss_grad(params + eps * v, op, labels, lam)
            _, g_lo = logistic_loss_grad(params - eps * v, op, labels, lam)
            numeric = (g_hi - g_lo) / (2 * eps)
            np.testing.assert_allclose(hv, numeric, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("folds", [1, 3])
    def test_fit_predict_matches_dense_dataset(self, folds):
        design = self.make()
        reference = Dataset(dense(design), design.treatment, design.feature_names)
        config = Config(cross_fit_folds=folds, seed=5)
        got = fit_predict(design, config)
        want = fit_predict(reference, config)
        np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-6)
        assert got.folds == want.folds == folds

    def test_model_spans_every_design_column(self):
        design = self.make()
        model = fit(design)
        assert model.converged
        assert model.feature_names == design.feature_names
        for arr in (model.weights, model.feature_means, model.feature_stds):
            assert arr.shape == (design.d,)
        _, constant = self.dense_standardized(design)
        assert (model.weights[constant] == 0.0).all()
        assert (model.feature_stds[constant] == 1.0).all()
