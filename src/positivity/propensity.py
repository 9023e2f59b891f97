"""Propensity estimation: L2 logistic regression on standardized features.

The model is fit by damped Newton iteration on the penalized mean
negative log-likelihood

    J(w, b) = mean(log(1 + exp(z)) - t * z) + (lambda / 2) * ||w||^2,
    z = x_std @ w + b,

with the intercept unpenalized. Each step is halved until the loss
does not increase. Iteration stops when the gradient max-norm drops
below a fixed 1e-8, after ``max_iter`` steps, or at the first step
where no halving keeps the loss from rising; the model records whether
it converged. Features are standardized per column; constant columns
get standard deviation 1 and a weight of exactly 0.

:func:`fit_predict` optionally cross-fits with k folds keyed by the
config seed; the default (folds = 1) scores in-sample.

:func:`expand_features` builds the binned feature map the analysis
pipeline feeds into this model. A linear score is monotone along a
single direction of feature space, so it cannot isolate an interior
rectangular region; indicator columns for per-feature equal-width bins
plus pairwise bin-interaction cells make such regions separable while
keeping the model logistic and convex. Pair blocks are added in feature
order up to :data:`MAX_DESIGN_COLUMNS` columns; the pairs past the cap
are dropped with a logged warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.typing import NDArray

from .data import Config, Dataset

logger = logging.getLogger(__name__)

_SCORE_EPS = 1e-15
_MAX_HALVINGS = 30
_GRAD_TOL = 1e-8

# column cap of the design built by expand_features
MAX_DESIGN_COLUMNS = 2048


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic model plus the standardization that produced it."""

    weights: NDArray[np.float64]
    intercept: float
    feature_means: NDArray[np.float64]
    feature_stds: NDArray[np.float64]
    feature_names: tuple[str, ...]
    l2_lambda: float
    n_iter: int
    converged: bool

    def __post_init__(self) -> None:
        for name in ("weights", "feature_means", "feature_stds"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PropensityResult:
    """Scores for every row plus quality metrics of the scoring model."""

    scores: NDArray[np.float64]
    auc: float
    log_loss: float
    folds: int

    def __post_init__(self) -> None:
        arr = np.array(self.scores, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)


def _sigmoid(z: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(
    params: NDArray[np.float64],
    features_std: NDArray[np.float64],
    labels: NDArray[np.float64],
    l2_lambda: float,
) -> tuple[float, NDArray[np.float64]]:
    """Penalized mean negative log-likelihood and its gradient.

    ``params`` stacks the d weights followed by the intercept. The
    gradient layout matches. Exposed separately so the analytic gradient
    can be checked against finite differences.
    """
    w = params[:-1]
    b = params[-1]
    z = features_std @ w + b
    # log(1 + e^z) - t z, computed stably for large |z|
    ce = np.logaddexp(0.0, z) - labels * z
    loss = float(ce.mean() + 0.5 * l2_lambda * (w @ w))
    p = _sigmoid(z)
    resid = p - labels
    n = labels.shape[0]
    grad = np.empty(params.shape[0], dtype=np.float64)
    grad[:-1] = features_std.T @ resid / n + l2_lambda * w
    grad[-1] = resid.mean()
    return loss, grad


def _standardize(features: NDArray[np.float64]):
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    constant = stds == 0.0
    stds = np.where(constant, 1.0, stds)
    return (features - means) / stds, means, stds, constant


def fit(
    dataset: Dataset,
    l2_lambda: float = 1e-4,
    max_iter: int = 1000,
) -> PropensityModel:
    """Fit the regularized logistic model to a dataset.

    Stops when the gradient max-norm drops below 1e-8 (converged),
    after ``max_iter`` Newton steps, or at the first step whose
    halvings all leave the loss higher; the last two are reported on
    the model and logged as a warning, not raised. A non-finite loss
    at the start is an error.
    """
    if l2_lambda < 0.0:
        raise ValueError("l2_lambda must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x_std, means, stds, constant = _standardize(dataset.features)
    labels = dataset.treatment.astype(np.float64)
    n, d = x_std.shape
    params = np.zeros(d + 1, dtype=np.float64)
    loss, grad = logistic_loss_grad(params, x_std, labels, l2_lambda)
    if not np.isfinite(loss):
        raise RuntimeError("non-finite loss at initialization")
    it = 0
    while it < max_iter and np.abs(grad).max() >= _GRAD_TOL:
        it += 1
        z = x_std @ params[:-1] + params[-1]
        p = _sigmoid(z)
        weight = p * (1.0 - p)
        xw = x_std * weight[:, None]
        hess = np.empty((d + 1, d + 1), dtype=np.float64)
        hess[:d, :d] = x_std.T @ xw / n
        hess[:d, :d][np.diag_indices(d)] += l2_lambda
        hess[:d, d] = xw.sum(axis=0) / n
        hess[d, :d] = hess[:d, d]
        hess[d, d] = weight.mean()
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        # halve the step until the loss stops increasing
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = params - scale * step
            new_loss, new_grad = logistic_loss_grad(
                candidate, x_std, labels, l2_lambda
            )
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            scale *= 0.5
        else:
            # the next step would repeat this same failed search
            break
        params, loss, grad = candidate, new_loss, new_grad
    converged = bool(np.abs(grad).max() < _GRAD_TOL)
    if not converged:
        logger.warning(
            "propensity fit stopped unconverged after %d iterations "
            "(max_iter=%d) with gradient max-norm %.3e",
            it, max_iter, float(np.abs(grad).max()),
        )
    else:
        logger.debug("propensity fit converged in %d iterations", it)
    weights = params[:-1].copy()
    weights[constant] = 0.0
    return PropensityModel(
        weights=weights,
        intercept=float(params[-1]),
        feature_means=means,
        feature_stds=stds,
        feature_names=dataset.feature_names,
        l2_lambda=l2_lambda,
        n_iter=it,
        converged=converged,
    )


def predict(model: PropensityModel, dataset: Dataset) -> NDArray[np.float64]:
    """Score a dataset with a fitted model.

    The dataset must carry the same feature names, in the same order,
    as the training data. Scores are clamped to the open interval
    (0, 1) so downstream log-losses stay finite.
    """
    if dataset.feature_names != model.feature_names:
        raise ValueError(
            "dataset feature names do not match the model's training features"
        )
    x_std = (dataset.features - model.feature_means) / model.feature_stds
    z = x_std @ model.weights + model.intercept
    return np.clip(_sigmoid(z), _SCORE_EPS, 1.0 - _SCORE_EPS)


def auc(scores, labels) -> float:
    """Area under the ROC curve by the rank (Mann-Whitney) formula.

    Tied scores contribute 1/2 via average ranks, so the value is
    invariant under any strictly increasing transform of the scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = labels == 1
    n1 = int(pos.sum())
    n0 = scores.shape[0] - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("auc needs both classes present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    n = scores.shape[0]
    run_start = np.nonzero(
        np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    )[0]
    run_end = np.r_[run_start[1:], n]
    # average 1-based rank within each tie run
    run_rank = 0.5 * (run_start + 1 + run_end)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(run_rank, run_end - run_start)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n0 * n1)


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy of scores against 0/1 labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    p = np.clip(scores, _SCORE_EPS, 1.0 - _SCORE_EPS)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).mean())


def fit_predict(dataset: Dataset, config: Config) -> PropensityResult:
    """Score every row of a dataset, in-sample or cross-fit.

    With ``config.cross_fit_folds`` = 1 (the default) one model is fit
    on all rows and scores them all. With k > 1, rows are shuffled by
    the config seed into k nearly equal folds and each fold is scored
    by a model fit on the other folds; every row is scored exactly once.
    """
    k = config.cross_fit_folds
    n = dataset.n
    if k > n:
        raise ValueError(f"cross_fit_folds={k} exceeds the {n} samples")
    if k == 1:
        model = fit(dataset)
        scores = predict(model, dataset)
    else:
        rng = np.random.default_rng(config.seed)
        folds = np.array_split(rng.permutation(n), k)
        scores = np.empty(n, dtype=np.float64)
        for fold in folds:
            train = np.setdiff1d(np.arange(n), fold)
            sub = Dataset(
                dataset.features[train],
                dataset.treatment[train],
                dataset.feature_names,
            )
            model = fit(sub)
            held = Dataset(
                dataset.features[fold],
                dataset.treatment[fold],
                dataset.feature_names,
            )
            scores[fold] = predict(model, held)
    return PropensityResult(
        scores=scores,
        auc=auc(scores, dataset.treatment),
        log_loss=log_loss(scores, dataset.treatment.astype(np.float64)),
        folds=k,
    )


def _is_binary(column: NDArray[np.float64]) -> bool:
    return bool(np.isin(column, (0.0, 1.0)).all())


def expand_features(dataset: Dataset, bins: int = 16) -> Dataset:
    """Augment features with bin indicators and pairwise interaction cells.

    Every non-constant feature gets a level code per row: binary
    columns use their own value (2 levels), other numeric columns are
    cut into ``bins`` equal-width intervals over their observed range.
    The design lists blocks of level codes: one indicator block per
    numeric (non-binary) feature, then one cell block per feature pair
    in feature order, stopping at the first pair that would take the
    design past :data:`MAX_DESIGN_COLUMNS` (logged as a warning). The
    output keeps the original columns first and scatters each block
    into its indicator columns. Empty levels yield constant columns,
    which the fit leaves at weight zero.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    feats = dataset.features
    n, d = feats.shape
    raw_names = dataset.feature_names
    # per non-constant feature: (index, level codes, level count)
    coded: list[tuple[int, NDArray[np.int64], int]] = []
    blocks: list[tuple[NDArray[np.int64], int, list[str]]] = []
    for j in range(d):
        col = feats[:, j]
        lo = col.min()
        hi = col.max()
        if lo == hi:
            continue
        if _is_binary(col):
            coded.append((j, col.astype(np.int64), 2))
            continue
        width = (hi - lo) / bins
        idx = np.minimum(((col - lo) / width).astype(np.int64), bins - 1)
        coded.append((j, idx, bins))
        blocks.append(
            (idx, bins, [f"{raw_names[j]}::bin{b}" for b in range(bins)])
        )
    n_cols = d + sum(k for _, k, _ in blocks)
    for (a, codes_a, ka), (b, codes_b, kb) in combinations(coded, 2):
        if n_cols + ka * kb > MAX_DESIGN_COLUMNS:
            logger.warning(
                "expand_features: column cap %d reached, skipping "
                "remaining feature pairs", MAX_DESIGN_COLUMNS,
            )
            break
        pair = f"{raw_names[a]}*{raw_names[b]}"
        blocks.append((
            codes_a * kb + codes_b,
            ka * kb,
            [f"{pair}::cell{la}x{lb}" for la in range(ka) for lb in range(kb)],
        ))
        n_cols += ka * kb
    names = list(raw_names)
    for _, _, block_names in blocks:
        names.extend(block_names)
    if len(set(names)) != len(names):
        raise ValueError(
            "expanded feature names collide with existing columns"
        )
    design = np.zeros((n, n_cols), dtype=np.float64)
    design[:, :d] = feats
    rows = np.arange(n)
    start = d
    for codes, k, _ in blocks:
        design[rows, start + codes] = 1.0
        start += k
    return Dataset(design, dataset.treatment, tuple(names))
