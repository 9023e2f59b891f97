"""Propensity estimation: L2 logistic regression on a standardized design.

The model minimizes the penalized mean negative log-likelihood

    J(w, b) = mean(log(1 + exp(z)) - t * z) + (lambda / 2) * ||w||^2,
    z = x_std @ w + b,

with the intercept unpenalized and every column standardized; constant
columns get standard deviation 1 and a weight of exactly 0. The fit is
truncated Newton-CG (Lin, Weng & Keerthi, "Trust region Newton method
for large-scale logistic regression", JMLR 2008): each Newton step
solves H s = g by conjugate gradients on Hessian-vector products, then
is halved until the loss does not increase. Iteration stops when the
gradient max-norm drops below a fixed 1e-8, after ``max_iter`` steps,
or at the first step where no halving keeps the loss from rising; the
model records whether it converged.

:func:`fit_predict` optionally cross-fits with k folds keyed by the
config seed; the default (folds = 1) scores in-sample.

:func:`expand_features` builds the binned design the analysis pipeline
feeds into this model. A linear score is monotone along a single
direction of feature space, so it cannot isolate an interior
rectangular region; indicator columns for per-feature equal-width bins
plus pairwise bin-interaction cells make such regions separable while
keeping the model logistic and convex. Pair blocks are added in feature
order up to :data:`MAX_DESIGN_COLUMNS` columns; the pairs past the cap
are dropped with a logged warning. The design is never materialized:
a :class:`Design` holds the raw columns plus one vector of integer
level codes per indicator block, so its memory is O(n * blocks), and
products with the standardized design are a gather (``X @ w``) or an
``np.bincount`` (``X.T @ r``) per block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
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


@dataclass(frozen=True)
class Design:
    """Raw columns plus indicator blocks held as integer level codes.

    Columns 0..d_raw-1 are the raw features. Each block ``(codes, k)``
    then adds k indicator columns, of which row i sets column
    ``codes[i]``. ``feature_names`` names all :attr:`d` columns.
    """

    raw: NDArray[np.float64]
    treatment: NDArray[np.int64]
    blocks: tuple[tuple[NDArray[np.int64], int], ...]
    feature_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def d(self) -> int:
        return self.raw.shape[1] + sum(k for _, k in self.blocks)

    def take(self, rows: NDArray[np.intp]) -> Design:
        """The same design restricted to ``rows``."""
        return Design(
            self.raw[rows],
            self.treatment[rows],
            tuple((codes[rows], k) for codes, k in self.blocks),
            self.feature_names,
        )


def _as_design(dataset: Dataset | Design) -> Design:
    """A dataset is a design with no indicator blocks."""
    if isinstance(dataset, Design):
        return dataset
    return Design(
        dataset.features, dataset.treatment, (), dataset.feature_names
    )


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
    gradient layout matches. ``features_std`` is a standardized n x d
    array or anything offering the same ``@`` and ``.T @`` products,
    such as the design operator :func:`fit` uses. Exposed separately so
    the analytic gradient can be checked against finite differences.
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


def _column_moments(design: Design):
    """Column means and standard deviations of the full design.

    Raw columns use ``mean``/``std`` over rows. An indicator column with
    level share p has mean p and standard deviation sqrt(p (1 - p)).
    """
    means = [design.raw.mean(axis=0)]
    stds = [design.raw.std(axis=0)]
    for codes, k in design.blocks:
        share = np.bincount(codes, minlength=k) / design.n
        means.append(share)
        stds.append(np.sqrt(share * (1.0 - share)))
    return np.concatenate(means), np.concatenate(stds)


class _Standardized:
    """The standardized design ``(X - means) / stds`` as a linear operator.

    ``op @ w`` gathers and ``op.T @ r`` bincounts per block, from the raw
    columns and the level codes, without forming X. A column whose std
    is 0 reads as all zeros, as a constant column does after dense
    standardization.
    """

    def __init__(self, design: Design, means, stds) -> None:
        self.raw = design.raw
        self.means = means
        self.scale = np.divide(
            1.0, stds, out=np.zeros_like(stds), where=stds != 0.0
        )
        # (level codes, first column, end column) per block
        self.blocks = []
        start = design.raw.shape[1]
        for codes, k in design.blocks:
            self.blocks.append((codes, start, start + k))
            start += k

    def __matmul__(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        v = w * self.scale
        z = self.raw @ v[: self.raw.shape[1]]
        for codes, start, stop in self.blocks:
            z += v[start:stop][codes]
        return z - self.means @ v

    @property
    def T(self) -> _Transposed:
        return _Transposed(self)


class _Transposed:
    """``op.T``: ``op.T @ r`` is the transposed product of ``op``."""

    def __init__(self, op: _Standardized) -> None:
        self.op = op

    def __matmul__(self, r: NDArray[np.float64]) -> NDArray[np.float64]:
        op = self.op
        out = np.empty_like(op.scale)
        out[: op.raw.shape[1]] = op.raw.T @ r
        for codes, start, stop in op.blocks:
            out[start:stop] = np.bincount(codes, r, stop - start)
        return (out - op.means * r.sum()) * op.scale


def _hess_vec(
    x_std: _Standardized,
    curvature: NDArray[np.float64],
    l2_lambda: float,
    v: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Hessian of the loss times ``v`` (weights, then intercept).

    ``curvature`` is the per-row weight p (1 - p) / n at the point
    where the Hessian is taken.
    """
    u = curvature * (x_std @ v[:-1] + v[-1])
    out = np.empty_like(v)
    out[:-1] = x_std.T @ u + l2_lambda * v[:-1]
    out[-1] = u.sum()
    return out


def _newton_step(hess_vec, grad: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve H s = grad by truncated conjugate gradients.

    CG stops once the residual norm is at most min(0.5, sqrt(|g|)) |g|,
    after len(grad) iterations, or on non-positive curvature (possible
    only without the penalty); if that comes before any progress, the
    gradient itself is the step.
    """
    step = np.zeros_like(grad)
    resid = grad.copy()
    direction = resid.copy()
    rr = resid @ resid
    gnorm = np.sqrt(rr)
    tol = min(0.5, np.sqrt(gnorm)) * gnorm
    for _ in range(grad.size):
        if np.sqrt(rr) <= tol:
            break
        hd = hess_vec(direction)
        dhd = direction @ hd
        if dhd <= 0.0:
            break
        alpha = rr / dhd
        step += alpha * direction
        resid -= alpha * hd
        rr, rr_old = resid @ resid, rr
        direction = resid + (rr / rr_old) * direction
    return step if step.any() else grad


def fit(
    dataset: Dataset | Design,
    l2_lambda: float = 1e-4,
    max_iter: int = 1000,
) -> PropensityModel:
    """Fit the regularized logistic model to a design or a dataset.

    A :class:`~positivity.data.Dataset` is fit as a design with no
    indicator blocks. Each Newton step is a truncated conjugate-gradient
    solve from Hessian-vector products on the level codes, so no n x D
    matrix is formed. Stops when the gradient max-norm drops below 1e-8
    (converged), after ``max_iter`` Newton steps, or at the first step
    whose halvings all leave the loss higher; the last two are reported
    on the model and logged as a warning, not raised. A non-finite loss
    at the start is an error.
    """
    if l2_lambda < 0.0:
        raise ValueError("l2_lambda must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    design = _as_design(dataset)
    means, stds = _column_moments(design)
    constant = stds == 0.0
    x_std = _Standardized(design, means, stds)
    labels = design.treatment.astype(np.float64)
    n = design.n
    params = np.zeros(design.d + 1, dtype=np.float64)
    loss, grad = logistic_loss_grad(params, x_std, labels, l2_lambda)
    if not np.isfinite(loss):
        raise RuntimeError("non-finite loss at initialization")
    it = 0
    while it < max_iter and np.abs(grad).max() >= _GRAD_TOL:
        it += 1
        p = _sigmoid(x_std @ params[:-1] + params[-1])
        step = _newton_step(
            partial(_hess_vec, x_std, p * (1.0 - p) / n, l2_lambda), grad
        )
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
        feature_stds=np.where(constant, 1.0, stds),
        feature_names=design.feature_names,
        l2_lambda=l2_lambda,
        n_iter=it,
        converged=converged,
    )


def predict(
    model: PropensityModel, dataset: Dataset | Design
) -> NDArray[np.float64]:
    """Score a design or a dataset with a fitted model.

    It must carry the same feature names, in the same order, as the
    training data. Scores are clamped to the open interval (0, 1) so
    downstream log-losses stay finite.
    """
    design = _as_design(dataset)
    if design.feature_names != model.feature_names:
        raise ValueError(
            "dataset feature names do not match the model's training features"
        )
    x_std = _Standardized(design, model.feature_means, model.feature_stds)
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


def fit_predict(
    dataset: Dataset | Design, config: Config
) -> PropensityResult:
    """Score every row of a design or a dataset, in-sample or cross-fit.

    With ``config.cross_fit_folds`` = 1 (the default) one model is fit
    on all rows and scores them all. With k > 1, rows are shuffled by
    the config seed into k nearly equal folds and each fold is scored
    by a model fit on the other folds; every row is scored exactly once.
    """
    design = _as_design(dataset)
    k = config.cross_fit_folds
    n = design.n
    if k > n:
        raise ValueError(f"cross_fit_folds={k} exceeds the {n} samples")
    if k == 1:
        model = fit(design)
        scores = predict(model, design)
    else:
        rng = np.random.default_rng(config.seed)
        folds = np.array_split(rng.permutation(n), k)
        scores = np.empty(n, dtype=np.float64)
        for fold in folds:
            train = np.delete(np.arange(n), fold)
            model = fit(design.take(train))
            scores[fold] = predict(model, design.take(fold))
    return PropensityResult(
        scores=scores,
        auc=auc(scores, design.treatment),
        log_loss=log_loss(scores, design.treatment.astype(np.float64)),
        folds=k,
    )


def _is_binary(column: NDArray[np.float64]) -> bool:
    return bool(np.isin(column, (0.0, 1.0)).all())


def expand_features(dataset: Dataset, bins: int = 16) -> Design:
    """Augment features with bin indicators and pairwise interaction cells.

    Every non-constant feature gets a level code per row: binary
    columns use their own value (2 levels), other numeric columns are
    cut into ``bins`` equal-width intervals over their observed range.
    The design lists blocks of level codes: one indicator block per
    numeric (non-binary) feature, then one cell block per feature pair
    in feature order, stopping at the first pair that would take the
    design past :data:`MAX_DESIGN_COLUMNS` (logged as a warning); it
    raises ``ValueError`` when the raw columns and bin blocks alone pass
    the cap. The returned :class:`Design` keeps the original columns
    first and the blocks as level codes; the n x D indicator matrix is
    never built.
    Empty levels are constant columns, which the fit leaves at weight
    zero.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    feats = dataset.features
    d = feats.shape[1]
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
    if n_cols > MAX_DESIGN_COLUMNS:
        raise ValueError(
            f"expand_features: {n_cols} columns before any feature pair "
            f"exceed the column cap {MAX_DESIGN_COLUMNS}; use fewer bins"
        )
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
    return Design(
        feats,
        dataset.treatment,
        tuple((codes, k) for codes, k, _ in blocks),
        tuple(names),
    )
