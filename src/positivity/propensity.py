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
a :class:`Design` holds the raw columns plus its indicator columns as
row passes, each one vector of integer codes. A pair's cell codes
``ca * kb + cb`` also give the bin levels of both of its features, so
the pass of the first kept pair that contains a feature carries that
feature's bins too; a feature no kept pair contains has a pass of its
own bins. A product with the standardized design costs one gather
(``X @ w``) or one ``np.bincount`` (``X.T @ r``) per pass.
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
    """Scores for every row plus quality metrics of the scoring model.

    ``n_iter`` and ``converged`` hold one entry per fit, in fold order:
    one for an in-sample fit, ``folds`` for a cross-fit.
    """

    scores: NDArray[np.float64]
    auc: float
    log_loss: float
    folds: int
    n_iter: tuple[int, ...]
    converged: tuple[bool, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.scores, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)


@dataclass(frozen=True)
class Design:
    """Raw columns plus indicator columns held as row passes.

    Columns 0..d_raw-1 are the raw features; ``feature_names`` names all
    :attr:`d` columns. Each pass ``(codes, cells, grid, rows, cols)``
    sets, in row i, column ``cells.start + codes[i]`` of the column slice
    ``cells``, whose columns form a cell grid of shape ``grid``. A pair
    pass has ``grid = (ka, kb)`` and may also set the bin columns of its
    grid row, ``rows.start + codes[i] // kb``, and of its grid column,
    ``cols.start + codes[i] % kb``; ``rows`` and ``cols`` are None when
    it does not, as in a bin pass, whose grid is ``(k,)``.
    """

    raw: NDArray[np.float64]
    treatment: NDArray[np.int64]
    feature_names: tuple[str, ...]
    passes: tuple[tuple, ...] = ()

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def d(self) -> int:
        return len(self.feature_names)

    def take(self, rows: NDArray[np.intp]) -> Design:
        """The same design restricted to ``rows``."""
        return Design(
            self.raw[rows],
            self.treatment[rows],
            self.feature_names,
            tuple((codes[rows], *rest) for codes, *rest in self.passes),
        )


def _as_design(dataset: Dataset | Design) -> Design:
    """A dataset is a design with no indicator columns."""
    if isinstance(dataset, Design):
        return dataset
    return Design(dataset.features, dataset.treatment, dataset.feature_names)


def _softplus_sigmoid(
    z: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``log(1 + e^z)`` and ``1 / (1 + e^-z)`` from one exp per row.

    Both are built from ``e = e^-|z|``, which lies in [0, 1], so neither
    overflows for any z.
    """
    e = np.exp(-np.abs(z))
    return (
        np.maximum(z, 0.0) + np.log1p(e),
        np.where(z >= 0, 1.0, e) / (1.0 + e),
    )


def _sigmoid(z: NDArray[np.float64]) -> NDArray[np.float64]:
    return _softplus_sigmoid(z)[1]


def _loss_grad_p(
    params: NDArray[np.float64],
    features_std: NDArray[np.float64],
    labels: NDArray[np.float64],
    l2_lambda: float,
) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """:func:`logistic_loss_grad` plus the per-row scores p it computed."""
    w = params[:-1]
    b = params[-1]
    z = features_std @ w + b
    softplus, p = _softplus_sigmoid(z)
    ce = softplus - labels * z
    loss = float(ce.mean() + 0.5 * l2_lambda * (w @ w))
    resid = p - labels
    n = labels.shape[0]
    grad = np.empty(params.shape[0], dtype=np.float64)
    grad[:-1] = features_std.T @ resid / n + l2_lambda * w
    grad[-1] = resid.mean()
    return loss, grad, p


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
    return _loss_grad_p(params, features_std, labels, l2_lambda)[:2]


def _indicator_sums(passes, weights, out: NDArray[np.float64]):
    """Per-column sums of ``weights`` (None: ones) over the indicator rows.

    Writes every indicator column of ``out`` from one ``np.bincount``
    per pass; a pass's bin columns are the margins of its cell grid.
    """
    for codes, cells, grid, rows, cols in passes:
        sums = np.bincount(codes, weights, cells.stop - cells.start)
        out[cells] = sums
        if rows is not None:
            out[rows] = sums.reshape(grid).sum(1)
        if cols is not None:
            out[cols] = sums.reshape(grid).sum(0)
    return out


def _column_moments(design: Design):
    """Column means and standard deviations of the full design.

    Raw columns use ``mean``/``std`` over rows. An indicator column with
    level share p has mean p and standard deviation sqrt(p (1 - p)); the
    shares come from integer row counts. Raises ``ValueError`` naming
    the first raw column whose mean or standard deviation overflows, or
    whose standard deviation underflows to 0 although its values differ.
    """
    d_raw = design.raw.shape[1]
    # overflow is reported below, by column, instead of as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        raw_means = design.raw.mean(axis=0)
        raw_stds = design.raw.std(axis=0)
    for j in np.flatnonzero((raw_stds == 0.0) | ~np.isfinite(raw_stds)):
        col = design.raw[:, j]
        lo, hi = float(col.min()), float(col.max())
        if raw_stds[j] == 0.0:
            if lo == hi:
                continue  # a constant column, fit with weight 0
            problem = "standard deviation underflows"
        elif np.isfinite(raw_means[j]):
            problem = "standard deviation overflows"
        else:
            problem = "mean overflows"
        raise ValueError(
            f"propensity fit: column {design.feature_names[j]!r} spans "
            f"[{lo!r}, {hi!r}], so its {problem}"
        )
    means = _indicator_sums(design.passes, None, np.empty(design.d))
    means[:d_raw] = raw_means
    means[d_raw:] /= design.n
    share = means[d_raw:]
    stds = np.concatenate([raw_stds, np.sqrt(share * (1.0 - share))])
    return means, stds


class _Standardized:
    """The standardized design ``(X - means) / stds`` as a linear operator.

    ``op @ w`` gathers and ``op.T @ r`` bincounts once per row pass of
    the design, from the raw columns and the codes, without forming X.
    A column whose std is 0 reads as all zeros, as a constant column
    does after dense standardization.
    """

    def __init__(self, design: Design, means, stds) -> None:
        self.raw = design.raw
        self.passes = design.passes
        self.means = means
        self.scale = np.divide(
            1.0, stds, out=np.zeros_like(stds), where=stds != 0.0
        )

    def __matmul__(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        v = w * self.scale
        z = self.raw @ v[: self.raw.shape[1]]
        for codes, cells, grid, rows, cols in self.passes:
            table = v[cells].reshape(grid)
            if rows is not None:
                table = table + v[rows][:, None]
            if cols is not None:
                table = table + v[cols]
            z += table.ravel()[codes]
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
        out = _indicator_sums(op.passes, r, np.empty_like(op.scale))
        out[: op.raw.shape[1]] = op.raw.T @ r
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


def _check_finite(loss: float, grad: NDArray[np.float64], it: int) -> None:
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise ValueError(
            f"propensity fit: non-finite loss {loss!r} or gradient after "
            f"{it} iterations"
        )


def fit(
    dataset: Dataset | Design,
    l2_lambda: float = 1e-4,
    max_iter: int = 1000,
) -> PropensityModel:
    """Fit the regularized logistic model to a design or a dataset.

    A :class:`~positivity.data.Dataset` is fit as a design with no
    indicator columns. Each Newton step is a truncated conjugate-gradient
    solve from Hessian-vector products on the row passes, so no n x D
    matrix is formed. Stops when the gradient max-norm drops below 1e-8
    (converged), after ``max_iter`` Newton steps, or at the first step
    whose halvings all leave the loss higher; the last two are reported
    on the model and logged as a warning, not raised. A non-finite loss
    or gradient, or a raw column whose moments overflow, raises
    ``ValueError``.
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
    loss, grad, p = _loss_grad_p(params, x_std, labels, l2_lambda)
    _check_finite(loss, grad, 0)
    it = 0
    while it < max_iter and np.abs(grad).max() >= _GRAD_TOL:
        it += 1
        step = _newton_step(
            partial(_hess_vec, x_std, p * (1.0 - p) / n, l2_lambda), grad
        )
        # halve the step until the loss stops increasing
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = params - scale * step
            new_loss, new_grad, new_p = _loss_grad_p(
                candidate, x_std, labels, l2_lambda
            )
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            scale *= 0.5
        else:
            # the next step would repeat this same failed search
            break
        _check_finite(new_loss, new_grad, it)
        params, loss, grad, p = candidate, new_loss, new_grad, new_p
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
        models = [fit(design)]
        scores = predict(models[0], design)
    else:
        rng = np.random.default_rng(config.seed)
        folds = np.array_split(rng.permutation(n), k)
        scores = np.empty(n, dtype=np.float64)
        models = []
        for fold in folds:
            train = np.delete(np.arange(n), fold)
            models.append(fit(design.take(train)))
            scores[fold] = predict(models[-1], design.take(fold))
    return PropensityResult(
        scores=scores,
        auc=auc(scores, design.treatment),
        log_loss=log_loss(scores, design.treatment.astype(np.float64)),
        folds=k,
        n_iter=tuple(m.n_iter for m in models),
        converged=tuple(m.converged for m in models),
    )


def _is_binary(column: NDArray[np.float64]) -> bool:
    return bool(np.isin(column, (0.0, 1.0)).all())


def expand_features(dataset: Dataset, bins: int = 16) -> Design:
    """Augment features with bin indicators and pairwise interaction cells.

    Every non-constant feature gets a level code per row: binary
    columns use their own value (2 levels), other numeric columns are
    cut into ``bins`` equal-width intervals over their observed range.
    The columns are the raw features, then one block of bin indicators
    per numeric (non-binary) feature, then one block of cells per
    feature pair in feature order, stopping at the first pair that
    would take the design past :data:`MAX_DESIGN_COLUMNS` (logged as a
    warning). It raises ``ValueError`` when the raw columns and bin
    blocks alone pass the cap, or when a column's range gives a bin
    width of 0 or inf. The returned :class:`Design` holds the indicator
    columns as row passes, never as the n x D matrix: the bins of each
    feature no kept pair contains, then each kept pair together with
    the bins of its features that no earlier pair carries. Empty levels
    are constant columns, which the fit leaves at weight zero.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    feats = dataset.features
    raw_names = dataset.feature_names
    names = list(raw_names)
    # per non-constant feature: (index, level codes, level count)
    coded: list[tuple[int, NDArray[np.int64], int]] = []
    # feature index -> (codes, columns) of its bins, until a pair takes them
    unabsorbed: dict[int, tuple[NDArray[np.int64], slice]] = {}
    for j in range(feats.shape[1]):
        col = feats[:, j]
        lo = float(col.min())
        hi = float(col.max())
        if lo == hi:
            continue
        if _is_binary(col):
            coded.append((j, col.astype(np.int64), 2))
            continue
        # Python floats overflow to inf and underflow to 0 silently
        width = (hi - lo) / bins
        if not 0.0 < width < np.inf:
            raise ValueError(
                f"expand_features: column {raw_names[j]!r} spans "
                f"[{lo!r}, {hi!r}], so its {bins} equal-width bins would "
                f"have width {width!r}"
            )
        idx = np.minimum(((col - lo) / width).astype(np.int64), bins - 1)
        coded.append((j, idx, bins))
        unabsorbed[j] = (idx, slice(len(names), len(names) + bins))
        names.extend(f"{raw_names[j]}::bin{b}" for b in range(bins))
    if len(names) > MAX_DESIGN_COLUMNS:
        raise ValueError(
            f"expand_features: {len(names)} columns before any feature pair "
            f"exceed the column cap {MAX_DESIGN_COLUMNS}; use fewer bins"
        )
    pairs = []
    for (a, codes_a, ka), (b, codes_b, kb) in combinations(coded, 2):
        if len(names) + ka * kb > MAX_DESIGN_COLUMNS:
            logger.warning(
                "expand_features: column cap %d reached, skipping "
                "remaining feature pairs", MAX_DESIGN_COLUMNS,
            )
            break
        pairs.append((
            codes_a * kb + codes_b,
            slice(len(names), len(names) + ka * kb),
            (ka, kb),
            unabsorbed.pop(a, (None, None))[1],
            unabsorbed.pop(b, (None, None))[1],
        ))
        pair = f"{raw_names[a]}*{raw_names[b]}"
        names.extend(
            f"{pair}::cell{la}x{lb}" for la in range(ka) for lb in range(kb)
        )
    if len(set(names)) != len(names):
        raise ValueError(
            "expanded feature names collide with existing columns"
        )
    lone = [(codes, cells, (bins,), None, None)
            for codes, cells in unabsorbed.values()]
    return Design(
        feats, dataset.treatment, tuple(names), tuple(lone + pairs)
    )
