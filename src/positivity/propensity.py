"""Propensity estimation: L2 logistic regression on a standardized design.

The model minimizes the penalized mean negative log-likelihood

    J(w, b) = mean(log(1 + exp(z)) - t * z) + (lambda / 2) * ||w||^2,
    z = x_std @ w + b,

with lambda = 1e-4, the intercept unpenalized and every column
standardized; constant columns get standard deviation 1 and a weight of
exactly 0. The fit is truncated Newton-CG (Lin, Weng & Keerthi, "Trust
region Newton method for large-scale logistic regression", JMLR 2008):
each Newton step solves H s = g by conjugate gradients on Hessian-vector
products, then is halved until the loss does not increase. Each solve
is only as accurate as the step needs (Eisenstat & Walker, "Choosing the
forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 1996,
choice 1): CG stops once the residual g - H s has norm at most
eta_k |g|. eta_0 = 0.5; after a step scaled by t,

    eta_k = | |g_k| - |g_{k-1} - t H s_{k-1}| | / |g_{k-1}|,

how far the gradient the linear model predicted missed the gradient
reached, taken from the last CG residual with no extra product. It is
kept at least eta_{k-1}^phi, phi = (1 + sqrt 5) / 2, when that exceeds
0.1, and at most 0.5. CG also stops once the residual max-norm is at most
half the gradient tolerance. Iteration stops when the gradient max-norm
drops below a fixed 1e-8, after 1000 steps, or at the first step where
no halving keeps the loss from rising; the model records whether it
converged and how many CG iterations each step took.

The conjugate gradients are preconditioned by additive Schwarz (Smith,
Bjorstad & Gropp, "Domain Decomposition", 1996) with one exact Hessian
block per row pass of the design, rebuilt at every Newton step: the
pass's cells, the bins of its one or two features wherever they sit,
and the intercept (:mod:`._schwarz`). Each block is solved through its
diagonal cell part and the Schur complement onto its at most 2k + 1
other columns, from one ``np.bincount`` of the curvature over the
pass's codes. Coordinates no block covers, constant columns among them,
get the identity, so on a design without passes the preconditioner
returns its input bit for bit and the fit runs plain CG.

A binned design's row is a function of its features' level codes, so
the fit needs only, per level tuple that occurs, its row count c and
treated count t: it runs on those distinct rows, with loss
sum(c softplus(z) - t z) / n, residual c p - t and curvature
c p (1 - p) / n, as histogram boosting gathers its gradient statistics
per bin (Ke et al., "LightGBM", NeurIPS 2017). Rows merge when the
product of the features' level counts is at most n / 2: a design of two
features at 16 bins is fit on at most 256 rows, whatever n. A raw
design, or a binned one past that bound, is fit row by row through the
same arithmetic with counts of 1, which leaves every sum as it was.

:func:`fit_predict` optionally cross-fits with k folds keyed by the
config seed; the default (folds = 1) scores in-sample.

:func:`expand_features` builds the design the analysis pipeline feeds
into this model on every run; at 0 bins it is the raw columns alone.
Otherwise it is binned: a linear score is monotone along a single
direction of feature space, so it cannot isolate an interior
rectangular region; indicator columns for per-feature levels
(equal-width bins, or a binary column's two values) plus pairwise
level-interaction cells make such regions separable while keeping the
model logistic and convex, with no raw column beside them: binned main
effects and pair cells, the shape of GA2M (Lou, Caruana, Gehrke &
Hooker, "Accurate intelligible models with pairwise interactions", KDD
2013). Pair blocks are added in feature order up to
:data:`MAX_DESIGN_COLUMNS` columns; the pairs past the cap are dropped
with a logged warning. The design is never materialized: a
:class:`Design` holds each non-constant feature's level codes and the
kept pairs, and derives the row passes that products read. A pair's
cell codes ``ca * kb + cb`` also give both of its features' levels, so
the first kept pair that contains a feature sets that feature's level
columns too; a feature no kept pair contains has a pass of its own. A
product with the standardized design costs one gather (``X @ w``) or
one ``np.bincount`` (``r @ X``) per pass.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate, combinations

import numpy as np
from numpy.typing import NDArray

from . import _schwarz
from .data import Config, Dataset

logger = logging.getLogger(__name__)

_SCORE_EPS = 1e-15
_MAX_HALVINGS = 30
_GRAD_TOL = 1e-8
# the penalty on every standardized weight, and the Newton step limit
_L2_LAMBDA = 1e-4
_MAX_NEWTON_STEPS = 1000
# Eisenstat-Walker choice 1: the first and largest forcing term, and the
# exponent of the safeguard that keeps it from dropping too fast
_FORCING_MAX = 0.5
_FORCING_EXPONENT = (1.0 + 5.0 ** 0.5) / 2.0

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
    n_iter: int
    converged: bool
    # CG iterations (Hessian-vector products) of each Newton step
    cg_iters: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("weights", "feature_means", "feature_stds"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PropensityResult:
    """Scores for every row plus quality metrics of the scoring model.

    ``n_iter``, ``converged`` and ``cg_iters`` (the total CG iterations
    of the fit) hold one entry per fit, in fold order: one for an
    in-sample fit, ``folds`` for a cross-fit.
    """

    scores: NDArray[np.float64]
    auc: float
    log_loss: float
    folds: int
    n_iter: tuple[int, ...]
    converged: tuple[bool, ...]
    cg_iters: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.scores, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)


@dataclass(frozen=True)
class Design:
    """Raw columns, or level codes and the pairs of them kept.

    ``expand_features(dataset, 0)`` gives the raw features as columns and
    no levels. A binned design has no raw column (``raw`` is n x 0): its
    columns are, from 0, ``sizes[i]`` level indicators per ``levels``
    row i, one feature's codes, then per pair ``(a, b)`` of ``pairs``
    ``ka * kb`` cells, cell ``codes_a * kb + codes_b``.

    Products read the binned columns as row passes, derived and cached
    here. Pass ``(codes, cells, grid, rows, cols)`` sets, in row i,
    column ``cells.start + codes[i]`` of the slice ``cells``, a cell grid
    of shape ``grid``: ``(k,)`` for a lone pass, whose codes are a
    ``levels`` row, ``(ka, kb)`` for a pair's. A pair pass also sets the
    level columns ``rows.start + codes[i] // kb`` and ``cols.start +
    codes[i] % kb`` of the rows it is the first to read; ``rows`` and
    ``cols`` are None otherwise. ``pass_features`` gives each pass's
    ``levels`` rows (a constant feature has none): ``(j,)`` for each
    row no pair reads, then the pairs.
    """

    raw: NDArray[np.float64]
    treatment: NDArray[np.int64]
    feature_names: tuple[str, ...]
    levels: tuple[NDArray[np.intp], ...] = ()
    sizes: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def d(self) -> int:
        return self.raw.shape[1] + sum(self.sizes) + sum(
            self.sizes[a] * self.sizes[b] for a, b in self.pairs
        )

    @property
    def level_columns(self) -> tuple[slice, ...]:
        """The columns of each ``levels`` row's block, in row order."""
        ends = list(accumulate(self.sizes, initial=0))
        return tuple(map(slice, ends, ends[1:]))

    @cached_property
    def pass_features(self) -> tuple[tuple[int, ...], ...]:
        paired = {j for pair in self.pairs for j in pair}
        lone = [(j,) for j in range(len(self.sizes)) if j not in paired]
        return tuple(lone) + self.pairs

    @cached_property
    def passes(self) -> tuple[tuple, ...]:
        """The row passes, in :attr:`pass_features` order."""
        levels, sizes = self.levels, self.sizes
        # the level columns that no pair before has set
        unset = list(self.level_columns)
        start = sum(sizes)
        pairs = []
        for a, b in self.pairs:
            cells = slice(start, start + sizes[a] * sizes[b])
            pairs.append((
                levels[a] * sizes[b] + levels[b], cells,
                (sizes[a], sizes[b]), unset[a], unset[b],
            ))
            unset[a] = unset[b] = None
            start = cells.stop
        lone = [
            (levels[j], cols, (sizes[j],), None, None)
            for j, cols in enumerate(unset) if cols is not None
        ]
        return tuple(lone + pairs)

    def take(self, rows: NDArray[np.intp]) -> Design:
        """The same design restricted to ``rows``."""
        return replace(
            self, raw=self.raw[rows], treatment=self.treatment[rows],
            levels=tuple(codes[rows] for codes in self.levels),
        )


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
    """``1 / (1 + e^-z)`` computed as :func:`_softplus_sigmoid` does."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _loss_grad_p(
    params: NDArray[np.float64],
    features_std: NDArray[np.float64],
    counts: NDArray[np.float64],
    treated: NDArray[np.float64],
    l2_lambda: float,
) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """:func:`logistic_loss_grad` over counted rows, plus their scores p.

    Row i stands for ``counts[i]`` rows of one design row, ``treated[i]``
    of them treated, so the mean is over ``n = sum(counts)`` rows and a
    row's residual is ``c p - t``. With counts of 1 and 0/1 labels as
    ``treated`` this is the loss over plain rows.
    """
    w = params[:-1]
    b = params[-1]
    z = features_std @ w + b
    softplus, p = _softplus_sigmoid(z)
    n = counts.sum()
    ce = counts * softplus - treated * z
    loss = float(ce.sum() / n + 0.5 * l2_lambda * (w @ w))
    resid = counts * p - treated
    grad = np.empty(params.shape[0], dtype=np.float64)
    grad[:-1] = resid @ features_std / n + l2_lambda * w
    grad[-1] = resid.sum() / n
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
    array X or anything offering the same products ``X @ w`` and
    ``r @ X``, such as the design operator :func:`fit` uses. Exposed
    separately so the analytic gradient can be checked against finite
    differences.
    """
    return _loss_grad_p(
        params, features_std, np.ones_like(labels), labels, l2_lambda
    )[:2]


def _indicator_sums(passes, weights, out: NDArray[np.float64]):
    """Per-column sums of ``weights`` over the indicator rows.

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


def _column_moments(design: Design, counts: NDArray[np.float64]):
    """Column means and standard deviations of the full design.

    Row i of ``design`` stands for ``counts[i]`` rows. Raw columns use
    ``mean``/``std`` over rows, and are only ever in designs of counts
    of 1, since :func:`_distinct_rows` merges no design with raw
    columns. An indicator column with level share p has mean p and
    standard deviation sqrt(p (1 - p)); the shares come from the
    integer row counts summed per column. Raises ``ValueError`` naming
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
    means = _indicator_sums(design.passes, counts, np.empty(design.d))
    means[:d_raw] = raw_means
    means[d_raw:] /= counts.sum()
    share = means[d_raw:]
    stds = np.concatenate([raw_stds, np.sqrt(share * (1.0 - share))])
    return means, stds


class _Standardized:
    """The standardized design ``(X - means) / stds`` as a linear operator.

    ``op @ w`` gathers and ``r @ op`` (X^T r) bincounts once per row
    pass of the design, from the raw columns and the codes, without
    forming X.
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

    # ndarray @ op defers to __rmatmul__ instead of building an object array
    __array_ufunc__ = None

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

    def __rmatmul__(self, r: NDArray[np.float64]) -> NDArray[np.float64]:
        out = _indicator_sums(self.passes, r, np.empty_like(self.scale))
        out[: self.raw.shape[1]] = self.raw.T @ r
        return (out - self.means * r.sum()) * self.scale


def _hess_vec(
    x_std: _Standardized,
    curvature: NDArray[np.float64],
    v: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Hessian of the loss times ``v`` (weights, then intercept).

    ``curvature`` is the per-row weight c p (1 - p) / n at the point
    where the Hessian is taken, c the row's count; the penalty is the
    fixed 1e-4.
    """
    u = curvature * (x_std @ v[:-1] + v[-1])
    out = np.empty_like(v)
    out[:-1] = u @ x_std + _L2_LAMBDA * v[:-1]
    out[-1] = u.sum()
    return out


def _newton_step(
    hess_vec, grad: NDArray[np.float64], forcing: float, precondition
) -> tuple[NDArray[np.float64], NDArray[np.float64], int]:
    """Solve H s = grad by truncated preconditioned conjugate gradients.

    ``precondition`` maps a residual r to M r for a symmetric positive
    definite M close to the inverse Hessian. CG stops once the residual
    r = grad - H s has norm at most ``forcing`` |grad|, or max-norm at
    most half the gradient tolerance of :func:`fit` (a full step then
    leaves a gradient the convergence test can pass, so solving further
    only spends products), after len(grad) iterations, or on
    non-positive curvature, which the penalty rules out in exact
    arithmetic but rounding can still produce; if that comes before any
    progress, the gradient itself is the step, with the gradient as its
    residual. Returns the step, its residual and the number of
    Hessian-vector products spent.
    """
    step = np.zeros_like(grad)
    resid = grad.copy()
    direction = precondition(resid)
    rr = resid @ resid
    rz = resid @ direction
    tol = forcing * np.sqrt(rr)
    iters = 0
    while (
        iters < grad.size
        and np.sqrt(rr) > tol
        and np.abs(resid).max() > 0.5 * _GRAD_TOL
    ):
        hd = hess_vec(direction)
        iters += 1
        dhd = direction @ hd
        if dhd <= 0.0:
            break
        alpha = rz / dhd
        step += alpha * direction
        resid -= alpha * hd
        rr = resid @ resid
        z = precondition(resid)
        rz, rz_old = resid @ z, rz
        direction = z + (rz / rz_old) * direction
    if not step.any():
        return grad, grad, iters
    return step, resid, iters


def _next_forcing(
    forcing: float,
    grad: NDArray[np.float64],
    predicted: NDArray[np.float64],
    new_grad: NDArray[np.float64],
) -> float:
    """Eisenstat-Walker choice 1 for the next Newton step's CG solve.

    ``predicted`` is the gradient the linear model of the accepted step
    promised, ``new_grad`` the gradient reached: the further apart
    their norms, the less a tighter solve would have bought.
    """
    eta = abs(np.linalg.norm(new_grad) - np.linalg.norm(predicted))
    eta /= np.linalg.norm(grad)
    floor = forcing ** _FORCING_EXPONENT
    if floor > 0.1:
        eta = max(eta, floor)
    return min(eta, _FORCING_MAX)


def _check_finite(loss: float, grad: NDArray[np.float64], it: int) -> None:
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise ValueError(
            f"propensity fit: non-finite loss {loss!r} or gradient after "
            f"{it} iterations"
        )


def _distinct_rows(design: Design):
    """The design's distinct rows, with each one's row and treated counts.

    Returns ``(rows, counts, treated)``: a design of one row per level
    tuple that occurs, and per row the float count of design rows with
    that tuple and how many of them are treated. The ``levels`` rows
    make one mixed-radix key per design row; one ``np.bincount`` over
    the keys counts the rows, one more the treated, and any row of a key
    stands for all of them, since they share every pass's code. Rows
    merge only when the product of the level counts is at most n / 2,
    so the rows at least halve and the count table has fewer than n
    entries. Otherwise, and for a design with raw columns, whose rows
    the codes do not determine, it returns the design itself with
    counts of 1.
    """
    n = design.n
    size = math.prod(design.sizes)
    if design.raw.shape[1] or 2 * size > n:
        return design, np.ones(n), design.treatment.astype(np.float64)
    key = np.zeros(n, dtype=np.intp)
    for codes, k in zip(design.levels, design.sizes):
        key *= k
        key += codes
    counts = np.bincount(key, minlength=size)
    distinct = np.flatnonzero(counts)
    row_of = np.empty(size, dtype=np.intp)
    row_of[key] = np.arange(n)
    return (
        design.take(row_of[distinct]),
        counts[distinct].astype(np.float64),
        np.bincount(key, design.treatment, size)[distinct],
    )


def fit(design: Design) -> PropensityModel:
    """Fit the logistic model at the fixed penalty 1e-4 to a design.

    Rows that share every feature's level are merged into one row
    with a count, when the product of the level counts is at most
    n / 2 (see the module docstring); the debug log line of a
    converged fit names how many rows the fit ran on. Each Newton step
    is a truncated conjugate-gradient solve from Hessian-vector
    products on the row passes, so no n x D matrix is formed. It is
    preconditioned by the exact Hessian block of each pass, rebuilt
    from the step's curvature; the blocks keep O(cells + m^2) numbers
    each, m the pass's bin and intercept columns, and a design without
    passes runs plain CG. The solve stops at the
    Eisenstat-Walker forcing term (see the module docstring) or once the
    residual max-norm is at most half the gradient tolerance;
    ``cg_iters`` records its iterations (Hessian-vector products) per
    step. Stops when the gradient max-norm drops below 1e-8
    (converged), after 1000 Newton steps, or at the first step whose
    halvings all leave the loss higher; the last two are reported
    on the model and logged as a warning naming the stop, not raised.
    Training rows of only one treatment group, a non-finite
    loss or gradient, or a raw column whose moments overflow, raise
    ``ValueError``.
    """
    n_treated = int(design.treatment.sum())
    if n_treated in (0, design.n):
        missing = "treated (T=1)" if n_treated == 0 else "control (T=0)"
        raise ValueError(
            f"propensity fit: no {missing} row among the {design.n} "
            "training rows"
        )
    rows, counts, treated = _distinct_rows(design)
    means, stds = _column_moments(rows, counts)
    constant = stds == 0.0
    x_std = _Standardized(rows, means, stds)
    groups, identity = _schwarz.pass_groups(rows, x_std)
    n = design.n
    params = np.zeros(design.d + 1, dtype=np.float64)
    loss, grad, p = _loss_grad_p(params, x_std, counts, treated, _L2_LAMBDA)
    _check_finite(loss, grad, 0)
    it = 0
    forcing = _FORCING_MAX
    cg_iters = []
    stop = f"at the limit of {_MAX_NEWTON_STEPS} Newton steps"
    while it < _MAX_NEWTON_STEPS and np.abs(grad).max() >= _GRAD_TOL:
        it += 1
        # c p (1 - p) / n, written over p, which the line search replaces
        curvature = p
        curvature *= 1.0 - p
        curvature *= counts
        curvature /= n
        step, resid, iters = _newton_step(
            partial(_hess_vec, x_std, curvature),
            grad,
            forcing,
            _schwarz.preconditioner(groups, identity, curvature, _L2_LAMBDA),
        )
        cg_iters.append(iters)
        # halve the step until the loss stops increasing
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = params - scale * step
            new_loss, new_grad, new_p = _loss_grad_p(
                candidate, x_std, counts, treated, _L2_LAMBDA
            )
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            scale *= 0.5
        else:
            # the next step would repeat this same failed search
            stop = (
                f"at Newton step {it}, whose line search found no halving "
                "that lowers the loss"
            )
            break
        _check_finite(new_loss, new_grad, it)
        # the linear model's gradient at params - scale * step
        predicted = (1.0 - scale) * grad + scale * resid
        forcing = _next_forcing(forcing, grad, predicted, new_grad)
        params, loss, grad, p = candidate, new_loss, new_grad, new_p
    converged = bool(np.abs(grad).max() < _GRAD_TOL)
    if not converged:
        logger.warning(
            "propensity fit stopped unconverged %s, with gradient max-norm "
            "%.3e", stop, float(np.abs(grad).max()),
        )
    else:
        logger.debug(
            "propensity fit converged in %d iterations, %d CG iterations "
            "on %d distinct rows of %d",
            it, sum(cg_iters), rows.n, n,
        )
    weights = params[:-1].copy()
    weights[constant] = 0.0
    return PropensityModel(
        weights=weights,
        intercept=float(params[-1]),
        feature_means=means,
        feature_stds=np.where(constant, 1.0, stds),
        feature_names=design.feature_names,
        n_iter=it,
        converged=converged,
        cg_iters=tuple(cg_iters),
    )


def predict(model: PropensityModel, design: Design) -> NDArray[np.float64]:
    """Score a design with a fitted model.

    It must carry the same raw feature names, in the same order, and the
    same column count as the training design. Scores are clamped to the
    open interval (0, 1) so downstream log-losses stay finite.
    """
    if (design.feature_names, design.d) != (
        model.feature_names, model.weights.size
    ):
        raise ValueError(
            "design feature names or column count do not match the "
            "model's training design"
        )
    x_std = _Standardized(design, model.feature_means, model.feature_stds)
    z = x_std @ model.weights + model.intercept
    return np.clip(_sigmoid(z), _SCORE_EPS, 1.0 - _SCORE_EPS)


def auc(scores, labels) -> float:
    """Area under the ROC curve by the Mann-Whitney count.

    Each (control, treated) pair counts 1 when the treated score is the
    higher and 1/2 when the two are tied, so the value is invariant
    under any strictly increasing transform of the scores.
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
    control = np.sort(scores[~pos])
    treated = scores[pos]
    below = int(np.searchsorted(control, treated, side="left").sum())
    not_above = int(np.searchsorted(control, treated, side="right").sum())
    return (below + 0.5 * (not_above - below)) / (n0 * n1)


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy of scores against 0/1 labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    p = np.clip(scores, _SCORE_EPS, 1.0 - _SCORE_EPS)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).mean())


def fit_predict(design: Design, config: Config) -> PropensityResult:
    """Score every row of a design, in-sample or cross-fit.

    With ``config.cross_fit_folds`` = 1 (the default) one model is fit
    on all rows and scores them all. With k > 1, rows are shuffled by
    the config seed into k nearly equal folds and each fold is scored
    by a model fit on the other folds; every row is scored exactly once.
    """
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
        cg_iters=tuple(sum(m.cg_iters) for m in models),
    )


def _is_binary(column: NDArray[np.float64]) -> bool:
    return bool(np.isin(column, (0.0, 1.0)).all())


def expand_features(dataset: Dataset, bins: int) -> Design:
    """Recode features as level indicators and pairwise interaction cells.

    ``bins`` = 0 gives the raw design: the dataset's columns and no
    indicator columns. Otherwise every non-constant feature gets a
    level code per row: binary columns use their own value (2 levels),
    other numeric columns are cut into ``bins`` equal-width intervals
    over their observed range. The design then holds no raw column:
    its columns are one block of level indicators per non-constant
    feature, then one block of cells per feature pair in feature order,
    stopping at the first pair that would take the design past
    :data:`MAX_DESIGN_COLUMNS` (logged as a warning that says how many
    pairs were kept). It raises ``ValueError`` when ``bins`` is neither
    0 nor at least 2, when the level blocks alone pass the cap, or when
    a column's range gives a bin width of 0 or inf. The returned
    :class:`Design` holds the level codes and the kept pairs, never the
    n x D matrix. Empty levels are constant columns, which the fit
    leaves at weight zero.
    """
    if bins < 0 or bins == 1:
        raise ValueError(f"bins must be 0 or >= 2, got {bins}")
    feats = dataset.features
    names = dataset.feature_names
    if bins == 0:
        return Design(feats, dataset.treatment, names)
    # per non-constant feature: its level codes and level count
    levels, sizes = [], []
    for j in range(feats.shape[1]):
        col = feats[:, j]
        lo = float(col.min())
        hi = float(col.max())
        if lo == hi:
            continue
        if _is_binary(col):
            codes, k = col.astype(np.intp), 2
        else:
            # Python floats overflow to inf and underflow to 0 silently
            width = (hi - lo) / bins
            if not 0.0 < width < np.inf:
                raise ValueError(
                    f"expand_features: column {names[j]!r} spans "
                    f"[{lo!r}, {hi!r}], so its {bins} equal-width bins "
                    f"would have width {width!r}"
                )
            codes = np.minimum(((col - lo) / width).astype(np.intp), bins - 1)
            k = bins
        levels.append(codes)
        sizes.append(k)
    n_cols = sum(sizes)
    if n_cols > MAX_DESIGN_COLUMNS:
        raise ValueError(
            f"expand_features: {n_cols} columns before any feature pair "
            f"exceed the column cap {MAX_DESIGN_COLUMNS}; use fewer bins"
        )
    pairs = []
    for a, b in combinations(range(len(sizes)), 2):
        if n_cols + sizes[a] * sizes[b] > MAX_DESIGN_COLUMNS:
            logger.warning(
                "expand_features: column cap %d reached: kept %d of %d "
                "feature pairs", MAX_DESIGN_COLUMNS, len(pairs),
                math.comb(len(sizes), 2),
            )
            break
        pairs.append((a, b))
        n_cols += sizes[a] * sizes[b]
    return Design(
        np.empty((dataset.n, 0)), dataset.treatment, names,
        tuple(levels), tuple(sizes), tuple(pairs),
    )
