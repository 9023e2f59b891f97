"""Additive Schwarz preconditioning for the propensity Newton-CG.

The conjugate gradients of :func:`positivity.propensity.fit` are
preconditioned by additive Schwarz (Smith, Bjorstad & Gropp, "Domain
Decomposition", 1996) with one exact Hessian block per row pass of the
design:

    M r = sum_b R_b^T H_b^-1 R_b r + I_0 r,

where R_b picks the coordinates of block b and I_0 keeps, unchanged, the
coordinates no block covers and those of constant columns. A pass's
block holds its cells; the bins of its one or two features, wherever
they sit in the design (they are margins of its own grid); and the
intercept. It is rebuilt at every Newton step from the curvature
c = p (1 - p) / n, with one ``np.bincount`` of c over the pass's codes,
and keeps O(cells + m^2) numbers, m its other columns. Passes whose
blocks have one shape form a group, and each operation runs once per
group.

The blocks use elementwise numpy, ``np.bincount`` and vector dot
products only; their small dense inverses are Gauss-Jordan eliminations.
A LAPACK inverse was faster for a single block, but its first call in a
process added 0.5 to 0.8 MiB of resident memory (OpenBLAS code and
buffers), about 2% of the peak of a benchmark run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .propensity import Design


def _gauss_jordan(a):
    """Inverse of each symmetric positive definite matrix of a stack.

    Gauss-Jordan elimination on ``[a | I]``; positive definite matrices
    need no pivoting.
    """
    n_mats, m, _ = a.shape
    work = np.zeros((n_mats, m, 2 * m))
    work[:, :, :m] = a
    work[:, np.arange(m), np.arange(m, 2 * m)] = 1.0
    for i in range(m):
        row = work[:, i] / work[:, i, i, None]
        work -= work[:, :, i, None] * row[:, None, :]
        work[:, i] = row
    return work[:, :, m:]


class PassBlocks:
    """The exact Hessian blocks of row passes of one shape, and their solve.

    A pass's block holds its K cells, then m other columns: the bins of
    its one or two features (margins of its cell grid, wherever they
    sit in the design), then the intercept. All of them are functions
    of the cell: ``at[b, c]`` lists the ones that are 1 at cell c of
    block b, the intercept last, numbered ``b m`` on. A bin pass's cells
    are its feature's bins, so there m is 1. The passes of a group share
    K and m.

    A standardized indicator column is ``s e - s mu 1``, so moving the
    intercept coordinate by ``s mu`` times each indicator weight turns
    the block into the Gram matrix of uncentered indicators. That
    removes the rank-2 centering term of the cell rows: the cells couple
    only through their diagonal ``s^2 h + ridge``, h the curvature summed
    per cell, and only the m x m Schur complement of the cells is kept.
    It is the indicator Gram matrix at cell weights
    ``h ridge / (s^2 h + ridge)``, so it is formed without cancellation.
    The first feature's p bins are exclusive, so their rows of it are
    diagonal: they are eliminated at once, and only the m - p others
    are inverted densely. ``ridge`` is the penalty on every weight.
    Constant columns are left out: a solve is 0 on them.
    """

    def __init__(self, group, curvature, ridge) -> None:
        codes, self.at, self.index, scale, self.shift = group
        n_blocks, k, per = self.at.shape
        m = self.m = int(self.at[0, 0, -1]) + 1
        p = self.p = int(self.at[0, :, 0].max()) + 1 if per > 1 else 0
        self.k = k
        self.live = (scale != 0.0).astype(np.float64)
        s, s_o = scale[:, :k], scale[:, k:]
        self.s_o = s_o
        h = np.stack([np.bincount(c, curvature, k) for c in codes])
        self.hs = h * s
        self.inv_d = 1.0 / (s * self.hs + ridge)
        # the cells' Schur complement, scaled by s_o on both sides: the
        # indicator Gram matrix at weights w, a bin's or the intercept's
        # sum of w over its cells on the diagonal and in the intercept's
        # row and column, and where the two features' bins meet, the
        # cell grid itself (cell = row * kb + column)
        weight = h * ridge * self.inv_d
        sums = self._cell_sums(weight)
        schur = np.zeros((n_blocks, m, m))
        schur[:, np.arange(m), np.arange(m)] = sums
        schur[:, m - 1] = schur[:, :, m - 1] = sums
        if p:
            grid = weight.reshape(n_blocks, p, m - 1 - p)
            schur[:, :p, p:m - 1] = grid
            schur[:, p:m - 1, :p] = grid.transpose(0, 2, 1)
        schur *= s_o[:, :, None]
        schur *= s_o[:, None, :]
        penalized = np.arange(m - 1)
        schur[:, penalized, penalized] += ridge
        # eliminate the diagonal rows of the first feature's bins
        self.inv_lead = 1.0 / np.diagonal(schur[:, :p, :p], axis1=1, axis2=2)
        self.lead = self.inv_lead[:, :, None] * schur[:, :p, p:]
        trail = schur[:, p:, p:]
        if p:
            for b in range(n_blocks):
                trail[b] -= (
                    schur[b, :p, p:, None] * self.lead[b, :, None, :]
                ).sum(0)
        self.trail_inv = _gauss_jordan(trail)

    def _cell_sums(self, z):
        """Per block, bin and intercept column, the sum of ``z`` over cells."""
        per = self.at.shape[2]
        return np.bincount(
            self.at.ravel(), np.repeat(z, per), z.shape[0] * self.m
        ).reshape(-1, self.m)

    def solve(self, r):
        """Each block's inverse times its row of ``r``, 0 on constant
        columns."""
        k, p = self.k, self.p
        r = r * self.live
        r += self.shift * r[:, -1, None]
        t = self.inv_d * r[:, :k]
        v = r[:, k:] - self.s_o * self._cell_sums(self.hs * t)
        y = np.empty_like(r)
        y_o = y[:, k:]
        # matrix-vector products only: np.matmul runs them as BLAS gemv,
        # which the design products load already, unlike gemm or LAPACK
        trail = v[:, p:] - np.matmul(v[:, None, :p], self.lead)[:, 0]
        y_o[:, p:] = np.matmul(self.trail_inv, trail[:, :, None])[:, :, 0]
        y_o[:, :p] = (
            self.inv_lead * v[:, :p]
            - np.matmul(self.lead, y_o[:, p:, None])[:, :, 0]
        )
        z = self.s_o * y_o
        y[:, :k] = t - self.inv_d * (self.hs * z.ravel()[self.at].sum(2))
        y[:, -1] += (self.shift * y).sum(1)
        return y * self.live


def pass_groups(design: Design, x_std):
    """The passes' blocks, grouped by shape, and where no block reaches.

    ``x_std`` is the fit's standardized design, for its column means and
    scales. Returns ``(groups, identity)``. A group holds, for passes whose
    blocks have the same shape: their codes, and stacked per pass, the
    bin and intercept columns ``at`` of each cell (see
    :class:`PassBlocks`), the block's coordinates in the parameter
    vector, their column scales (0 for a constant column, 1 for the
    intercept) and their intercept shifts ``s mu`` (0 for the
    intercept). ``identity`` is 1 on every coordinate that no block
    covers or whose column is constant, and 0 elsewhere. This layout is
    fixed for a fit; the blocks' numbers follow the curvature.
    """
    d = design.d
    scale = np.append(x_std.scale, 1.0)
    shift = np.append(x_std.means * x_std.scale, 0.0)
    columns = design.level_columns
    groups = {}
    for (codes, cells, grid, _, _), feats in zip(
        design.passes, design.pass_features
    ):
        cell = np.arange(cells.stop - cells.start)
        own = []
        if len(grid) == 2:
            own = [
                (lev, columns[j])
                for j, lev in zip(feats, (cell // grid[1], cell % grid[1]))
            ]
        starts = np.cumsum([0] + [b.stop - b.start for _, b in own])
        pos = np.column_stack(
            [lev + start for (lev, _), start in zip(own, starts)]
            + [np.full(cell.size, starts[-1])]
        )
        index = np.concatenate(
            [cell + cells.start]
            + [np.arange(b.start, b.stop) for _, b in own]
            + [[d]]
        ).astype(np.intp)
        # the shape, and where the first feature's bins, the second's and
        # the intercept end
        shape = (pos.shape, tuple(pos.max(0)))
        groups.setdefault(shape, []).append(
            (codes, pos, index, scale[index], shift[index])
        )
    covered = np.zeros(d + 1, dtype=bool)
    stacked = []
    for members in groups.values():
        codes, pos, *rest = zip(*members)
        pos = np.array(pos)
        # number the cells' columns over the blocks of the group
        at = pos + (pos[0, 0, -1] + 1) * np.arange(len(pos))[:, None, None]
        stacked.append((codes, at, *map(np.array, rest)))
        covered[stacked[-1][2]] = True
    return stacked, np.where(covered & (scale != 0.0), 0.0, 1.0)


def preconditioner(groups, identity, curvature, l2_lambda):
    """Additive Schwarz: the exact Hessian block of each pass, summed.

    Returns ``r -> sum_b R_b^T H_b^-1 R_b r + identity * r`` at the given
    curvature and penalty; the penalty keeps every block invertible,
    since a block's cells sum to the intercept and its bins are sums of
    its cells. Without passes ``identity`` is all ones, so the map
    returns r bit for bit.
    """
    blocks = [
        PassBlocks(group, curvature, l2_lambda) for group in groups
    ]

    def apply(r):
        z = r * identity
        for block in blocks:
            z += np.bincount(
                block.index.ravel(), block.solve(r[block.index]).ravel(),
                z.size,
            )
        return z

    return apply
