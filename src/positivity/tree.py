"""Binary CART trees that describe where violating samples live.

One tree is grown per treatment group on that group's samples, with the
per-sample violation flags as labels. Splits minimize child-size
weighted Gini impurity over every (feature, midpoint-between-distinct-
values) candidate; ties break toward the lowest feature index and then
the lowest threshold, and a node only splits when some candidate is
strictly better than leaving it alone.

Pruning is asymmetric and top-down: a subtree collapses to a leaf when
its violation purity exceeds ``beta`` (pure enough to state as a rule)
or when it holds fewer than ``gamma`` times the group's total violating
samples (too small to matter). Pruning only truncates structure; no
node's counts change. The collapse test reads only a node's own counts,
so ``build_tree(..., pruned=True)`` stops growth at every node pruning
would collapse, without searching or partitioning it, and ``prune`` is
the identity on the tree it returns.

Growth sorts each feature once per tree (SLIQ; Mehta, Agrawal &
Rissanen, EDBT 1996). Row j of a node's d x m array lists its rows
sorted by feature j; one shared mask splits every row and keeps each
sorted. The label count left of a cut does not depend on the order
within a run of equal values, so scores equal a per-node sort's. Counts
stay exact integers, and ``1 - (p*p + q*q)`` is symmetric under class
swap, which keeps tie-breaking deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .data import Config


@dataclass(frozen=True)
class TreeNode:
    """A node; internal when ``feature_index`` is set, else a leaf."""

    n_pos: int
    n_neg: int
    depth: int
    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature_index is None

    @property
    def n(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def purity(self) -> float:
        return self.n_pos / (self.n_pos + self.n_neg)


@dataclass(frozen=True)
class ExplanationTree:
    """A grown (or pruned) tree for one treatment group."""

    root: TreeNode
    group: int
    feature_names: tuple[str, ...]
    total_violations: int


def gini(n_pos: int, n_neg: int) -> float:
    """Gini impurity of a node with the given class counts.

    The expression ``1 - (p*p + q*q)`` is symmetric under swapping the
    classes, so equal-by-symmetry candidates stay exactly equal in
    floating point.
    """
    if n_pos < 0 or n_neg < 0:
        raise ValueError("counts must be >= 0")
    n = n_pos + n_neg
    if n < 1:
        raise ValueError("node must hold at least one sample")
    p = n_pos / n
    q = n_neg / n
    return 1.0 - (p * p + q * q)


def _collapses(n_pos: int, n_neg: int, beta: float, min_pos: float) -> bool:
    """The pruning rule: too pure to split further, or too few positives."""
    return n_pos / (n_pos + n_neg) > beta or n_pos < min_pos


def _search(
    columns: NDArray[np.float64], labels: NDArray[np.int64],
    order: NDArray[np.intp], n_pos: int,
) -> tuple[int, float, float] | None:
    """Best split of a node; ``order[j]`` lists its rows by feature j.

    ``columns`` is the d x n feature matrix; ``n_pos`` counts the node's
    positive labels.
    """
    nf = float(order.shape[1])
    bound = gini(n_pos, order.shape[1] - n_pos)
    best = None
    for j, rows in enumerate(order):
        values = columns[j, rows]
        cut = np.nonzero(values[:-1] != values[1:])[0]
        if cut.size == 0:
            continue
        cpos = np.cumsum(labels[rows])
        nl = (cut + 1).astype(np.float64)
        nr = nf - nl
        lp = cpos[cut].astype(np.float64)
        rp = float(n_pos) - lp
        pl = lp / nl
        ql = (nl - lp) / nl
        gl = 1.0 - (pl * pl + ql * ql)
        pr = rp / nr
        qr = (nr - rp) / nr
        gr = 1.0 - (pr * pr + qr * qr)
        score = (nl * gl + nr * gr) / nf
        k = int(np.argmin(score))
        if score[k] < bound:
            lo, hi = float(values[cut[k]]), float(values[cut[k] + 1])
            # halving first cannot overflow; the midpoint of two adjacent
            # floats can round up to hi, which would send every row left
            mid = 0.5 * lo + 0.5 * hi
            bound = float(score[k])
            best = (j, lo if mid == hi else mid, bound)
    return best


def _columns_and_labels(
    features: NDArray[np.float64], labels: NDArray[np.int64]
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    labels = np.asarray(labels).astype(np.int64)
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with feature rows")
    return np.ascontiguousarray(features.T), labels


def best_split(
    features: NDArray[np.float64], labels: NDArray[np.int64]
) -> tuple[int, float, float] | None:
    """Exhaustive best split of a sample subset.

    Returns ``(feature_index, threshold, weighted_impurity)`` for the
    candidate minimizing child-size-weighted Gini, or None when no
    candidate strictly improves on the unsplit node. Runs the same
    search :func:`build_tree` runs at every node it grows.
    """
    columns, labels = _columns_and_labels(features, labels)
    order = np.argsort(columns, axis=1)
    return _search(columns, labels, order, int(labels.sum()))


def build_tree(
    features: NDArray[np.float64],
    labels: NDArray[np.int64],
    config: Config,
    feature_names: tuple[str, ...] | None = None,
    group: int = 0,
    *,
    pruned: bool = False,
) -> ExplanationTree:
    """Grow a tree on one group's samples and violation labels.

    Growth stops at ``config.max_depth``, on pure nodes, on nodes
    smaller than two samples, and when no split strictly reduces
    impurity. Both label values must be present at the root. With
    ``pruned=True`` growth also stops at every node that
    ``prune(tree, config.beta, config.gamma)`` would collapse, so the
    result equals that pruned full tree at a fraction of the searches.
    """
    columns, labels = _columns_and_labels(features, labels)
    d, n = columns.shape
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    total_pos = int(labels.sum())
    if total_pos == 0 or total_pos == n:
        raise ValueError("both label values must be present")
    if feature_names is None:
        names = tuple(f"x{j}" for j in range(d))
    else:
        names = tuple(feature_names)
        if len(names) != d:
            raise ValueError(f"{len(names)} feature names for {d} columns")
    min_pos = config.gamma * total_pos
    # side of the current split per row; a node reads only its own rows
    go_left = np.zeros(n, dtype=bool)

    def stops(n_pos: int, m: int, depth: int) -> bool:
        return (
            depth >= config.max_depth or n_pos == 0 or n_pos == m
            or (pruned and _collapses(n_pos, m - n_pos, config.beta, min_pos))
        )

    def grow(order: NDArray[np.intp], n_pos: int, depth: int) -> TreeNode:
        m = order.shape[1]
        leaf = TreeNode(n_pos=n_pos, n_neg=m - n_pos, depth=depth)
        if stops(n_pos, m, depth):
            return leaf
        split = _search(columns, labels, order, n_pos)
        if split is None:
            return leaf
        j, thr, _ = split
        rows = order[j]
        go_left[rows] = columns[j, rows] <= thr
        left = go_left[order]
        left_order = order[left].reshape(d, -1)
        left_pos = int(labels[left_order[0]].sum())
        return replace(
            leaf,
            feature_index=j,
            threshold=thr,
            left=grow(left_order, left_pos, depth + 1),
            right=grow(
                order[~left].reshape(d, -1), n_pos - left_pos, depth + 1
            ),
        )

    if stops(total_pos, n, 0):
        root = TreeNode(n_pos=total_pos, n_neg=n - total_pos, depth=0)
    else:
        root = grow(np.argsort(columns, axis=1), total_pos, 0)
    return ExplanationTree(
        root=root,
        group=group,
        feature_names=names,
        total_violations=total_pos,
    )


def prune(tree: ExplanationTree, beta: float, gamma: float) -> ExplanationTree:
    """Collapse subtrees that are pure enough or too small.

    Visits parents before children (pre-order); any parent-first order
    gives the same result because the collapse test depends only on the
    node's own counts. Returns a new tree; the input is untouched.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    min_pos = gamma * tree.total_violations

    def visit(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return node
        if _collapses(node.n_pos, node.n_neg, beta, min_pos):
            return TreeNode(
                n_pos=node.n_pos, n_neg=node.n_neg, depth=node.depth
            )
        return replace(node, left=visit(node.left), right=visit(node.right))

    return replace(tree, root=visit(tree.root))


def render_tree_text(tree: ExplanationTree) -> str:
    """Deterministic indented dump of a tree."""
    lines = [
        f"group {tree.group}: {tree.total_violations} violating samples"
    ]

    def visit(node: TreeNode, indent: str) -> None:
        if node.is_leaf:
            lines.append(
                f"{indent}leaf: pos={node.n_pos} neg={node.n_neg} "
                f"purity={node.purity:.6g}"
            )
            return
        name = tree.feature_names[node.feature_index]
        lines.append(
            f"{indent}if {name} <= {node.threshold:.6g}  "
            f"[pos={node.n_pos} neg={node.n_neg}]"
        )
        visit(node.left, indent + "  ")
        lines.append(f"{indent}else  # {name} > {node.threshold:.6g}")
        visit(node.right, indent + "  ")

    visit(tree.root, "")
    return "\n".join(lines) + "\n"
