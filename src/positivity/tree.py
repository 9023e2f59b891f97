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
node's counts change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import _kernels
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


def best_split(
    features: NDArray[np.float64], labels: NDArray[np.int64]
) -> tuple[int, float, float] | None:
    """Exhaustive best split of a sample subset.

    Returns ``(feature_index, threshold, weighted_impurity)`` for the
    candidate minimizing child-size-weighted Gini, or None when no
    candidate strictly improves on the unsplit node.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    labels = np.asarray(labels, dtype=np.int64)
    n, d = features.shape
    if labels.shape != (n,):
        raise ValueError("labels must align with feature rows")
    n_pos = int(labels.sum())
    parent = gini(n_pos, n - n_pos)
    best: tuple[int, float, float] | None = None
    for j in range(d):
        col = features[:, j]
        order = np.argsort(col)
        score, thr, found = _kernels.scan_sorted_feature(
            col[order], labels[order]
        )
        if not found or not score < parent:
            continue
        if best is None or score < best[2]:
            best = (j, float(thr), float(score))
    return best


def build_tree(
    features: NDArray[np.float64],
    labels: NDArray[np.int64],
    config: Config,
    feature_names: tuple[str, ...] | None = None,
    group: int = 0,
) -> ExplanationTree:
    """Grow a tree on one group's samples and violation labels.

    Growth stops at ``config.max_depth``, on pure nodes, on nodes
    smaller than two samples, and when no split strictly reduces
    impurity. Both label values must be present at the root.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    labels = np.asarray(labels).astype(np.int64)
    n, d = features.shape
    if labels.shape != (n,):
        raise ValueError("labels must align with feature rows")
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

    def grow(idx: NDArray[np.int64], depth: int) -> TreeNode:
        sub_labels = labels[idx]
        n_pos = int(sub_labels.sum())
        n_neg = idx.shape[0] - n_pos
        if (
            depth >= config.max_depth
            or n_pos == 0
            or n_neg == 0
            or idx.shape[0] < 2
        ):
            return TreeNode(n_pos=n_pos, n_neg=n_neg, depth=depth)
        split = best_split(features[idx], sub_labels)
        if split is None:
            return TreeNode(n_pos=n_pos, n_neg=n_neg, depth=depth)
        j, thr, _ = split
        go_left = features[idx, j] <= thr
        return TreeNode(
            n_pos=n_pos,
            n_neg=n_neg,
            depth=depth,
            feature_index=j,
            threshold=thr,
            left=grow(idx[go_left], depth + 1),
            right=grow(idx[~go_left], depth + 1),
        )

    root = grow(np.arange(n, dtype=np.int64), 0)
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
        if node.purity > beta or node.n_pos < min_pos:
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
