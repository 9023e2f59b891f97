"""Greedy CART growth, split search, and asymmetric top-down pruning."""

import itertools
import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from positivity import (
    Config,
    SynthSpec,
    analyze_dataset,
    generate,
    render_tree_text,
)
from positivity import tree as tree_module
from positivity.data import MAX_TREE_DEPTH
from positivity.explain import extract_rules
from positivity.synth import DEFAULT_CARVE
from positivity.tree import (
    ExplanationTree,
    TreeNode,
    best_split,
    build_tree,
    gini,
    prune,
)


def leaf(n_pos, n_neg, depth=0):
    return TreeNode(n_pos=n_pos, n_neg=n_neg, depth=depth)


def collect_nodes(node):
    if node.is_leaf:
        return [node]
    return [node] + collect_nodes(node.left) + collect_nodes(node.right)


def brute_force_best(features, labels):
    """Re-evaluate every (feature, midpoint) candidate independently."""
    n, d = features.shape
    parent = gini(int(labels.sum()), int(n - labels.sum()))
    best = None
    for j in range(d):
        for cut in sorted(set(features[:, j])):
            left = features[:, j] <= cut
            nl = int(left.sum())
            if nl == 0 or nl == n:
                continue
            gl = gini(int(labels[left].sum()), int(nl - labels[left].sum()))
            gr = gini(
                int(labels[~left].sum()),
                int((n - nl) - labels[~left].sum()),
            )
            w = (nl * gl + (n - nl) * gr) / n
            if best is None or w < best[0] - 1e-12:
                best = (w, j, cut)
    if best is None or best[0] >= parent - 1e-12:
        return None
    return best


@pytest.fixture
def argsort_calls(monkeypatch):
    """The arguments of every ``np.argsort`` call the test makes."""
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


def collapses(node, beta, min_pos):
    """The pruning rule, restated apart from the module's helper."""
    return node.n_pos / node.n > beta or node.n_pos < min_pos


def reference_prune(node, beta, min_pos):
    """Prune a subtree by the restated rule, parents first."""
    if node.is_leaf or collapses(node, beta, min_pos):
        return TreeNode(n_pos=node.n_pos, n_neg=node.n_neg, depth=node.depth)
    return TreeNode(
        n_pos=node.n_pos,
        n_neg=node.n_neg,
        depth=node.depth,
        feature_index=node.feature_index,
        threshold=node.threshold,
        left=reference_prune(node.left, beta, min_pos),
        right=reference_prune(node.right, beta, min_pos),
    )


def continuous_data(seed, n=300):
    """A box of violations, 5% of labels flipped, three normal columns."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 3))
    labels = (
        (features[:, 0] > 0.3) & (features[:, 1] <= 0.5)
    ).astype(np.int64) ^ (rng.random(n) < 0.05).astype(np.int64)
    return features, labels


def tie_heavy_data(seed, n=200):
    """Integer and 0/1 columns: long runs of equal values, and counts
    whose purity often equals a round threshold exactly."""
    rng = np.random.default_rng(seed)
    features = np.column_stack([
        rng.integers(0, 4, n),
        rng.integers(0, 2, n),
        rng.integers(-2, 3, n),
    ]).astype(float)
    labels = (
        (features[:, 0] >= 2) & (features[:, 2] <= 0)
    ).astype(np.int64) ^ (rng.random(n) < 0.1).astype(np.int64)
    return features, labels


def reference_tree(features, labels, config):
    """Grow by calling best_split on each node's own rows."""

    def grow(idx, depth):
        n_pos = int(labels[idx].sum())
        node = TreeNode(n_pos=n_pos, n_neg=idx.size - n_pos, depth=depth)
        if (
            depth >= config.max_depth
            or n_pos in (0, idx.size)
            or idx.size < 2
        ):
            return node
        split = best_split(features[idx], labels[idx])
        if split is None:
            return node
        j, thr, _ = split
        go_left = features[idx, j] <= thr
        return TreeNode(
            n_pos=n_pos,
            n_neg=idx.size - n_pos,
            depth=depth,
            feature_index=j,
            threshold=thr,
            left=grow(idx[go_left], depth + 1),
            right=grow(idx[~go_left], depth + 1),
        )

    return ExplanationTree(
        root=grow(np.arange(labels.size), 0),
        group=0,
        feature_names=tuple(f"x{j}" for j in range(features.shape[1])),
        total_violations=int(labels.sum()),
    )


class TestGini:
    def test_pure(self):
        assert gini(10, 0) == 0.0

    def test_balanced(self):
        assert gini(5, 5) == 0.5

    def test_frozen_quarter(self):
        assert gini(1, 3) == 0.375

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini(-1, 2)


class TestBestSplit:
    def test_perfect_split_at_midpoint(self):
        features = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        assert best_split(features, labels) == (0, 2.5, 0.0)

    def test_pure_node_none(self):
        features = np.array([[1.0], [2.0]])
        labels = np.array([1, 1])
        assert best_split(features, labels) is None

    def test_two_features_only_first_perfect(self):
        features = np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )
        labels = np.array([0, 0, 1, 1])
        result = best_split(features, labels)
        assert result is not None
        assert result[0] == 0
        assert result[2] == 0.0

    def test_tie_breaks_to_lowest_feature_index(self):
        # Identical columns: both achieve the same score; index 0 wins.
        column = np.array([1.0, 2.0, 3.0, 4.0])
        features = np.column_stack([column, column])
        labels = np.array([0, 1, 0, 1])
        result = best_split(features, labels)
        assert result is not None
        assert result[0] == 0

    def test_no_improving_split_none(self):
        # The only candidate cut splits into [0,1] and [1,0]: weighted
        # impurity equals the parent's 0.5, so no split is returned.
        features = np.array([[1.0], [1.0], [2.0], [2.0]])
        labels = np.array([0, 1, 1, 0])
        assert best_split(features, labels) is None

    def test_constant_feature_none(self):
        features = np.array([[3.0], [3.0], [3.0]])
        labels = np.array([0, 1, 0])
        assert best_split(features, labels) is None

    def test_tie_keeps_lowest_threshold(self):
        # labels symmetric around the middle: cuts at 1.5 and 2.5 tie.
        features = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([1, 0, 1])
        result = best_split(features, labels)
        assert result is not None
        assert result[:2] == (0, 1.5)

    def test_zero_columns_none(self):
        assert best_split(np.empty((4, 0)), np.array([0, 1, 0, 1])) is None

    @pytest.mark.parametrize(
        "lo, hi, want",
        [
            # the midpoint of two adjacent floats rounds up to the upper one
            (1.0 - 2.0**-53, 1.0, 1.0 - 2.0**-53),
            # 0.5 * (lo + hi) overflows to inf here
            (1.5e308, 1.7e308, 1.6e308),
            (-1.7e308, -1.5e308, -1.6e308),
        ],
        ids=["adjacent", "near_max", "near_min"],
    )
    def test_threshold_separates_the_values(self, lo, hi, want):
        features = np.array([[lo], [lo], [hi], [hi]])
        labels = np.array([0, 0, 1, 1])
        j, thr, impurity = best_split(features, labels)
        assert (j, impurity) == (0, 0.0)
        assert lo <= thr < hi and thr == want


class TestBuildTree:
    def test_threshold_rule_depth_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 100)
        labels = (x > 5.0).astype(np.int64)
        tree = build_tree(x.reshape(-1, 1), labels, Config())
        root = tree.root
        assert not root.is_leaf
        below = x[x <= root.threshold]
        above = x[x > root.threshold]
        assert below.max() <= 5.0 < above.min()
        assert root.left.is_leaf and root.right.is_leaf
        assert root.left.n_pos == 0
        assert root.right.n_neg == 0

    def test_adjacent_values_split_once(self):
        features = np.array([[1.0 - 2.0**-53]] * 2 + [[1.0]] * 2)
        tree = build_tree(features, np.array([0, 0, 1, 1]), Config())
        root = tree.root
        assert root.left.is_leaf and root.right.is_leaf
        assert (root.left.n, root.right.n) == (2, 2)
        assert "leaf: pos=2 neg=0 purity=1" in render_tree_text(tree)

    def test_max_depth_zero_single_leaf(self):
        features = np.array([[1.0], [2.0]])
        labels = np.array([0, 1])
        tree = build_tree(features, labels, Config(max_depth=0))
        assert tree.root.is_leaf
        assert tree.root.n_pos == 1
        assert tree.root.n_neg == 1

    def test_deepest_allowed_tree_builds_and_renders(self):
        # alternating labels along one column: every split cuts one row
        # off, so the tree grows to the depth cap, and growth, pruning,
        # rule extraction and rendering recurse that deep
        x = np.arange(4000, dtype=np.float64).reshape(-1, 1)
        labels = np.arange(4000) % 2
        config = Config(max_depth=MAX_TREE_DEPTH)
        tree = prune(
            build_tree(x, labels, config, pruned=True),
            config.beta, config.gamma,
        )
        depth = max(node.depth for node in collect_nodes(tree.root))
        assert depth == MAX_TREE_DEPTH == 500
        assert extract_rules(tree, config.beta)
        assert render_tree_text(tree).count("leaf:") == 501

    def test_single_class_rejected(self):
        features = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError):
            build_tree(features, np.array([1, 1]), Config())

    def test_counts_sum_to_parent_everywhere(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((200, 3))
        labels = rng.integers(0, 2, 200)
        tree = build_tree(features, labels, Config(max_depth=6))
        for node in collect_nodes(tree.root):
            if not node.is_leaf:
                assert node.n_pos == node.left.n_pos + node.right.n_pos
                assert node.n_neg == node.left.n_neg + node.right.n_neg

    def test_leaf_counts_total_group_size(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((150, 2))
        labels = rng.integers(0, 2, 150)
        tree = build_tree(features, labels, Config())
        leaves = [n for n in collect_nodes(tree.root) if n.is_leaf]
        assert sum(n.n_pos + n.n_neg for n in leaves) == 150

    def test_total_violations_recorded(self):
        features = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([1, 0, 1])
        tree = build_tree(features, labels, Config())
        assert tree.total_violations == 2

    def test_greedy_equals_brute_force_small(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 3))
            features = rng.integers(0, 5, (n, d)).astype(float)
            labels = rng.integers(0, 2, n)
            want = brute_force_best(features, labels)
            got = best_split(features, labels)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[2] == pytest.approx(want[0], abs=1e-9)


    def test_tie_heavy_trees_match_per_node_search(self):
        # Integer columns and a 0/1 column put long runs of equal values
        # in every sorted list, where a split's partition must keep the
        # lists sorted for the scores to match a per-node sort.
        rng = np.random.default_rng(4)
        for trial in range(120):
            n = int(rng.integers(2, 90))
            features = np.column_stack([
                rng.integers(0, 4, n),
                rng.integers(0, 2, n),
                rng.integers(-2, 3, n),
            ]).astype(float)
            labels = rng.integers(0, 2, n)
            labels[trial % n] = 1
            labels[(trial + 1) % n] = 0
            config = Config(max_depth=int(rng.integers(1, 11)))
            got = build_tree(features, labels, config)
            want = reference_tree(features, labels, config)
            assert got.root == want.root
            assert render_tree_text(got) == render_tree_text(want)

    def test_one_sort_per_tree(self, argsort_calls):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((300, 3))
        labels = (features[:, 0] * features[:, 1] > 0).astype(np.int64)
        tree = build_tree(features, labels, Config(max_depth=6))
        assert len(collect_nodes(tree.root)) > 3
        assert len(argsort_calls) == 1

    def test_zero_columns_single_leaf(self):
        tree = build_tree(np.empty((3, 0)), np.array([1, 0, 1]), Config())
        assert tree.root == leaf(2, 1)

    def test_peak_memory_within_four_times_feature_bytes(self):
        rng = np.random.default_rng(3)
        features = rng.random((60_000, 10))
        labels = np.zeros(60_000, dtype=np.int64)
        labels[rng.choice(60_000, 20, replace=False)] = 1
        tracemalloc.start()
        try:
            tree = build_tree(features, labels, Config(), pruned=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # most splits peel a thin slice off a large node, so nodes of
        # 12k to 60k rows are partitioned at every depth down to 10
        assert max(node.depth for node in collect_nodes(tree.root)) == 10
        assert peak <= 4 * features.nbytes


class TestPrune:
    def grow(self, seed=0, n=300):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, 2))
        labels = (
            (features[:, 0] > 0.3) & (features[:, 1] <= 0.5)
        ).astype(np.int64) | (rng.random(n) < 0.05).astype(np.int64)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        return build_tree(features, labels, Config())

    def test_pure_node_becomes_leaf(self):
        root = TreeNode(
            n_pos=95, n_neg=5, depth=0, feature_index=0, threshold=1.0,
            left=leaf(90, 0, 1), right=leaf(5, 5, 1),
        )
        tree = ExplanationTree(
            root=root, group=0, feature_names=("x",), total_violations=95
        )
        pruned = prune(tree, beta=0.9, gamma=0.01)
        assert pruned.root.is_leaf
        assert pruned.root.n_pos == 95
        assert pruned.root.n_neg == 5

    def test_small_mass_becomes_leaf(self):
        root = TreeNode(
            n_pos=3, n_neg=400, depth=0, feature_index=0, threshold=1.0,
            left=leaf(3, 100, 1), right=leaf(0, 300, 1),
        )
        tree = ExplanationTree(
            root=root, group=0, feature_names=("x",), total_violations=1000
        )
        pruned = prune(tree, beta=0.9, gamma=0.01)
        assert pruned.root.is_leaf

    def test_surviving_root_with_children_pruned_by_purity(self):
        left = TreeNode(
            n_pos=50, n_neg=1, depth=1, feature_index=0, threshold=0.5,
            left=leaf(50, 0, 2), right=leaf(0, 1, 2),
        )
        right = TreeNode(
            n_pos=50, n_neg=99, depth=1, feature_index=0, threshold=2.0,
            left=leaf(50, 1, 2), right=leaf(0, 98, 2),
        )
        root = TreeNode(
            n_pos=100, n_neg=100, depth=0, feature_index=0, threshold=1.0,
            left=left, right=right,
        )
        tree = ExplanationTree(
            root=root, group=1, feature_names=("x",), total_violations=100
        )
        pruned = prune(tree, beta=0.9, gamma=0.01)
        assert not pruned.root.is_leaf
        assert pruned.root.left.is_leaf
        assert not pruned.root.right.is_leaf

    def test_pruned_internal_nodes_satisfy_both_criteria(self):
        for seed in range(20):
            tree = self.grow(seed=seed)
            pruned = prune(tree, beta=0.9, gamma=0.01)
            min_pos = 0.01 * pruned.total_violations
            for node in collect_nodes(pruned.root):
                if not node.is_leaf:
                    assert node.purity <= 0.9
                    assert node.n_pos >= min_pos

    def test_prune_preserves_counts_and_total(self):
        tree = self.grow(seed=5)
        pruned = prune(tree, beta=0.9, gamma=0.01)
        assert pruned.total_violations == tree.total_violations
        assert pruned.root.n_pos == tree.root.n_pos
        assert pruned.root.n_neg == tree.root.n_neg

    def test_order_independence_matches_bfs(self):
        # Any parents-before-children order yields the same result; an
        # independent re-implementation is the cross-check.
        def shape(node):
            if node.is_leaf:
                return (node.n_pos, node.n_neg)
            return (
                node.feature_index,
                node.threshold,
                shape(node.left),
                shape(node.right),
            )

        for seed in range(10):
            tree = self.grow(seed=seed)
            pruned = prune(tree, beta=0.9, gamma=0.01)
            want = reference_prune(
                tree.root, 0.9, 0.01 * tree.total_violations
            )
            assert shape(pruned.root) == shape(want)

    def test_invalid_thresholds_rejected(self):
        tree = self.grow()
        with pytest.raises(ValueError):
            prune(tree, beta=0.0, gamma=0.01)
        with pytest.raises(ValueError):
            prune(tree, beta=0.9, gamma=1.0)


class TestPrunedGrowth:
    """``build_tree(..., pruned=True)`` equals ``prune`` of the full tree
    and never searches a node that pruning collapses."""

    @pytest.mark.parametrize(
        "make", [continuous_data, tie_heavy_data], ids=["continuous", "ties"]
    )
    def test_matches_pruned_full_tree(self, make):
        for seed in range(6):
            features, labels = make(seed)
            total = int(labels.sum())
            for max_depth in range(11):
                full = build_tree(
                    features, labels, Config(max_depth=max_depth)
                )
                for beta, gamma in itertools.product(
                    (0.5, 0.7, 0.9, 1.0), (0.0, 0.01, 0.1, 0.5)
                ):
                    config = Config(
                        max_depth=max_depth, beta=beta, gamma=gamma
                    )
                    got = build_tree(features, labels, config, pruned=True)
                    want = prune(full, beta, gamma)
                    assert got == want
                    assert got.root == reference_prune(
                        full.root, beta, gamma * total
                    )
                    assert render_tree_text(got) == render_tree_text(want)
                    assert extract_rules(got, beta) == extract_rules(
                        want, beta
                    )

    @pytest.mark.parametrize(
        "make", [continuous_data, tie_heavy_data], ids=["continuous", "ties"]
    )
    @pytest.mark.parametrize(
        "beta, gamma", [(0.5, 0.01), (0.5, 0.1), (0.9, 0.01)]
    )
    def test_searches_only_nodes_pruning_keeps(
        self, monkeypatch, make, beta, gamma
    ):
        searched = []
        search = tree_module._search

        def recorded(columns, labels, order, n_pos):
            searched.append((n_pos, order.shape[1]))
            return search(columns, labels, order, n_pos)

        def collapsing(min_pos):
            return [
                (n_pos, m) for n_pos, m in searched
                if collapses(leaf(n_pos, m - n_pos), beta, min_pos)
            ]

        monkeypatch.setattr(tree_module, "_search", recorded)
        config = Config(beta=beta, gamma=gamma)
        skipped = 0
        for seed in range(6):
            features, labels = make(seed)
            min_pos = gamma * labels.sum()
            searched.clear()
            full = build_tree(features, labels, config)
            skipped += len(collapsing(min_pos))
            searched.clear()
            build_tree(features, labels, config, pruned=True)
            assert collapsing(min_pos) == []
            # one search, in pre-order, per node of the pruned tree that
            # no other stopping rule ends
            kept = reference_prune(full.root, beta, min_pos)
            assert searched == [
                (node.n_pos, node.n)
                for node in collect_nodes(kept)
                if node.depth < config.max_depth
                and 0 < node.n_pos < node.n
                and not collapses(node, beta, min_pos)
            ]
        assert skipped > 0

    @pytest.mark.parametrize(
        "beta, sorts", [(0.85, 0), (0.9, 1)], ids=["collapses", "at_beta"]
    )
    def test_collapsed_root_sorts_nothing(self, argsort_calls, beta, sorts):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((100, 3))
        # root purity 0.9 exactly: collapses only for beta below it
        labels = (np.arange(100) % 10 != 0).astype(np.int64)
        tree = build_tree(features, labels, Config(beta=beta), pruned=True)
        assert len(argsort_calls) == sorts
        assert tree.root.is_leaf == (sorts == 0)
        assert tree.root == prune(
            build_tree(features, labels, Config()), beta, 0.01
        ).root

    def test_analyze_dataset_trees_equal_pruned_full_trees(self):
        spec = SynthSpec(
            n=2000,
            noise_covariates=2,
            logit_intercept=-4.0,
            logit_weights=(0.1, -0.8, 0.0, 0.0),
            carve=DEFAULT_CARVE,
        )
        dataset = generate(spec, 0)
        config = Config(propensity_bins=0)
        result = analyze_dataset(dataset, config)
        report = result.report
        for group, labels in (
            (0, report.sample_labels0), (1, report.sample_labels1)
        ):
            full = build_tree(
                dataset.features[dataset.treatment == group],
                labels,
                config,
                feature_names=dataset.feature_names,
                group=group,
            )
            assert not full.root.is_leaf
            want = prune(full, config.beta, config.gamma)
            assert result.trees[group] == want
            assert result.trees[group].root == reference_prune(
                full.root, config.beta, config.gamma * full.total_violations
            )


def test_exhaustive_tiny_instances_match_brute_force():
    # Every labeling of n <= 6 points on a fixed two-feature grid.
    features = np.array(
        [[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [3.0, 2.0], [4.0, 1.0],
         [5.0, 0.0]]
    )
    for n in (2, 4, 6):
        sub = features[:n]
        for bits in itertools.product([0, 1], repeat=n):
            labels = np.array(bits)
            want = brute_force_best(sub, labels)
            got = best_split(sub, labels)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[2] == pytest.approx(want[0], abs=1e-9)


def fraction_gini(n_pos, n):
    return 1 - Fraction(n_pos, n) ** 2 - Fraction(n - n_pos, n) ** 2


def test_exact_ties_keep_the_lowest_threshold():
    # Every labeling of the values 1..n: among the cuts a rational oracle
    # finds exactly optimal, the lowest threshold wins, and no cut is
    # taken unless it is strictly better than the unsplit node.
    for n in range(2, 11):
        features = np.arange(1.0, n + 1.0)[:, None]
        for bits in itertools.product([0, 1], repeat=n):
            labels = np.array(bits, dtype=np.int64)
            n_pos = sum(bits)
            scores = {
                c + 0.5: (
                    c * fraction_gini(sum(bits[:c]), c)
                    + (n - c) * fraction_gini(n_pos - sum(bits[:c]), n - c)
                ) / n
                for c in range(1, n)
            }
            best = min(scores.values())
            got = best_split(features, labels)
            if best >= fraction_gini(n_pos, n):
                assert got is None, bits
            else:
                want = min(t for t, v in scores.items() if v == best)
                assert got is not None and got[:2] == (0, want), bits
                assert got[2] == pytest.approx(float(best), abs=1e-12)


@pytest.mark.parametrize("n, warns", [(2**19, False), (2**19 + 1, True)])
def test_root_past_the_exactness_bound_warns(caplog, n, warns):
    features = np.arange(n, dtype=np.float64)[:, None]
    labels = (np.arange(n) % 3 == 0).astype(np.int64)
    with caplog.at_level(logging.WARNING, logger="positivity.tree"):
        build_tree(features, labels, Config(max_depth=1))
    messages = [r.getMessage() for r in caplog.records]
    if warns:
        assert len(messages) == 1
        assert f"{n} rows" in messages[0] and f"{2**19} rows" in messages[0]
    else:
        assert messages == []


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        # Multiples of 1/8 keep midpoints exactly representable, so the
        # comparison-based oracle splits exactly where the scan does.
        st.tuples(st.integers(-800, 800), st.booleans()),
        min_size=2,
        max_size=40,
    )
)
def test_best_split_matches_direct_enumeration(data):
    features = np.array([[v * 0.125] for v, _ in data])
    labels = np.array([int(b) for _, b in data], dtype=np.int64)
    want = brute_force_best(features, labels)
    got = best_split(features, labels)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[2] == pytest.approx(want[0], abs=1e-9)


@st.composite
def tied_trees(draw):
    """Small integer-valued data with long runs of ties, the settings to
    grow it with, and the data's row count and column count."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    labels = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    assume(0 < labels.sum() < n)
    config = Config(
        max_depth=draw(st.integers(0, 7)),
        beta=draw(st.sampled_from((0.6, 0.9, 1.0))),
        gamma=draw(st.sampled_from((0.0, 0.05))),
    )
    features = np.array(cells, dtype=np.float64).reshape(n, d)
    return features, labels, config, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=tied_trees(), data=st.data())
def test_tree_invariant_to_row_order(case, data):
    features, labels, config, pruned = case
    perm = np.array(data.draw(st.permutations(range(labels.size))))
    want = build_tree(features, labels, config, pruned=pruned)
    got = build_tree(features[perm], labels[perm], config, pruned=pruned)
    assert got.root == want.root


@settings(max_examples=150, deadline=None)
@given(case=tied_trees(), data=st.data())
def test_tree_invariant_to_an_appended_column_copy(case, data):
    # every split of the copy ties with its original's, and ties break
    # toward the lower feature index
    features, labels, config, pruned = case
    j = data.draw(st.integers(0, features.shape[1] - 1))
    wider = np.column_stack([features, features[:, j]])
    want = build_tree(features, labels, config, pruned=pruned)
    got = build_tree(wider, labels, config, pruned=pruned)
    assert got.root == want.root
