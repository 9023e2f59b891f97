"""Rule extraction, simplification, phrasing, and the JSON document."""

import json
from dataclasses import fields

import numpy as np
import pytest

from positivity import (
    Config,
    Rule,
    RuleSet,
    render_report,
    render_text,
    ruleset_mask,
)
from positivity.explain import NO_VIOLATION_TEXT, extract_rules
from positivity.tree import ExplanationTree, TreeNode, build_tree, prune
from positivity.propensity import PropensityResult
from positivity.violation import BinTest, ViolationReport


def leaf(n_pos, n_neg, depth):
    return TreeNode(n_pos=n_pos, n_neg=n_neg, depth=depth)


def make_report(bins=10, suspected=(), tests=(), labels0=None, labels1=None):
    mask = np.zeros(bins, dtype=bool)
    for t in tests:
        mask[t.index] = t.significant
    return ViolationReport(
        bins=bins,
        suspected=tuple(suspected),
        tests=tuple(tests),
        bin_mask=mask,
        sample_labels0=(
            np.zeros(0, dtype=bool) if labels0 is None else labels0
        ),
        sample_labels1=(
            np.zeros(0, dtype=bool) if labels1 is None else labels1
        ),
        alpha=0.01,
    )


def make_propensity(n=4):
    return PropensityResult(
        scores=np.full(n, 0.5), auc=0.625, log_loss=0.693147, folds=1,
        n_iter=(4,), converged=(True,),
    )


class TestExtractRules:
    def test_depth_one_right_leaf(self):
        root = TreeNode(
            n_pos=10, n_neg=90, depth=0, feature_index=0, threshold=30.0,
            left=leaf(0, 90, 1), right=leaf(10, 0, 1),
        )
        tree = ExplanationTree(
            root=root, group=0, feature_names=("age",), total_violations=10
        )
        rulesets = extract_rules(tree, beta=0.9)
        assert len(rulesets) == 1
        rs = rulesets[0]
        assert rs.rules == (Rule("age", ">", 30.0),)
        assert rs.n_pos == 10
        assert rs.n_neg == 0
        assert rs.coverage == 1.0

    def test_low_purity_leaves_skipped(self):
        root = TreeNode(
            n_pos=10, n_neg=90, depth=0, feature_index=0, threshold=30.0,
            left=leaf(5, 85, 1), right=leaf(5, 5, 1),
        )
        tree = ExplanationTree(
            root=root, group=0, feature_names=("age",), total_violations=10
        )
        assert extract_rules(tree, beta=0.9) == []

    def test_redundant_upper_bounds_tightened(self):
        inner = TreeNode(
            n_pos=5, n_neg=5, depth=1, feature_index=0, threshold=5.0,
            left=leaf(5, 0, 2), right=leaf(0, 5, 2),
        )
        root = TreeNode(
            n_pos=5, n_neg=15, depth=0, feature_index=0, threshold=10.0,
            left=inner, right=leaf(0, 10, 1),
        )
        tree = ExplanationTree(
            root=root, group=0, feature_names=("x",), total_violations=5
        )
        rulesets = extract_rules(tree, beta=0.9)
        assert len(rulesets) == 1
        assert rulesets[0].rules == (Rule("x", "<=", 5.0),)

    def test_distinct_bounds_all_kept(self):
        days_leaf = leaf(50, 0, 3)
        days_node = TreeNode(
            n_pos=50, n_neg=30, depth=2, feature_index=1, threshold=50.0,
            left=days_leaf, right=leaf(0, 30, 3),
        )
        upper = TreeNode(
            n_pos=50, n_neg=70, depth=1, feature_index=0, threshold=1800.0,
            left=days_node, right=leaf(0, 40, 2),
        )
        root = TreeNode(
            n_pos=50, n_neg=170, depth=0, feature_index=0, threshold=1500.0,
            left=leaf(0, 100, 1), right=upper,
        )
        tree = ExplanationTree(
            root=root,
            group=0,
            feature_names=("profile_age", "days_since_last_email"),
            total_violations=50,
        )
        rulesets = extract_rules(tree, beta=0.9)
        assert len(rulesets) == 1
        assert rulesets[0].rules == (
            Rule("profile_age", ">", 1500.0),
            Rule("profile_age", "<=", 1800.0),
            Rule("days_since_last_email", "<=", 50.0),
        )

    def test_coverage_fraction_of_group_total(self):
        root = TreeNode(
            n_pos=8, n_neg=2, depth=0, feature_index=0, threshold=1.0,
            left=leaf(8, 0, 1), right=leaf(0, 2, 1),
        )
        tree = ExplanationTree(
            root=root, group=1, feature_names=("x",), total_violations=16
        )
        rulesets = extract_rules(tree, beta=0.9)
        assert rulesets[0].coverage == 0.5


class TestRulesetMask:
    def test_mask_reproduces_leaf_counts(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 10, (300, 2))
        labels = (
            (features[:, 0] > 3.0) & (features[:, 1] <= 7.0)
        ).astype(np.int64)
        if labels.sum() in (0, 300):
            raise AssertionError("degenerate draw")
        tree = prune(
            build_tree(features, labels, Config(), ("a", "b")), 0.9, 0.01
        )
        for rs in extract_rules(tree, beta=0.9):
            mask = ruleset_mask(rs, features, ("a", "b"))
            assert int((mask & (labels == 1)).sum()) == rs.n_pos
            assert int((mask & (labels == 0)).sum()) == rs.n_neg

    def test_simplified_and_raw_masks_agree(self):
        features = np.array([[1.0], [4.0], [6.0], [9.0]])
        simplified = RuleSet(
            rules=(Rule("x", "<=", 5.0),), group=0, n_pos=2, n_neg=0,
            coverage=1.0,
        )
        raw = RuleSet(
            rules=(Rule("x", "<=", 8.0), Rule("x", "<=", 5.0)), group=0,
            n_pos=2, n_neg=0, coverage=1.0,
        )
        np.testing.assert_array_equal(
            ruleset_mask(simplified, features, ("x",)),
            ruleset_mask(raw, features, ("x",)),
        )


class TestRenderText:
    def test_phrasing_greater_than(self):
        rs = RuleSet(
            rules=(Rule("age", ">", 30.0),), group=0, n_pos=3, n_neg=0,
            coverage=1.0,
        )
        test = BinTest(
            index=2, k0=3, k1=0, p_raw=1e-6, p_adj=1e-6, significant=True
        )
        labels0 = np.array([True, True, True, False])
        report = make_report(
            suspected=[2], tests=[test], labels0=labels0,
            labels1=np.zeros(4, dtype=bool),
        )
        text = render_text([rs], report, make_propensity())
        assert "age is greater than 30" in text
        assert "Positivity violation detected." in text

    def test_phrasing_lesser_than_or_equal(self):
        rule = Rule("days_since_last_email", "<=", 45.5)
        assert (
            rule.describe()
            == "days_since_last_email is lesser than or equal to 45.5"
        )

    def test_clean_verdict_message(self):
        report = make_report()
        text = render_text([], report, make_propensity())
        assert text.startswith(NO_VIOLATION_TEXT)

    def test_six_significant_digits(self):
        rule = Rule("x", ">", 1234.56789)
        assert rule.describe() == "x is greater than 1234.57"

    def test_conjunction_joined_with_and(self):
        rs = RuleSet(
            rules=(Rule("a", ">", 1.0), Rule("b", "<=", 2.0)), group=1,
            n_pos=5, n_neg=0, coverage=1.0,
        )
        test = BinTest(
            index=1, k0=0, k1=5, p_raw=1e-6, p_adj=1e-6, significant=True
        )
        report = make_report(
            suspected=[1], tests=[test],
            labels0=np.zeros(5, dtype=bool),
            labels1=np.array([True] * 5),
        )
        text = render_text([rs], report, make_propensity(5))
        assert "a is greater than 1 and b is lesser than or equal to 2" in text

    def test_deterministic_bytes(self):
        report = make_report()
        a = render_text([], report, make_propensity())
        b = render_text([], report, make_propensity())
        assert a == b


class TestRenderReport:
    def build(self):
        rs = RuleSet(
            rules=(Rule("age", ">", 30.0),), group=0, n_pos=3, n_neg=1,
            coverage=0.75,
        )
        test = BinTest(
            index=2, k0=3, k1=0, p_raw=1e-6, p_adj=2e-6, significant=True
        )
        report = make_report(
            suspected=[2], tests=[test],
            labels0=np.array([True, True, True, False]),
            labels1=np.zeros(4, dtype=bool),
        )
        return render_report(Config(), report, make_propensity(), [rs])

    def test_key_order_stable(self):
        doc = self.build()
        assert list(doc.keys()) == [
            "version", "config", "verdict", "propensity", "bins", "groups",
        ]

    def test_config_lists_every_field_in_order(self):
        doc = self.build()
        assert list(doc["config"]) == [f.name for f in fields(Config)]

    def test_verdict_and_bins(self):
        doc = self.build()
        assert doc["verdict"] == "violation"
        assert len(doc["bins"]) == 1
        entry = doc["bins"][0]
        assert entry["index"] == 2
        assert entry["k0"] == 3
        assert entry["k1"] == 0
        assert entry["significant"] is True

    def test_groups_carry_rulesets(self):
        doc = self.build()
        group0 = doc["groups"][0]
        assert group0["group"] == 0
        assert len(group0["rulesets"]) == 1
        assert group0["rulesets"][0]["rules"] == [
            {"feature": "age", "op": ">", "cutoff": 30.0}
        ]
        assert doc["groups"][1]["rulesets"] == []

    def test_round_trips_through_json(self):
        doc = self.build()
        assert json.loads(json.dumps(doc)) == doc

    def test_clean_report_no_violation(self):
        doc = render_report(
            Config(), make_report(), make_propensity(), []
        )
        assert doc["verdict"] == "no_violation"
        assert doc["bins"] == []
        assert doc["groups"][0]["rulesets"] == []


class TestRuleValidation:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            Rule("x", "<", 1.0)

    def test_bad_beta_rejected(self):
        tree = ExplanationTree(
            root=leaf(1, 1, 0), group=0, feature_names=("x",),
            total_violations=1,
        )
        with pytest.raises(ValueError):
            extract_rules(tree, beta=0.0)
