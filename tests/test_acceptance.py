"""Go/no-go acceptance checks, one test per criterion.

Each test prints a single CRITERION line on success, so a verbose run
reads as a checklist. Later criteria reuse artifacts from earlier ones
(rule sets from the recovery sweep feed the fidelity check), so the
tests are meant to run in file order.
"""

import time
from math import comb

import numpy as np

from positivity import (
    Config,
    SynthSpec,
    analyze_dataset,
    generate,
    ruleset_mask,
    write_csv,
)
from positivity.density import GroupHistograms
from positivity.explain import extract_rules
from positivity.propensity import logistic_loss_grad
from positivity.tree import build_tree, gini, prune
from positivity.violation import (
    bh_fdr,
    fisher_exact_test,
    two_proportion_test,
    violation_bins,
)
from positivity.cli import main as cli_main
from oracles import bh_oracle, z_test_oracle

# Artifacts shared across criteria: filled by 1 and 6, consumed by 7 and 8.
_CARVE_RUNS = []
_PRUNED_TREES = []

_SEEDS = tuple(range(1, 11))
_AGE_LOW = (1350.0, 1650.0)
_AGE_HIGH = (1620.0, 1980.0)
_DAYS_HIGH = (40.0, 60.0)


def _bounds_match(ruleset):
    low = high = days = None
    for rule in ruleset.rules:
        if rule.feature == "profile_age" and rule.op == ">":
            low = rule.cutoff
        elif rule.feature == "profile_age" and rule.op == "<=":
            high = rule.cutoff
        elif rule.feature == "days_since_last_email" and rule.op == "<=":
            days = rule.cutoff
    return (
        low is not None and _AGE_LOW[0] <= low <= _AGE_LOW[1]
        and high is not None and _AGE_HIGH[0] <= high <= _AGE_HIGH[1]
        and days is not None and _DAYS_HIGH[0] <= days <= _DAYS_HIGH[1]
    )


def test_criterion_1_planted_rule_recovery(tmp_path):
    recovered = 0
    for seed in _SEEDS:
        start = time.perf_counter()
        dataset = generate(SynthSpec(), seed=seed)
        result = analyze_dataset(dataset)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"seed {seed} took {elapsed:.1f}s"
        _CARVE_RUNS.append((dataset, result))
        control = [rs for rs in result.rulesets if rs.group == 0]
        if result.violation_detected and any(
            _bounds_match(rs) and rs.coverage >= 0.8 for rs in control
        ):
            recovered += 1
    # the same analysis through the CLI must map the verdict to exit 3
    csv_path = tmp_path / "carved.csv"
    write_csv(generate(SynthSpec(), seed=_SEEDS[0]), str(csv_path))
    code = cli_main(
        [
            "analyze", str(csv_path), "--treatment-col", "treatment",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert recovered >= 9, f"recovered planted box in only {recovered}/10 seeds"
    print(f"CRITERION 1: PASS (planted rules recovered in {recovered}/10 seeds)")


def test_criterion_2_null_calibration():
    clean = 0
    for seed in range(100):
        dataset = generate(SynthSpec(carve=()), seed=seed)
        result = analyze_dataset(dataset)
        clean += not result.violation_detected
    assert clean >= 95, f"only {clean}/100 null runs came back clean"
    print(f"CRITERION 2: PASS (null verdict clean in {clean}/100 runs)")


def test_criterion_3_statistical_oracles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n0 = int(rng.integers(1, 2001))
        n1 = int(rng.integers(1, 2001))
        k0 = int(rng.integers(0, n0 + 1))
        k1 = int(rng.integers(0, n1 + 1))
        got = two_proportion_test(k0, n0, k1, n1)
        want = float(z_test_oracle(k0, n0, k1, n1))
        assert abs(got - want) <= 1e-9, (k0, n0, k1, n1)

    # every table with nonempty groups and n0 + n1 <= 60, exact enumeration
    checked = 0
    for total in range(2, 61):
        for n0 in range(1, total):
            n1 = total - n0
            for s in range(0, total + 1):
                lo = max(0, s - n1)
                hi = min(s, n0)
                if hi < lo:
                    continue
                ks = range(lo, hi + 1)
                weights = [comb(n0, k) * comb(n1, s - k) for k in ks]
                denom = comb(total, s)
                for k, w_obs in zip(ks, weights):
                    exact = sum(w for w in weights if w <= w_obs) / denom
                    got = fisher_exact_test(k, n0, s - k, n1)
                    assert abs(got - exact) <= 1e-9, (k, n0, s - k, n1)
                    checked += 1
    assert checked > 600_000
    print(f"CRITERION 3: PASS (z-test 1000 tuples, Fisher {checked} tables)")


def test_criterion_4_fdr_oracle():
    rng = np.random.default_rng(11)
    alphas = (0.001, 0.01, 0.05, 0.1, 0.3)
    for case in range(500):
        m = int(rng.integers(1, 51))
        pvalues = rng.random(m)
        if case % 3 == 0:
            pvalues = np.round(pvalues, 2)  # force ties
        adjusted = bh_fdr(pvalues)
        assert np.array_equal(adjusted, np.asarray(bh_oracle(list(pvalues))))
        # Note: comparing against the classic largest-k rejection rule is
        # only sound in exact arithmetic. On a decimal grid the boundary
        # case p*m/k == alpha rounds differently along the two formulas
        # (seen at p=0.02, m=45, k=3, alpha=0.3), so that cross-check is
        # done on exact rationals in the unit suite instead.
        previous = set()
        for alpha in alphas:
            rejected = set(np.flatnonzero(adjusted <= alpha))
            assert previous <= rejected  # raising alpha never drops a rejection
            previous = rejected
    print("CRITERION 4: PASS (BH adjustment exact on 500 vectors, monotone in alpha)")


def test_criterion_5_suspected_bin_equivalence():
    rng = np.random.default_rng(13)
    bins = 30
    for _ in range(1000):
        counts0 = rng.poisson(rng.choice([0.4, 3.0]), size=bins).astype(np.int64)
        counts1 = rng.poisson(rng.choice([0.4, 3.0]), size=bins).astype(np.int64)
        counts0[rng.integers(0, bins)] += 1  # keep both groups nonempty
        counts1[rng.integers(0, bins)] += 1
        hist = GroupHistograms(
            bins=bins,
            counts0=counts0,
            counts1=counts1,
            n0=int(counts0.sum()),
            n1=int(counts1.sum()),
        )
        for tau in (0, 1, 5):
            brute = [
                i
                for i in range(bins)
                if (counts0[i] > tau) != (counts1[i] > tau)
            ]
            assert list(violation_bins(hist, tau)) == brute
    print("CRITERION 5: PASS (one-sided empty bins match brute force, tau in {0,1,5})")


def _split_candidates(features, labels):
    """All (score, feature, left-mask) splits, scored independently."""
    n, d = features.shape
    out = []
    for j in range(d):
        values = np.unique(features[:, j])
        for a, b in zip(values, values[1:]):
            left = features[:, j] <= 0.5 * (a + b)
            nl = int(left.sum())
            pos_left = int(labels[left].sum())
            pos_right = int(labels.sum()) - pos_left
            score = (
                nl * gini(pos_left, nl - pos_left)
                + (n - nl) * gini(pos_right, (n - nl) - pos_right)
            ) / n
            out.append((score, j, left.tobytes()))
    return out


def _check_greedy_matches_brute(node, features, labels, config):
    n = features.shape[0]
    n_pos = int(labels.sum())
    parent = gini(n_pos, n - n_pos)
    candidates = _split_candidates(features, labels)
    if node.is_leaf:
        if node.depth < config.max_depth and n >= 2 and 0 < n_pos < n:
            improving = [c for c in candidates if c[0] < parent - 1e-12]
            assert not improving, "leaf left an improving split on the table"
        return
    best = min(c[0] for c in candidates)
    left = features[:, node.feature_index] <= node.threshold
    nl = int(left.sum())
    pos_left = int(labels[left].sum())
    chosen = (
        nl * gini(pos_left, nl - pos_left)
        + (n - nl) * gini(n_pos - pos_left, (n - nl) - (n_pos - pos_left))
    ) / n
    assert abs(chosen - best) <= 1e-12, "greedy split is not optimal"
    assert chosen < parent
    optimal = {
        (j, mask) for score, j, mask in candidates if score <= best + 2e-12
    }
    assert (node.feature_index, left.tobytes()) in optimal
    _check_greedy_matches_brute(node.left, features[left], labels[left], config)
    _check_greedy_matches_brute(
        node.right, features[~left], labels[~left], config
    )


def _walk(node):
    yield node
    if not node.is_leaf:
        yield from _walk(node.left)
        yield from _walk(node.right)


def test_criterion_6_tree_vs_brute_force_and_prune_invariants():
    matrices = (
        np.column_stack(
            [np.arange(12.0), np.tile([0.0, 1.0], 6)]
        ),
        np.column_stack(
            [np.repeat(np.arange(6.0), 2), np.tile([0.0, 1.0, 2.0], 4)]
        ),
        np.column_stack(
            [
                np.array([0.0, 0, 0, 1, 1, 1, 2, 2, 2, 3]),
                np.array([3.0, 2, 1, 3, 2, 1, 3, 2, 1, 3]),
            ]
        ),
    )
    config = Config(max_depth=6)
    checked = 0
    for features in matrices:
        n = features.shape[0]
        for bits in range(1, 2**n - 1):  # skip single-class labelings
            labels = np.array(
                [(bits >> i) & 1 for i in range(n)], dtype=np.int64
            )
            tree = build_tree(features, labels, config)
            _check_greedy_matches_brute(tree.root, features, labels, config)
            checked += 1

    # pruning invariants on random trees
    rng = np.random.default_rng(17)
    grown = 0
    while grown < 100:
        n = int(rng.integers(60, 301))
        features = rng.random((n, 3)) * 100.0
        labels = (rng.random(n) < 0.3).astype(np.int64)
        if labels.sum() in (0, n):
            continue
        beta = float(rng.choice([0.7, 0.9, 1.0]))
        gamma = float(rng.choice([0.0, 0.02, 0.1]))
        tree = build_tree(features, labels, Config(max_depth=6))
        pruned = prune(tree, beta, gamma)
        floor = gamma * pruned.total_violations
        for node in _walk(pruned.root):
            if node.is_leaf:
                continue
            assert node.purity <= beta
            assert node.n_pos >= floor
        _PRUNED_TREES.append((pruned, features, labels, beta))
        grown += 1
    assert checked == 2 * (2**12 - 2) + (2**10 - 2)
    print(f"CRITERION 6: PASS (greedy optimal on {checked} labelings, prune invariants on 100 trees)")


def test_criterion_7_rule_fidelity():
    assert _CARVE_RUNS and _PRUNED_TREES, "criteria 1 and 6 must run first"
    rulesets = 0
    for dataset, result in _CARVE_RUNS:
        labels_by_group = {
            0: result.report.sample_labels0,
            1: result.report.sample_labels1,
        }
        for ruleset in result.rulesets:
            rows = dataset.features[dataset.treatment == ruleset.group]
            labels = labels_by_group[ruleset.group]
            mask = ruleset_mask(ruleset, rows, dataset.feature_names)
            assert int((mask & labels).sum()) == ruleset.n_pos
            assert int((mask & ~labels).sum()) == ruleset.n_neg
            rulesets += 1
    for pruned, features, labels, beta in _PRUNED_TREES:
        for ruleset in extract_rules(pruned, beta):
            mask = ruleset_mask(ruleset, features, pruned.feature_names)
            bools = labels.astype(bool)
            assert int((mask & bools).sum()) == ruleset.n_pos
            assert int((mask & ~bools).sum()) == ruleset.n_neg
            rulesets += 1
    assert rulesets > 0
    print(f"CRITERION 7: PASS (conjunctions reproduce leaf counts for {rulesets} rule sets)")


def test_criterion_8_gradient_check_and_score_range():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 81))
        d = int(rng.integers(1, 6))
        features = rng.uniform(-2.0, 2.0, size=(n, d))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        params = rng.normal(0.0, 0.5, size=d + 1)
        lam = float(rng.choice([0.0, 1e-4, 1.0]))
        _, grad = logistic_loss_grad(params, features, labels, lam)
        numeric = np.empty_like(grad)
        for i in range(params.size):
            h = 1e-6 * max(1.0, abs(params[i]))
            up = params.copy()
            up[i] += h
            down = params.copy()
            down[i] -= h
            loss_up, _ = logistic_loss_grad(up, features, labels, lam)
            loss_down, _ = logistic_loss_grad(down, features, labels, lam)
            numeric[i] = (loss_up - loss_down) / (2.0 * h)
        rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
    assert _CARVE_RUNS, "criterion 1 must run first"
    for _, result in _CARVE_RUNS:
        scores = result.propensity.scores
        assert np.all(scores > 0.0)
        assert np.all(scores < 1.0)
    print(f"CRITERION 8: PASS (worst gradient error {worst:.2e}, scores inside (0,1))")


def test_criterion_9_byte_identical_reruns(tmp_path):
    csv_path = tmp_path / "input.csv"
    write_csv(generate(SynthSpec(), seed=1), str(csv_path))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "analyze", str(csv_path), "--treatment-col", "treatment",
                "--out", str(out),
            ]
        )
        assert code == 3
        outputs.append(out)
    first, second = outputs
    for artifact in ("report.json", "histogram.svg"):
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes()
    print("CRITERION 9: PASS (report.json and histogram.svg byte-identical)")
