"""Rule extraction from pruned trees and report rendering.

A violation leaf is a leaf whose violation purity is at least ``beta``.
Each such leaf becomes a RuleSet: the conjunction of the threshold
comparisons along its root-to-leaf path, with redundant bounds on the
same feature collapsed to the tightest one. Applying a RuleSet's rules
conjunctively to the group's samples selects exactly the leaf's
samples, so ``(n_pos, n_neg)`` always matches the leaf counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray

from .data import Config
from .propensity import PropensityResult
from .tree import ExplanationTree, TreeNode
from .violation import ViolationReport

NO_VIOLATION_TEXT = "No positivity violations detected."

_GROUP_TITLES = {0: "control (T=0)", 1: "treated (T=1)"}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True)
class Rule:
    """One threshold comparison: ``feature <= cutoff`` or ``feature > cutoff``."""

    feature: str
    op: str
    cutoff: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">"):
            raise ValueError(f"op must be '<=' or '>', got {self.op!r}")

    def describe(self) -> str:
        if self.op == ">":
            return f"{self.feature} is greater than {_fmt(self.cutoff)}"
        return f"{self.feature} is lesser than or equal to {_fmt(self.cutoff)}"


@dataclass(frozen=True)
class RuleSet:
    """Rules of one violation leaf plus its counts and coverage.

    ``coverage`` is the share of the group's violating samples that the
    leaf captures, n_pos / total violations of the group.
    """

    rules: tuple[Rule, ...]
    group: int
    n_pos: int
    n_neg: int
    coverage: float


def extract_rules(tree: ExplanationTree, beta: float) -> list[RuleSet]:
    """Collect one RuleSet per violation leaf of a pruned tree.

    Leaves are visited left to right, so output order is deterministic.
    Bounds on the same (feature, direction) pair are merged to the
    tightest cutoff, keeping the position of the first occurrence.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    rulesets: list[RuleSet] = []
    total = tree.total_violations

    def simplify(path: list[tuple[int, str, float]]) -> tuple[Rule, ...]:
        tightest: dict[tuple[int, str], float] = {}
        order: list[tuple[int, str]] = []
        for j, op, cutoff in path:
            key = (j, op)
            if key not in tightest:
                order.append(key)
                tightest[key] = cutoff
            elif op == "<=":
                tightest[key] = min(tightest[key], cutoff)
            else:
                tightest[key] = max(tightest[key], cutoff)
        return tuple(
            Rule(tree.feature_names[j], op, tightest[(j, op)])
            for j, op in order
        )

    def visit(node: TreeNode, path: list[tuple[int, str, float]]) -> None:
        if node.is_leaf:
            if node.n_pos > 0 and node.purity >= beta:
                rulesets.append(
                    RuleSet(
                        rules=simplify(path),
                        group=tree.group,
                        n_pos=node.n_pos,
                        n_neg=node.n_neg,
                        coverage=node.n_pos / total if total else 0.0,
                    )
                )
            return
        j, thr = node.feature_index, node.threshold
        visit(node.left, path + [(j, "<=", thr)])
        visit(node.right, path + [(j, ">", thr)])

    visit(tree.root, [])
    return rulesets


def ruleset_mask(
    ruleset: RuleSet,
    features: NDArray[np.float64],
    feature_names: tuple[str, ...],
) -> NDArray[np.bool_]:
    """Boolean row mask of the samples a RuleSet selects."""
    features = np.asarray(features, dtype=np.float64)
    mask = np.ones(features.shape[0], dtype=bool)
    for rule in ruleset.rules:
        j = feature_names.index(rule.feature)
        col = features[:, j]
        mask &= (col <= rule.cutoff) if rule.op == "<=" else (col > rule.cutoff)
    return mask


def _ruleset_lines(rulesets: list[RuleSet]) -> list[str]:
    lines = []
    for k, rs in enumerate(rulesets, start=1):
        if rs.rules:
            clause = " and ".join(rule.describe() for rule in rs.rules)
        else:
            clause = "every sample in the group"
        lines.append(f"  [{k}] {clause}")
        lines.append(
            f"      violating: {rs.n_pos}  non-violating: {rs.n_neg}  "
            f"coverage: {_fmt(rs.coverage)}"
        )
    return lines


def render_text(
    rulesets: list[RuleSet],
    report: ViolationReport,
    propensity: PropensityResult,
) -> str:
    """Plain-text report: verdict, model quality, then per-group rules."""
    lines = []
    if report.violation_detected:
        lines.append("Positivity violation detected.")
    else:
        lines.append(NO_VIOLATION_TEXT)
    lines.append(
        f"Propensity model: AUC {_fmt(propensity.auc)}, "
        f"log-loss {_fmt(propensity.log_loss)}"
    )
    n_sig = int(report.bin_mask.sum())
    lines.append(
        f"Suspected bins: {len(report.suspected)}  "
        f"significant after FDR at alpha={_fmt(report.alpha)}: {n_sig}"
    )
    if report.violation_detected:
        for group in (0, 1):
            group_sets = [rs for rs in rulesets if rs.group == group]
            n_lab = int(
                (report.sample_labels0 if group == 0
                 else report.sample_labels1).sum()
            )
            lines.append("")
            if not group_sets:
                lines.append(
                    f"Group {_GROUP_TITLES[group]}: "
                    f"{n_lab} violating samples, no rule sets"
                )
                continue
            lines.append(
                f"Group {_GROUP_TITLES[group]}: {len(group_sets)} rule "
                f"set(s), {n_lab} violating samples"
            )
            lines.extend(_ruleset_lines(group_sets))
    return "\n".join(lines) + "\n"


def render_report(
    config: Config,
    report: ViolationReport,
    propensity: PropensityResult,
    rulesets: list[RuleSet],
) -> dict:
    """JSON-serializable analysis document with a stable key order.

    Round-trips losslessly through ``json.dumps``/``json.loads``: every
    value is a plain Python scalar, list, or dict.
    """
    if any(
        not math.isfinite(v)
        for v in (propensity.auc, propensity.log_loss)
    ):
        raise ValueError("non-finite propensity metrics")
    return {
        "version": 1,
        "config": asdict(config),
        "verdict": (
            "violation" if report.violation_detected else "no_violation"
        ),
        "propensity": {
            "auc": float(propensity.auc),
            "log_loss": float(propensity.log_loss),
        },
        "bins": [
            {
                "index": t.index,
                "k0": t.k0,
                "k1": t.k1,
                "p_raw": t.p_raw,
                "p_adj": t.p_adj,
                "significant": t.significant,
            }
            for t in report.tests
        ],
        "groups": [
            {
                "group": group,
                "rulesets": [
                    {
                        "rules": [
                            {
                                "feature": r.feature,
                                "op": r.op,
                                "cutoff": r.cutoff,
                            }
                            for r in rs.rules
                        ],
                        "n_pos": rs.n_pos,
                        "n_neg": rs.n_neg,
                        "coverage": rs.coverage,
                    }
                    for rs in rulesets
                    if rs.group == group
                ],
            }
            for group in (0, 1)
        ],
    }
