"""Independent reference implementations used to check the package.

Everything here is deliberately written without touching the package's
own code paths: the normal CDF comes from mpmath at 50 digits, Fisher
probabilities from exact integer arithmetic, and the FDR adjustment
from the textbook step-up loop. ``reference_load_csv`` is the earlier
row-at-a-time CSV reader, kept verbatim apart from its names; it only
borrows the package's ``Dataset`` to return its result. The logistic
terms are the earlier masked sigmoid and the ``np.logaddexp`` softplus
that the propensity loss used.
"""

import csv
import math
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
from numpy.typing import NDArray

from positivity.data import MAX_CATEGORICAL_CARDINALITY, Dataset

mp.mp.dps = 50

_TRUE_WORDS = frozenset({"1", "true"})
_FALSE_WORDS = frozenset({"0", "false"})


def z_test_oracle(k0, n0, k1, n1):
    """Two-sided pooled z-test p-value at 50-digit precision."""
    if k0 + k1 == 0 or k0 + k1 == n0 + n1:
        return mp.mpf(1)
    p0 = mp.mpf(k0) / n0
    p1 = mp.mpf(k1) / n1
    pooled = mp.mpf(k0 + k1) / (n0 + n1)
    se = mp.sqrt(pooled * (1 - pooled) * (mp.mpf(1) / n0 + mp.mpf(1) / n1))
    z = (p0 - p1) / se
    return 2 * (1 - mp.ncdf(abs(z)))


def fisher_oracle(k0, n0, k1, n1):
    """Exact two-sided Fisher p as a Fraction, by table enumeration.

    Sums hypergeometric probabilities of every table with the observed
    margins whose probability does not exceed the observed table's.
    All comparisons are exact rational arithmetic, so ties are handled
    without any epsilon.
    """
    successes = k0 + k1
    denominator = comb(n0 + n1, successes)

    def table_probability(a):
        return Fraction(comb(n0, a) * comb(n1, successes - a), denominator)

    observed = table_probability(k0)
    total = Fraction(0)
    for a in range(max(0, successes - n1), min(successes, n0) + 1):
        probability = table_probability(a)
        if probability <= observed:
            total += probability
    return min(total, Fraction(1))


def bh_oracle(pvalues):
    """Textbook BH step-up adjustment, smallest rank last."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, pvalues[i] * m / rank)
        adjusted[i] = running
    return adjusted


def bh_rejections_oracle(pvalues, alpha):
    """Classic BH rejection set on exact rationals.

    Largest k with p_(k) <= k*alpha/m; comparisons use Fractions so a
    boundary table (p*m/k exactly equal to alpha) cannot flip under
    rounding.
    """
    m = len(pvalues)
    alpha = Fraction(alpha)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    cutoff_rank = 0
    for rank in range(1, m + 1):
        if Fraction(pvalues[order[rank - 1]]) <= rank * alpha / m:
            cutoff_rank = rank
    return set(order[:cutoff_rank])


def _reference_parse_treatment(cell: str, row: int, column: str, path: str) -> int:
    word = cell.strip().lower()
    if word in _TRUE_WORDS:
        return 1
    if word in _FALSE_WORDS:
        return 0
    try:
        value = float(word)
    except ValueError:
        value = math.nan
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise ValueError(
        f"{path}: treatment value {cell!r} at row {row} in column "
        f"{column!r} is not one of 0/1/true/false"
    )


def _reference_try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def reference_load_csv(path: str, treatment_column: str) -> Dataset:
    """Load a CSV file into a :class:`Dataset`.

    Raises ``ValueError`` with a distinct diagnostic for: a missing
    treatment column, a categorical column with more than
    :data:`MAX_CATEGORICAL_CARDINALITY` distinct values, an unparseable
    numeric cell, an empty treatment group, a missing cell, or a ragged
    row. Ingestion is deterministic: the same file always yields an
    identical Dataset.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: file is empty, header row required")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    if treatment_column not in header:
        raise ValueError(
            f"{path}: treatment column {treatment_column!r} not found "
            f"(columns: {', '.join(header)})"
        )
    width = len(header)
    for i, row in enumerate(body, start=1):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {i} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            if cell.strip() == "":
                raise ValueError(
                    f"{path}: missing value at row {i}, column {header[j]!r}"
                )

    t_idx = header.index(treatment_column)
    treatment = np.array(
        [_reference_parse_treatment(row[t_idx], i, treatment_column, path)
         for i, row in enumerate(body, start=1)],
        dtype=np.int64,
    )
    if not (treatment == 0).any():
        raise ValueError(f"{path}: control group (treatment == 0) is empty")
    if not (treatment == 1).any():
        raise ValueError(f"{path}: treated group (treatment == 1) is empty")

    columns: list[NDArray[np.float64]] = []
    names: list[str] = []
    for j, name in enumerate(header):
        if j == t_idx:
            continue
        cells = [row[j].strip() for row in body]
        parsed = [_reference_try_float(c) for c in cells]
        n_numeric = sum(v is not None for v in parsed)
        if n_numeric == len(cells):
            for i, v in enumerate(parsed, start=1):
                if not math.isfinite(v):  # type: ignore[arg-type]
                    raise ValueError(
                        f"{path}: non-finite numeric value at row {i}, "
                        f"column {name!r}"
                    )
            columns.append(np.array(parsed, dtype=np.float64))
            names.append(name)
        elif n_numeric == 0:
            levels = sorted(set(cells))
            if len(levels) > MAX_CATEGORICAL_CARDINALITY:
                raise ValueError(
                    f"{path}: categorical column {name!r} has cardinality "
                    f"{len(levels)} > {MAX_CATEGORICAL_CARDINALITY}"
                )
            level_idx = {v: k for k, v in enumerate(levels)}
            onehot = np.zeros((len(cells), len(levels)), dtype=np.float64)
            for i, c in enumerate(cells):
                onehot[i, level_idx[c]] = 1.0
            for k, level in enumerate(levels):
                columns.append(onehot[:, k])
                names.append(f"{name}={level}")
        else:
            i = next(k for k, v in enumerate(parsed) if v is None)
            raise ValueError(
                f"{path}: unparseable numeric cell {cells[i]!r} at row "
                f"{i + 1}, column {name!r}"
            )
    if not columns:
        raise ValueError(f"{path}: no feature columns besides the treatment")
    return Dataset(np.column_stack(columns), treatment, tuple(names))


def reference_sigmoid(z: NDArray[np.float64]) -> NDArray[np.float64]:
    """1 / (1 + e^-z), one exp per sign class through boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_softplus(z: NDArray[np.float64]) -> NDArray[np.float64]:
    """log(1 + e^z), computed stably for large |z|."""
    return np.logaddexp(0.0, z)
