"""Dataset ingestion and validation.

CSV input is parsed with the standard library reader (RFC 4180 style,
UTF-8, ``.`` decimal separator, header row required). Columns are typed
by content:

* a column where every cell parses as a finite float is numeric and is
  kept as-is;
* a column where no cell parses as a float is categorical and is
  one-hot encoded into ``<col>=<value>`` indicator columns (values
  sorted lexicographically), provided its cardinality is at most
  :data:`MAX_CATEGORICAL_CARDINALITY`;
* a column where only some cells parse is rejected as an unparseable
  numeric cell (the offending row and column are named).

Missing (empty) cells are a hard error everywhere; nothing is imputed.
The treatment column accepts ``0``/``1``/``true``/``false`` (case
insensitive) and float spellings of exactly 0 or 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

MAX_CATEGORICAL_CARDINALITY = 20

_TRUE_WORDS = frozenset({"1", "true"})
_FALSE_WORDS = frozenset({"0", "false"})

_TEST_KINDS = ("z", "fisher")


@dataclass(frozen=True)
class Config:
    """Analysis knobs shared across the pipeline.

    ``propensity_bins`` controls the feature expansion used when fitting
    the propensity model inside the analysis pipeline (0 disables it and
    fits on the raw columns); it does not affect trees or rules.
    """

    bins: int = 100
    alpha: float = 0.01
    beta: float = 0.90
    gamma: float = 0.01
    noise_threshold: int = 0
    test_kind: str = "z"
    max_depth: int = 10
    cross_fit_folds: int = 1
    seed: int = 0
    propensity_bins: int = 16

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.noise_threshold < 0:
            raise ValueError("noise_threshold must be >= 0")
        if self.test_kind not in _TEST_KINDS:
            raise ValueError(
                f"test_kind must be one of {_TEST_KINDS}, got {self.test_kind!r}"
            )
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.cross_fit_folds < 1:
            raise ValueError("cross_fit_folds must be >= 1")
        if self.propensity_bins < 0 or self.propensity_bins == 1:
            raise ValueError("propensity_bins must be 0 or >= 2")


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix plus a binary treatment vector.

    Arrays are copied on construction and marked read-only, so a
    Dataset never aliases caller memory and cannot be mutated through
    its fields. Construction only coerces shapes and dtypes; semantic
    checks live in :func:`validate` so that a broken dataset can still
    be inspected.
    """

    features: NDArray[np.float64]
    treatment: NDArray[np.int64]
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        if feats.ndim == 1:
            feats = feats.reshape(-1, 1)
        treat = np.array(self.treatment, dtype=np.int64, copy=True).reshape(-1)
        names = tuple(str(n) for n in self.feature_names)
        if not names:
            names = tuple(f"x{j}" for j in range(feats.shape[1]))
        feats.setflags(write=False)
        treat.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "treatment", treat)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def validate(dataset: Dataset) -> list[str]:
    """Return one diagnostic string per violated Dataset invariant.

    An empty list means the dataset is fit for analysis: at least one
    sample and one feature, consistent shapes, unique non-empty feature
    names, treatment values in {0, 1} with both groups non-empty, and
    no NaN or infinite feature cells.
    """
    diags: list[str] = []
    n, d = dataset.features.shape
    if n < 1:
        diags.append("dataset has no samples")
    if d < 1:
        diags.append("dataset has no feature columns")
    if dataset.treatment.shape[0] != n:
        diags.append(
            f"treatment length {dataset.treatment.shape[0]} does not match "
            f"{n} feature rows"
        )
    if len(dataset.feature_names) != d:
        diags.append(
            f"{len(dataset.feature_names)} feature names for {d} columns"
        )
    if any(not name for name in dataset.feature_names):
        diags.append("empty feature name")
    seen: set[str] = set()
    for name in dataset.feature_names:
        if name in seen:
            diags.append(f"duplicate feature name {name!r}")
            break
        seen.add(name)
    bad_treat = ~np.isin(dataset.treatment, (0, 1))
    if bad_treat.any():
        row = int(np.argmax(bad_treat))
        diags.append(
            f"treatment value {dataset.treatment[row]} at row {row} is not 0 or 1"
        )
    else:
        if n >= 1 and not (dataset.treatment == 0).any():
            diags.append("control group (treatment == 0) is empty")
        if n >= 1 and not (dataset.treatment == 1).any():
            diags.append("treated group (treatment == 1) is empty")
    finite = np.isfinite(dataset.features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        name = (
            dataset.feature_names[col]
            if col < len(dataset.feature_names) else f"column {col}"
        )
        diags.append(
            f"non-finite feature value at row {int(row)}, column {name!r}"
        )
    return diags


def _parse_treatment(cell: str, row: int, column: str, path: str) -> int:
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


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path: str, treatment_column: str) -> Dataset:
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
        [_parse_treatment(row[t_idx], i, treatment_column, path)
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
        parsed = [_try_float(c) for c in cells]
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


def write_csv(
    dataset: Dataset, path: str, treatment_column: str = "treatment"
) -> None:
    """Write a Dataset as a CSV file that :func:`load_csv` accepts.

    The csv module writes floats with ``repr``, so the round trip is
    lossless.
    """
    if treatment_column in dataset.feature_names:
        raise ValueError(
            f"treatment column name {treatment_column!r} collides with a feature"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [treatment_column])
        writer.writerows(
            row.tolist() + [t]
            for row, t in zip(dataset.features, dataset.treatment.tolist())
        )
