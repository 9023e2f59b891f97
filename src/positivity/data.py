"""Dataset ingestion and validation.

CSV input is UTF-8 with an optional BOM, RFC 4180 style, with a ``.``
decimal separator and a header row. A file of plain unquoted numbers,
with a 0/1 treatment column, is parsed by numpy's C reader in one call;
every other file, including every faulty one, is parsed by the
standard library's csv module. Both give the same Dataset, and all
diagnostics come from the csv-module path. Columns are parsed whole and
typed by content:

* a column where every cell parses as a Python ``float`` (surrounding
  whitespace ignored) is numeric, and a non-finite value is an error;
* a column where no cell parses as a float is categorical and is
  one-hot encoded into ``<col>=<value>`` indicator columns (values
  stripped, then sorted lexicographically), provided its cardinality is
  at most :data:`MAX_CATEGORICAL_CARDINALITY`;
* a column where only some cells parse is rejected as an unparseable
  numeric cell (the offending row and column are named).

Empty or whitespace-only cells are missing, a hard error everywhere;
nothing is imputed.
The treatment column accepts ``0``/``1``/``true``/``false`` (case
insensitive) and float spellings of exactly 0 or 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

MAX_CATEGORICAL_CARDINALITY = 20

# rows per write in write_csv: kept small, so the float and string
# objects of one block do not raise the peak RSS of the process
_WRITE_BLOCK_ROWS = 128

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


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_treatment(cell: str, row: int, column: str, path: str) -> int:
    word = cell.strip().lower()
    value = _try_float(word)
    if value == 1.0 or word == "true":
        return 1
    if value == 0.0 or word == "false":
        return 0
    raise ValueError(
        f"{path}: treatment value {cell!r} at row {row} in column "
        f"{column!r} is not one of 0/1/true/false"
    )


def _utf8_error(path: str) -> str:
    """Name the first line of ``path`` that is not valid UTF-8.

    The streamed text read reports only an offset into its decode
    buffer, so the file is rescanned in binary, line by line; a newline
    byte never occurs inside a multi-byte UTF-8 sequence.
    """
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{path}: line {number} is not valid UTF-8 ({exc.reason})"
    return f"{path}: not valid UTF-8"


def _load_numeric(path: str, treatment_column: str) -> Dataset | None:
    """Parse an all-numeric CSV with ``np.loadtxt``, or return None.

    numpy strips the same whitespace as ``float()`` and converts with the
    same ``PyOS_string_to_double``, though it accepts fewer spellings
    (no ``1_000``, no non-ASCII digits). A Dataset is returned only when
    the csv-module path would return the same one bit for bit; any file
    numpy could read differently, or that would raise, is declined.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header_line, first_row = fh.readline(), fh.readline()
            # a categorical file declines here, before the rest is read
            for cell in first_row.split(","):
                float(cell)
            text = header_line + first_row + fh.read()
    except ValueError:  # UnicodeDecodeError included
        return None
    # Quoted cells and NUL bytes are the csv module's to read, and a lone
    # "\r" ends the header row where numpy would read on.
    if not header_line.endswith("\n") or '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return None
    header = [h.strip() for h in lines[0].split(",")]
    width = len(header)
    if (width < 2 or len(set(header)) != width
            or treatment_column not in header):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        # numpy rejects a "\r" in a data line anywhere but at its end,
        # where it ends the csv row too
        table = np.loadtxt(
            lines[1:], delimiter=",", comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError:
        return None
    # numpy skips an empty line, where csv.reader yields a 0-cell row
    if table.shape != (len(lines) - 1, width) or not np.isfinite(table).all():
        return None
    t_idx = header.index(treatment_column)
    treated = table[:, t_idx] == 1.0
    control = table[:, t_idx] == 0.0
    if not (treated | control).all() or treated.all() or control.all():
        return None
    del header[t_idx]
    return Dataset(
        np.delete(table, t_idx, axis=1), treated.astype(np.int64), tuple(header)
    )


def load_csv(path: str, treatment_column: str) -> Dataset:
    """Load a CSV file into a :class:`Dataset`.

    A file of plain unquoted numbers, with only 0 and 1 in the treatment
    column, is parsed by numpy in one call; any other file is parsed by
    the csv module. Both give the same Dataset, and every diagnostic
    comes from the csv-module path.

    Raises ``ValueError`` with a distinct diagnostic for: a missing
    treatment column, a categorical column with more than
    :data:`MAX_CATEGORICAL_CARDINALITY` distinct values, an unparseable
    numeric cell, an empty treatment group, a missing cell, a ragged
    row, a line that is not valid UTF-8, or a line the csv module
    rejects (such as a cell past its field size limit). Ingestion is
    deterministic: the same file always yields an identical Dataset.
    """
    dataset = _load_numeric(path, treatment_column)
    if dataset is not None:
        return dataset
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            body = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(_utf8_error(path)) from exc
    if not body:
        raise ValueError(f"{path}: file is empty, header row required")
    header = [h.strip() for h in body.pop(0)]
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
        if not all(map(str.strip, row)):
            j = [cell.strip() for cell in row].index("")
            raise ValueError(
                f"{path}: missing value at row {i}, column {header[j]!r}"
            )
    by_column = list(zip(*body))
    del body  # the column tuples now hold the only references to the cells

    t_idx = header.index(treatment_column)
    treatment = np.array(
        [_parse_treatment(cell, i, treatment_column, path)
         for i, cell in enumerate(by_column[t_idx], start=1)],
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
        cells = by_column[j]
        n = len(cells)
        try:
            values = np.fromiter(map(float, cells), np.float64, n)
        except ValueError:
            # float() keeps some characters str.strip() drops ("\x1c").
            cells = [c.strip() for c in cells]
            parsed = [_try_float(c) for c in cells]
            n_text = parsed.count(None)
            values = np.array(parsed, dtype=np.float64) if not n_text else None
        if values is not None:
            finite = np.isfinite(values)
            if not finite.all():
                raise ValueError(
                    f"{path}: non-finite numeric value at row "
                    f"{int(np.argmin(finite)) + 1}, column {name!r}"
                )
            columns.append(values)
            names.append(name)
        elif n_text < n:
            i = parsed.index(None)
            raise ValueError(
                f"{path}: unparseable numeric cell {cells[i]!r} at row "
                f"{i + 1}, column {name!r}"
            )
        else:
            levels = sorted(set(cells))
            if len(levels) > MAX_CATEGORICAL_CARDINALITY:
                raise ValueError(
                    f"{path}: categorical column {name!r} has cardinality "
                    f"{len(levels)} > {MAX_CATEGORICAL_CARDINALITY}"
                )
            codes = np.fromiter(map(levels.index, cells), np.intp, n)
            for k, level in enumerate(levels):
                columns.append((codes == k).astype(np.float64))
                names.append(f"{name}={level}")
    if not columns:
        raise ValueError(f"{path}: no feature columns besides the treatment")
    return Dataset(np.column_stack(columns), treatment, tuple(names))


def write_csv(
    dataset: Dataset, path: str, treatment_column: str = "treatment"
) -> None:
    """Write a Dataset as a CSV file that :func:`load_csv` accepts.

    The header row is written by the csv module, so a name holding a
    comma, quote or line break is quoted. Each data row holds the
    features as the shortest ``repr`` that round-trips the float, then
    the treatment as ``0`` or ``1``, and ends with CRLF. The body is
    plain unquoted numbers, so :func:`load_csv` reads it back with
    numpy, bit for bit.

    Raises ``ValueError``, before the file is opened, with the first
    :func:`validate` diagnostic of a dataset ``load_csv`` would reject,
    or when ``treatment_column`` is also a feature name.
    """
    diags = validate(dataset)
    if diags:
        raise ValueError(f"cannot write {path}: {diags[0]}")
    if treatment_column in dataset.feature_names:
        raise ValueError(
            f"treatment column name {treatment_column!r} collides with a feature"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(
            list(dataset.feature_names) + [treatment_column]
        )
        for start in range(0, dataset.n, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            cells = [map(repr, col) for col in dataset.features[block].T.tolist()]
            cells.append(map(str, dataset.treatment[block].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
