"""Dataset construction, validation diagnostics, and CSV ingestion."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_load_csv, reference_write_csv
from positivity import Config, Dataset, SynthSpec, generate, load_csv, write_csv
from positivity.data import (
    _WRITE_BLOCK_ROWS,
    MAX_CATEGORICAL_CARDINALITY,
    validate,
)


def write_file(tmp_path, text, name="data.csv"):
    """Write ``text`` as UTF-8, or ``bytes`` as they are."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.bins == 100
        assert config.alpha == 0.01
        assert config.beta == 0.90
        assert config.gamma == 0.01
        assert config.noise_threshold == 0
        assert config.test_kind == "z"
        assert config.max_depth == 10
        assert config.cross_fit_folds == 1
        assert config.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bins": 1},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"beta": 0.0},
            {"beta": 1.5},
            {"gamma": -0.1},
            {"gamma": 1.0},
            {"noise_threshold": -1},
            {"test_kind": "chi2"},
            {"max_depth": -1},
            {"cross_fit_folds": 0},
            {"propensity_bins": -1},
            # one bin would otherwise fail late, inside expand_features
            {"propensity_bins": 1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            Config(**kwargs)


class TestDataset:
    def test_auto_names_and_shapes(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert ds.n == 3
        assert ds.d == 2
        assert ds.feature_names == ("x0", "x1")

    def test_one_dim_features_become_column(self):
        ds = Dataset(np.array([1.0, 2.0]), np.array([0, 1]))
        assert ds.features.shape == (2, 1)

    def test_arrays_read_only_and_copied(self):
        raw = np.zeros((2, 1))
        ds = Dataset(raw, np.array([0, 1]))
        raw[0, 0] = 99.0
        assert ds.features[0, 0] == 0.0
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestValidate:
    def good(self):
        return Dataset(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), ("a", "b")
        )

    def test_valid_dataset_empty_diagnostics(self):
        assert validate(self.good()) == []

    def test_nan_cell_names_row_and_column(self):
        ds = Dataset(
            np.array([[1.0, 2.0], [3.0, np.nan]]), np.array([0, 1]), ("a", "b")
        )
        diags = validate(ds)
        assert len(diags) == 1
        assert "row 1" in diags[0]
        assert "b" in diags[0]

    def test_duplicate_feature_name(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "a"))
        assert any("duplicate" in d for d in validate(ds))

    def test_empty_group(self):
        ds = Dataset(np.zeros((2, 1)), np.array([1, 1]), ("a",))
        assert any("group" in d for d in validate(ds))

    def test_non_binary_treatment(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 5]), ("a",))
        assert any("treatment" in d for d in validate(ds))


_CARD = MAX_CATEGORICAL_CARDINALITY + 1


def _csv_nul_error():
    """The csv module's error for a NUL byte, or None if it reads one."""
    try:
        list(csv.reader(["\0"]))
    except csv.Error as exc:
        return str(exc)
    return None  # Python 3.11 and later


_CSV_NUL_ERROR = _csv_nul_error()

# (case id, CSV text, full message with {path} standing for the file path)
LOAD_CSV_ERRORS = [
    ("empty_file", "", "{path}: file is empty, header row required"),
    ("no_rows", "a,t\n", "{path}: no data rows"),
    ("duplicate_header", "a,a,t\n1,2,0\n",
     "{path}: duplicate column names in header"),
    ("missing_treatment_column", "a,b\n1,2\n",
     "{path}: treatment column 't' not found (columns: a, b)"),
    ("ragged_row", "a,b,t\n1,2,0\n3,1\n",
     "{path}: row 2 has 2 cells, expected 3"),
    ("missing_cell", "a,b,t\n1,,0\n2,3,1\n",
     "{path}: missing value at row 1, column 'b'"),
    ("bad_treatment_value", "a,t\n1,0\n2,yes\n",
     "{path}: treatment value 'yes' at row 2 in column 't' is not one of "
     "0/1/true/false"),
    ("numeric_treatment_value", "a,t\n1,0\n2,1\n3,0.5\n",
     "{path}: treatment value '0.5' at row 3 in column 't' is not one of "
     "0/1/true/false"),
    ("empty_control_group", "a,t\n1,1\n2,true\n",
     "{path}: control group (treatment == 0) is empty"),
    ("empty_treated_group", "a,t\n1,0\n2,0.0\n",
     "{path}: treated group (treatment == 1) is empty"),
    ("cardinality",
     "c,t\n" + "".join(f"v{i},{i % 2}\n" for i in range(_CARD)),
     f"{{path}}: categorical column 'c' has cardinality {_CARD} > "
     f"{MAX_CATEGORICAL_CARDINALITY}"),
    ("mixed_column", "a,t\n1,0\noops,1\n",
     "{path}: unparseable numeric cell 'oops' at row 2, column 'a'"),
    ("non_finite_value", "a,t\n1,0\ninf,1\n",
     "{path}: non-finite numeric value at row 2, column 'a'"),
    ("no_feature_columns", "t\n0\n1\n",
     "{path}: no feature columns besides the treatment"),
    # Precedence: every row's shape and cells are checked before any
    # treatment value, rows in file order, then columns left to right.
    ("missing_cell_before_bad_treatment", "a,t\n1,5\n,0\n",
     "{path}: missing value at row 2, column 'a'"),
    ("first_bad_treatment_row", "a,t\n1,0\n2,x\n3,y\n",
     "{path}: treatment value 'x' at row 2 in column 't' is not one of "
     "0/1/true/false"),
    ("first_bad_row_of_any_kind", "a,t\n1\n,0\n",
     "{path}: row 1 has 1 cells, expected 2"),
    ("first_bad_column", "a,b,t\n1,x,0\ny,2,1\n",
     "{path}: unparseable numeric cell 'y' at row 2, column 'a'"),
    ("whitespace_only_cell", "a,b,t\n1, ,0\n2,3,1\n",
     "{path}: missing value at row 1, column 'b'"),
    ("overflow_to_infinity", "a,t\n1,0\n1e400,1\n",
     "{path}: non-finite numeric value at row 2, column 'a'"),
    ("not_utf8", b"a,t\n1,0\n\xe9,1\n",
     "{path}: line 3 is not valid UTF-8 (invalid continuation byte)"),
    # Files numpy's reader would accept where the csv module rejects them
    # or reads them differently.
    ("blank_line", "a,t\n1,0\n\n2,1\n",
     "{path}: row 2 has 0 cells, expected 2"),
    ("blank_line_at_end", "a,t\n1,0\n2,1\n\n",
     "{path}: row 3 has 0 cells, expected 2"),
    ("blank_crlf_line", "a,t\r\n1,0\r\n\r\n2,1\r\n",
     "{path}: row 2 has 0 cells, expected 2"),
    # in the last column, where a comment cuts off no delimiter
    ("hash_in_numeric_cell", "t,a\n0,2\n1,1 # c\n",
     "{path}: unparseable numeric cell '1 # c' at row 2, column 'a'"),
    ("finite_oversized_cell", "a,t\n1,0\n" + "0" * 140_000 + "1,1\n",
     "{path}: line 3: field larger than field limit (131072)"),
    ("lone_cr_in_header", "a\r,t\n1,0\n2,1\n",
     "{path}: treatment column 't' not found (columns: a)"),
    # the rest of the header reads as a first data row of floats
    ("lone_cr_in_header_before_floats", "t,a\r0,1\n0,5,6\n1,7,8\n",
     "{path}: row 2 has 3 cells, expected 2"),
    ("lone_cr_row_break", "a,b,t\n1,2\r0\n3,4,1\n",
     "{path}: row 1 has 2 cells, expected 3"),
    ("lone_cr_blank_row", "a,t\n1,0\r\r\n2,1\n",
     "{path}: row 2 has 0 cells, expected 2"),
    ("nul_byte", "a,t\n1,0\n2\0,1\n",
     f"{{path}}: line 3: {_CSV_NUL_ERROR}" if _CSV_NUL_ERROR else
     "{path}: unparseable numeric cell '2\\x00' at row 2, column 'a'"),
]

# CSV texts that load, and whether numpy's reader parses them
LOAD_CSV_PASSTHROUGH = [
    pytest.param("a,b,t\r\n1.5,-2e-3,0\r\n3,4,1\r\n", True, id="crlf"),
    pytest.param("a,t\n1,0\n2,1", True, id="no_final_newline"),
    pytest.param("a,b,t\n 1.5 ,\t2,0 \n3\x1c, 4\xa0, 1\n", True,
                 id="padded_cells"),
    pytest.param("a,t\n-0,0\n-0.0,1\n0,-0\n", True, id="negative_zero"),
    pytest.param("a,t\n1,0.0\n2,1e0\n", True, id="float_treatment"),
    pytest.param('a,b,t\n"1.5",2,0\n"3",4,"1"\n', False,
                 id="quoted_numbers"),
    pytest.param('"a",t\n1,0\n2,1\n', False, id="quoted_header"),
    pytest.param('"a\nb",t\n1,0\n2,1\n', False, id="multiline_header"),
    pytest.param("a,t\n1_000,0\n2,1\n", False, id="underscore_digits"),
    pytest.param("a,t\n1,true\n2,0\n", False, id="bool_treatment"),
    pytest.param("a,c,t\n1,EU,0\n2,US,1\n", False, id="categorical"),
    pytest.param(
        "a\0,t\n1,0\n2,1\n", False, id="nul_in_header",
        marks=pytest.mark.skipif(
            _CSV_NUL_ERROR is not None,
            reason="the csv module rejects a NUL byte before Python 3.11",
        ),
    ),
]


@pytest.fixture
def csv_reader_calls(monkeypatch):
    """Count csv.reader calls; none means numpy parsed the file."""
    calls = []
    real = csv.reader

    def counting_reader(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting_reader)
    return calls


def assert_same_dataset(got, want):
    assert got.feature_names == want.feature_names
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.treatment.tobytes() == want.treatment.tobytes()


class TestLoadCsv:
    def test_numeric_passthrough(self, tmp_path):
        path = write_file(
            tmp_path, "age,spend,t\n30,1.5,0\n40,2.5,1\n50,3.5,0\n"
        )
        ds = load_csv(path, "t")
        assert ds.n == 3
        assert ds.d == 2
        assert ds.feature_names == ("age", "spend")
        assert list(ds.treatment) == [0, 1, 0]
        np.testing.assert_allclose(ds.features[:, 0], [30.0, 40.0, 50.0])

    def test_categorical_one_hot(self, tmp_path):
        path = write_file(
            tmp_path, "region,t\nEU,0\nUS,1\nEU,1\n"
        )
        ds = load_csv(path, "t")
        assert "region=EU" in ds.feature_names
        assert "region=US" in ds.feature_names
        col_eu = ds.features[:, ds.feature_names.index("region=EU")]
        col_us = ds.features[:, ds.feature_names.index("region=US")]
        np.testing.assert_allclose(col_eu, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(col_us, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(col_eu + col_us, 1.0)

    def test_bool_words_accepted(self, tmp_path):
        path = write_file(tmp_path, "a,t\n1,true\n2,false\n")
        ds = load_csv(path, "t")
        assert list(ds.treatment) == [1, 0]

    def test_single_group_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,t\n1,1\n2,1\n")
        with pytest.raises(ValueError, match="group"):
            load_csv(path, "t")

    def test_missing_treatment_column(self, tmp_path):
        path = write_file(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="treatment"):
            load_csv(path, "nope")

    def test_non_binary_treatment_value(self, tmp_path):
        path = write_file(tmp_path, "a,t\n1,2\n2,0\n")
        with pytest.raises(ValueError, match="row"):
            load_csv(path, "t")

    def test_high_cardinality_rejected(self, tmp_path):
        n = MAX_CATEGORICAL_CARDINALITY + 1
        rows = "".join(f"v{i},{i % 2}\n" for i in range(n))
        path = write_file(tmp_path, "c,t\n" + rows)
        with pytest.raises(ValueError, match="cardinality"):
            load_csv(path, "t")

    def test_mixed_column_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,t\n1,0\noops,1\n")
        with pytest.raises(ValueError, match="a"):
            load_csv(path, "t")

    def test_missing_cell_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,b,t\n1,,0\n2,3,1\n")
        with pytest.raises(ValueError, match="row"):
            load_csv(path, "t")

    def test_ragged_row_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,b,t\n1,2,0\n3,1\n")
        with pytest.raises(ValueError):
            load_csv(path, "t")

    def test_duplicate_header_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,a,t\n1,2,0\n3,4,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path, "t")

    def test_non_finite_numeric_rejected(self, tmp_path):
        path = write_file(tmp_path, "a,t\nnan,0\n1,1\n")
        with pytest.raises(ValueError):
            load_csv(path, "t")

    @pytest.mark.parametrize(
        "text,message",
        [case[1:] for case in LOAD_CSV_ERRORS],
        ids=[case[0] for case in LOAD_CSV_ERRORS],
    )
    def test_diagnostic_text(self, tmp_path, text, message):
        path = write_file(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_csv(path, "t")
        assert str(info.value) == message.replace("{path}", path)

    @pytest.mark.parametrize("text,by_numpy", LOAD_CSV_PASSTHROUGH)
    def test_passthrough(self, tmp_path, csv_reader_calls, text, by_numpy):
        path = write_file(tmp_path, text)
        got = load_csv(path, "t")
        assert (csv_reader_calls == []) == by_numpy
        assert_same_dataset(got, reference_load_csv(path, "t"))

    def test_synth_file_parsed_by_numpy(self, tmp_path, csv_reader_calls):
        # A file the fast path silently declined would load the same
        # Dataset, only slower.
        path = str(tmp_path / "synth.csv")
        write_csv(generate(SynthSpec(n=500, noise_covariates=2), 0), path)
        got = load_csv(path, "treatment")
        assert csv_reader_calls == []
        assert_same_dataset(got, reference_load_csv(path, "treatment"))

    def test_utf8_bom_before_header(self, tmp_path):
        path = write_file(tmp_path, "\ufefft,a\n0,1\n1,2\n")
        ds = load_csv(path, "t")
        assert ds.feature_names == ("a",)
        assert list(ds.treatment) == [0, 1]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "absent.csv"), "t")

    def test_ingestion_deterministic(self, tmp_path):
        path = write_file(tmp_path, "a,c,t\n1,EU,0\n2,US,1\n3,EU,0\n")
        first = load_csv(path, "t")
        second = load_csv(path, "t")
        assert first.feature_names == second.feature_names
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.treatment, second.treatment)


# Raw CSV field text. "7\x1c" parses only after str.strip(), which drops
# the separator that float() keeps.
_FINITE_CELLS = ("1", " 2.5 ", "1_000", "-0", "0.1", "-3e-5", "7\x1c", "3\xa0")
# Spellings numpy's reader parses too, so whole files of them reach it.
_NUMERIC_CELLS = ("0", "1.5", "-2e-3", " 3 ", "-0", "5\u2028")
_NON_FINITE_CELLS = ("inf", "1e400")
_LEVEL_CELLS = (" EU", "EU", "US ", '"EU, north"', '"a,b"')
_MISSING_CELLS = ("", " ", "\t")
_TREATMENT_CELLS = ("0", "1", "true", "FALSE", "0.0", " 1 ")
_NUMERIC_TREATMENT_CELLS = ("0", "1", "0.0", " 1 ")
_FEATURE_POOLS = (
    _NUMERIC_CELLS,
    _FINITE_CELLS,
    _FINITE_CELLS,
    _LEVEL_CELLS,
    _LEVEL_CELLS,
    _FINITE_CELLS + _NON_FINITE_CELLS,
    _FINITE_CELLS + _LEVEL_CELLS,
    _FINITE_CELLS + _MISSING_CELLS,
)


@st.composite
def csv_texts(draw):
    """Small CSV texts mixing clean and faulty columns, rows and cells."""
    n_features = draw(st.integers(1, 3))
    t_col = draw(st.integers(0, n_features))
    if draw(st.integers(0, 2)) == 0:
        pools = [_NUMERIC_CELLS] * n_features
        pools.insert(t_col, _NUMERIC_TREATMENT_CELLS)
    else:
        pools = [draw(st.sampled_from(_FEATURE_POOLS))
                 for _ in range(n_features)]
        pools.insert(t_col, draw(st.sampled_from(
            [_TREATMENT_CELLS] * 3 + [_TREATMENT_CELLS + ("yes",)]
        )))
    header = [f"f{j}" for j in range(n_features)]
    header.insert(t_col, "t")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(3, 8))):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        ragged = draw(st.sampled_from([0] * 30 + [-1, 1]))
        row = row[:ragged] if ragged < 0 else row + ["1"] * ragged
        lines.append(",".join(row))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


def _load_or_message(load, path):
    try:
        return load(path, "t")
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_load_csv_matches_reference_reader(tmp_path_factory, text):
    path = write_file(tmp_path_factory.mktemp("diff"), text)
    got = _load_or_message(load_csv, path)
    want = _load_or_message(reference_load_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert_same_dataset(got, want)


class TestWriteCsv:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            rng.standard_normal((20, 3)),
            rng.integers(0, 2, 20),
            ("a", "b", "c"),
        )
        path = str(tmp_path / "out.csv")
        write_csv(ds, path, "t")
        back = load_csv(path, "t")
        assert back.feature_names == ds.feature_names
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.treatment, ds.treatment)

    def test_exact_text(self, tmp_path):
        ds = Dataset(
            np.array([[0.1, -0.0], [1e-300, 123456789.125]]),
            np.array([0, 1]),
            ("a", "b"),
        )
        path = tmp_path / "out.csv"
        write_csv(ds, str(path), "t")
        assert path.read_bytes() == (
            b"a,b,t\r\n0.1,-0.0,0\r\n1e-300,123456789.125,1\r\n"
        )

    def test_treatment_name_collision(self, tmp_path):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("t",))
        with pytest.raises(ValueError, match="collides"):
            write_csv(ds, str(tmp_path / "x.csv"), "t")

    @pytest.mark.parametrize(
        "features, treatment, diag",
        [
            pytest.param(
                [[0.5], [np.nan]], [0, 1],
                "non-finite feature value at row 1, column 'a'", id="nan",
            ),
            pytest.param(
                [[0.5], [1.5]], [0, 2],
                "treatment value 2 at row 1 is not 0 or 1", id="treatment-2",
            ),
            pytest.param(
                [[0.5], [1.5]], [1, 1],
                "control group (treatment == 0) is empty", id="one-group",
            ),
        ],
    )
    def test_refuses_dataset_load_csv_rejects(
        self, tmp_path, features, treatment, diag
    ):
        ds = Dataset(np.array(features), np.array(treatment), ("a",))
        assert validate(ds)[0] == diag
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError) as info:
            write_csv(ds, str(path), "t")
        assert str(info.value) == f"cannot write {path}: {diag}"
        assert not path.exists()


@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30
    )
)
def test_round_trip_property(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("rt")
    treatment = np.array([i % 2 for i in range(len(values))])
    ds = Dataset(np.array(values), treatment, ("v",))
    path = str(tmp / "rt.csv")
    write_csv(ds, path, "t")
    back = load_csv(path, "t")
    np.testing.assert_array_equal(back.features, ds.features)


_BLOCK_ROW_COUNTS = (
    1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1,
    2 * _WRITE_BLOCK_ROWS + 3,
)
_EDGE_FLOATS = (
    -0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
)


@st.composite
def writable_datasets(draw):
    """Datasets sized around the writer's block, with awkward floats and
    names that need csv quoting or are not ASCII."""
    n = draw(st.sampled_from(_BLOCK_ROW_COUNTS))
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(
        st.sampled_from(_EDGE_FLOATS)
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = np.array(pool)[rng.integers(0, len(pool), (n, d))]
    treatment = rng.integers(0, 2, n)
    piece = st.text(alphabet=[",", '"', " ", "a", "é", "数"], max_size=5)
    # no leading or trailing space, which load_csv strips from names
    names = tuple(f"{j}{draw(piece)}." for j in range(d))
    return Dataset(features, treatment, names)


@settings(max_examples=60, deadline=None)
@given(ds=writable_datasets())
def test_write_csv_matches_reference_writer(tmp_path_factory, ds):
    tmp = tmp_path_factory.mktemp("write")
    path, want = tmp / "got.csv", tmp / "want.csv"
    diags = validate(ds)
    if diags:  # one row, or a block that drew a single group
        with pytest.raises(ValueError, match=re.escape(diags[0])):
            write_csv(ds, str(path), "t")
        assert not path.exists()
        return
    write_csv(ds, str(path), "t")
    reference_write_csv(ds, str(want), "t")
    assert path.read_bytes() == want.read_bytes()
    back = load_csv(str(path), "t")
    assert back.feature_names == ds.feature_names
    np.testing.assert_array_equal(
        back.features.view(np.int64), ds.features.view(np.int64)
    )
    np.testing.assert_array_equal(back.treatment, ds.treatment)
