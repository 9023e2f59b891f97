"""Dataset construction, validation diagnostics, and CSV ingestion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from positivity import Config, Dataset, load_csv, validate, write_csv
from positivity.data import MAX_CATEGORICAL_CARDINALITY


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
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
]


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
