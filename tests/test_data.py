import numpy as np
import pytest

from tweakboost import (
    DataError,
    compute_schema,
    load_csv,
    make_dataset,
    make_demo_dataset,
    parse_label_map,
    save_csv,
    split,
)


def test_schema_population_stats():
    rows = np.array([[1.0, 4.0], [3.0, 4.0], [5.0, 4.0]])
    schema = compute_schema(rows, ["a", "b"])
    assert schema[0].min == 1.0 and schema[0].max == 5.0
    assert schema[0].mean == pytest.approx(3.0)
    # population stddev, not sample
    assert schema[0].stddev == pytest.approx(np.sqrt(8.0 / 3.0))
    assert schema[1].stddev == 0.0
    assert schema[1].constant
    assert not schema[0].constant


def test_make_dataset_validates_labels():
    rows = np.array([[1.0], [2.0]])
    with pytest.raises(DataError):
        make_dataset(rows, [0, 1], ["a"])
    with pytest.raises(DataError):
        make_dataset(rows, [2, -1], ["a"])
    ds = make_dataset(rows, [1, -1], ["a"])
    assert ds.labels.tolist() == [1, -1]


def test_rows_are_read_only():
    ds = make_dataset(np.array([[1.0], [2.0]]), [1, -1], ["a"])
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 9.0


def test_csv_round_trip(tmp_path):
    rows = np.array([[0.1, 2.5], [3.725, -1.0], [1e-7, 9.25]])
    ds = make_dataset(rows, [1, -1, 1], ["x", "y"])
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path, "label")
    assert np.array_equal(back.rows, ds.rows)
    assert np.array_equal(back.labels, ds.labels)
    assert back.feature_names == ds.feature_names
    assert back.schema == ds.schema


def test_load_csv_label_map(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,outcome\n1.0,yes\n2.0,no\n")
    ds = load_csv(path, "outcome", parse_label_map("yes=+1,no=-1"))
    assert ds.labels.tolist() == [1, -1]
    assert ds.feature_names == ["a"]


def test_load_csv_unmapped_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,label\n1.0,1\n2.0,maybe\n")
    with pytest.raises(DataError, match=r"unmapped label 'maybe' at row 2"):
        load_csv(path, "label")


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n1.0,oops,-1\n")
    with pytest.raises(DataError, match=r"non-numeric value 'oops' at row 2, column 'b'"):
        load_csv(path, "label")


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,label\nnan,1\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(path, "label")


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n1.0,-1\n")
    with pytest.raises(DataError, match=r"ragged row 2: expected 3 cells, got 2"):
        load_csv(path, "label")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "nope.csv", "label")


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(path, "label")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(DataError, match="header row required"):
        load_csv(path, "label")


def test_parse_label_map_rejects_garbage():
    assert parse_label_map("yes=+1,no=-1") == {"yes": 1, "no": -1}
    with pytest.raises(DataError):
        parse_label_map("yes=2,no=-1")
    with pytest.raises(DataError):
        parse_label_map("yes->1")
    with pytest.raises(DataError):
        parse_label_map("yes=+1,no=+1")


def test_split_partitions_and_is_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.where(rng.random(40) > 0.5, 1, -1)
    ds = make_dataset(X, y, ["a", "b", "c"])
    tr1, te1 = split(ds, 0.75, seed=9)
    tr2, te2 = split(ds, 0.75, seed=9)
    assert tr1.n_rows == 30 and te1.n_rows == 10
    assert np.array_equal(tr1.rows, tr2.rows)
    assert np.array_equal(te1.labels, te2.labels)
    # disjoint and exhaustive
    combined = np.vstack([tr1.rows, te1.rows])
    assert sorted(map(tuple, combined)) == sorted(map(tuple, ds.rows))


def test_split_test_carries_train_schema():
    X = np.array([[float(i), float(i % 3)] for i in range(20)])
    y = np.array([1, -1] * 10)
    ds = make_dataset(X, y, ["a", "b"])
    tr, te = split(ds, 0.7, seed=1)
    assert te.schema == tr.schema


def test_split_requires_both_classes():
    X = np.arange(8.0).reshape(8, 1)
    ds = make_dataset(X, [1, 1, 1, 1, 1, 1, 1, -1], ["a"])
    with pytest.raises(DataError, match=r"class .* absent from"):
        split(ds, 0.5, seed=2)


def test_demo_dataset_shape_and_determinism():
    d1 = make_demo_dataset()
    d2 = make_demo_dataset()
    assert d1.n_rows == 600 and d1.n_features == 8
    assert np.array_equal(d1.rows, d2.rows)
    assert np.array_equal(d1.labels, d2.labels)
    assert np.any(d1.labels == 1) and np.any(d1.labels == -1)
    assert d1.feature_names == [f"f{i}" for i in range(8)]
