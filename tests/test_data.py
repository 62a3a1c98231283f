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
)
from tweakboost.data import write_text_atomic

from conftest import numpy_ma_probe


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


def test_label_error_names_each_bad_label_once():
    rows = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    with pytest.raises(DataError, match=r"^labels outside \{-1,\+1\}: \[0, 2, 5\]$"):
        make_dataset(rows, [5, -1, 2, 0, 5], ["a"])


def test_loading_the_demo_data_leaves_numpy_ma_unimported():
    out = numpy_ma_probe("import tweakboost\ntweakboost.make_demo_dataset()")
    if out == "preloaded":
        pytest.skip("this numpy imports numpy.ma on import")
    assert out == "False"


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


def test_write_text_atomic_writes_chunks_and_leaves_nothing_when_they_fail(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, (f"{i}\n" for i in range(3)))
    assert path.read_text() == "0\n1\n2\n"

    def failing():
        yield "partial\n"
        raise RuntimeError("no more chunks")  # not an OSError, and the temp file still goes

    with pytest.raises(RuntimeError, match="no more chunks"):
        write_text_atomic(path, failing())
    assert path.read_text() == "0\n1\n2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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


def test_demo_dataset_shape_and_determinism():
    d1 = make_demo_dataset()
    d2 = make_demo_dataset()
    assert d1.n_rows == 600 and d1.n_features == 8
    assert np.array_equal(d1.rows, d2.rows)
    assert np.array_equal(d1.labels, d2.labels)
    assert np.any(d1.labels == 1) and np.any(d1.labels == -1)
    assert d1.feature_names == [f"f{i}" for i in range(8)]
