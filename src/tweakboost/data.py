"""Tabular dataset ingestion, per-feature statistics and atomic writes.

CSV contract: comma-separated, UTF-8, header row required, '.' decimal
separator, numeric cells unquoted. Labels live in one named column and are
mapped to {-1, +1} through an explicit label map. Features are numeric only;
categorical columns must be pre-encoded upstream. Missing values are a load
error, never imputed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataError",
    "FeatureSchema",
    "Dataset",
    "make_dataset",
    "load_csv",
    "save_csv",
    "parse_label_map",
    "make_demo_dataset",
    "write_text_atomic",
]


# the share of make_demo_dataset's labels flipped at random
_DEMO_NOISE = 0.12


class DataError(ValueError):
    """Contract violation in input data (bad cell, bad label, bad model file)."""


@dataclass(frozen=True)
class FeatureSchema:
    """Per-feature stats over the training split. Population stddev, so
    distances are reproducible regardless of sample-size conventions."""

    name: str
    index: int
    min: float
    max: float
    mean: float
    stddev: float
    kind: str = "numeric"

    def __post_init__(self):
        stats = {"min": self.min, "max": self.max, "mean": self.mean, "stddev": self.stddev}
        for stat, v in stats.items():
            if not math.isfinite(v):
                raise DataError(f"feature {self.name!r}: non-finite {stat} {v}")
        if not (self.min <= self.mean <= self.max):
            raise DataError(
                f"feature {self.name!r}: stats out of order "
                f"(min={self.min}, mean={self.mean}, max={self.max})"
            )
        if self.stddev < 0:
            raise DataError(f"feature {self.name!r}: negative stddev {self.stddev}")

    @property
    def constant(self) -> bool:
        """True when the feature never varies; it can never appear in a split
        and is excluded from distance computation."""
        return self.stddev == 0.0


@dataclass
class Dataset:
    """Immutable feature matrix + labels in {-1,+1} + per-feature schema.

    rows/labels are locked after construction; safe for concurrent reads.
    """

    rows: np.ndarray
    labels: np.ndarray
    schema: list[FeatureSchema] = field(repr=False)

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 2:
            raise DataError("rows must be a 2-D matrix")
        if self.rows.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.rows.shape[0]} rows but {self.labels.shape[0]} labels"
            )
        bad = (self.labels != -1) & (self.labels != 1)
        if bad.any():  # np.unique only here: its first call imports numpy.ma
            raise DataError(f"labels outside {{-1,+1}}: {np.unique(self.labels[bad]).tolist()}")
        if self.rows.shape[1] != len(self.schema):
            raise DataError(
                f"rows have {self.rows.shape[1]} features, schema has {len(self.schema)}"
            )
        self.rows.setflags(write=False)
        self.labels.setflags(write=False)

    @functools.cached_property
    def feature_order(self) -> np.ndarray:
        """(n_features, n_rows): each feature's rows by ascending value, ties
        by row index. Sorted once, on first use: the rows are locked."""
        order = np.argsort(self.rows.T, axis=1, kind="stable")
        order.setflags(write=False)
        return order

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.schema]


def compute_schema(rows: np.ndarray, names: list[str]) -> list[FeatureSchema]:
    """Population stats per feature, in column order."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        raise DataError("cannot compute schema of an empty dataset")
    out = []
    for j, name in enumerate(names):
        col = rows[:, j]
        with np.errstate(over="ignore", invalid="ignore"):  # FeatureSchema refuses a non-finite stat
            mean, stddev = float(col.mean()), float(col.std())  # ddof=0: population
        out.append(
            FeatureSchema(
                name=name,
                index=j,
                min=float(col.min()),
                max=float(col.max()),
                mean=mean,
                stddev=stddev,
            )
        )
    return out


def make_dataset(rows, labels, names: list[str]) -> Dataset:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError("rows must be a 2-D matrix")
    return Dataset(rows=rows, labels=np.asarray(labels), schema=compute_schema(rows, names))


def parse_label_map(text: str) -> dict[str, int]:
    """Parse the CLI label-map syntax, e.g. 'yes=+1,no=-1'."""
    mapping: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"label-map entry {part!r} is not of the form name=value")
        key, _, val = part.partition("=")
        try:
            ival = int(val)
        except ValueError:
            raise DataError(f"label-map value {val!r} is not an integer") from None
        if ival not in (-1, 1):
            raise DataError(f"label-map value must be -1 or +1, got {ival}")
        mapping[key.strip()] = ival
    if not mapping:
        raise DataError("empty label map")
    if set(mapping.values()) != {-1, 1}:
        raise DataError("label map must cover both -1 and +1")
    return mapping


def _parse_cell(raw: str, row: int, col: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise DataError(f"non-numeric value {raw!r} at row {row}, column {col!r}") from None
    if math.isnan(v) or math.isinf(v):
        raise DataError(f"non-finite value {raw!r} at row {row}, column {col!r}")
    return v


def load_csv(path: str | os.PathLike, label_column: str,
             label_map: dict[str, int] | None = None) -> Dataset:
    """Load a conforming CSV into a Dataset. Row order is preserved; schema
    stats are computed over all loaded rows.

    Without a label_map the label cells must literally be -1, 1 or +1.
    Errors carry 1-based data-row numbers (the header is row 0). The file is
    read as UTF-8 with an optional byte-order mark, which is not part of the
    first header cell.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _csv_records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        labels: list[int] = []
        for rownum, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise DataError(
                    f"ragged row {rownum}: expected {len(header)} cells, got {len(rec)}"
                )
            raw_label = rec[label_idx].strip()
            mapping = label_map if label_map is not None else {"-1": -1, "1": 1, "+1": 1}
            if raw_label not in mapping:
                raise DataError(f"unmapped label {raw_label!r} at row {rownum}")
            labels.append(mapping[raw_label])
            rows.append(
                [
                    _parse_cell(cell.strip(), rownum, header[i])
                    for i, cell in enumerate(rec)
                    if i != label_idx
                ]
            )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return make_dataset(np.array(rows, dtype=np.float64), labels, names)


def _csv_records(fh, path: str | os.PathLike):
    """csv.reader's records from fh. Bytes that are not UTF-8, and a record
    csv cannot read (such as a field over its size limit), raise DataError
    naming the file, and for csv's errors the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                        f"{exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None


def save_csv(ds: Dataset, path: str | os.PathLike, label_column: str = "label") -> None:
    """Write a Dataset back to the CSV contract, atomically (write_text_atomic).
    Floats are written with repr so a reload reproduces rows, labels and
    schema stats exactly."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(ds.feature_names + [label_column])
    for i in range(ds.n_rows):
        writer.writerow([repr(float(v)) for v in ds.rows[i]] + [str(int(ds.labels[i]))])
    write_text_atomic(path, [buf.getvalue()])


def write_text_atomic(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the text chunks in order through a temp file beside path and a
    rename, so a reader never sees a partial file. A generator of chunks is
    drawn while the file is written, so the whole text need never be held.
    When the write, the rename or the chunks fail, the temp file is removed
    and the error propagates."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def make_demo_dataset(n_rows: int = 600, n_features: int = 8, seed: int = 7) -> Dataset:
    """Bundled synthetic binary-classification data so every command runs
    without external files.

    Mixed feature scales, a nonlinear decision rule over the first five
    features, three nuisance features, and label-noise flips on a share
    _DEMO_NOISE of the rows. The noise keeps boosting busy for 100+ rounds:
    early rounds find strong splits (large stage weights), later rounds
    grind against the noise floor (small ones).
    """
    if n_features < 5:
        raise DataError("demo dataset needs at least 5 features")
    rng = np.random.default_rng(seed)
    X = np.empty((n_rows, n_features))
    X[:, 0] = rng.normal(50.0, 10.0, n_rows)
    X[:, 1] = rng.uniform(0.0, 1.0, n_rows)
    X[:, 2] = rng.normal(0.0, 1.0, n_rows)
    X[:, 3] = rng.uniform(-5.0, 5.0, n_rows)
    X[:, 4] = rng.exponential(2.0, n_rows)
    for j in range(5, n_features):
        X[:, j] = rng.normal(0.0, float(j), n_rows)

    score = (
        np.tanh((X[:, 0] - 50.0) / 10.0)
        + 1.2 * (X[:, 1] > 0.6)
        + 0.8 * np.sin(X[:, 3])
        - 0.9 * (X[:, 2] * (X[:, 1] - 0.5) > 0.1)
        + 0.5 * (X[:, 4] > 3.0)
        - 0.55
    )
    y = np.where(score > 0, 1, -1)
    flip = rng.random(n_rows) < _DEMO_NOISE
    y = np.where(flip, -y, y)
    # guard: both classes must be present at any parameterization
    if not (np.any(y == 1) and np.any(y == -1)):
        y[0] = 1
        y[1] = -1
    names = [f"f{j}" for j in range(n_features)]
    return make_dataset(X, y, names)
