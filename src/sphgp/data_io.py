"""Dataset ingestion, standardization, sphere projection, splits, minibatches.

``load_csv`` parses a clean file, every row numeric and as wide as its
header, in one ``np.loadtxt`` call, and re-reads any other file with the
chunked ``csv.reader`` parse; both keep and drop the same rows.

Raw rows are standardized per column (statistics fit on the training split
only), extended with a constant bias coordinate, and divided by their norm,
which lands every input on the unit sphere in one extra dimension.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Schema:
    """Column roles for a CSV file: one target, ordered feature list, task."""

    target: str
    features: tuple[str, ...]
    task: str

    def __post_init__(self):
        if self.task not in ("regression", "binary"):
            raise DataError(f"task must be regression or binary, got {self.task!r}")
        if not self.features:
            raise DataError("schema needs at least one feature column")
        if self.target in self.features:
            raise DataError("target column cannot also be a feature")
        if len(set(self.features)) < len(self.features):
            raise DataError(f"a feature column repeats: {','.join(self.features)}")


def parse_schema(text: str) -> Schema:
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            raise DataError(f"'#' starts a comment only at the start of a line: {raw!r}")
        if "=" not in line:
            raise DataError(f"schema line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries or key not in ("target", "features", "task"):
            raise DataError(f"{'duplicate' if key in entries else 'unknown'} schema key {key!r}")
        entries[key] = value
    missing = {"target", "features", "task"} - entries.keys()
    if missing:
        raise DataError(f"schema missing keys: {sorted(missing)}")
    features = tuple(c.strip() for c in entries["features"].split(",") if c.strip())
    return Schema(target=entries["target"], features=features, task=entries["task"])


def load_schema(path) -> Schema:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_schema(fh.read())


def serialize_schema(schema: Schema) -> str:
    return (
        f"target={schema.target}\n"
        f"features={','.join(schema.features)}\n"
        f"task={schema.task}\n"
    )


@dataclass(frozen=True)
class Dataset:
    """Parsed rows in file order plus the rejected-row count."""

    inputs: np.ndarray  # (N, d_raw)
    targets: np.ndarray  # (N,)
    task: str
    dropped_rows: int = 0

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.size:
            raise DataError("inputs and targets disagree in length")
        if self.inputs.shape[0] == 0:
            raise DataError("dataset is empty")

    @property
    def num_rows(self) -> int:
        return self.inputs.shape[0]


def _parse_value(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def _usable(values: np.ndarray, binary: bool) -> np.ndarray:
    """Mask of the rows whose values are finite and, if binary, labelled 0 or 1.

    ``values`` holds the schema's columns, the target last.
    """
    ok = np.isfinite(values).all(axis=1)
    if binary:
        ok &= (values[:, -1] == 0.0) | (values[:, -1] == 1.0)
    return ok


# Rows converted per numpy call: bounds the strings held at once. Larger
# chunks parse no faster and leave more freed string memory resident.
_CHUNK_ROWS = 512


def _parse_rows(cells, ncols: int, binary: bool) -> tuple[np.ndarray, int]:
    """Values of the rows that parse, and how many rows were rejected.

    The fallback parse of ``load_csv``, for files its one-call C parse does
    not take. ``cells`` holds one tuple of strings per row: the feature
    columns, then the target. One numpy call converts the whole chunk;
    numpy parses a string exactly as ``float`` does. If any cell fails to
    parse, the chunk goes row by row instead, so only the offending rows are
    rejected.
    """
    try:
        values = np.array(cells, dtype=np.float64).reshape(-1, ncols)
    except ValueError:
        kept = []
        for row in cells:
            try:
                kept.append([_parse_value(c) for c in row])
            except ValueError:
                continue
        values = np.array(kept, dtype=np.float64).reshape(-1, ncols)
    ok = _usable(values, binary)
    return values[ok], len(cells) - int(ok.sum())


def _parse_table(fh, width: int, columns: list[int], binary: bool):
    """The rest of ``fh`` in one C parse: (inputs, targets, rows, dropped).

    Returns None, having consumed ``fh``, when the parse raises, finds no
    row, or finds rows of another width than the header's. Every file on
    which ``np.loadtxt`` could read other values than ``csv.reader`` and
    ``float`` makes it raise: a short, long or whitespace-only row, an empty
    or non-numeric cell. Blank lines are skipped by both. ``usecols`` is not
    passed: with it, rows longer than the header would parse.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError:
            return None
    if table.shape[0] == 0 or table.shape[1] != width:
        return None
    rows = np.flatnonzero(_usable(table[:, columns], binary))
    inputs = table[rows[:, None], columns[:-1]]
    targets = table[rows, columns[-1]]
    return inputs, targets, table.shape[0], table.shape[0] - rows.size


def _parse_chunks(reader, width: int, columns: list[int], binary: bool):
    """The rest of ``reader``, ``_CHUNK_ROWS`` records per numpy call.

    Returns (inputs, targets, rows, dropped). Records of another width than
    the header's are dropped; the schema's columns of the others go through
    ``_parse_rows``.
    """
    blocks = [np.empty((0, len(columns)))]
    dropped = 0
    total = 0
    pick = operator.itemgetter(*columns)
    while records := list(itertools.islice(reader, _CHUNK_ROWS)):
        records = [r for r in records if r]
        total += len(records)
        cells = [pick(r) for r in records if len(r) == width]
        values, rejected = _parse_rows(cells, len(columns), binary)
        dropped += len(records) - len(cells) + rejected
        blocks.append(values)
    inputs = np.concatenate([b[:, :-1] for b in blocks])
    targets = np.concatenate([b[:, -1] for b in blocks])
    return inputs, targets, total, dropped


def _schema_columns(path, header: list[str], schema: Schema) -> list[int]:
    """Header positions of the schema's features, then of its target."""
    columns = []
    for name in (*schema.features, schema.target):
        count = header.count(name)
        if count == 0:
            raise DataError(f"{path}: missing column: {name!r} is not in list")
        if count > 1:
            raise DataError(f"{path}: column {name!r} appears {count} times in the header")
        columns.append(header.index(name))
    return columns


def load_csv(path, schema: Schema, max_bad_fraction: float = 0.1) -> Dataset:
    """Typed CSV parse (RFC-4180 quoting, UTF-8 with an optional BOM, header row required).

    Rows with missing or non-finite values are dropped and counted; the load
    aborts if more than ``max_bad_fraction`` of the data rows are rejected.
    Each column the schema names must appear exactly once in the header.
    ``csv.reader`` reads the header. A clean file, every row numeric and as
    wide as the header, is then parsed in one ``np.loadtxt`` call
    (``_parse_table``); the finite and binary-target checks run as masks on
    the schema's columns. Any other file is re-read from its start by the
    chunked ``csv.reader`` parse (``_parse_chunks``), which drops and counts
    exactly the same rows of a file both can read.
    """
    binary = schema.task == "binary"
    # Universal newlines: TextIOWrapper splits lines faster for np.loadtxt
    # than with newline="", and a cell that holds a line break is not a number.
    with open(path, "r", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (header row required)") from None
        header = [h.strip() for h in header]
        columns = _schema_columns(path, header, schema)
        parsed = _parse_table(fh, len(header), columns, binary)
    if parsed is None:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            parsed = _parse_chunks(reader, len(header), columns, binary)
    inputs, targets, total, dropped = parsed
    if total == 0:
        raise DataError(f"{path}: no data rows")
    if dropped > max_bad_fraction * total:
        raise DataError(
            f"{path}: {dropped}/{total} rows rejected, above the "
            f"{max_bad_fraction:.0%} limit"
        )
    return Dataset(inputs=inputs, targets=targets, task=schema.task, dropped_rows=dropped)


# ---------------------------------------------------------------------------
# standardization and splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    def transform(self, x):
        return (x - self.mean) / self.std


def fit_scaler(values: np.ndarray) -> Scaler:
    mean = np.mean(values, axis=0)
    std = np.std(values, axis=0)
    # constant columns carry no signal; keep them finite
    std = np.where(std < 1e-12, 1.0, std)
    return Scaler(mean=mean, std=std)


@dataclass(frozen=True)
class SplitData:
    """One side of a train/test split, sharing the train-fitted scalers."""

    inputs: np.ndarray
    targets: np.ndarray
    task: str
    input_scaler: Scaler
    target_scaler: Scaler | None

    @property
    def num_rows(self) -> int:
        return self.inputs.shape[0]

    def standardized_inputs(self) -> np.ndarray:
        return self.input_scaler.transform(self.inputs)

    def standardized_targets(self) -> np.ndarray:
        if self.target_scaler is None:
            return self.targets
        return self.target_scaler.transform(self.targets)


def split(dataset: Dataset, test_fraction: float, seed: int):
    """Deterministic permutation split; scalers are fit on train only."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = dataset.num_rows
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise DataError(f"split of {n} rows at {test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    input_scaler = fit_scaler(dataset.inputs[train_idx])
    target_scaler = (
        fit_scaler(dataset.targets[train_idx]) if dataset.task == "regression" else None
    )
    def side(idx):
        return SplitData(
            inputs=dataset.inputs[idx],
            targets=dataset.targets[idx],
            task=dataset.task,
            input_scaler=input_scaler,
            target_scaler=target_scaler,
        )
    return side(train_idx), side(test_idx)


# ---------------------------------------------------------------------------
# sphere projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereBatch:
    """Row-stacked unit vectors."""

    coords: np.ndarray  # (N, d)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def project_to_sphere(inputs, bias: float) -> SphereBatch:
    """Append the bias coordinate and normalize each row onto the sphere.

    Expects standardized raw inputs, never already-projected points; the
    ambient dimension grows by one and can never be degenerate since the
    bias keeps every row away from the origin.
    """
    if isinstance(inputs, SphereBatch):
        raise TypeError("inputs are already projected; refusing to project twice")
    if not bias > 0:
        raise ValueError(f"bias must be positive, got {bias}")
    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    ext = np.concatenate([X, np.full((X.shape[0], 1), float(bias))], axis=1)
    norms = np.linalg.norm(ext, axis=1)
    return SphereBatch(coords=ext / norms[:, None])


def minibatches(n: int, batch_size: int, epoch_seed: int):
    """Yield index blocks of a fresh seeded permutation; last block may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
