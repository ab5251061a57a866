"""Dataset ingestion and standardization for the streaming benchmark.

CSV files are parsed with the last column as the target unless a target
column is named. Features and targets are standardized over the full pass;
constant columns get a unit divisor (logged) so streaming never divides by
zero. The pre-standardization target range is kept as metadata; the
standardized range defines the decision interval for regression runs.

Built-in datasets: "diabetes" (bundled with scikit-learn, no network),
"synthetic" (generated in-process) and "california" (searched on disk;
``fetch_california`` writes it once, through scikit-learn, where network
access exists). ``BENCH_DATA_DIR`` overrides the dataset search path. Any
other numeric CSV loads by its path.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError

logger = logging.getLogger(__name__)

CALIFORNIA_FILENAME = "california_housing.csv"


@dataclass
class Dataset:
    features: np.ndarray            # standardized, shape (n, p)
    targets: np.ndarray             # standardized, shape (n,)
    feature_names: list[str]
    target_name: str
    feature_means: np.ndarray
    feature_stds: np.ndarray        # post-guard divisors
    target_mean: float
    target_std: float
    raw_target_range: tuple[float, float]
    source: str = "memory"
    guarded_columns: list[int] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def target_range(self) -> tuple[float, float]:
        """Range of the standardized targets."""
        return float(self.targets.min()), float(self.targets.max())

    def validate(self) -> None:
        """Check the standardization invariants on the full pass, to 1e-9."""
        cols = [j for j in range(self.n_features) if j not in self.guarded_columns]
        if cols:
            sub = self.features[:, cols]
            mean_err = np.max(np.abs(sub.mean(axis=0)))
            std_err = np.max(np.abs(sub.std(axis=0) - 1.0))
            if mean_err > 1e-9 or std_err > 1e-9:
                raise DataError(
                    f"standardization invariant violated: mean err {mean_err:.2e}, "
                    f"std err {std_err:.2e}")
        if np.isnan(self.features).any() or np.isnan(self.targets).any():
            raise DataError("dataset contains missing values after ingestion")


def _standardize(raw_features, raw_targets, feature_names, target_name, source):
    means = raw_features.mean(axis=0)
    stds = raw_features.std(axis=0)
    guarded = [int(j) for j in np.where(stds == 0.0)[0]]
    for j in guarded:
        logger.info("column %s is constant; using unit divisor", feature_names[j])
    divisors = np.where(stds == 0.0, 1.0, stds)
    t_mean = float(raw_targets.mean())
    t_std = float(raw_targets.std())
    if t_std == 0.0:
        logger.info("target column is constant; using unit divisor")
        t_std = 1.0
    return Dataset(
        features=(raw_features - means) / divisors,
        targets=(raw_targets - t_mean) / t_std,
        feature_names=list(feature_names),
        target_name=target_name,
        feature_means=means,
        feature_stds=divisors,
        target_mean=t_mean,
        target_std=t_std,
        raw_target_range=(float(raw_targets.min()), float(raw_targets.max())),
        source=source,
        guarded_columns=guarded,
    )


def _bad_cell(cell: str):
    """None for a cell float() reads as a finite number, else what it is."""
    try:
        return None if math.isfinite(float(cell)) else "non-finite"
    except ValueError:
        return "non-numeric"


def ingest(path, target_col=None) -> Dataset:
    """Parse a numeric CSV into a standardized dataset, preserving row order."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path}: file is empty")

    first = rows[0]
    has_header = any(_bad_cell(c) == "non-numeric" for c in first)
    if has_header:
        names = [c.strip() for c in first]
        data_rows = rows[1:]
        first_line = 2
    else:
        names = [f"col{j}" for j in range(len(first))]
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise DataError(f"{path}: no data rows")

    width = len(names)
    try:  # numpy parses each cell with float()
        matrix = np.array(data_rows, dtype=np.float64)
    except ValueError:
        matrix = None
    if matrix is None or matrix.shape != (len(data_rows), width) \
            or not np.isfinite(matrix).all():
        for i, row in enumerate(data_rows):  # name the first bad row or cell
            if len(row) != width:
                raise DataError(
                    f"{path} line {first_line + i}: expected {width} cells, got {len(row)}")
            for name, cell in zip(names, row):
                if kind := _bad_cell(cell):
                    raise DataError(f"{path} line {first_line + i}: {kind} cell in "
                                    f"column '{name}': {cell!r}")
        matrix = np.array([[float(cell) for cell in row] for row in data_rows])

    if target_col is None:
        target_idx = width - 1
    elif isinstance(target_col, int):
        if not 0 <= target_col < width:
            raise DataError(f"target column index {target_col} out of range")
        target_idx = target_col
    else:
        if target_col not in names:
            raise DataError(f"target column '{target_col}' not in {names}")
        target_idx = names.index(target_col)

    feat_idx = [j for j in range(width) if j != target_idx]
    ds = _standardize(matrix[:, feat_idx], matrix[:, target_idx],
                      [names[j] for j in feat_idx], names[target_idx], str(path))
    ds.validate()
    return ds


def _synthetic_xy(n: int, p: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    c = [X[:, j % p] for j in range(5)]
    y = (np.sin(1.5 * c[0]) + 0.8 * np.tanh(c[1] - 0.5 * c[2])
         + 0.4 * c[3] * c[4] + 0.3 * c[0] ** 2
         + 0.2 * rng.standard_normal(n))
    return X, y


def synthetic_regression(n: int = 2000, p: int = 6, seed: int = 7) -> Dataset:
    """Bundled synthetic regression stream with nonlinear structure."""
    X, y = _synthetic_xy(n, p, seed)
    ds = _standardize(X, y, [f"x{j}" for j in range(p)], "y", "synthetic")
    ds.validate()
    return ds


def write_synthetic_csv(path, n: int = 2000, p: int = 6, seed: int = 7) -> None:
    X, y = _synthetic_xy(n, p, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(p)] + ["y"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in X[i]] + [repr(float(y[i]))])


def _search_dirs(data_dir=None):
    dirs = []
    if data_dir:
        dirs.append(Path(data_dir))
    env = os.environ.get("BENCH_DATA_DIR")
    if env:
        dirs.append(Path(env))
    dirs.append(Path.cwd() / "bench_data")
    dirs.append(Path.home() / ".ocoboost" / "data")
    return dirs


def _find_file(filename, data_dir=None):
    for d in _search_dirs(data_dir):
        candidate = d / filename
        if candidate.exists():
            return candidate
    return None


def load_diabetes_dataset() -> Dataset:
    """The 442-row diabetes regression set bundled with scikit-learn."""
    try:
        from sklearn.datasets import load_diabetes
    except ImportError as exc:
        raise DataError(
            "the diabetes dataset needs scikit-learn "
            "(pip install 'ocoboost[datasets]')") from exc
    raw = load_diabetes(scaled=False)
    ds = _standardize(np.asarray(raw.data, dtype=np.float64),
                      np.asarray(raw.target, dtype=np.float64),
                      list(raw.feature_names), "progression", "diabetes")
    ds.validate()
    return ds


def load_dataset(name_or_path, data_dir=None, target_col=None) -> Dataset:
    """Resolve a dataset by path or by builtin name."""
    p = Path(name_or_path)
    if p.exists():
        return ingest(p, target_col=target_col)
    name = str(name_or_path).lower()
    if name == "diabetes":
        return load_diabetes_dataset()
    if name == "synthetic":
        return synthetic_regression()
    if name in ("california", "california_housing"):
        found = _find_file(CALIFORNIA_FILENAME, data_dir)
        if found is None:
            raise DataError(
                f"{CALIFORNIA_FILENAME} not found in the data search path; "
                "run 'ocoboost-bench fetch california' on a machine with "
                "network access, or set BENCH_DATA_DIR")
        return ingest(found, target_col=target_col)
    raise DataError(f"unknown dataset '{name_or_path}' and no such file")


# -- one-time download --------------------------------------------------------

def fetch_california(dest_dir) -> Path:
    """Materialize the California Housing CSV via scikit-learn's fetcher,
    which verifies the archive checksum itself."""
    try:
        from sklearn.datasets import fetch_california_housing
    except ImportError as exc:
        raise DataError("fetching california needs scikit-learn") from exc
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    raw = fetch_california_housing()
    out = dest_dir / CALIFORNIA_FILENAME
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(raw.feature_names) + ["MedHouseVal"])
        for x, y in zip(raw.data, raw.target):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
    return out
