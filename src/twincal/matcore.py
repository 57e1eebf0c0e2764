"""Masked response matrices, column statistics, SVD utilities, and correlation metrics.

The central container is :class:`MaskedMatrix`: a dense float matrix paired with
a boolean observation mask. Unobserved cells are stored as NaN so that any
operation that forgets the mask fails loudly instead of silently reading
garbage.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "EmptyColumnError",
    "UndefinedCorrelationError",
    "ConvergenceWarning",
    "MaskedMatrix",
    "draw_covered_mask",
    "ColumnStats",
    "standardize_columns",
    "pearson",
    "mean_correlation",
    "write_matrix_csv",
    "read_matrix_csv",
]


class DataError(ValueError):
    """Invalid or degenerate input data."""


class EmptyColumnError(DataError):
    """A column (or row) has no observed entries."""


class UndefinedCorrelationError(DataError):
    """Pearson correlation is undefined (constant input)."""


class ConvergenceWarning(RuntimeWarning):
    """An iterative solver stopped at max_iters before reaching tolerance."""


@dataclass(frozen=True, eq=False)
class MaskedMatrix:
    """Dense real matrix with an explicit missingness mask (True = observed).

    ``values`` and ``mask`` always share the same shape; unobserved cells are
    normalized to NaN at construction and must never be read by consumers.
    Instances are immutable after construction and safe to share across
    threads.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got ndim={values.ndim}")
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise DataError(
                f"values shape {values.shape} != mask shape {mask.shape}"
            )
        if not np.all(np.isfinite(values[mask])):
            raise DataError("observed entries must be finite")
        values[~mask] = np.nan
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "MaskedMatrix":
        """Build from a dense array; NaN cells become unobserved."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values, np.isfinite(values))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def is_fully_observed(self) -> bool:
        return bool(self.mask.all())

    def transpose(self) -> "MaskedMatrix":
        return MaskedMatrix(self.values.T, self.mask.T)

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Observed values of column ``j`` and their row indices."""
        rows = np.flatnonzero(self.mask[:, j])
        return self.values[rows, j], rows

    def require_coverage(self) -> None:
        """Raise unless every row and column has at least one observed entry."""
        col_counts = self.mask.sum(axis=0)
        if np.any(col_counts == 0):
            j = int(np.flatnonzero(col_counts == 0)[0])
            raise EmptyColumnError(f"column {j} has no observed entries")
        row_counts = self.mask.sum(axis=1)
        if np.any(row_counts == 0):
            i = int(np.flatnonzero(row_counts == 0)[0])
            raise EmptyColumnError(f"row {i} has no observed entries")


def draw_covered_mask(draw, what: str) -> np.ndarray:
    """First of up to 10 masks from ``draw()`` that leaves every row and column
    an observed cell; raises :class:`DataError` naming ``what`` if none does."""
    for _ in range(10):
        mask = draw()
        if mask.sum(axis=0).min() >= 1 and mask.sum(axis=1).min() >= 1:
            return mask
    raise DataError(f"could not sample {what}")


@dataclass(frozen=True)
class ColumnStats:
    """Per-column observed mean and population standard deviation.

    A recorded std of exactly 0 marks a constant column; such columns
    standardize to all zeros and invert back to their mean.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise DataError("means and stds must be 1-d vectors of equal length")
        if np.any(stds < 0):
            raise DataError("stds must be nonnegative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @classmethod
    def identity(cls, n_cols: int) -> "ColumnStats":
        """Stats that standardize/invert as a no-op (mean 0, std 1)."""
        return cls(np.zeros(n_cols), np.ones(n_cols))

    def invert(self, x: np.ndarray) -> np.ndarray:
        """Map standardized values back to the original scale."""
        return x * self.stds + self.means

    def invert_column(self, x: np.ndarray, j: int) -> np.ndarray:
        return x * self.stds[j] + self.means[j]


def standardize_columns(matrix: MaskedMatrix) -> tuple[MaskedMatrix, ColumnStats]:
    """Standardize each column to observed mean 0 and population std 1.

    Constant columns are centered to zero and their std is recorded as 0 so
    the transform stays exactly invertible. Raises :class:`EmptyColumnError`
    if any column has no observed entries.
    """
    mask = matrix.mask
    counts = mask.sum(axis=0)
    if np.any(counts == 0):
        j = int(np.flatnonzero(counts == 0)[0])
        raise EmptyColumnError(f"column {j} has no observed entries")

    filled = np.where(mask, matrix.values, 0.0)
    means = filled.sum(axis=0) / counts
    # exact detection of constant columns via observed range, not float std
    col_max = np.where(mask, matrix.values, -np.inf).max(axis=0)
    col_min = np.where(mask, matrix.values, np.inf).min(axis=0)
    constant = col_max == col_min
    means = np.where(constant, col_max, means)

    centered = np.where(mask, matrix.values - means, 0.0)
    stds = np.sqrt((centered**2).sum(axis=0) / counts)
    stds = np.where(constant, 0.0, stds)

    scale = np.where(constant, 1.0, stds)
    standardized = np.where(mask, centered / scale, np.nan)
    standardized[:, constant] = np.where(mask[:, constant], 0.0, np.nan)
    return MaskedMatrix(standardized, mask), ColumnStats(means, stds)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors.

    Raises :class:`UndefinedCorrelationError` when either input is constant;
    callers that aggregate over many columns should catch it and count the
    skip rather than imputing a value.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DataError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise DataError("pearson requires at least 2 points")
    if a.max() == a.min() or b.max() == b.min():
        raise UndefinedCorrelationError("constant input vector")
    ac = a - a.mean()
    bc = b - b.mean()
    r = float(ac @ bc / np.sqrt((ac @ ac) * (bc @ bc)))
    return float(np.clip(r, -1.0, 1.0))


def mean_correlation(
    corrs: np.ndarray, fisher_z: bool = False
) -> tuple[float, float]:
    """Mean and standard error of a list of correlations.

    With ``fisher_z`` the average is taken in arctanh space and mapped back
    through tanh; the standard error is reported in the averaging space.
    Correlations at exactly +/-1 are clamped to +/-(1 - 1e-12) with a warning.
    A singleton list reports se = 0.
    """
    corrs = np.asarray(corrs, dtype=np.float64)
    if corrs.ndim != 1 or corrs.size == 0:
        raise DataError("corrs must be a nonempty 1-d vector")
    if fisher_z:
        limit = 1.0 - 1e-12
        if np.any(np.abs(corrs) >= 1.0):
            warnings.warn(
                "correlation magnitude 1 clamped for the z-transform",
                RuntimeWarning,
                stacklevel=2,
            )
            corrs = np.clip(corrs, -limit, limit)
        z = np.arctanh(corrs)
        mean = float(np.tanh(z.mean()))
        se = 0.0 if z.size == 1 else float(z.std(ddof=1) / np.sqrt(z.size))
    else:
        mean = float(corrs.mean())
        se = 0.0 if corrs.size == 1 else float(corrs.std(ddof=1) / np.sqrt(corrs.size))
    return mean, se


# ---------------------------------------------------------------------------
# CSV interchange format: header row first, "NA" or empty cell = missing,
# cell (0, 0) holds the row-label header. 17 significant digits round-trip
# finite doubles exactly.
# ---------------------------------------------------------------------------

def _format_cell(x: float) -> str:
    return "%.17g" % x


def write_matrix_csv(
    path,
    matrix: MaskedMatrix | np.ndarray,
    *,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
    label_header: str = "id",
) -> None:
    """Write a (masked) matrix in the toolkit's CSV interchange format."""
    if not isinstance(matrix, MaskedMatrix):
        matrix = MaskedMatrix.from_dense(np.asarray(matrix, dtype=np.float64))
    n, m = matrix.shape
    if row_labels is None:
        row_labels = [f"r{i}" for i in range(n)]
    if col_labels is None:
        col_labels = [f"c{j}" for j in range(m)]
    if len(row_labels) != n or len(col_labels) != m:
        raise DataError("label lengths do not match matrix dimensions")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([label_header, *col_labels])
        for i in range(n):
            row = [
                _format_cell(matrix.values[i, j]) if matrix.mask[i, j] else "NA"
                for j in range(m)
            ]
            writer.writerow([row_labels[i], *row])


def read_matrix_csv(path, *, return_labels: bool = False):
    """Read a matrix written by :func:`write_matrix_csv`.

    "NA" (any case) and empty cells are missing. Returns a
    :class:`MaskedMatrix`, optionally with (row_labels, col_labels).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise DataError(f"{path}: expected a header row plus at least one data row")
    col_labels = rows[0][1:]
    m = len(col_labels)
    row_labels = []
    values = np.full((len(rows) - 1, m), np.nan)
    mask = np.zeros((len(rows) - 1, m), dtype=bool)
    try:
        for i, row in enumerate(rows[1:]):
            if len(row) != m + 1:
                raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {m + 1}")
            row_labels.append(row[0])
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "" or cell.upper() == "NA":
                    continue
                values[i, j] = float(cell)
                mask[i, j] = True
    except DataError:
        raise
    except ValueError:
        raise DataError(
            f"{path}: row {i + 1}, column {col_labels[j]!r}: not a number: {cell!r}"
        ) from None
    try:
        matrix = MaskedMatrix(values, mask)
    except DataError:
        # only a non-finite cell (inf, nan) fails here; name the first one
        i, j = np.argwhere(mask & ~np.isfinite(values))[0]
        raise DataError(
            f"{path}: row {i + 1}, column {col_labels[j]!r}: "
            f"non-finite value {float(values[i, j])!r}"
        ) from None
    if return_labels:
        return matrix, row_labels, col_labels
    return matrix
