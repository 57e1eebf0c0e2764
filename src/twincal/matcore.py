"""Masked response matrices, column statistics, SVD utilities, and correlation metrics.

The central container is :class:`MaskedMatrix`: a dense float matrix paired with
a boolean observation mask. Unobserved cells are stored as NaN so that any
operation that forgets the mask fails loudly instead of silently reading
garbage.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
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


# the package's source files, whose frames a warning skips
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_at_caller(message: str, category: type[Warning] = RuntimeWarning) -> None:
    """Warn, naming the first frame outside the package: the line that called
    into twincal, however deep the call went (Python 3.10 has no
    ``skip_file_prefixes``)."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)


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
        if not np.all(np.isfinite(values), where=mask):
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


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise :class:`DataError` naming ``name`` unless ``value`` is an integer
    (a bool, a float or a string is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{name} must be at least {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Raise :class:`DataError` naming ``name`` unless ``value`` is a finite
    real number (a bool or a string is not)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        raise DataError(f"{name} must be a real number, got {value!r}")


def draw_covered_mask(draw, what: str) -> np.ndarray:
    """First of up to 10 masks from ``draw()`` that leaves every row and column
    an observed cell; raises :class:`DataError` naming ``what`` if none does."""
    for _ in range(10):
        mask = draw()
        if mask.sum(axis=0).min() >= 1 and mask.sum(axis=1).min() >= 1:
            return mask
    raise DataError(f"could not sample {what}")


def standardize_dense(values: np.ndarray, out: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize each column of a finite, fully observed dense matrix to
    mean 0 and population std 1; returns the result and the column means and
    population stds (``result * stds + means`` maps it back).

    A constant column is set to zero and its std recorded as 0, so the
    transform stays exactly invertible. The result takes one full-size
    temporary (the squares) besides itself. It is written into ``out``,
    which may be ``values``; by default it is a new array.
    """
    n = values.shape[0]
    means = values.sum(axis=0) / n
    col_max = values.max(axis=0)
    constant = col_max == values.min(axis=0)
    means = np.where(constant, col_max, means)
    centered = np.subtract(values, means, out=out)
    stds = np.where(constant, 0.0, np.sqrt(np.square(centered).sum(axis=0) / n))
    centered /= np.where(constant, 1.0, stds)
    centered[:, constant] = 0.0
    return centered, means, stds


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
            warn_at_caller("correlation magnitude 1 clamped for the z-transform")
            corrs = np.clip(corrs, -limit, limit)
        mean, se = _mean_se(np.arctanh(corrs))
        return float(np.tanh(mean)), se
    return _mean_se(corrs)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error std(ddof=1) / sqrt(n) of a nonempty vector; se = 0
    for one value."""
    se = 0.0 if values.size == 1 else float(values.std(ddof=1) / np.sqrt(values.size))
    return float(values.mean()), se


# ---------------------------------------------------------------------------
# CSV interchange format: UTF-8, header row first, "NA" or empty cell =
# missing, cell (0, 0) holds the row-label header, at least one data column.
# 17 significant digits round-trip finite doubles exactly.
# ---------------------------------------------------------------------------

_NAN = float("nan")
# the cells the writer turns into Python floats at a time
_WRITE_BLOCK_CELLS = 1 << 13


def _label_prefixes(labels) -> list[str]:
    """Each label as the csv module writes it at the start of a row (quoted
    when it holds a comma, a quote or a line break), with the comma after it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    prefixes = []
    for label in labels:
        writer.writerow((label, ""))
        prefixes.append(buf.getvalue()[:-1])
        buf.seek(0)
        buf.truncate()
    return prefixes


def write_matrix_csv(
    path,
    matrix: MaskedMatrix | np.ndarray,
    *,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
) -> None:
    """Write a (masked) matrix in the toolkit's CSV interchange format, with
    ``id`` as the header's first cell.

    A dense matrix's non-finite cells are written as missing, as
    :meth:`MaskedMatrix.from_dense` would mark them.
    """
    if isinstance(matrix, MaskedMatrix):
        values = matrix.values
    else:
        values = np.asarray(matrix, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got ndim={values.ndim}")
    n, m = values.shape
    if m == 0:
        raise DataError(f"{path}: a matrix CSV needs at least one data column")
    if row_labels is None:
        row_labels = [f"r{i}" for i in range(n)]
    if col_labels is None:
        col_labels = [f"c{j}" for j in range(m)]
    if len(row_labels) != n or len(col_labels) != m:
        raise DataError("label lengths do not match matrix dimensions")
    # every non-finite cell is NaN after the np.where below, so the only
    # "nan" in a formatted row of values is a missing cell
    row_format = ",".join(["%.17g"] * m) + "\n"
    prefixes = _label_prefixes(row_labels)
    # rows become Python floats a block at a time, not all at once
    step = max(1, _WRITE_BLOCK_CELLS // m)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["id", *col_labels])
        for start in range(0, n, step):
            block = values[start:start + step]
            rows = np.where(np.isfinite(block), block, np.nan).tolist()
            fh.writelines(prefix + (row_format % tuple(row)).replace("nan", "NA")
                          for prefix, row in zip(prefixes[start:start + step], rows))


def read_matrix_csv(path, *, return_labels: bool = False):
    """Read a matrix written by :func:`write_matrix_csv`.

    "NA" (any case) and empty cells are missing; whitespace around a cell is
    ignored. Returns a :class:`MaskedMatrix`, optionally with
    (row_labels, col_labels). A ragged row, a cell that is not a number or
    one the csv module cannot read (longer than its field limit) raises
    :class:`DataError` in row order; a non-finite cell (``inf``,
    ``nan``) raises after every row has parsed, naming the first one.

    The writer's own spelling (no quote, no CR, a missing cell spelled
    ``NA``) is parsed by numpy's C reader, which converts a cell as
    ``float()`` does. Every other accepted spelling, and every error, goes
    through the per-row reader, as before.
    """
    read = _read_plain(path)
    matrix, row_labels, col_labels = _read_rows(path) if read is None else read
    if return_labels:
        return matrix, row_labels, col_labels
    return matrix


class _HandOver(Exception):
    """A line :func:`_read_plain` cannot prove it reads as :func:`_read_rows`."""


def _read_plain(path):
    """``(matrix, row_labels, col_labels)`` of a file in the writer's spelling,
    parsed by ``np.loadtxt``; None if any check cannot prove that parse equal
    to :func:`_read_rows`'s, which then reads the file.

    A line holds nothing the csv module reads specially or refuses (a quote,
    a CR, a NUL before Python 3.11, more than its field limit), so its row is
    the line split at its commas. A cell that starts with ``NA`` is spelled
    ``nan``; numpy converts each cell with ``PyOS_string_to_double``, as
    ``float()`` does, and fails on what ``float()`` accepts only after its own
    preprocessing (``1_0``, non-ASCII digits). Lines stream into numpy, so
    neither the file text nor a rewritten copy of it is held.
    """
    limit = csv.field_size_limit()
    row_labels, missing = [], 0

    def plain(line: str) -> bool:
        return len(line) <= limit and '"' not in line and "\r" not in line and "\0" not in line

    def data_lines(fh, m: int):
        nonlocal missing
        for line in fh:
            # a blank or whitespace-only line has no comma, and m >= 1
            if line.count(",") != m or not plain(line):
                raise _HandOver
            row_labels.append(line[:line.index(",")])
            # only a cell follows a comma, so no label is respelled; "NA",
            # bare or before whitespace, becomes NaN, as _read_rows reads it
            # as missing, and anything else that starts "NA" fails to parse
            spelled = line.replace(",NA", ",nan")
            missing += len(spelled) - len(line)
            yield spelled
        if not row_labels:  # no data row, on which loadtxt would warn
            raise _HandOver

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            m = header.count(",")
            if not (m and plain(header)):
                return None
            values = np.loadtxt(data_lines(fh, m), delimiter=",", comments=None,
                                usecols=range(1, m + 1), ndmin=2)
    except (_HandOver, OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    # each respelled cell read as NaN; any other non-finite value is a "nan"
    # or "inf" cell, an error _read_rows reports
    if np.count_nonzero(~np.isfinite(values)) != missing:
        return None
    # the header ends in its line break, since a data line follows it
    return MaskedMatrix(values, ~np.isnan(values)), row_labels, header[:-1].split(",")[1:]


def _read_rows(path):
    """``(matrix, row_labels, col_labels)`` read row by row with the csv
    module; see :func:`read_matrix_csv` for the rules and the errors."""
    no_rows = f"{path}: expected a header row plus at least one data row"
    row_labels, rows, non_finite, header = [], [], None, None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(no_rows)
            col_labels = header[1:]
            m = len(col_labels)
            if m == 0:
                raise DataError(f"{path}: the header names no data column")
            for i, row in enumerate(reader, 1):
                if len(row) != m + 1:
                    raise DataError(f"{path}: row {i} has {len(row)} cells, expected {m + 1}")
                row_labels.append(row[0])
                values = []
                for label, cell in zip(col_labels, row[1:]):
                    cell = cell.strip()
                    if cell.upper() in ("", "NA"):
                        values.append(_NAN)
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i}, column {label!r}: not a number: {cell!r}"
                        ) from None
                    if non_finite is None and not math.isfinite(value):
                        non_finite = (f"{path}: row {i}, column {label!r}: "
                                      f"non-finite value {value!r}")
                    values.append(value)
                rows.append(np.array(values))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # raised by the reader, so the rows before it parsed
        where = "header" if header is None else f"row {len(rows) + 1}"
        raise DataError(f"{path}: {where}: {exc}") from None
    if not rows:
        raise DataError(no_rows)
    if non_finite is not None:
        raise DataError(non_finite)
    values = np.array(rows)
    rows = None  # the row arrays go before MaskedMatrix copies the values
    return MaskedMatrix(values, ~np.isnan(values)), row_labels, col_labels
