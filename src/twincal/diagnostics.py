"""Subspace-alignment diagnostics between human and twin response matrices.

Alignment is measured between the leading singular subspaces of the demeaned,
imputed matrices: cosines of principal angles and the Frobenius distance
between the corresponding orthogonal projectors, each against a Gaussian and
a column-shuffled baseline. Each matrix is imputed and decomposed once; every
curve comes from its r_max leading singular vectors, so no n x n projector is
ever formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .completion import DEFAULT_RANK_GRID, estimate_effective_rank, impute_dense
from .matcore import DataError, MaskedMatrix

__all__ = [
    "SubspaceAxis",
    "AlignmentReport",
    "principal_angle_cosines",
    "projection_frobenius",
    "alignment_report",
    "variance_explained",
]


class SubspaceAxis(str, Enum):
    ROW_SPACE = "row_space"
    COLUMN_SPACE = "column_space"


def _leading_basis(matrix: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the span of the leading-k left singular vectors."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError("expected a 2-d matrix")
    if not 1 <= k <= min(matrix.shape):
        raise DataError(f"k={k} exceeds the available rank bound {min(matrix.shape)}")
    left, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return left[:, :k]


def _angle_curves(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal-angle cosines and projector distances of two r-column bases.

    The cosines are the singular values of Qa'Qb, clipped into [0, 1]. The
    distance at truncation k is ||Pa - Pb||_F = sqrt(2) ||Qb - Qa Qa'Qb||_F
    over the leading k columns of each basis, which equals
    sqrt(2k - 2 * sum cos^2(theta_i)) but does not cancel near zero.
    """
    if qa.shape[0] != qb.shape[0]:
        raise DataError("subspaces live in different ambient dimensions")
    cross = qa.T @ qb
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    dist = np.array([
        np.sqrt(2.0) * np.linalg.norm(qb[:, :k] - qa[:, :k] @ cross[:k, :k])
        for k in range(1, qa.shape[1] + 1)
    ])
    return cos, dist


def principal_angle_cosines(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Cosines of the principal angles between two leading-k subspaces.

    Each subspace is the span of the input's top-k left singular vectors
    (pass the transpose to compare row spaces). Returns the k singular values
    of the cross-Gram of the two orthonormal bases, sorted nonincreasing and
    clipped into [0, 1].
    """
    return _angle_curves(_leading_basis(a, k), _leading_basis(b, k))[0]


def projection_frobenius(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Frobenius distance between the two leading-k orthogonal projectors.

    Equal to ||Qa Qa' - Qb Qb'||_F = sqrt(2k - 2 * sum cos^2(theta_i)) and at
    most sqrt(2k); computed from the bases alone, without forming either
    projector.
    """
    return float(_angle_curves(_leading_basis(a, k), _leading_basis(b, k))[1][-1])


def _variance_curve(singular_values: np.ndarray) -> np.ndarray:
    """Cumulative share of the squared singular values."""
    total = float((singular_values**2).sum())
    if total <= 0.0:
        raise DataError("matrix has zero variance after demeaning")
    return np.cumsum(singular_values**2) / total


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment curves for a human/twin pair plus random baselines.

    ``cosines`` holds the principal-angle cosines at the full truncation
    level; ``proj_frobenius[k-1]`` is the projector distance at truncation
    level k. The Gaussian baseline matches the twin's shape; the shuffled
    baseline permutes each human column independently. ``human_spectrum`` and
    ``twin_spectrum`` are the singular values of the demeaned, imputed
    matrices; they are not part of the JSON form.
    """

    axis: SubspaceAxis
    rank: int
    r_max: int
    cosines: np.ndarray
    proj_frobenius: np.ndarray
    gaussian_cosines: np.ndarray
    gaussian_proj_frobenius: np.ndarray
    shuffled_cosines: np.ndarray
    shuffled_proj_frobenius: np.ndarray
    seed: int
    human_spectrum: np.ndarray
    twin_spectrum: np.ndarray

    def variance_curves(self) -> tuple[np.ndarray, np.ndarray]:
        """Human and twin :func:`variance_explained` curves, from the spectra."""
        return _variance_curve(self.human_spectrum), _variance_curve(self.twin_spectrum)

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis.value,
            "rank": self.rank,
            "r_max": self.r_max,
            "seed": self.seed,
            "cosines": self.cosines.tolist(),
            "proj_frobenius": self.proj_frobenius.tolist(),
            "baselines": {
                "gaussian": {
                    "cosines": self.gaussian_cosines.tolist(),
                    "proj_frobenius": self.gaussian_proj_frobenius.tolist(),
                },
                "shuffled": {
                    "cosines": self.shuffled_cosines.tolist(),
                    "proj_frobenius": self.shuffled_proj_frobenius.tolist(),
                },
            },
        }


def _to_dense_demeaned(
    matrix: MaskedMatrix | np.ndarray, rank: int | None, seed: int
) -> tuple[np.ndarray, int]:
    """The imputed, column-demeaned matrix and the imputation rank (0 if none)."""
    if isinstance(matrix, MaskedMatrix):
        dense, used_rank = impute_dense(matrix, rank, seed)
    else:
        dense, used_rank = np.asarray(matrix, dtype=np.float64), 0
        if not np.all(np.isfinite(dense)):
            raise DataError("dense input contains non-finite cells; impute first")
    return dense - dense.mean(axis=0), used_rank


def alignment_report(
    human: MaskedMatrix | np.ndarray,
    twin: MaskedMatrix | np.ndarray,
    axis: SubspaceAxis | str = SubspaceAxis.ROW_SPACE,
    seed: int = 0,
    *,
    rank: int | None = None,
    impute_rank: int | None = None,
) -> AlignmentReport:
    """Compare human/twin subspaces on the leading rank + 2 directions.

    The effective rank is estimated on the human matrix by held-out hard
    imputation unless ``rank`` is given; when the human matrix is imputed at
    an estimated rank, that estimate is reused. r_max = rank + 2 is clamped
    to the matrix dimensions with a warning. Both matrices are imputed (if
    masked) and column-demeaned before taking singular subspaces: right
    singular vectors for the row-space axis, left for the column-space axis.
    Each of the human, twin and two baseline matrices takes one thin SVD.
    """
    axis = SubspaceAxis(axis)
    h, human_impute_rank = _to_dense_demeaned(human, impute_rank, seed)
    t, _ = _to_dense_demeaned(twin, impute_rank, seed)
    if rank is None:
        if impute_rank is None and human_impute_rank:
            rank = human_impute_rank
        else:
            masked = human if isinstance(human, MaskedMatrix) else MaskedMatrix.from_dense(human)
            grid = [r for r in DEFAULT_RANK_GRID if r <= min(masked.shape)]
            rank = estimate_effective_rank(masked, grid, seed=seed)
    row_space = axis is SubspaceAxis.ROW_SPACE
    if row_space:
        if h.shape[1] != t.shape[1]:
            raise DataError("row-space comparison needs equal column counts")
    else:
        if h.shape[0] != t.shape[0]:
            raise DataError("column-space comparison needs equal row counts")

    r_max = rank + 2
    limit = min(min(h.shape), min(t.shape))
    if r_max > limit:
        warnings.warn(
            f"r_max={r_max} exceeds the rank bound {limit}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        r_max = limit

    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=t.shape)
    gaussian -= gaussian.mean(axis=0)
    shuffled = h.copy()
    for j in range(shuffled.shape[1]):
        shuffled[:, j] = shuffled[rng.permutation(shuffled.shape[0]), j]

    bases, spectra = [], []
    for matrix in (h, t, gaussian, shuffled):
        left, sv, _ = np.linalg.svd(matrix.T if row_space else matrix, full_matrices=False)
        bases.append(left[:, :r_max])
        spectra.append(sv)
    q_human, q_twin, q_gaussian, q_shuffled = bases
    cos, dist = _angle_curves(q_human, q_twin)
    g_cos, g_dist = _angle_curves(q_human, q_gaussian)
    s_cos, s_dist = _angle_curves(q_human, q_shuffled)
    return AlignmentReport(
        axis=axis,
        rank=int(rank),
        r_max=int(r_max),
        cosines=cos,
        proj_frobenius=dist,
        gaussian_cosines=g_cos,
        gaussian_proj_frobenius=g_dist,
        shuffled_cosines=s_cos,
        shuffled_proj_frobenius=s_dist,
        seed=seed,
        human_spectrum=spectra[0],
        twin_spectrum=spectra[1],
    )


def variance_explained(
    matrix: MaskedMatrix | np.ndarray,
    *,
    impute_rank: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Cumulative fraction of variance captured by the leading directions.

    Columns are demeaned first; the curve is nondecreasing and ends at 1.
    Raises on an (effectively) zero matrix.
    """
    demeaned, _ = _to_dense_demeaned(matrix, impute_rank, seed)
    return _variance_curve(np.linalg.svd(demeaned, compute_uv=False))
