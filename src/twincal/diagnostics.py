"""Subspace-alignment diagnostics between human and twin response matrices.

Alignment is measured between the leading singular subspaces of the demeaned,
imputed matrices: cosines of principal angles and the Frobenius distance
between the corresponding orthogonal projectors, each against a Gaussian and
a column-shuffled baseline. Each matrix is imputed and decomposed once; every
curve comes from its r_max leading singular vectors, so no n x n projector is
ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .completion import estimate_effective_rank, impute_dense
from .matcore import DataError, MaskedMatrix, check_integer, warn_at_caller

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


def _leading_basis(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading k left singular vectors, an orthonormal basis of their
    span, and all the singular values, from one thin SVD. The vectors are
    copied out of the factor, since a view would keep all of it alive."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError("expected a 2-d matrix")
    if not 1 <= k <= min(matrix.shape):
        raise DataError(f"k={k} exceeds the available rank bound {min(matrix.shape)}")
    left, sv, _ = np.linalg.svd(matrix, full_matrices=False)
    return left[:, :k].copy(), sv


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
    return _angle_curves(_leading_basis(a, k)[0], _leading_basis(b, k)[0])[0]


def projection_frobenius(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Frobenius distance between the two leading-k orthogonal projectors.

    Equal to ||Qa Qa' - Qb Qb'||_F = sqrt(2k - 2 * sum cos^2(theta_i)) and at
    most sqrt(2k); computed from the bases alone, without forming either
    projector.
    """
    return float(_angle_curves(_leading_basis(a, k)[0], _leading_basis(b, k)[0])[1][-1])


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
    matrix: MaskedMatrix, rank: int | None, seed: int
) -> tuple[np.ndarray, int]:
    """The imputed, column-demeaned matrix, a new array demeaned in place, and
    the imputation rank (0 if the matrix is fully observed)."""
    dense, used_rank = impute_dense(matrix, rank, seed)
    dense -= dense.mean(axis=0)
    return dense, used_rank


def alignment_report(
    human: MaskedMatrix,
    twin: MaskedMatrix,
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
    to the matrix dimensions with a warning. Both matrices are imputed and
    column-demeaned before taking singular subspaces: right singular vectors
    for the row-space axis, left for the column-space axis.
    Each of the human, twin and two baseline matrices takes one thin SVD.
    """
    axis = SubspaceAxis(axis)
    if rank is not None:
        check_integer("rank", rank, 1)
    h, human_impute_rank = _to_dense_demeaned(human, impute_rank, seed)
    if rank is None:
        if impute_rank is None and human_impute_rank:
            rank = human_impute_rank
        else:
            rank = estimate_effective_rank(human, seed=seed)
    row_space = axis is SubspaceAxis.ROW_SPACE
    if row_space:
        if h.shape[1] != twin.shape[1]:
            raise DataError("row-space comparison needs equal column counts")
    else:
        if h.shape[0] != twin.shape[0]:
            raise DataError("column-space comparison needs equal row counts")

    r_max = rank + 2
    limit = min(min(h.shape), min(twin.shape))
    if r_max > limit:
        warn_at_caller(f"r_max={r_max} exceeds the rank bound {limit}; clamping")
        r_max = limit

    # The human is decomposed first. The Gaussian baseline, drawn first from
    # the seed, is decomposed next, so that the permutations shuffling the
    # human in place (``h`` is this function's own) follow it in the stream.
    # The shuffled human is decomposed and dropped before the twin is imputed.
    q_human, human_spectrum = _leading_basis(h.T if row_space else h, r_max)
    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=twin.shape)
    gaussian -= gaussian.mean(axis=0)
    q_gaussian, _ = _leading_basis(gaussian.T if row_space else gaussian, r_max)
    del gaussian
    for j in range(h.shape[1]):
        h[:, j] = h[rng.permutation(h.shape[0]), j]
    q_shuffled, _ = _leading_basis(h.T if row_space else h, r_max)
    del h
    twin_dense = _to_dense_demeaned(twin, impute_rank, seed)[0]
    q_twin, twin_spectrum = _leading_basis(twin_dense.T if row_space else twin_dense, r_max)
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
        human_spectrum=human_spectrum,
        twin_spectrum=twin_spectrum,
    )


def variance_explained(matrix: MaskedMatrix, *, seed: int = 0) -> np.ndarray:
    """Cumulative fraction of variance captured by the leading directions.

    The matrix is imputed (at a searched rank) and its columns demeaned
    first; the curve is nondecreasing and ends at 1. Raises on an
    (effectively) zero matrix.
    """
    demeaned, _ = _to_dense_demeaned(matrix, None, seed)
    return _variance_curve(np.linalg.svd(demeaned, compute_uv=False))
