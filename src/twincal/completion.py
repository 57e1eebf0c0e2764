"""Matrix-completion solvers and effective-rank estimation.

Four solvers cover the direct-completion calibration paradigm: iterative
rank-constrained SVD imputation ("hsv"), its nuclear-norm-regularized variant
("ssv"), alternating least squares ("als"), and a warm-started human-only
refinement ("sp"). :func:`stacked_complete` applies the first three to the
stacked human/twin matrix with its missing target half-column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import ConvergenceWarning, DataError, MaskedMatrix, draw_covered_mask

__all__ = [
    "CompletionMethod",
    "CompletionConfig",
    "StackedTask",
    "hard_impute",
    "soft_impute",
    "als_impute",
    "synthetic_prior_impute",
    "stacked_complete",
    "estimate_effective_rank",
    "impute_dense",
    "DEFAULT_RANK_GRID",
]

DEFAULT_RANK_GRID = tuple(range(1, 9))


class CompletionMethod(str, Enum):
    HARD_SVD = "hsv"
    SOFT_SVD = "ssv"
    ALS = "als"
    SYNTHETIC_PRIOR = "sp"


@dataclass(frozen=True)
class CompletionConfig:
    """Solver choice plus shared hyperparameters.

    ``tol`` is the relative Frobenius-change stopping criterion on the
    low-rank reconstruction. All solvers are deterministic given the input
    and config.
    """

    method: CompletionMethod
    rank: int
    lam: float = 0.0
    max_iters: int = 200
    tol: float = 1e-5

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", CompletionMethod(self.method))
        if isinstance(self.rank, bool) or not isinstance(self.rank, (int, np.integer)):
            raise DataError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise DataError(f"rank must be positive, got {self.rank}")
        if self.lam < 0:
            raise DataError("lam must be nonnegative")
        if self.max_iters < 1:
            raise DataError("max_iters must be positive")
        if self.tol <= 0:
            raise DataError("tol must be positive")


@dataclass(frozen=True)
class StackedTask:
    """Human matrix plus a twin matrix with one extra, fully observed column.

    ``target_col`` indexes the twin column with no human counterpart; in the
    stacked view the human half of that column is entirely missing. The
    remaining twin columns correspond one-to-one, in order, with the human
    columns.
    """

    human: MaskedMatrix
    twin: MaskedMatrix
    target_col: int

    def __post_init__(self) -> None:
        if self.twin.n_rows != self.human.n_rows:
            raise DataError("human and twin must have equal row counts")
        if self.twin.n_cols != self.human.n_cols + 1:
            raise DataError("twin must have exactly one more column than human")
        if not 0 <= self.target_col < self.twin.n_cols:
            raise DataError(f"target_col {self.target_col} out of range")
        if not self.twin.mask[:, self.target_col].any():
            raise DataError("twin target column has no observed entries")

    @property
    def feature_cols(self) -> np.ndarray:
        cols = np.arange(self.twin.n_cols)
        return cols[cols != self.target_col]


def _check_rank(rank: int, shape: tuple[int, int]) -> None:
    if rank > min(shape):
        raise DataError(f"rank {rank} exceeds min{shape}")


def _mean_filled(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` with each missing cell set to its column's observed mean
    (0 for a column with no observed cell)."""
    counts = np.maximum(mask.sum(axis=0), 1)
    col_means = np.where(mask, values, 0.0).sum(axis=0) / counts
    return np.where(mask, values, col_means)


def _small_change(recon: np.ndarray, recon_prev: np.ndarray, tol: float) -> bool:
    """The stop rule: relative Frobenius change of the reconstruction < tol."""
    denom = max(float(np.linalg.norm(recon_prev)), 1e-12)
    return float(np.linalg.norm(recon - recon_prev)) / denom < tol


def _svd_impute(
    values: np.ndarray,
    mask: np.ndarray,
    start: np.ndarray,
    rank: int,
    lam: float,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The refill kernel behind hard/soft/synthetic-prior impute and the rank search.

    From ``start`` (observed cells equal to ``values``), alternate between a
    (soft-)thresholded rank-``rank`` SVD of the filled matrix and refilling
    missing cells from the reconstruction. Returns (filled, reconstruction,
    converged); observed cells of ``filled`` equal ``values`` exactly.
    """
    filled = recon = start
    recon_prev: np.ndarray | None = None
    for _ in range(max_iters):
        left, sv, right_t = np.linalg.svd(filled, full_matrices=False)
        if lam > 0:
            sv = np.maximum(sv - lam, 0.0)
        sv[rank:] = 0.0
        recon = (left * sv) @ right_t
        filled = np.where(mask, values, recon)
        if recon_prev is not None and _small_change(recon, recon_prev, tol):
            return filled, recon, True
        recon_prev = recon
    return filled, recon, False


def _warn_not_converged(name: str, max_iters: int) -> None:
    warnings.warn(
        f"{name} did not converge within {max_iters} iterations; "
        "returning the best iterate",
        ConvergenceWarning,
        stacklevel=3,
    )


def _checked_start(matrix: MaskedMatrix, rank: int) -> np.ndarray:
    """Check the rank and the row/column coverage, then the column-mean start."""
    _check_rank(rank, matrix.shape)
    matrix.require_coverage()
    return _mean_filled(matrix.values, matrix.mask)


def hard_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Rank-constrained iterative SVD imputation.

    Observed entries are preserved exactly; missing entries come from the
    final rank-``cfg.rank`` reconstruction.
    """
    if cfg.method is not CompletionMethod.HARD_SVD:
        raise DataError(f"expected method 'hsv', got {cfg.method.value!r}")
    filled, _, converged = _svd_impute(
        matrix.values, matrix.mask, _checked_start(matrix, cfg.rank),
        cfg.rank, 0.0, cfg.max_iters, cfg.tol,
    )
    if not converged:
        _warn_not_converged("hard_impute", cfg.max_iters)
    return filled


def soft_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Like :func:`hard_impute` with singular values soft-thresholded by lam
    before the rank truncation."""
    if cfg.method is not CompletionMethod.SOFT_SVD:
        raise DataError(f"expected method 'ssv', got {cfg.method.value!r}")
    filled, _, converged = _svd_impute(
        matrix.values, matrix.mask, _checked_start(matrix, cfg.rank),
        cfg.rank, cfg.lam, cfg.max_iters, cfg.tol,
    )
    if not converged:
        _warn_not_converged("soft_impute", cfg.max_iters)
    return filled


def _als_half_step(
    target: np.ndarray, weights: np.ndarray, basis: np.ndarray, lam: float
) -> np.ndarray:
    """Ridge-solve each row of ``target`` against the observed rows of ``basis``.

    ``weights`` is the 0/1 float mask and ``target`` is zero where it is 0.
    Row i's normal matrix is the sum of the outer products of the basis rows
    it observes, so one product of ``weights`` with those outer products
    gives all of them as a (rows, r, r) stack, solved in one batched call.
    """
    n, rank = target.shape[0], basis.shape[1]
    outer = (basis[:, :, None] * basis[:, None, :]).reshape(-1, rank * rank)
    gram = (weights @ outer).reshape(n, rank, rank) + lam * np.eye(rank)
    rhs = target @ basis
    try:
        return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise DataError("singular normal equations in ALS; use lam > 0") from None


def _als_objective(
    values: np.ndarray, mask: np.ndarray, a: np.ndarray, b: np.ndarray, lam: float
) -> float:
    resid = np.where(mask, values - a @ b.T, 0.0)
    return float((resid**2).sum() + lam * ((a**2).sum() + (b**2).sum()))


def _als_sweeps(matrix: MaskedMatrix, cfg: CompletionConfig):
    """Yield the factors (A, B) after each alternating half-step.

    Factors start from the rank-r SVD of the column-mean-filled matrix:
    deterministic, and immune to the saddle stalls random factors hit on
    matrices with an entirely missing column (the stacked-task shape).
    """
    left, sv, right_t = np.linalg.svd(
        _checked_start(matrix, cfg.rank), full_matrices=False
    )
    root = np.sqrt(sv[: cfg.rank])
    a = left[:, : cfg.rank] * root
    b = right_t[: cfg.rank].T * root
    values = np.where(matrix.mask, matrix.values, 0.0)
    weights = matrix.mask.astype(np.float64)
    for _ in range(cfg.max_iters):
        a = _als_half_step(values, weights, b, cfg.lam)
        yield a, b
        b = _als_half_step(values.T, weights.T, a, cfg.lam)
        yield a, b


def als_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Alternating ridge solves for a rank-``cfg.rank`` factorization A @ B.T.

    Returns the full reconstruction (observed cells are represented through
    the factorization, not copied). The squared-error-plus-ridge objective is
    nonincreasing across half-steps because each solve is exact.
    """
    if cfg.method is not CompletionMethod.ALS:
        raise DataError(f"expected method 'als', got {cfg.method.value!r}")
    recon_prev: np.ndarray | None = None
    for a, b in _als_sweeps(matrix, cfg):
        recon = a @ b.T
        if recon_prev is not None and _small_change(recon, recon_prev, cfg.tol):
            return recon
        recon_prev = recon
    _warn_not_converged("als_impute", cfg.max_iters)
    return recon


def synthetic_prior_impute(task: StackedTask, cfg: CompletionConfig) -> np.ndarray:
    """Refine the twin's target column by completion on the human data alone.

    The human matrix is augmented with one extra, entirely missing column
    whose initial estimate is the twin's target column; the usual iterative
    SVD refill then updates it jointly with the human missing cells. Returns
    the refined target column.
    """
    if cfg.method is not CompletionMethod.SYNTHETIC_PRIOR:
        raise DataError(f"expected method 'sp', got {cfg.method.value!r}")
    if not task.twin.mask[:, task.target_col].all():
        raise DataError(
            "the warm start needs a fully observed twin target column; "
            "impute the twin first"
        )
    task.human.require_coverage()
    n, m = task.human.shape
    _check_rank(cfg.rank, (n, m + 1))
    twin_col = task.twin.values[:, task.target_col]
    values = np.column_stack([task.human.values, twin_col])
    mask = np.column_stack([task.human.mask, np.zeros(n, dtype=bool)])
    start = _mean_filled(values, mask)
    start[:, m] = twin_col
    filled, _, converged = _svd_impute(
        values, mask, start, cfg.rank, 0.0, cfg.max_iters, cfg.tol
    )
    if not converged:
        _warn_not_converged("synthetic_prior_impute", cfg.max_iters)
    return filled[:, m]


def stacked_complete(task: StackedTask, cfg: CompletionConfig) -> np.ndarray:
    """Impute the stacked human/twin matrix and extract the missing half-column.

    The stacked matrix has the human block (with an entirely missing target
    column) on top of the twin block; any of the hsv/ssv/als solvers may be
    used. Returns the human block's completed target column.
    """
    if cfg.method is CompletionMethod.SYNTHETIC_PRIOR:
        raise DataError("stacked_complete supports hsv, ssv, and als only")
    n = task.human.n_rows
    m_plus = task.twin.n_cols
    top_values = np.full((n, m_plus), np.nan)
    top_mask = np.zeros((n, m_plus), dtype=bool)
    top_values[:, task.feature_cols] = task.human.values
    top_mask[:, task.feature_cols] = task.human.mask
    stacked = MaskedMatrix(
        np.concatenate([top_values, task.twin.values], axis=0),
        np.concatenate([top_mask, task.twin.mask], axis=0),
    )
    solver = {
        CompletionMethod.HARD_SVD: hard_impute,
        CompletionMethod.SOFT_SVD: soft_impute,
        CompletionMethod.ALS: als_impute,
    }[cfg.method]
    completed = solver(stacked, cfg)
    return completed[:n, task.target_col]


def estimate_effective_rank(
    matrix: MaskedMatrix,
    rank_grid,
    holdout_frac: float = 0.1,
    seed: int = 0,
    *,
    max_iters: int = 200,
    tol: float = 1e-5,
) -> int:
    """Pick the rank minimizing held-out imputation RMSE.

    A seeded uniform sample of ``holdout_frac`` of the observed entries is
    masked out (resampling up to 10 times if that breaks row/column
    coverage), the hard-SVD refill runs at each grid rank from one
    column-mean start, and the rank with the smallest held-out RMSE wins;
    ties break toward the smaller rank. An unconverged refill is scored as
    it stands, without a warning.
    """
    grid = sorted(int(r) for r in rank_grid)
    if not grid:
        raise DataError("rank_grid must be nonempty")
    if grid[0] < 1:
        raise DataError(f"rank must be positive, got {grid[0]}")
    if max_iters < 1 or tol <= 0:
        raise DataError("max_iters and tol must be positive")
    if not 0.0 < holdout_frac <= 0.5:
        raise DataError("holdout_frac must lie in (0, 0.5]")
    _check_rank(grid[-1], matrix.shape)
    matrix.require_coverage()

    obs = np.argwhere(matrix.mask)
    n_hold = max(1, int(round(holdout_frac * len(obs))))
    rng = np.random.default_rng(seed)
    picks = []  # the held-out cells in draw order, the order the RMSE sums them

    def draw() -> np.ndarray:
        picks.append(rng.choice(len(obs), size=n_hold, replace=False))
        candidate = matrix.mask.copy()
        candidate[obs[picks[-1], 0], obs[picks[-1], 1]] = False
        return candidate

    train_mask = draw_covered_mask(
        draw, "a holdout preserving row/column coverage"
    )
    rows, cols = obs[picks[-1]].T
    truth = matrix.values[rows, cols]
    start = _mean_filled(matrix.values, train_mask)
    rmses = []
    for rank in grid:
        filled, _, _ = _svd_impute(
            matrix.values, train_mask, start, rank, 0.0, max_iters, tol
        )
        rmses.append(float(np.sqrt(np.mean((filled[rows, cols] - truth) ** 2))))
    return grid[int(np.argmin(rmses))]


def impute_dense(
    matrix: MaskedMatrix,
    rank: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Hard-SVD impute to a dense matrix, estimating the rank if unset.

    Fully observed inputs pass through untouched (returned rank 0). The
    convergence warning is suppressed here: callers of this convenience path
    want the best fill, and the stopping tolerance governs its quality.
    """
    if matrix.is_fully_observed():
        return matrix.values.copy(), 0
    if rank is None:
        grid = [r for r in DEFAULT_RANK_GRID if r <= min(matrix.shape)]
        rank = estimate_effective_rank(matrix, grid, seed=seed)
    cfg = CompletionConfig(CompletionMethod.HARD_SVD, rank=rank)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return hard_impute(matrix, cfg), rank
