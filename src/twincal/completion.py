"""Matrix-completion solvers and effective-rank estimation.

Four solvers cover the direct-completion calibration paradigm: iterative
rank-constrained SVD imputation ("hsv"), its nuclear-norm-regularized variant
("ssv"), alternating least squares ("als"), and a warm-started human-only
refinement ("sp"). :func:`held_out_columns` predicts human columns held out
in place; :func:`stacked_complete` and :func:`synthetic_prior_impute` are its
one-target cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import (
    ConvergenceWarning,
    DataError,
    MaskedMatrix,
    check_integer,
    check_real,
    draw_covered_mask,
    warn_at_caller,
)

__all__ = [
    "CompletionMethod",
    "CompletionConfig",
    "StackedTask",
    "hard_impute",
    "soft_impute",
    "als_impute",
    "synthetic_prior_impute",
    "stacked_complete",
    "held_out_columns",
    "estimate_effective_rank",
    "impute_dense",
    "DEFAULT_RANK_GRID",
]

DEFAULT_RANK_GRID = tuple(range(1, 9))
# the share of the observed cells the rank search holds out
_RANK_HOLDOUT_FRAC = 0.1


class CompletionMethod(str, Enum):
    HARD_SVD = "hsv"
    SOFT_SVD = "ssv"
    ALS = "als"
    SYNTHETIC_PRIOR = "sp"

    @property
    def completes_human_alone(self) -> bool:
        """sp completes the human matrix alone, so the human must cover every
        row and column; hsv, ssv and als complete it stacked on the twin."""
        return self is CompletionMethod.SYNTHETIC_PRIOR


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
        check_integer("rank", self.rank, 1)
        check_integer("max_iters", self.max_iters, 1)
        check_real("lam", self.lam)
        check_real("tol", self.tol)
        if self.lam < 0:
            raise DataError("lam must be nonnegative")
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


def _check_rank(rank: int, shape: tuple[int, int], what: str = "") -> None:
    """Reject a rank above min(shape); ``what`` says which matrix has that shape."""
    if rank > min(shape):
        raise DataError(f"rank {rank} exceeds min{shape}{what}")


def _mean_filled(values: np.ndarray, mask: np.ndarray, prior=None) -> np.ndarray:
    """``values`` with each missing cell set to its column's observed mean
    (0 for a column with no observed cell); a ``prior`` (column j, values)
    then sets column j: the kernels' start."""
    counts = np.maximum(mask.sum(axis=0), 1)
    col_means = np.where(mask, values, 0.0).sum(axis=0) / counts
    start = np.where(mask, values, col_means)
    if prior is not None:
        start[:, prior[0]] = prior[1]
    return start


def _small_change(recon: np.ndarray, recon_prev: np.ndarray, tol: float) -> bool:
    """The stop rule: relative Frobenius change of the reconstruction < tol.

    The difference is taken into ``recon_prev``, which is left as scratch.
    """
    denom = max(float(np.linalg.norm(recon_prev)), 1e-12)
    change = np.subtract(recon, recon_prev, out=recon_prev)
    return float(np.linalg.norm(change)) / denom < tol


def _refill(
    values: np.ndarray,
    mask: np.ndarray,
    rank: int,
    lam: float,
    max_iters: int,
    tol: float,
    prior: tuple[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The refill kernel behind hard/soft/synthetic-prior impute and the rank search.

    From the column-mean start (column j set from a ``prior`` (j, values)),
    alternate between a (soft-)thresholded rank-``rank`` truncated SVD of
    the filled matrix and refilling missing cells from the reconstruction.
    Returns (filled, reconstruction, converged); observed cells of
    ``filled`` equal ``values`` exactly.

    No thin SVD is taken. The top ``rank`` singular directions V of the
    filled matrix X on its smaller side are the top eigenvectors of its Gram
    (XᵀX for a tall X, XXᵀ for a wide one; a symmetric product on one
    buffer), with singular values σ = sqrt(max(eigenvalue, 0)). The
    reconstruction is X·V·diag(f(σ)/σ)·Vᵀ, from the left for a wide X, with
    f(σ) = σ for the hard threshold and max(σ - lam, 0) for the soft one; a
    σ at or below lam gets the factor 0.

    Three full-size buffers are the loop's own: the fill, refilled in place
    once X·V is taken, and two reconstructions that take turns, the stop
    rule's difference landing in the older one. The column-mean start is
    held only until the first refill makes the fill anew.
    """
    filled = _mean_filled(values, mask, prior)
    # the last two reconstruction products (transposed for a wide X)
    product = prev = None
    tall = filled.shape[0] >= filled.shape[1]
    for _ in range(max_iters):
        x = filled if tall else filled.T
        eig, vecs = np.linalg.eigh(x.T @ x)
        top = vecs[:, -rank:]
        scores = x @ top
        if lam > 0:
            sv = np.sqrt(np.maximum(eig[-rank:], 0.0))
            scores *= np.divide(sv - lam, sv, out=np.zeros(rank), where=sv > lam)
        product, prev = np.matmul(scores, top.T, out=prev), product
        recon = product if tall else product.T
        if prev is None:  # the first refill: a new fill, and the start is dropped
            filled = np.where(mask, values, recon)
        else:
            np.copyto(filled, recon)
            np.copyto(filled, values, where=mask)
            if _small_change(product, prev, tol):
                return filled, recon, True
    return filled, recon, False


def _warn_not_converged(name: str, max_iters: int) -> None:
    warn_at_caller(f"{name} did not converge within {max_iters} iterations; "
                   "returning the best iterate", ConvergenceWarning)


def _solve(values: np.ndarray, mask: np.ndarray, cfg: CompletionConfig,
           prior: tuple[int, np.ndarray] | None = None) -> tuple[np.ndarray, bool]:
    """(result, converged) of ``cfg.method``: the refill kernel's fill for hsv,
    ssv and sp (lam for ssv only, the ``prior`` column for sp), the ALS
    reconstruction for als."""
    if cfg.method is CompletionMethod.ALS:
        return _als(values, mask, cfg)
    lam = cfg.lam if cfg.method is CompletionMethod.SOFT_SVD else 0.0
    filled, _, converged = _refill(values, mask, cfg.rank, lam, cfg.max_iters, cfg.tol, prior)
    return filled, converged


def _impute(matrix: MaskedMatrix, cfg: CompletionConfig, method: CompletionMethod,
            name: str) -> np.ndarray:
    """Check that ``cfg`` selects ``method``, solve, and warn if unconverged."""
    if cfg.method is not method:
        raise DataError(f"expected method {method.value!r}, got {cfg.method.value!r}")
    _check_rank(cfg.rank, matrix.shape)
    matrix.require_coverage()
    result, converged = _solve(matrix.values, matrix.mask, cfg)
    if not converged:
        _warn_not_converged(name, cfg.max_iters)
    return result


def hard_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Rank-constrained iterative SVD imputation.

    Observed entries are preserved exactly; missing entries come from the
    final rank-``cfg.rank`` reconstruction.
    """
    return _impute(matrix, cfg, CompletionMethod.HARD_SVD, "hard_impute")


def soft_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Like :func:`hard_impute` with singular values soft-thresholded by lam
    before the rank truncation."""
    return _impute(matrix, cfg, CompletionMethod.SOFT_SVD, "soft_impute")


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


def _als_sweeps(values: np.ndarray, mask: np.ndarray, cfg: CompletionConfig):
    """Yield the factors (A, B) after each alternating half-step.

    Factors start from the rank-r SVD of the column-mean fill: deterministic,
    and immune to the saddle stalls random factors hit on matrices with an
    entirely missing column (the held-out shape).
    """
    left, sv, right_t = np.linalg.svd(_mean_filled(values, mask), full_matrices=False)
    root = np.sqrt(sv[: cfg.rank])
    a = left[:, : cfg.rank] * root
    b = right_t[: cfg.rank].T * root
    values = np.where(mask, values, 0.0)
    weights = mask.astype(np.float64)
    for _ in range(cfg.max_iters):
        a = _als_half_step(values, weights, b, cfg.lam)
        yield a, b
        b = _als_half_step(values.T, weights.T, a, cfg.lam)
        yield a, b


def _als(values: np.ndarray, mask: np.ndarray, cfg: CompletionConfig) -> tuple[np.ndarray, bool]:
    """The ALS kernel: (last reconstruction A @ B.T, converged)."""
    recon_prev: np.ndarray | None = None
    for a, b in _als_sweeps(values, mask, cfg):
        recon = a @ b.T
        if recon_prev is not None and _small_change(recon, recon_prev, cfg.tol):
            return recon, True
        recon_prev = recon
    return recon, False


def als_impute(matrix: MaskedMatrix, cfg: CompletionConfig) -> np.ndarray:
    """Alternating ridge solves for a rank-``cfg.rank`` factorization A @ B.T.

    Returns the full reconstruction (observed cells are represented through
    the factorization, not copied). The squared-error-plus-ridge objective is
    nonincreasing across half-steps because each solve is exact.
    """
    return _impute(matrix, cfg, CompletionMethod.ALS, "als_impute")


def held_out_columns(human: MaskedMatrix, twin: MaskedMatrix, cfg: CompletionConfig,
                     prior: np.ndarray | None, targets) -> tuple[np.ndarray, np.ndarray]:
    """Complete each target column j of ``human`` with that column held out.

    hsv, ssv and als solve [human; twin] (equal shapes) with the human cells
    of column j masked; sp solves ``human`` alone with column j masked and
    started from ``prior[:, j]``. Other cells start from their column's
    observed mean. Every row, and every column but sp's column j, needs an
    observed cell. Returns the n x t predictions and the t converged flags,
    without warning.
    """
    n = human.n_rows
    sp = cfg.method.completes_human_alone
    blocks = (human,) if sp else (human, twin)
    values = np.concatenate([block.values for block in blocks])
    observed = np.concatenate([block.mask for block in blocks])
    problem = "the human matrix" if sp else "the human and twin matrices stacked"
    _check_rank(cfg.rank, values.shape, f" of {problem}, which {cfg.method.value} completes")
    predictions = np.empty((n, len(targets)))
    converged = np.empty(len(targets), dtype=bool)
    for t, j in enumerate(targets):
        mask = observed.copy()
        mask[:n, j] = False
        cols, rows = mask.any(axis=0), mask.any(axis=1)
        cols[j] |= sp  # sp starts column j from the prior
        for what, covered in (("column", cols), ("row", rows)):
            if not covered.all():
                raise DataError(f"{what} {np.argmin(covered)} has no observed entries "
                                f"with column {j} held out")
        result, converged[t] = _solve(values, mask, cfg, (j, prior[:, j]) if sp else None)
        predictions[:, t] = result[:n, j]
        del result  # not held while the next target is solved
    return predictions, converged


def _one_target(task: StackedTask, cfg: CompletionConfig, prior, name: str) -> np.ndarray:
    """:func:`held_out_columns` for the task's target, with an all-missing
    human column inserted at ``target_col``; warns if unconverged."""
    j = task.target_col
    human = MaskedMatrix(
        np.insert(task.human.values, j, np.nan, axis=1),
        np.insert(task.human.mask, j, False, axis=1),
    )
    predictions, converged = held_out_columns(human, task.twin, cfg, prior, [j])
    if not converged[0]:
        _warn_not_converged(name, cfg.max_iters)
    return predictions[:, 0]


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
    return _one_target(task, cfg, task.twin.values, "synthetic_prior_impute")


def stacked_complete(task: StackedTask, cfg: CompletionConfig) -> np.ndarray:
    """Impute the stacked human/twin matrix and extract the missing half-column.

    The stacked matrix has the human block (with an entirely missing target
    column) on top of the twin block; any of the hsv/ssv/als solvers may be
    used. Returns the human block's completed target column.
    """
    if cfg.method is CompletionMethod.SYNTHETIC_PRIOR:
        raise DataError("stacked_complete supports hsv, ssv, and als only")
    return _one_target(task, cfg, None, "stacked_complete")


def estimate_effective_rank(matrix: MaskedMatrix, seed: int = 0) -> int:
    """Pick the rank minimizing held-out imputation RMSE.

    The grid is the ranks 1 to 8 (``DEFAULT_RANK_GRID``) that do not exceed
    min(n, m). A seeded uniform sample of a tenth of the observed
    entries is masked out (resampling up to 10 times if that breaks
    row/column coverage), the hard-SVD refill runs at each grid rank from
    the column-mean start with the step cap and tolerance
    :func:`impute_dense` fills with (the :class:`CompletionConfig`
    defaults), and the rank with the smallest held-out RMSE wins; ties break
    toward the smaller rank. An unconverged refill is scored as it stands,
    without a warning.
    """
    matrix.require_coverage()
    grid = [r for r in DEFAULT_RANK_GRID if r <= min(matrix.shape)]

    obs = np.argwhere(matrix.mask)
    n_hold = max(1, int(round(_RANK_HOLDOUT_FRAC * len(obs))))
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
    rmses = []
    for rank in grid:
        cfg = CompletionConfig(CompletionMethod.HARD_SVD, rank=rank)
        guess = _solve(matrix.values, train_mask, cfg)[0][rows, cols]
        rmses.append(float(np.sqrt(np.mean((guess - truth) ** 2))))
    return grid[int(np.argmin(rmses))]


def impute_dense(
    matrix: MaskedMatrix,
    rank: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Hard-SVD impute to a dense matrix, estimating the rank if unset.

    Fully observed inputs pass through untouched (returned rank 0). No
    convergence warning is raised: callers of this convenience path want
    the best fill, and the stopping tolerance governs its quality.
    """
    if matrix.is_fully_observed():
        return matrix.values.copy(), 0
    if rank is None:
        rank = estimate_effective_rank(matrix, seed=seed)
    cfg = CompletionConfig(CompletionMethod.HARD_SVD, rank=rank)
    _check_rank(rank, matrix.shape)
    matrix.require_coverage()
    filled, _ = _solve(matrix.values, matrix.mask, cfg)
    return filled, rank
