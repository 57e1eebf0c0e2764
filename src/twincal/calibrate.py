"""Fit-and-transfer calibration, adaptive gating, and the leave-one-out harness.

The core move: fit a model that predicts the target question from the other
questions on the twin matrix, then apply it to the human matrix. Preprocessing
(separate hard-SVD imputation of each matrix, then per-column standardization)
is an explicit step — :func:`prepare_pair` — so callers control whether the
fit runs on the standardized or the raw scale; predictions always come back on
the original scale, de-standardized with the twin target column's stats (the
human target stats are unknowable since that column is entirely missing).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .completion import CompletionConfig, held_out_columns, impute_dense
from .matcore import (
    ColumnStats,
    DataError,
    MaskedMatrix,
    UndefinedCorrelationError,
    mean_correlation,
    pearson,
    standardize_columns,
)
from .regress import RegressConfig, fit_columns

__all__ = [
    "Orientation",
    "PreparedPair",
    "CalibrationTask",
    "TransferDiagnostic",
    "EvalReport",
    "prepare_pair",
    "fit_and_transfer",
    "adaptive_transfer",
    "calibrate_new_user",
    "loo_evaluate",
    "sweep_thresholds",
]


class Orientation(str, Enum):
    NEW_QUESTION = "new_question"
    NEW_USER = "new_user"


@dataclass(frozen=True)
class PreparedPair:
    """Imputed, optionally standardized human/twin matrices plus their stats.

    ``human`` has one column per feature question; ``twin`` has the same
    columns plus the target column, all dense. Identity stats mark a raw
    (non-standardized) preparation. ``twin_imputed`` is the imputed twin on
    its own scale: the leave-one-out baseline and gate fallback.
    """

    human: np.ndarray
    twin: np.ndarray
    human_stats: ColumnStats
    twin_stats: ColumnStats
    impute_rank_human: int
    impute_rank_twin: int
    standardized: bool
    twin_imputed: np.ndarray


@dataclass(frozen=True)
class TransferDiagnostic:
    """Synthetic-system fit quality: the in-sample MSE the gate compares with tau."""

    train_mse: float


@dataclass(frozen=True)
class CalibrationTask:
    """One transfer problem: human n x m, twin with one extra target column.

    For the new-user orientation the matrices are interpreted transposed
    (twin has one extra row: the new user). ``method`` is a regression or
    completion config.
    """

    human: MaskedMatrix
    twin: MaskedMatrix
    target_index: int
    method: RegressConfig | CompletionConfig
    orientation: Orientation = Orientation.NEW_QUESTION
    impute_rank: int | None = None
    standardize: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "orientation", Orientation(self.orientation))
        shared, extra = (("row", "column") if self.orientation is Orientation.NEW_QUESTION
                         else ("column", "row"))
        human, twin = self._oriented()
        if twin.n_rows != human.n_rows:
            raise DataError(f"human and twin must have equal {shared} counts")
        if twin.n_cols != human.n_cols + 1:
            raise DataError(f"twin must have exactly one extra (target) {extra}")
        if not 0 <= self.target_index < twin.n_cols:
            raise DataError(f"target_index {self.target_index} out of range")
        if not twin.mask[:, self.target_index].all():
            raise DataError("twin must cover the target index fully")

    def _oriented(self) -> tuple[MaskedMatrix, MaskedMatrix]:
        """Human and twin with the target as a twin column (transposed for a new user)."""
        if self.orientation is Orientation.NEW_USER:
            return self.human.transpose(), self.twin.transpose()
        return self.human, self.twin


def prepare_pair(
    human: MaskedMatrix,
    twin: MaskedMatrix,
    *,
    rank: int | None = None,
    standardize: bool = True,
    seed: int = 0,
) -> PreparedPair:
    """Impute each matrix separately, then (optionally) standardize columns.

    With ``standardize`` off, identity stats are attached so de-
    standardization is a no-op and downstream fits run on the raw scale.
    """
    human_dense, rank_h = impute_dense(human, rank, seed)
    twin_imputed, rank_t = impute_dense(twin, rank, seed)
    if standardize:
        h_std, h_stats = standardize_columns(MaskedMatrix.from_dense(human_dense))
        t_std, t_stats = standardize_columns(MaskedMatrix.from_dense(twin_imputed))
        human_dense, twin_dense = h_std.values, t_std.values
    else:
        twin_dense = twin_imputed
        h_stats = ColumnStats.identity(human.n_cols)
        t_stats = ColumnStats.identity(twin.n_cols)
    return PreparedPair(
        human_dense, twin_dense, h_stats, t_stats, rank_h, rank_t, standardize,
        twin_imputed,
    )


def _transfer(
    twin: np.ndarray, human: np.ndarray, cfg: RegressConfig, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The leave-one-out engine: fit each target on the twin, apply to the human.

    Target column j of ``twin`` is regressed on its other columns, and the
    fit is applied to the same columns of ``human`` (its column j, if any,
    is ignored). Returns the per-target train MSEs and the human predictions
    (n_human x len(targets)), both on the fitting scale. Every family fits
    all targets in one :func:`~twincal.regress.fit_columns` call, so fits
    and transfers are one prediction each.
    """
    model = fit_columns(twin, cfg, exclude=targets)
    # C order (a stacked network predicts a transposed view), so every
    # family's MSEs sum in the same order
    fitted = np.ascontiguousarray(model.predict(twin))
    pred = model.predict(human)
    # in place: the n x t residuals are the largest temporaries of the engine
    fitted -= twin[:, targets]
    return np.mean(np.square(fitted, out=fitted), axis=0), pred


def fit_and_transfer(
    task: CalibrationTask,
) -> tuple[np.ndarray, TransferDiagnostic]:
    """Fit target-from-features on the twin matrix and apply to the human one.

    The model is trained on the (prepared) twin feature columns against the
    twin target column, its in-sample MSE is recorded on the fitting scale,
    and the human-matrix prediction is returned de-standardized with the twin
    target column's stats.
    """
    if not isinstance(task.method, RegressConfig):
        raise DataError("fit_and_transfer requires a regression method")
    pair = prepare_pair(*task._oriented(), rank=task.impute_rank,
                        standardize=task.standardize, seed=task.seed)
    j = task.target_index
    # the human matrix has no target column; a zero one aligns it with the twin
    human = np.insert(pair.human, j, 0.0, axis=1)
    train_mses, pred = _transfer(pair.twin, human, task.method, np.array([j]))
    prediction = pair.twin_stats.invert_column(pred[:, 0], j)
    return prediction, TransferDiagnostic(float(train_mses[0]))


def adaptive_transfer(
    task: CalibrationTask, tau: float, fallback: np.ndarray
) -> np.ndarray:
    """Gate calibration on the synthetic-system training MSE.

    Returns the calibrated prediction when train_mse < tau and the provided
    fallback (normally the raw twin target column) otherwise; tau = 0 always
    falls back, tau = inf always transfers.
    """
    _check_tau(tau)
    fallback = np.asarray(fallback, dtype=np.float64)
    prediction, diag = fit_and_transfer(task)
    if fallback.shape != prediction.shape:
        raise DataError("fallback shape must match the prediction")
    if diag.train_mse < tau:
        return prediction
    return fallback.copy()


def calibrate_new_user(task: CalibrationTask) -> np.ndarray:
    """Predict a new user's responses by transposing and transferring.

    Delegates to :func:`fit_and_transfer` on the transposed matrices, so the
    new user plays the role of a new question.
    """
    if task.orientation is not Orientation.NEW_USER:
        raise DataError("calibrate_new_user requires a new_user task")
    prediction, _ = fit_and_transfer(task)
    return prediction


# ---------------------------------------------------------------------------
# Leave-one-out evaluation harness.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetResult:
    index: int
    corr: float | None
    baseline_corr: float | None
    train_mse: float | None
    transferred: bool
    skipped: bool


@dataclass(frozen=True)
class EvalReport:
    """Per-target correlations plus aggregate means and the twin baseline."""

    per_target: tuple[TargetResult, ...]
    mean: float
    se: float
    baseline_mean: float
    baseline_se: float
    pct_improvement: float
    skipped_count: int
    fisher_z: bool
    orientation: Orientation
    method_label: str

    def to_json_dict(self) -> dict:
        return {
            "method": self.method_label,
            "orientation": self.orientation.value,
            "fisher_z": self.fisher_z,
            "mean": self.mean,
            "se": self.se,
            "baseline_mean": self.baseline_mean,
            "baseline_se": self.baseline_se,
            "pct_improvement": self.pct_improvement,
            "skipped_count": self.skipped_count,
            "per_target": [
                {
                    "index": r.index,
                    "corr": r.corr,
                    "baseline_corr": r.baseline_corr,
                    "train_mse": r.train_mse,
                    "transferred": r.transferred,
                    "skipped": r.skipped,
                }
                for r in self.per_target
            ],
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["method", "target", "corr", "baseline_corr", "train_mse",
                 "transferred", "skipped"]]
        for r in self.per_target:
            rows.append([
                self.method_label,
                r.index,
                "" if r.corr is None else "%.17g" % r.corr,
                "" if r.baseline_corr is None else "%.17g" % r.baseline_corr,
                "" if r.train_mse is None else "%.17g" % r.train_mse,
                int(r.transferred),
                int(r.skipped),
            ])
        return rows


def _method_label(method) -> str:
    if isinstance(method, RegressConfig):
        return method.family
    return method.method.value


def _aggregate(
    results: list[TargetResult],
    fisher_z: bool,
    orientation: Orientation,
    label: str,
) -> EvalReport:
    kept = [r for r in results if not r.skipped]
    corrs = np.array([r.corr for r in kept], dtype=np.float64)
    bases = np.array([r.baseline_corr for r in kept], dtype=np.float64)
    if corrs.size:
        mean, se = mean_correlation(corrs, fisher_z)
        b_mean, b_se = mean_correlation(bases, fisher_z)
    else:
        mean = se = b_mean = b_se = np.nan
    pct = 100.0 * (mean - b_mean) / abs(b_mean) if b_mean else np.nan
    return EvalReport(
        per_target=tuple(results),
        mean=mean,
        se=se,
        baseline_mean=b_mean,
        baseline_se=b_se,
        pct_improvement=pct,
        skipped_count=sum(r.skipped for r in results),
        fisher_z=fisher_z,
        orientation=orientation,
        method_label=label,
    )


def _loo_predictions(
    human: MaskedMatrix,
    twin: MaskedMatrix,
    method,
    *,
    impute_rank: int | None,
    standardize: bool,
    seed: int,
):
    """Per-target predictions, train MSEs, and fallbacks for a matched pair.

    Both matrices are imputed once up front (the protocol imputes each side
    separately before the leave-one-out loop); regression methods then fit
    every target through the shared-Gram engine on the prepared pair, while
    completion methods complete the raw masked matrices with each target
    column held out in place, its unconverged targets left unreported.
    """
    if human.shape != twin.shape:
        raise DataError(
            f"leave-one-out needs human and twin of equal shape, got "
            f"{human.shape} and {twin.shape}; if the twin carries a trailing "
            "held-out column, drop it (synth writes twin_features.csv for this)"
        )
    m = human.n_cols
    cols = np.arange(m)
    if isinstance(method, RegressConfig):
        pair = prepare_pair(human, twin, rank=impute_rank, standardize=standardize,
                            seed=seed)
        train_mses, pred = _transfer(pair.twin, pair.human, method, cols)
        return pair.twin_stats.invert(pred), train_mses, pair.twin_imputed

    twin_dense, _ = impute_dense(twin, impute_rank, seed)
    predictions, _ = held_out_columns(human, twin, method, twin_dense, cols)
    return predictions, np.full(m, np.nan), twin_dense


def _pearson_or_none(a: np.ndarray, b: np.ndarray) -> float | None:
    try:
        return pearson(a, b)
    except (UndefinedCorrelationError, DataError):
        return None


def _correlations(human: MaskedMatrix, predictions: np.ndarray, twin_dense: np.ndarray):
    """Per target, the prediction's and the twin baseline's Pearson correlation
    with the observed human column (None where undefined)."""
    out = []
    for j in range(human.n_cols):
        obs = human.mask[:, j]
        truth = human.values[obs, j]
        out.append((_pearson_or_none(predictions[obs, j], truth),
                    _pearson_or_none(twin_dense[obs, j], truth)))
    return out


def _check_tau(tau: float) -> None:
    if not tau >= 0:
        raise DataError(f"tau must be nonnegative, got {tau!r}")


def _gate(correlations, train_mses: np.ndarray, tau: float | None) -> list[TargetResult]:
    """Per-target results with predictions gated by train MSE < ``tau``.

    A gated-off target is scored by its twin baseline; a target whose scored
    or baseline correlation is undefined is skipped.
    """
    results = []
    for j, (corr, baseline) in enumerate(correlations):
        transferred = tau is None or bool(train_mses[j] < tau)
        if not transferred:
            corr = baseline
        train_mse = None if np.isnan(train_mses[j]) else float(train_mses[j])
        if corr is None or baseline is None:
            results.append(TargetResult(j, None, None, train_mse, transferred, True))
        else:
            results.append(TargetResult(j, corr, baseline, train_mse, transferred, False))
    return results


def loo_evaluate(
    human: MaskedMatrix,
    twin: MaskedMatrix,
    method,
    orientation: Orientation | str = Orientation.NEW_QUESTION,
    *,
    fisher_z: bool = False,
    tau: float | None = None,
    impute_rank: int | None = None,
    standardize: bool = True,
    seed: int = 0,
    return_predictions: bool = False,
):
    """Hold out each column (or row) in turn, predict it, and score by Pearson.

    The baseline for each target is the raw twin column (imputed where the
    twin itself is missing) correlated with the true held-out human column
    over its observed entries. Targets whose method or baseline correlation
    is undefined (constant vectors) are skipped and counted, not imputed.
    With ``tau`` set, regression predictions are gated per target by the
    synthetic-system training MSE. Regression methods fit every target at
    once through the shared-Gram engine; completion methods run target by
    target.
    """
    orientation = Orientation(orientation)
    if orientation is Orientation.NEW_USER:
        human = human.transpose()
        twin = twin.transpose()
    if tau is not None:
        if not isinstance(method, RegressConfig):
            raise DataError("adaptive gating applies to regression methods only")
        _check_tau(tau)

    predictions, train_mses, twin_dense = _loo_predictions(
        human, twin, method,
        impute_rank=impute_rank, standardize=standardize, seed=seed,
    )
    results = _gate(_correlations(human, predictions, twin_dense), train_mses, tau)
    label = _method_label(method) + ("" if tau is None else f"+tau={tau:g}")
    report = _aggregate(results, fisher_z, orientation, label)
    if return_predictions:
        gated = np.array([not r.transferred for r in results])
        final = predictions.copy()
        final[:, gated] = twin_dense[:, gated]
        return report, final
    return report


def sweep_thresholds(
    human: MaskedMatrix,
    twin: MaskedMatrix,
    method: RegressConfig,
    taus,
    orientation: Orientation | str = Orientation.NEW_QUESTION,
    *,
    fisher_z: bool = False,
    impute_rank: int | None = None,
    standardize: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Evaluate the adaptive gate across a grid of thresholds.

    Runs one leave-one-out pass and scores each target once, then re-gates
    those scores for every tau exactly as :func:`loo_evaluate` gates them.
    Returns one record per tau with the gated mean correlation and the
    number of transferred targets.
    """
    orientation = Orientation(orientation)
    h = human.transpose() if orientation is Orientation.NEW_USER else human
    t = twin.transpose() if orientation is Orientation.NEW_USER else twin
    if not isinstance(method, RegressConfig):
        raise DataError("sweep_thresholds requires a regression method")
    taus = list(taus)
    for tau in taus:
        _check_tau(tau)
    predictions, train_mses, twin_dense = _loo_predictions(
        h, t, method,
        impute_rank=impute_rank, standardize=standardize, seed=seed,
    )
    correlations = _correlations(h, predictions, twin_dense)
    records = []
    for tau in taus:
        results = _gate(correlations, train_mses, tau)
        report = _aggregate(results, fisher_z, orientation, _method_label(method))
        records.append(
            {
                "tau": float(tau),
                "mean": report.mean,
                "se": report.se,
                "n_transferred": sum(r.transferred for r in results),
                "skipped": report.skipped_count,
            }
        )
    return records
