"""Fit-and-transfer calibration, adaptive gating, and the leave-one-out harness.

The core move: fit a model that predicts the target question from the other
questions on the twin matrix, then apply it to the human matrix. Each matrix
is imputed separately by hard-SVD (at ``impute_rank``, or a searched rank),
then its columns are standardized unless ``standardize`` is off, so callers
control whether the fit runs on the standardized or the raw scale;
predictions always come back on the original scale, de-standardized with the
twin target column's stats (the human target stats are unknowable since that
column is entirely missing).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .completion import held_out_columns, impute_dense
from .matcore import (
    DataError,
    MaskedMatrix,
    UndefinedCorrelationError,
    mean_correlation,
    pearson,
    standardize_dense,
)
from .regress import RegressConfig, fit_columns

__all__ = [
    "Orientation",
    "CalibrationTask",
    "TransferDiagnostic",
    "EvalReport",
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
class TransferDiagnostic:
    """Synthetic-system fit quality: the in-sample MSE the gate compares with tau."""

    train_mse: float


@dataclass(frozen=True)
class CalibrationTask:
    """One transfer problem: human n x m, twin with one extra target column.

    For the new-user orientation the matrices are interpreted transposed
    (twin has one extra row: the new user). ``method`` is a regression
    config; completion methods run only through :func:`loo_evaluate`.
    """

    human: MaskedMatrix
    twin: MaskedMatrix
    target_index: int
    method: RegressConfig
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


def _prepared(
    human: MaskedMatrix, twin: MaskedMatrix, rank: int | None, standardize: bool, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Impute each matrix separately, then (optionally) standardize columns.

    Returns the human and the twin on the fitting scale, the twin's column
    means and stds, and the imputed twin on its own scale: the leave-one-out
    baseline. With ``standardize`` off the fits run on the raw scale, with
    means 0 and stds 1: de-standardizing (``x * stds + means``) still runs,
    so a -0.0 prediction is written as 0, not -0.
    """
    # impute_dense returns a new array, so the human standardizes in place
    # before the twin is imputed; the imputed twin is kept as the baseline
    human_fit, _ = impute_dense(human, rank, seed)
    if standardize:
        standardize_dense(human_fit, out=human_fit)
    twin_imputed, _ = impute_dense(twin, rank, seed)
    if not standardize:
        return (human_fit, twin_imputed, np.zeros(twin.n_cols), np.ones(twin.n_cols),
                twin_imputed)
    return (human_fit, *standardize_dense(twin_imputed), twin_imputed)


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
    residuals = np.ascontiguousarray(model.predict(twin))
    # in place, a target at a time, and gone before the human is predicted:
    # the n x t residuals are the largest temporaries of the engine
    for c, j in enumerate(targets):
        residuals[:, c] -= twin[:, j]
    train_mses = np.mean(np.square(residuals, out=residuals), axis=0)
    del residuals
    return train_mses, model.predict(human)


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
    human, twin, means, stds, _ = _prepared(*task._oriented(), task.impute_rank,
                                            task.standardize, task.seed)
    j = task.target_index
    # the human matrix has no target column; a zero one aligns it with the twin
    human = np.insert(human, j, 0.0, axis=1)
    train_mses, pred = _transfer(twin, human, task.method, np.array([j]))
    prediction = pred[:, 0] * stds[j] + means[j]
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
        """The fields, per-target results included, with ``method_label``
        written as ``method``."""
        payload = asdict(self)
        payload["method"] = payload.pop("method_label")
        payload["orientation"] = self.orientation.value
        return payload


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
    human: MaskedMatrix, twin: MaskedMatrix, method, impute_rank: int | None,
    standardize: bool, seed: int,
):
    """Per-target predictions, train MSEs, and fallbacks for a matched pair.

    Both matrices are imputed once up front (the protocol imputes each side
    separately before the leave-one-out loop); regression methods then fit
    every target through the shared-Gram engine on the prepared pair, while
    completion methods complete the raw masked matrices with each target
    column held out in place, its unconverged targets left unreported.
    """
    m = human.n_cols
    cols = np.arange(m)
    if isinstance(method, RegressConfig):
        human_fit, twin_fit, means, stds, twin_dense = _prepared(
            human, twin, impute_rank, standardize, seed)
        train_mses, pred = _transfer(twin_fit, human_fit, method, cols)
        del human_fit, twin_fit  # before de-standardizing makes two more n x m arrays
        return pred * stds + means, train_mses, twin_dense

    twin_dense, _ = impute_dense(twin, impute_rank, seed)
    predictions, _ = held_out_columns(human, twin, method, twin_dense, cols)
    return predictions, np.full(m, np.nan), twin_dense


def _pearson_or_none(a: np.ndarray, b: np.ndarray) -> float | None:
    try:
        return pearson(a, b)
    except (UndefinedCorrelationError, DataError):
        return None


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
        if corr is None or baseline is None:
            corr = baseline = None
        train_mse = None if np.isnan(train_mses[j]) else float(train_mses[j])
        results.append(TargetResult(j, corr, baseline, train_mse, transferred, corr is None))
    return results


def _loo_pass(
    human: MaskedMatrix, twin: MaskedMatrix, method, orientation: Orientation | str,
    taus: list | None, impute_rank: int | None, standardize: bool, seed: int,
):
    """The one leave-one-out pass behind :func:`loo_evaluate` and the sweep.

    Checks that the pair has equal shapes, in the layout given, and that a
    gated pass (``taus`` not None) runs a regression method at nonnegative
    thresholds. Checks that every row and column of the twin, and of the
    human for a regression method, has an observed cell, in the layout
    given, and orients the pair (a new user is held out as a row). Then it
    predicts every target and correlates the prediction and the twin
    baseline with the observed human target (None where undefined). Returns
    the orientation, those correlation pairs, the train MSEs, the
    predictions and the twin baseline, in the oriented layout.
    """
    orientation = Orientation(orientation)
    if human.shape != twin.shape:
        raise DataError(
            f"leave-one-out needs human and twin of equal shape, got "
            f"{human.shape} and {twin.shape}; if the twin carries a trailing "
            "held-out column, drop it (synth writes twin_features.csv for this)"
        )
    if taus is not None:
        if not isinstance(method, RegressConfig):
            raise DataError("adaptive gating applies to regression methods only")
        for tau in taus:
            _check_tau(tau)
    # the imputations need these too, but an error here names the files' axes
    if isinstance(method, RegressConfig):
        human.require_coverage()
    twin.require_coverage()
    if orientation is Orientation.NEW_USER:
        human = human.transpose()
        twin = twin.transpose()
    predictions, train_mses, twin_dense = _loo_predictions(
        human, twin, method, impute_rank, standardize, seed)
    correlations = []
    for j in range(human.n_cols):
        obs = human.mask[:, j]
        truth = human.values[obs, j]
        correlations.append((_pearson_or_none(predictions[obs, j], truth),
                             _pearson_or_none(twin_dense[obs, j], truth)))
    return orientation, correlations, train_mses, predictions, twin_dense


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
    orientation, correlations, train_mses, predictions, twin_dense = _loo_pass(
        human, twin, method, orientation, None if tau is None else [tau],
        impute_rank, standardize, seed)
    results = _gate(correlations, train_mses, tau)
    label = _method_label(method) + ("" if tau is None else f"+tau={tau:g}")
    report = _aggregate(results, fisher_z, orientation, label)
    if return_predictions:
        gated = np.array([not r.transferred for r in results])
        predictions[:, gated] = twin_dense[:, gated]
        return report, predictions
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
    taus = list(taus)
    orientation, correlations, train_mses, _, _ = _loo_pass(
        human, twin, method, orientation, taus, impute_rank, standardize, seed)
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
