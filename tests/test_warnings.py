"""Where a twincal warning points: the first line outside the package."""

import warnings

import numpy as np
import pytest

import twincal.regress as regress
from twincal.calibrate import loo_evaluate
from twincal.completion import (
    CompletionConfig,
    StackedTask,
    als_impute,
    hard_impute,
    soft_impute,
    stacked_complete,
    synthetic_prior_impute,
)
from twincal.diagnostics import alignment_report
from twincal.matcore import ConvergenceWarning, MaskedMatrix
from twincal.regress import RegressConfig, fit_columns


def capped(method, lam=0.0):
    """A completion config that stops after 2 sweeps, short of its tolerance."""
    return CompletionConfig(method, rank=2, lam=lam, max_iters=2, tol=1e-16)


def calls():
    """{name: call}: each call, on one line, runs a twincal entry point that warns."""
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=(30, 2)), rng.normal(size=(13, 2))
    full = u @ v.T
    mask = rng.random(full.shape) >= 0.2
    mask[:, -1] = mask[0] = True
    masked = MaskedMatrix(np.where(mask, full, np.nan), mask)
    task = StackedTask(MaskedMatrix.from_dense(full[:, :12]),
                       MaskedMatrix.from_dense(full), target_col=12)
    x = rng.normal(size=(30, 6))
    human, twin = MaskedMatrix.from_dense(x), MaskedMatrix.from_dense(x + 0.1)
    return {
        "hard_impute": lambda: hard_impute(masked, capped("hsv")),
        "soft_impute": lambda: soft_impute(masked, capped("ssv", lam=0.01)),
        "als_impute": lambda: als_impute(masked, capped("als", lam=1e-6)),
        "stacked_complete": lambda: stacked_complete(task, capped("hsv")),
        "synthetic_prior_impute": lambda: synthetic_prior_impute(task, capped("sp")),
        "fit_columns": lambda: fit_columns(x, RegressConfig("sc"), x[:, 0] + x[:, 1]),
        "loo_evaluate": lambda: loo_evaluate(human, twin, RegressConfig("sc")),
        # the twin baseline of every target correlates 1 with the human
        "fisher_z_clamp": lambda: loo_evaluate(human, human, RegressConfig(), fisher_z=True),
        "r_max_clamp": lambda: alignment_report(human, twin, rank=20),
    }


@pytest.mark.parametrize("name,category", [
    *((name, ConvergenceWarning) for name in (
        "hard_impute", "soft_impute", "als_impute", "stacked_complete",
        "synthetic_prior_impute", "fit_columns", "loo_evaluate")),
    ("fisher_z_clamp", RuntimeWarning),
    ("r_max_clamp", RuntimeWarning),
])
def test_warning_names_the_calling_line(monkeypatch, name, category):
    monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", 3)  # every simplex fit is capped
    call = calls()[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught and {w.category for w in caught} == {category}
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, call.__code__.co_firstlineno)}
