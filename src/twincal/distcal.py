"""Distribution-level calibration via a reweighted twin ensemble.

The human response distribution of each question is approximated by a convex
mixture of point masses at the n twins' answers plus K always-answer-k
"dummy" members that guarantee full support. Mixture weights live on the
(n + K - 1)-simplex and are fitted by exponentiated-gradient (mirror descent)
minimization of an average discrepancy over training questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matcore import DataError, check_integer, check_real

__all__ = [
    "Categorical",
    "Discrepancy",
    "EnsembleVariant",
    "EnsembleWeights",
    "MirrorDescentConfig",
    "discrepancy",
    "ensemble_distribution",
    "fit_weights",
    "variance_ratio",
    "uniform_baseline",
    "split_questions",
    "objective_and_gradient",
    "evaluate_on_questions",
    "cross_table",
    "CROSS_TABLE_METRICS",
]


@dataclass(frozen=True)
class Categorical:
    """Probability vector over response categories 1..K."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise DataError("probs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(probs)):
            raise DataError("probabilities must be finite")
        if probs.min() < 0:
            raise DataError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DataError(f"probabilities sum to {probs.sum()!r}, expected 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_categories(self) -> int:
        return self.probs.size

    @classmethod
    def from_codes(cls, codes: np.ndarray, n_categories: int) -> "Categorical":
        """Empirical distribution of integer codes in 1..K."""
        codes = _codes(codes, n_categories)
        if not codes.size:
            raise DataError("codes must be nonempty")
        p = np.bincount(codes - 1, minlength=n_categories) / codes.size
        return cls(p / p.sum())

    def variance(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=np.float64)
        mu = self.probs @ values
        return float(self.probs @ (values - mu) ** 2)


class Discrepancy(str, Enum):
    TV = "tv"
    CHI_SQUARE = "chi2"
    KL = "kl"
    HELLINGER = "hellinger"
    KS = "ks"
    CDF_L1 = "cdf_l1"
    CDF_L2 = "cdf_l2"


class EnsembleVariant(str, Enum):
    PERSONAS_AND_DUMMIES = "personas_and_dummies"
    PERSONAS_ONLY = "personas_only"
    DUMMIES_ONLY = "dummies_only"


@dataclass(frozen=True)
class EnsembleWeights:
    """Mixture weights (w over twins, pi over dummies) on the simplex.

    ``trace`` optionally records the mirror-descent objective per iteration.
    """

    w: np.ndarray
    pi: np.ndarray
    variant: EnsembleVariant = EnsembleVariant.PERSONAS_AND_DUMMIES
    trace: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        variant = EnsembleVariant(self.variant)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(pi))):
            raise DataError("weights must be finite")
        if w.min(initial=0.0) < 0 or pi.min(initial=0.0) < 0:
            raise DataError("weights must be nonnegative")
        if abs(w.sum() + pi.sum() - 1.0) > 1e-10:
            raise DataError("weights must sum to 1 over twins plus dummies")
        if variant is EnsembleVariant.PERSONAS_ONLY and pi.any():
            raise DataError("personas-only weights must have pi = 0")
        if variant is EnsembleVariant.DUMMIES_ONLY and w.any():
            raise DataError("dummies-only weights must have w = 0")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "variant", variant)


# the step at iteration t is eta0 / t**DECAY_POWER
DECAY_POWER = 0.5
# stop early after this many iterations without a relative ``tol`` improvement
STALL_PATIENCE = 200


@dataclass(frozen=True)
class MirrorDescentConfig:
    """Step schedule eta0 / t**DECAY_POWER, iteration cap, numerical guards.

    ``max_iters`` is the compute budget: subgradient steps on non-smooth
    objectives have no crisp convergence test, so the optimizer always
    returns its best iterate, stopping early only when the best objective
    has not improved by a relative ``tol`` for ``STALL_PATIENCE`` steps.
    The initialization is deterministic (uniform), so no seed is needed.
    """

    eta0: float = 1.0
    max_iters: int = 2000
    tol: float = 1e-8
    epsilon_floor: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eta0", "tol", "epsilon_floor"):
            check_real(name, getattr(self, name))
        check_integer("max_iters", self.max_iters, 1)
        if self.eta0 <= 0:
            raise DataError("eta0 must be positive")
        if not 0.0 < self.epsilon_floor <= 1e-3:
            raise DataError("epsilon_floor must lie in (0, 1e-3]")
        if self.tol <= 0:
            raise DataError("tol must be positive")


def _codes(codes, n_categories: int) -> np.ndarray:
    """``codes`` as int64, after checking they are integers in 1..n_categories."""
    values = np.asarray(codes, dtype=np.float64)
    if not np.all(np.isfinite(values)) or np.any(values != np.round(values)):
        raise DataError("category codes must be finite integers")
    if values.size and (values.min() < 1 or values.max() > n_categories):
        raise DataError(
            f"category codes must lie in 1..{n_categories}, "
            f"got range [{values.min():g}, {values.max():g}]"
        )
    return values.astype(np.int64)


# ---------------------------------------------------------------------------
# Discrepancy measures. `_values` works on stacked (m, K) arrays so the
# optimizer can evaluate all training questions at once.
# ---------------------------------------------------------------------------

def _values(kind: Discrepancy, p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    if kind is Discrepancy.TV:
        return 0.5 * np.abs(p - q).sum(axis=-1)
    if kind is Discrepancy.CHI_SQUARE:
        qc = np.maximum(q, eps)
        return (p**2 / qc).sum(axis=-1) - 1.0
    if kind is Discrepancy.KL:
        qc = np.maximum(q, eps)
        terms = np.where(p > 0, p * (np.log(np.maximum(p, eps)) - np.log(qc)), 0.0)
        return terms.sum(axis=-1)
    if kind is Discrepancy.HELLINGER:
        return 1.0 - np.sqrt(p * q).sum(axis=-1)
    f = np.cumsum(p, axis=-1)
    g = np.cumsum(q, axis=-1)
    if kind is Discrepancy.KS:
        return np.abs(f - g).max(axis=-1)
    if kind is Discrepancy.CDF_L1:
        return np.abs(f - g).sum(axis=-1)
    if kind is Discrepancy.CDF_L2:
        return ((f - g) ** 2).sum(axis=-1)
    raise DataError(f"unknown discrepancy {kind!r}")


def _grads_wrt_q(kind: Discrepancy, p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """(Sub)gradient of each row's discrepancy with respect to q."""
    if kind is Discrepancy.TV:
        return 0.5 * np.sign(q - p)
    if kind is Discrepancy.CHI_SQUARE:
        qc = np.maximum(q, eps)
        return np.where(q > eps, -((p / qc) ** 2), 0.0)
    if kind is Discrepancy.KL:
        qc = np.maximum(q, eps)
        return np.where(q > eps, -p / qc, 0.0)
    if kind is Discrepancy.HELLINGER:
        qc = np.maximum(q, eps)
        return -0.5 * np.sqrt(p / qc)
    f = np.cumsum(p, axis=-1)
    g = np.cumsum(q, axis=-1)
    k = p.shape[-1]
    if kind is Discrepancy.KS:
        # subgradient at the first maximizing CDF index
        star = np.argmax(np.abs(f - g), axis=-1)
        rows = np.arange(p.shape[0])
        sign = np.sign(g[rows, star] - f[rows, star])
        grad = np.zeros_like(p)
        grad[np.arange(k)[None, :] <= star[:, None]] = 1.0
        return grad * sign[:, None]
    if kind is Discrepancy.CDF_L1:
        s = np.sign(g - f)
        return np.cumsum(s[:, ::-1], axis=-1)[:, ::-1]
    if kind is Discrepancy.CDF_L2:
        s = 2.0 * (g - f)
        return np.cumsum(s[:, ::-1], axis=-1)[:, ::-1]
    raise DataError(f"unknown discrepancy {kind!r}")


def _scores(kind: Discrepancy, p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Row discrepancies as reported: rounding below zero is clamped, except chi2."""
    values = _values(kind, p, q, eps)
    return values if kind is Discrepancy.CHI_SQUARE else np.maximum(values, 0.0)


def discrepancy(
    spec: Discrepancy | str,
    p: Categorical,
    q: Categorical,
    *,
    epsilon_floor: float = 1e-9,
) -> float:
    """Evaluate one discrepancy measure between two categorical distributions.

    The chi-square and KL denominators are clamped at ``epsilon_floor`` so
    empty-support mixtures produce finite (if huge) values instead of
    dividing by zero.
    """
    kind = Discrepancy(spec)
    if p.n_categories != q.n_categories:
        raise DataError("distributions must share the category count")
    return float(_scores(kind, p.probs[None, :], q.probs[None, :], epsilon_floor)[0])


def _onehot(twin_cols: np.ndarray, n_categories: int) -> np.ndarray:
    """(m, K, n) indicator tensor of the (n, m) twin answers (codes 1..K)."""
    codes = _codes(twin_cols, n_categories)
    n, m = codes.shape
    out = np.zeros((m, n_categories, n))
    out[np.arange(m)[:, None], codes.T - 1, np.arange(n)[None, :]] = 1.0
    return out


def _prepare(p_list, twin_cols: np.ndarray, n_categories: int | None = None):
    """Stacked (m, K) distributions and the (m, K, n) indicators: the one input check."""
    rows = [p.probs if isinstance(p, Categorical) else Categorical(p).probs
            for p in p_list]
    sizes = {row.size for row in rows} | ({n_categories} if n_categories is not None else set())
    if len(sizes) != 1:
        raise DataError("distributions must share the category count")
    n_cat = sizes.pop()
    p = np.stack(rows, axis=0)
    m = p.shape[0]
    twin_cols = np.asarray(twin_cols)
    if twin_cols.ndim != 2 or twin_cols.shape[1] != m:
        raise DataError(f"twin_cols shape {twin_cols.shape} incompatible with {m} questions")
    return p, _onehot(twin_cols, n_cat)


def _predictions(onehot: np.ndarray, weights: EnsembleWeights) -> np.ndarray:
    """Predicted distribution of every question, rows normalized."""
    n_cat, n = onehot.shape[1:]
    if n != weights.w.size:
        raise DataError(f"twin column length {n} != weight count {weights.w.size}")
    if n_cat != weights.pi.size:
        raise DataError(f"{n_cat} categories != dummy count {weights.pi.size}")
    q = np.einsum("mkn,n->mk", onehot, weights.w) + weights.pi
    return q / q.sum(axis=1, keepdims=True)


def ensemble_distribution(
    weights: EnsembleWeights, twin_col: np.ndarray, n_categories: int
) -> Categorical:
    """Mixture of twin answer point-masses plus dummy members for one question."""
    onehot = _onehot(np.asarray(twin_col)[:, None], n_categories)
    return Categorical(_predictions(onehot, weights)[0])


def uniform_baseline(n_twins: int, n_categories: int) -> EnsembleWeights:
    """Uncalibrated reference: equal weight on every twin, no dummies."""
    return EnsembleWeights(
        np.full(n_twins, 1.0 / n_twins),
        np.zeros(n_categories),
        EnsembleVariant.PERSONAS_ONLY,
    )


def variance_ratio(
    predicted: Categorical, truth: Categorical, values: np.ndarray
) -> float:
    """Predicted-to-true variance of the category scores (1 = faithful spread)."""
    true_var = truth.variance(values)
    if true_var <= 0:
        raise DataError("true distribution has zero variance under these scores")
    return predicted.variance(values) / true_var


def split_questions(
    n_questions: int, test_frac: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split of question indices into train/test sets."""
    if not 0.0 < test_frac < 1.0:
        raise DataError("test_frac must lie in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n_questions)
    n_test = max(1, int(round(test_frac * n_questions)))
    if n_test >= n_questions:
        raise DataError("split leaves no training questions")
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


# ---------------------------------------------------------------------------
# Mirror-descent fitting.
# ---------------------------------------------------------------------------

def _objective(w, pi, p, onehot: np.ndarray, kind: Discrepancy, eps: float):
    """Mean discrepancy over the rows of p and its gradient in (w, pi).

    The mixture is q_j = sum_i w_i * onehot(answer_ij) + pi for every question
    j at once. Subgradient steps on TV, KS and the CDF objectives turn
    last-bit changes in q into other iterates, so fits round as numpy's
    ``einsum`` sums.
    """
    q = np.einsum("mkn,n->mk", onehot, w) + pi
    gq = _grads_wrt_q(kind, p, q, eps)
    grad_w = np.einsum("mkn,mk->n", onehot, gq) / p.shape[0]
    return float(_values(kind, p, q, eps).mean()), grad_w, gq.mean(axis=0)


def objective_and_gradient(
    w: np.ndarray,
    pi: np.ndarray,
    p_train,
    twin_cols: np.ndarray,
    spec: Discrepancy | str,
    *,
    epsilon_floor: float = 1e-9,
):
    """Average discrepancy over training questions and its (sub)gradient.

    The gradient is taken with respect to the raw (w, pi) coordinates of the
    mixture map, i.e. exactly the quantity mirror descent exponentiates.
    Exposed separately so the analytic gradients can be checked against
    finite differences.
    """
    kind = Discrepancy(spec)
    p, onehot = _prepare(p_train, twin_cols)
    return _objective(w, pi, p, onehot, kind, epsilon_floor)


def _mirror_descent_run(start, p: np.ndarray, onehot: np.ndarray, kind: Discrepancy,
                        cfg: MirrorDescentConfig):
    """One exponentiated-gradient run; returns (best_obj, best_w, best_pi, trace)."""
    w0, pi0, use_w, use_pi = start
    w, pi = w0.copy(), pi0.copy()
    best_obj = np.inf
    best_w, best_pi = w.copy(), pi.copy()
    trace = np.empty(cfg.max_iters)
    stale = 0
    for t in range(1, cfg.max_iters + 1):
        obj, grad_w, grad_pi = _objective(w, pi, p, onehot, kind, cfg.epsilon_floor)
        if not np.isfinite(obj) or (use_w and not np.all(np.isfinite(grad_w))) or (
            use_pi and not np.all(np.isfinite(grad_pi))
        ):
            raise FloatingPointError(
                f"non-finite mirror-descent objective/gradient at iteration {t}"
            )
        trace[t - 1] = obj
        if obj < best_obj - cfg.tol * max(1.0, abs(best_obj)):
            stale = 0
        else:
            stale += 1
        if obj < best_obj:
            best_obj = obj
            best_w, best_pi = w.copy(), pi.copy()
        if stale >= STALL_PATIENCE:
            break

        # one common shift keeps the multiplicative update direction intact;
        # the exponent cap guards against overflow on near-clamped chi-square
        # gradients (magnitudes ~ 1/epsilon_floor^2)
        shift = max(
            grad_w.max() if use_w else -np.inf,
            grad_pi.max() if use_pi else -np.inf,
        )
        eta = cfg.eta0 / t**DECAY_POWER
        if use_w:
            w = w * np.exp(np.minimum(-eta * (grad_w - shift), 50.0))
        if use_pi:
            pi = pi * np.exp(np.minimum(-eta * (grad_pi - shift), 50.0))
        total = w.sum() + pi.sum()
        if total <= 0 or not np.isfinite(total):
            raise FloatingPointError("mirror-descent weights collapsed to zero")
        w /= total
        pi /= total
    return best_obj, best_w, best_pi, trace[:t].copy()


def _fit_variants(p, onehot, kind: Discrepancy, variants, cfg: MirrorDescentConfig):
    """Fitted weights of each variant in turn, running each needed start once.

    A restricted variant is the run from its own face; the joint variant is
    the best of the joint, personas and dummies runs, the first on ties.
    """
    variants = [EnsembleVariant(v) for v in variants]
    n_cat, n = onehot.shape[1:]
    joint = EnsembleVariant.PERSONAS_AND_DUMMIES
    share = 1.0 / (n + n_cat)
    starts = {
        joint: (np.full(n, share), np.full(n_cat, share), True, True),
        EnsembleVariant.PERSONAS_ONLY: (np.full(n, 1.0 / n), np.zeros(n_cat), True, False),
        EnsembleVariant.DUMMIES_ONLY: (np.zeros(n), np.full(n_cat, 1.0 / n_cat), False, True),
    }
    needed = starts if joint in variants else variants
    runs = {
        start: _mirror_descent_run(starts[start], p, onehot, kind, cfg)
        for start in starts if start in needed
    }
    if joint in runs:
        runs[joint] = min(runs.values(), key=lambda run: run[0])
    fitted = []
    for variant in variants:
        _, best_w, best_pi, trace = runs[variant]
        fitted.append(EnsembleWeights(best_w, best_pi, variant, trace=trace))
    return fitted


def fit_weights(
    p_train,
    twin_cols: np.ndarray,
    spec: Discrepancy | str,
    variant: EnsembleVariant | str = EnsembleVariant.PERSONAS_AND_DUMMIES,
    cfg: MirrorDescentConfig | None = None,
) -> EnsembleWeights:
    """Fit ensemble weights by exponentiated-gradient descent on the simplex.

    Iterates start uniform over the active coordinates, are renormalized
    every step so they stay exactly on the simplex, and the best-objective
    iterate is returned with its objective trace attached. The joint variant
    is optimized from three starts (uniform over all coordinates, the
    personas face, and the dummies face) and keeps the best run, so its
    fitted objective never lands above either restricted variant's.
    """
    kind = Discrepancy(spec)
    p, onehot = _prepare(p_train, twin_cols)
    return _fit_variants(p, onehot, kind, [variant], cfg or MirrorDescentConfig())[0]


# ---------------------------------------------------------------------------
# Train-objective x test-metric cross-table (one row per training objective,
# three ensemble variants per cell, plus the uniform baseline row).
# ---------------------------------------------------------------------------

CROSS_TABLE_METRICS = tuple(Discrepancy)


def _mean_se(values: np.ndarray) -> dict:
    se = 0.0 if values.size <= 1 else float(values.std(ddof=1) / np.sqrt(values.size))
    return {"mean": float(values.mean()), "se": se}


def evaluate_on_questions(
    weights: EnsembleWeights,
    p_list,
    twin_cols: np.ndarray,
    n_categories: int,
    metric: Discrepancy,
    *,
    epsilon_floor: float = 1e-9,
) -> np.ndarray:
    """Per-question discrepancy of the ensemble prediction against truth."""
    p, onehot = _prepare(p_list, twin_cols, n_categories)
    q = _predictions(onehot, weights)
    return _scores(Discrepancy(metric), p, q, epsilon_floor)


def cross_table(
    p_all,
    twin_cols: np.ndarray,
    n_categories: int,
    *,
    cfg: MirrorDescentConfig | None = None,
    test_frac: float = 0.2,
    seed: int = 0,
    objectives=CROSS_TABLE_METRICS,
    variants=tuple(EnsembleVariant),
) -> dict:
    """Fit every training objective/variant pair and score on every metric.

    Questions are split train/test with a seeded shuffle; each fitted
    ensemble (and the uniform baseline) is evaluated on the held-out
    questions under all discrepancy measures. Each objective runs each
    mirror-descent start once (see ``fit_weights``). Returns a JSON-ready
    dict that also carries the fitted weights.
    """
    cfg = cfg or MirrorDescentConfig()
    p, onehot = _prepare(p_all, twin_cols, n_categories)
    train_idx, test_idx = split_questions(p.shape[0], test_frac, seed)
    train, test = onehot[train_idx], onehot[test_idx]

    def test_metrics(weights: EnsembleWeights) -> dict:
        q = _predictions(test, weights)
        return {
            metric.value: _mean_se(_scores(metric, p[test_idx], q, cfg.epsilon_floor))
            for metric in CROSS_TABLE_METRICS
        }

    table: dict = {
        "n_twins": int(onehot.shape[2]),
        "n_categories": int(n_categories),
        "train_questions": [int(j) for j in train_idx],
        "test_questions": [int(j) for j in test_idx],
        "rows": {},
    }
    for objective in objectives:
        objective = Discrepancy(objective)
        fitted = _fit_variants(p[train_idx], train, objective, variants, cfg)
        table["rows"][objective.value] = {
            weights.variant.value: {
                "train_objective_value": float(np.min(weights.trace)),
                "test_metrics": test_metrics(weights),
                "weights": {"w": weights.w.tolist(), "pi": weights.pi.tolist()},
            }
            for weights in fitted
        }
    table["baseline"] = test_metrics(uniform_baseline(onehot.shape[2], n_categories))
    return table
