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

from .matcore import DataError

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
        if probs.min() < 0:
            raise DataError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DataError(f"probabilities sum to {probs.sum()!r}, expected 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_categories(self) -> int:
        return self.probs.size

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "Categorical":
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            raise DataError("counts must have positive total")
        p = counts / total
        return cls(p / p.sum())

    @classmethod
    def from_codes(cls, codes: np.ndarray, n_categories: int) -> "Categorical":
        """Empirical distribution of integer codes in 1..K."""
        codes = np.asarray(codes, dtype=np.int64)
        _check_codes(codes, n_categories)
        return cls.from_counts(np.bincount(codes - 1, minlength=n_categories))

    def mean_score(self, values: np.ndarray) -> float:
        return float(self.probs @ np.asarray(values, dtype=np.float64))

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


@dataclass(frozen=True)
class MirrorDescentConfig:
    """Step schedule eta0 / t**decay_power, iteration cap, numerical guards.

    ``max_iters`` is the compute budget: subgradient steps on non-smooth
    objectives have no crisp convergence test, so the optimizer always
    returns its best iterate, stopping early only when the best objective
    has not improved by a relative ``tol`` for ``stall_patience`` steps.
    The initialization is deterministic (uniform), so no seed is needed.
    """

    eta0: float = 1.0
    decay_power: float = 0.5
    max_iters: int = 2000
    tol: float = 1e-8
    epsilon_floor: float = 1e-9
    stall_patience: int = 200   # stop early after this many non-improving iters

    def __post_init__(self) -> None:
        if self.eta0 <= 0 or not 0.0 < self.decay_power <= 1.0:
            raise DataError("eta0 must be positive and decay_power in (0, 1]")
        if not 0.0 < self.epsilon_floor <= 1e-3:
            raise DataError("epsilon_floor must lie in (0, 1e-3]")
        if self.max_iters < 1 or self.tol <= 0:
            raise DataError("max_iters must be >= 1 and tol > 0")


def _check_codes(codes: np.ndarray, n_categories: int) -> None:
    if codes.size and (codes.min() < 1 or codes.max() > n_categories):
        raise DataError(
            f"category codes must lie in 1..{n_categories}, "
            f"got range [{codes.min()}, {codes.max()}]"
        )


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
    value = float(_values(kind, p.probs[None, :], q.probs[None, :], epsilon_floor)[0])
    return max(value, 0.0) if kind is not Discrepancy.CHI_SQUARE else value


def ensemble_distribution(
    weights: EnsembleWeights, twin_col: np.ndarray, n_categories: int
) -> Categorical:
    """Mixture of twin answer point-masses plus dummy members for one question."""
    codes = np.asarray(twin_col, dtype=np.int64)
    _check_codes(codes, n_categories)
    if codes.size != weights.w.size:
        raise DataError(
            f"twin column length {codes.size} != weight count {weights.w.size}"
        )
    probs = np.bincount(codes - 1, weights=weights.w, minlength=n_categories)
    probs = probs + weights.pi
    return Categorical(probs / probs.sum())


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

def _onehot(twin_cols: np.ndarray, n_categories: int) -> np.ndarray:
    """(m, K, n) indicator tensor of the twin answers."""
    n, m = twin_cols.shape
    out = np.zeros((m, n_categories, n))
    out[np.arange(m)[:, None], twin_cols.T - 1, np.arange(n)[None, :]] = 1.0
    return out


def _stack_probs(p_train) -> np.ndarray:
    rows = [p.probs if isinstance(p, Categorical) else np.asarray(p) for p in p_train]
    return np.stack(rows, axis=0)


def objective_and_gradient(
    w: np.ndarray,
    pi: np.ndarray,
    p_train,
    twin_cols: np.ndarray,
    spec: Discrepancy | str,
    *,
    epsilon_floor: float = 1e-9,
    _onehot_cache: np.ndarray | None = None,
):
    """Average discrepancy over training questions and its (sub)gradient.

    The gradient is taken with respect to the raw (w, pi) coordinates of the
    mixture map, i.e. exactly the quantity mirror descent exponentiates.
    Exposed separately so the analytic gradients can be checked against
    finite differences.
    """
    kind = Discrepancy(spec)
    p = _stack_probs(p_train)
    m, n_cat = p.shape
    twin_cols = np.asarray(twin_cols, dtype=np.int64)
    _check_codes(twin_cols, n_cat)
    onehot = _onehot_cache if _onehot_cache is not None else _onehot(twin_cols, n_cat)

    q = np.einsum("mkn,n->mk", onehot, w) + pi[None, :]
    values = _values(kind, p, q, epsilon_floor)
    gq = _grads_wrt_q(kind, p, q, epsilon_floor)
    grad_w = np.einsum("mkn,mk->n", onehot, gq) / m
    grad_pi = gq.mean(axis=0)
    return float(values.mean()), grad_w, grad_pi


def _mirror_descent_run(
    w0: np.ndarray,
    pi0: np.ndarray,
    use_w: bool,
    use_pi: bool,
    p: np.ndarray,
    twin_cols: np.ndarray,
    onehot: np.ndarray,
    kind: Discrepancy,
    cfg: MirrorDescentConfig,
):
    """One exponentiated-gradient run; returns (best_obj, best_w, best_pi, trace)."""
    w, pi = w0.copy(), pi0.copy()
    best_obj = np.inf
    best_w, best_pi = w.copy(), pi.copy()
    trace = np.empty(cfg.max_iters)
    stale = 0
    n_iters = 0
    for t in range(1, cfg.max_iters + 1):
        obj, grad_w, grad_pi = objective_and_gradient(
            w, pi, p, twin_cols, kind,
            epsilon_floor=cfg.epsilon_floor, _onehot_cache=onehot,
        )
        if not np.isfinite(obj) or (use_w and not np.all(np.isfinite(grad_w))) or (
            use_pi and not np.all(np.isfinite(grad_pi))
        ):
            raise FloatingPointError(
                f"non-finite mirror-descent objective/gradient at iteration {t}"
            )
        trace[t - 1] = obj
        n_iters = t
        if obj < best_obj - cfg.tol * max(1.0, abs(best_obj)):
            stale = 0
        else:
            stale += 1
        if obj < best_obj:
            best_obj = obj
            best_w, best_pi = w.copy(), pi.copy()
        if stale >= cfg.stall_patience:
            break

        # one common shift keeps the multiplicative update direction intact;
        # the exponent cap guards against overflow on near-clamped chi-square
        # gradients (magnitudes ~ 1/epsilon_floor^2)
        shift = max(
            grad_w.max() if use_w else -np.inf,
            grad_pi.max() if use_pi else -np.inf,
        )
        eta = cfg.eta0 / t**cfg.decay_power
        if use_w:
            w = w * np.exp(np.minimum(-eta * (grad_w - shift), 50.0))
        if use_pi:
            pi = pi * np.exp(np.minimum(-eta * (grad_pi - shift), 50.0))
        total = w.sum() + pi.sum()
        if total <= 0 or not np.isfinite(total):
            raise FloatingPointError("mirror-descent weights collapsed to zero")
        w /= total
        pi /= total
    return best_obj, best_w, best_pi, trace[:n_iters].copy()


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
    cfg = cfg or MirrorDescentConfig()
    variant = EnsembleVariant(variant)
    kind = Discrepancy(spec)
    p = _stack_probs(p_train)
    m, n_cat = p.shape
    twin_cols = np.asarray(twin_cols, dtype=np.int64)
    if twin_cols.ndim != 2 or twin_cols.shape[1] != m:
        raise DataError(
            f"twin_cols shape {twin_cols.shape} incompatible with {m} training questions"
        )
    _check_codes(twin_cols, n_cat)
    n = twin_cols.shape[0]
    onehot = _onehot(twin_cols, n_cat)

    zeros_w, zeros_pi = np.zeros(n), np.zeros(n_cat)
    personas_start = (np.full(n, 1.0 / n), zeros_pi, True, False)
    dummies_start = (zeros_w, np.full(n_cat, 1.0 / n_cat), False, True)
    joint_start = (
        np.full(n, 1.0 / (n + n_cat)),
        np.full(n_cat, 1.0 / (n + n_cat)),
        True,
        True,
    )
    if variant is EnsembleVariant.PERSONAS_ONLY:
        starts = [personas_start]
    elif variant is EnsembleVariant.DUMMIES_ONLY:
        starts = [dummies_start]
    else:
        starts = [joint_start, personas_start, dummies_start]

    best = None
    for w0, pi0, use_w, use_pi in starts:
        run = _mirror_descent_run(
            w0, pi0, use_w, use_pi, p, twin_cols, onehot, kind, cfg
        )
        if best is None or run[0] < best[0]:
            best = run
    _, best_w, best_pi, trace = best
    return EnsembleWeights(best_w, best_pi, variant, trace=trace)


# ---------------------------------------------------------------------------
# Train-objective x test-metric cross-table (one row per training objective,
# three ensemble variants per cell, plus the uniform baseline row).
# ---------------------------------------------------------------------------

CROSS_TABLE_METRICS = tuple(Discrepancy)


def _mean_se(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
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
    twin_cols = np.asarray(twin_cols, dtype=np.int64)
    out = np.empty(twin_cols.shape[1])
    for j in range(twin_cols.shape[1]):
        pred = ensemble_distribution(weights, twin_cols[:, j], n_categories)
        truth = p_list[j] if isinstance(p_list[j], Categorical) else Categorical(p_list[j])
        out[j] = discrepancy(metric, truth, pred, epsilon_floor=epsilon_floor)
    return out


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
    questions under all discrepancy measures. Returns a JSON-ready dict that
    also carries the fitted weights.
    """
    cfg = cfg or MirrorDescentConfig()
    twin_cols = np.asarray(twin_cols, dtype=np.int64)
    m = twin_cols.shape[1]
    if len(p_all) != m:
        raise DataError(f"{len(p_all)} distributions for {m} twin columns")
    train_idx, test_idx = split_questions(m, test_frac, seed)
    p_train = [p_all[j] for j in train_idx]
    p_test = [p_all[j] for j in test_idx]
    cols_train = twin_cols[:, train_idx]
    cols_test = twin_cols[:, test_idx]

    table: dict = {
        "n_twins": int(twin_cols.shape[0]),
        "n_categories": int(n_categories),
        "train_questions": [int(j) for j in train_idx],
        "test_questions": [int(j) for j in test_idx],
        "rows": {},
    }
    for objective in objectives:
        objective = Discrepancy(objective)
        row: dict = {}
        for variant in variants:
            variant = EnsembleVariant(variant)
            weights = fit_weights(p_train, cols_train, objective, variant, cfg)
            metrics = {
                metric.value: _mean_se(
                    evaluate_on_questions(
                        weights, p_test, cols_test, n_categories, metric,
                        epsilon_floor=cfg.epsilon_floor,
                    )
                )
                for metric in CROSS_TABLE_METRICS
            }
            row[variant.value] = {
                "train_objective_value": float(np.min(weights.trace)),
                "test_metrics": metrics,
                "weights": {
                    "w": weights.w.tolist(),
                    "pi": weights.pi.tolist(),
                },
            }
        table["rows"][objective.value] = row

    baseline = uniform_baseline(twin_cols.shape[0], n_categories)
    table["baseline"] = {
        metric.value: _mean_se(
            evaluate_on_questions(
                baseline, p_test, cols_test, n_categories, metric,
                epsilon_floor=cfg.epsilon_floor,
            )
        )
        for metric in CROSS_TABLE_METRICS
    }
    return table
