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

from .matcore import DataError, _mean_se, check_integer

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


# the step at iteration t is _ETA0 / t**DECAY_POWER
_ETA0 = 1.0
DECAY_POWER = 0.5
# stop early after this many iterations without a relative _STALL_TOL improvement
STALL_PATIENCE = 200
_STALL_TOL = 1e-8
# the clamp on chi-square and KL denominators
_EPSILON_FLOOR = 1e-9


@dataclass(frozen=True)
class MirrorDescentConfig:
    """The iteration cap of mirror descent.

    ``max_iters`` is the compute budget: subgradient steps on non-smooth
    objectives have no crisp convergence test, so the optimizer always
    returns its best iterate, stopping early only when the best objective
    has not improved by a relative ``_STALL_TOL`` for ``STALL_PATIENCE``
    steps. The step at iteration t is ``_ETA0 / t**DECAY_POWER``. The
    initialization is deterministic (uniform), so no seed is needed.
    """

    max_iters: int = 2000

    def __post_init__(self) -> None:
        check_integer("max_iters", self.max_iters, 1)


def _codes(codes, n_categories: int, name: str = "category codes") -> np.ndarray:
    """``codes`` as int64, after checking they are integers in 1..n_categories;
    an error names ``name`` and, in a matrix, the first bad cell."""
    values = np.asarray(codes, dtype=np.float64)
    bad = ~np.isfinite(values) | (values != np.round(values))
    if bad.any():
        at = ""
        if values.ndim == 2:
            i, j = np.argwhere(bad)[0]
            at = f"; row {i}, column {j} holds {values[i, j]:g}"
        raise DataError(f"{name} must be finite integers{at}")
    if values.size and (values.min() < 1 or values.max() > n_categories):
        raise DataError(
            f"{name} must lie in 1..{n_categories}, "
            f"got range [{values.min():g}, {values.max():g}]"
        )
    return values.astype(np.int64)


# ---------------------------------------------------------------------------
# Discrepancy measures.
# ---------------------------------------------------------------------------

def _discrepancies(kind: Discrepancy, p: np.ndarray, q: np.ndarray):
    """Each row's discrepancy and its (sub)gradient with respect to q.

    ``p`` holds (m, K) truths and ``q`` (..., m, K) mixtures, so the optimizer
    evaluates every training question of every stacked run at once. The
    chi-square, KL and Hellinger kinds share the clamped q; the CDF kinds
    share the gap G - F between the mixture's and the truth's CDFs.
    """
    if kind is Discrepancy.TV:
        diff = q - p
        return 0.5 * np.abs(diff).sum(axis=-1), 0.5 * np.sign(diff)
    if kind in (Discrepancy.CHI_SQUARE, Discrepancy.KL, Discrepancy.HELLINGER):
        eps = _EPSILON_FLOOR
        qc = np.maximum(q, eps)
        if kind is Discrepancy.CHI_SQUARE:
            return (p**2 / qc).sum(axis=-1) - 1.0, np.where(q > eps, -((p / qc) ** 2), 0.0)
        if kind is Discrepancy.KL:
            terms = np.where(p > 0, p * (np.log(np.maximum(p, eps)) - np.log(qc)), 0.0)
            return terms.sum(axis=-1), np.where(q > eps, -p / qc, 0.0)
        return 1.0 - np.sqrt(p * q).sum(axis=-1), -0.5 * np.sqrt(p / qc)
    gap = np.cumsum(q, axis=-1) - np.cumsum(p, axis=-1)
    if kind is Discrepancy.KS:
        size = np.abs(gap)
        # subgradient at the first maximizing CDF index
        star = np.argmax(size, axis=-1)[..., None]
        grad = (np.arange(p.shape[-1]) <= star).astype(np.float64)
        return size.max(axis=-1), grad * np.sign(np.take_along_axis(gap, star, axis=-1))
    if kind is Discrepancy.CDF_L1:
        value, slope = np.abs(gap).sum(axis=-1), np.sign(gap)
    else:
        value, slope = (gap**2).sum(axis=-1), 2.0 * gap
    return value, np.cumsum(slope[..., ::-1], axis=-1)[..., ::-1]


def _scores(kind: Discrepancy, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row discrepancies as reported: rounding below zero is clamped, except chi2."""
    values = _discrepancies(kind, p, q)[0]
    return values if kind is Discrepancy.CHI_SQUARE else np.maximum(values, 0.0)


def discrepancy(spec: Discrepancy | str, p: Categorical, q: Categorical) -> float:
    """Evaluate one discrepancy measure between two categorical distributions.

    The chi-square and KL denominators are clamped at 1e-9 so empty-support
    mixtures produce finite (if huge) values instead of dividing by zero.
    """
    kind = Discrepancy(spec)
    if p.n_categories != q.n_categories:
        raise DataError("distributions must share the category count")
    return float(_scores(kind, p.probs[None, :], q.probs[None, :])[0])


def _onehot(twin_cols: np.ndarray, n_categories: int) -> np.ndarray:
    """(m, K, n) indicator tensor of the (n, m) twin answers (codes 1..K)."""
    codes = _codes(twin_cols, n_categories, "twin category codes")
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

def _objective(w, pi, p, onehot: np.ndarray, kinds):
    """Mean discrepancy over the rows of p and its gradient in (w, pi), per run.

    ``w`` (R, n) and ``pi`` (R, K) stack R runs and ``kinds`` names each
    run's objective. The mixture is q_j = sum_i w_i * onehot(answer_ij) + pi
    for every question j at once. Subgradient steps on TV, KS and the CDF objectives
    turn last-bit changes in q into other iterates, so fits round as numpy's
    ``einsum`` sums; each row of the stacked sums has the one-run bits.
    """
    q = np.einsum("mkn,rn->rmk", onehot, w) + pi[:, None, :]
    values, gq = np.empty(q.shape[:2]), np.empty_like(q)
    groups: dict = {}
    for r, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(r)
    for kind, rows in groups.items():
        values[rows], gq[rows] = _discrepancies(kind, p, q[rows])
    grad_w = np.einsum("mkn,rmk->rn", onehot, gq) / p.shape[0]
    return values.mean(axis=1), grad_w, gq.mean(axis=1)


def objective_and_gradient(
    w: np.ndarray,
    pi: np.ndarray,
    p_train,
    twin_cols: np.ndarray,
    spec: Discrepancy | str,
):
    """Average discrepancy over training questions and its (sub)gradient.

    Denominators are clamped as in :func:`discrepancy`. The gradient is
    taken with respect to the raw (w, pi) coordinates of the mixture map,
    i.e. exactly the quantity mirror descent exponentiates. Exposed
    separately so the analytic gradients can be checked against finite
    differences.
    """
    kind = Discrepancy(spec)
    p, onehot = _prepare(p_train, twin_cols)
    obj, grad_w, grad_pi = _objective(np.asarray(w)[None], np.asarray(pi)[None], p, onehot,
                                      [kind])
    return float(obj[0]), grad_w[0], grad_pi[0]


def _mirror_descent(runs, p: np.ndarray, onehot: np.ndarray, cfg: MirrorDescentConfig):
    """Exponentiated-gradient runs stepped together; (best_obj, w, pi, trace) per run.

    ``runs`` lists (objective, start) pairs. A start is the face of its
    variant, uniform over the face's coordinates. Every step is one stacked
    ``_objective``. A run that has gone ``STALL_PATIENCE`` steps without a
    relative ``_STALL_TOL`` improvement stops with its best iterate and leaves
    the stack, so each run takes the steps, and keeps the bits, it would alone.
    """
    n_cat, n = onehot.shape[1:]
    use_w = np.array([start is not EnsembleVariant.DUMMIES_ONLY for _, start in runs], bool)
    use_pi = np.array([start is not EnsembleVariant.PERSONAS_ONLY for _, start in runs], bool)
    share = 1.0 / (n * use_w + n_cat * use_pi)
    w = np.repeat(np.where(use_w, share, 0.0)[:, None], n, axis=1)
    pi = np.repeat(np.where(use_pi, share, 0.0)[:, None], n_cat, axis=1)
    best = np.full(len(runs), np.inf)
    best_w, best_pi = w.copy(), pi.copy()
    trace = np.empty((len(runs), cfg.max_iters))
    steps = np.full(len(runs), cfg.max_iters)
    live = np.arange(len(runs))
    kinds = [kind for kind, _ in runs]
    stale = np.zeros(len(runs), dtype=np.int64)

    def failed(message: str, bad: np.ndarray):
        kind, start = runs[live[np.argmax(bad)]]
        return FloatingPointError(
            f"{message} (objective {kind.value}, start {start.value})")

    for t in range(1, cfg.max_iters + 1):
        if not live.size:
            break
        obj, grad_w, grad_pi = _objective(w, pi, p, onehot, kinds)
        bad = ~(np.isfinite(obj) & np.isfinite(grad_w).all(axis=1)
                & np.isfinite(grad_pi).all(axis=1))
        if bad.any():
            raise failed(f"non-finite mirror-descent objective/gradient at iteration {t}", bad)
        trace[live, t - 1] = obj
        # step 1 counts as stale: there is no best objective to improve on yet
        if t > 1:
            prev = best[live]
            stale = np.where(obj < prev - _STALL_TOL * np.maximum(1.0, np.abs(prev)), 0, stale + 1)
        else:
            stale += 1
        better = obj < best[live]
        best[live[better]] = obj[better]
        best_w[live[better]] = w[better]
        best_pi[live[better]] = pi[better]
        stop = stale >= STALL_PATIENCE
        if stop.any():
            steps[live[stop]] = t
            keep = ~stop
            live, w, pi, grad_w, grad_pi, use_w, use_pi, stale = (
                a[keep] for a in (live, w, pi, grad_w, grad_pi, use_w, use_pi, stale))
            kinds = [runs[r][0] for r in live]

        # one common shift per run keeps the multiplicative update direction
        # intact; the exponent cap guards against overflow on near-clamped
        # chi-square gradients (magnitudes ~ 1/_EPSILON_FLOOR^2)
        shift = np.maximum(np.where(use_w, grad_w.max(axis=1), -np.inf),
                           np.where(use_pi, grad_pi.max(axis=1), -np.inf))
        eta = _ETA0 / t**DECAY_POWER
        # an off-face coordinate is exactly 0 and its factor finite, so it stays 0
        w = w * np.exp(np.minimum(-eta * (grad_w - shift[:, None]), 50.0))
        pi = pi * np.exp(np.minimum(-eta * (grad_pi - shift[:, None]), 50.0))
        total = w.sum(axis=1) + pi.sum(axis=1)
        collapsed = (total <= 0) | ~np.isfinite(total)
        if collapsed.any():
            raise failed("mirror-descent weights collapsed to zero", collapsed)
        w /= total[:, None]
        pi /= total[:, None]
    return [(float(best[r]), best_w[r], best_pi[r], trace[r, :steps[r]].copy())
            for r in range(len(runs))]


def _fit_variants(p, onehot, kinds, variants, cfg: MirrorDescentConfig) -> dict:
    """{(objective, variant): (weights, winning start)}, every start run once, together.

    A restricted variant is the run from its own face; the joint variant is
    the best of the joint, personas and dummies runs, the first on ties.
    """
    if not onehot.shape[2]:
        raise DataError("fitting needs at least one twin")
    joint = EnsembleVariant.PERSONAS_AND_DUMMIES
    starts = [s for s in EnsembleVariant if joint in variants or s in variants]
    runs = [(kind, start) for kind in kinds for start in starts]
    done = dict(zip(runs, _mirror_descent(runs, p, onehot, cfg)))
    fitted = {}
    for kind in kinds:
        for variant in variants:
            start = variant
            if variant is joint:
                start = min(starts, key=lambda s: done[kind, s][0])
            _, w, pi, trace = done[kind, start]
            fitted[kind, variant] = EnsembleWeights(w, pi, variant, trace=trace), start
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
    kind, variant = Discrepancy(spec), EnsembleVariant(variant)
    p, onehot = _prepare(p_train, twin_cols)
    fitted = _fit_variants(p, onehot, [kind], [variant], cfg or MirrorDescentConfig())
    return fitted[kind, variant][0]


# ---------------------------------------------------------------------------
# Train-objective x test-metric cross-table (one row per training objective,
# three ensemble variants per cell, plus the uniform baseline row).
# ---------------------------------------------------------------------------

def evaluate_on_questions(
    weights: EnsembleWeights,
    p_list,
    twin_cols: np.ndarray,
    n_categories: int,
    metric: Discrepancy,
) -> np.ndarray:
    """Per-question discrepancy of the ensemble prediction against truth,
    with denominators clamped as in :func:`discrepancy`."""
    p, onehot = _prepare(p_list, twin_cols, n_categories)
    q = _predictions(onehot, weights)
    return _scores(Discrepancy(metric), p, q)


def cross_table(
    p_all,
    twin_cols: np.ndarray,
    n_categories: int,
    *,
    cfg: MirrorDescentConfig | None = None,
    test_frac: float = 0.2,
    seed: int = 0,
) -> dict:
    """Fit every training objective/variant pair and score on every metric.

    Questions are split train/test with a seeded shuffle; each fitted
    ensemble (and the uniform baseline) is evaluated on the held-out
    questions under all discrepancy measures. Every mirror-descent start of
    every objective runs once (see ``fit_weights``), all of them stepped
    together. Returns a JSON-ready dict that also carries the fitted weights
    and, per cell, the start whose run won and that run's step count.
    """
    cfg = cfg or MirrorDescentConfig()
    p, onehot = _prepare(p_all, twin_cols, n_categories)
    train_idx, test_idx = split_questions(p.shape[0], test_frac, seed)
    train, test = onehot[train_idx], onehot[test_idx]

    def test_metrics(weights: EnsembleWeights) -> dict:
        q = _predictions(test, weights)
        scores = {m.value: _scores(m, p[test_idx], q) for m in Discrepancy}
        return {name: dict(zip(("mean", "se"), _mean_se(s))) for name, s in scores.items()}

    def cell(weights: EnsembleWeights, start: EnsembleVariant) -> dict:
        return {
            "train_objective_value": float(np.min(weights.trace)),
            "start": start.value,
            "steps": len(weights.trace),
            "test_metrics": test_metrics(weights),
            "weights": {"w": weights.w.tolist(), "pi": weights.pi.tolist()},
        }

    table: dict = {
        "n_twins": int(onehot.shape[2]),
        "n_categories": int(n_categories),
        "train_questions": [int(j) for j in train_idx],
        "test_questions": [int(j) for j in test_idx],
        "rows": {},
    }
    fitted = _fit_variants(p[train_idx], train, Discrepancy, EnsembleVariant, cfg)
    for objective in Discrepancy:
        table["rows"][objective.value] = {
            variant.value: cell(*fitted[objective, variant]) for variant in EnsembleVariant
        }
    table["baseline"] = test_metrics(uniform_baseline(onehot.shape[2], n_categories))
    return table
