"""The one-hot tensor form of the ensemble mixture map, kept as a reference oracle.

The mixture of every question is q_j = sum_i w_i * onehot(answer_ij) + pi: an
explicit (m, K, n) indicator tensor contracted by ``einsum``. ``twincal.distcal``
computes the same formula; this copy builds the tensor and the objective on its
own, so tests can check the library's tensor layout and sums bit for bit.

``values`` and ``grads_wrt_q`` write each discrepancy and its subgradient in q
from its formula, on the 2-d rows of one run, with no code from
``twincal.distcal``. ``mirror_descent_run`` is the one-run
exponentiated-gradient loop that ``distcal`` ran once per (objective, start)
before its runs were stacked.
"""

import numpy as np

from twincal.distcal import (
    _EPSILON_FLOOR,
    _ETA0,
    _STALL_TOL,
    DECAY_POWER,
    STALL_PATIENCE,
    Discrepancy,
    EnsembleVariant,
)


def onehot(twin_cols, n_categories):
    """(m, K, n) indicator tensor of the twin answers (codes 1..K)."""
    n, m = twin_cols.shape
    out = np.zeros((m, n_categories, n))
    out[np.arange(m)[:, None], twin_cols.T - 1, np.arange(n)[None, :]] = 1.0
    return out


def values(kind, p, q, eps):
    """Row discrepancies of (m, K) arrays; chi2 and KL clamp q at ``eps``, and
    KL takes 0 log 0 = 0."""
    if kind is Discrepancy.TV:
        return 0.5 * np.abs(p - q).sum(axis=1)
    if kind is Discrepancy.CHI_SQUARE:
        return (p**2 / np.maximum(q, eps)).sum(axis=1) - 1.0
    if kind is Discrepancy.KL:
        log_p = np.log(np.where(p > 0, p, 1.0))
        return np.where(p > 0, p * (log_p - np.log(np.maximum(q, eps))), 0.0).sum(axis=1)
    if kind is Discrepancy.HELLINGER:
        return 1.0 - np.sqrt(p * q).sum(axis=1)
    gap = np.abs(np.cumsum(p, axis=1) - np.cumsum(q, axis=1))
    if kind is Discrepancy.KS:
        return gap.max(axis=1)
    if kind is Discrepancy.CDF_L1:
        return gap.sum(axis=1)
    return (gap**2).sum(axis=1)


def grads_wrt_q(kind, p, q, eps):
    """Row subgradients in q of (m, K) arrays. chi2 and KL are flat where q is
    clamped; Hellinger divides by the clamped q."""
    if kind is Discrepancy.TV:
        return 0.5 * np.sign(q - p)
    if kind is Discrepancy.CHI_SQUARE:
        return np.where(q > eps, -((p / np.maximum(q, eps)) ** 2), 0.0)
    if kind is Discrepancy.KL:
        return np.where(q > eps, -p / np.maximum(q, eps), 0.0)
    if kind is Discrepancy.HELLINGER:
        return -0.5 * np.sqrt(p / np.maximum(q, eps))
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
    s = 2.0 * (g - f)
    return np.cumsum(s[:, ::-1], axis=-1)[:, ::-1]


def objective(w, pi, p, indicators, kind, epsilon_floor):
    """Mean discrepancy over the rows of p and its gradients in w and pi, one run."""
    q = np.einsum("mkn,n->mk", indicators, w) + pi[None, :]
    gq = grads_wrt_q(kind, p, q, epsilon_floor)
    grad_w = np.einsum("mkn,mk->n", indicators, gq) / p.shape[0]
    return float(values(kind, p, q, epsilon_floor).mean()), grad_w, gq.mean(axis=0)


def objective_and_gradient(w, pi, p, twin_cols, kind, epsilon_floor=1e-9):
    """Mean discrepancy over the rows of p and its gradients in w and pi."""
    indicators = onehot(twin_cols, p.shape[1])
    return objective(w, pi, p, indicators, Discrepancy(kind), epsilon_floor)


def start(variant, n, n_cat):
    """(w0, pi0, use_w, use_pi): uniform over the face of ``variant``."""
    share = 1.0 / (n + n_cat)
    return {
        EnsembleVariant.PERSONAS_AND_DUMMIES:
            (np.full(n, share), np.full(n_cat, share), True, True),
        EnsembleVariant.PERSONAS_ONLY: (np.full(n, 1.0 / n), np.zeros(n_cat), True, False),
        EnsembleVariant.DUMMIES_ONLY: (np.zeros(n), np.full(n_cat, 1.0 / n_cat), False, True),
    }[EnsembleVariant(variant)]


def mirror_descent_run(start, p, indicators, kind, cfg):
    """One exponentiated-gradient run; returns (best_obj, best_w, best_pi, trace)."""
    w0, pi0, use_w, use_pi = start
    w, pi = w0.copy(), pi0.copy()
    best_obj = np.inf
    best_w, best_pi = w.copy(), pi.copy()
    trace = np.empty(cfg.max_iters)
    stale = 0
    for t in range(1, cfg.max_iters + 1):
        obj, grad_w, grad_pi = objective(w, pi, p, indicators, kind, _EPSILON_FLOOR)
        if not np.isfinite(obj) or (use_w and not np.all(np.isfinite(grad_w))) or (
            use_pi and not np.all(np.isfinite(grad_pi))
        ):
            raise FloatingPointError(
                f"non-finite mirror-descent objective/gradient at iteration {t}"
            )
        trace[t - 1] = obj
        if obj < best_obj - _STALL_TOL * max(1.0, abs(best_obj)):
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
        # gradients (magnitudes ~ 1/_EPSILON_FLOOR^2)
        shift = max(
            grad_w.max() if use_w else -np.inf,
            grad_pi.max() if use_pi else -np.inf,
        )
        eta = _ETA0 / t**DECAY_POWER
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
