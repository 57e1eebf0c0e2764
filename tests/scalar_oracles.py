"""Straightforward one-target regression loops, kept as reference oracles.

These are the per-target solvers the batched kernels in ``twincal.regress``
replaced: a normal-equation ridge solve, scalar cyclic coordinate descent and
projected gradient with a one-vector simplex projection. Each returns the
coefficients, the intercept and whether the loop converged, so tests can
compare coefficients, fits and convergence counts target by target.
"""

import numpy as np


def _center(x, y, fit_intercept):
    if fit_intercept:
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        return x - x_mean, y - y_mean, x_mean, y_mean
    return x, y, np.zeros(x.shape[1]), 0.0


def ridge(x, y, lam, fit_intercept=True):
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    n, m = x.shape
    beta = np.linalg.solve(xc.T @ xc / n + lam * np.eye(m), xc.T @ yc / n)
    return beta, y_mean - float(x_mean @ beta), True


def elastic_net(x, y, alpha, l1_ratio, fit_intercept=True, max_iters=2000, tol=1e-7):
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    n, m = x.shape
    gram = xc.T @ xc / n
    corr = xc.T @ yc / n
    col_sq = np.diag(gram).copy()
    denom = col_sq + alpha * (1.0 - l1_ratio)
    thresh = alpha * l1_ratio
    beta = np.zeros(m)
    converged = False
    for _ in range(max_iters):
        max_delta = 0.0
        for j in range(m):
            if col_sq[j] == 0.0:
                continue
            rho = corr[j] - gram[j] @ beta + col_sq[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - thresh, 0.0) / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                beta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if max_delta < tol:
            converged = True
            break
    return beta, y_mean - float(x_mean @ beta), converged


def project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.max(idx[u - css / idx > 0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def simplex(x, y, lam, max_iters=5000, tol=1e-12):
    n, m = x.shape
    gram = x.T @ x / n
    corr = x.T @ y / n
    step = 1.0 / max(float(np.linalg.eigvalsh(gram)[-1]) + lam, 1e-12)

    def objective(b):
        r = y - x @ b
        return float(0.5 * (r @ r) / n + 0.5 * lam * (b @ b))

    beta = np.full(m, 1.0 / m)
    best_beta, best_obj = beta, objective(beta)
    converged = False
    for _ in range(max_iters):
        new = project_simplex(beta - step * (gram @ beta - corr + lam * beta))
        obj = objective(new)
        if obj < best_obj:
            best_obj, best_beta = obj, new
        if np.max(np.abs(new - beta)) < tol:
            converged = True
            break
        beta = new
    return best_beta, 0.0, converged
