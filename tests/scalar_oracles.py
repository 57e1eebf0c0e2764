"""Straightforward one-target regression loops, kept as reference oracles.

These are the per-target solvers the batched kernels in ``twincal.regress``
replaced: a normal-equation ridge solve, scalar cyclic coordinate descent,
projected gradient with a one-vector simplex projection, SVD-space ridge and
a one-network Adam trainer. The linear ones return the coefficients, the
intercept and whether the loop converged, so tests can compare coefficients,
fits and convergence counts target by target; the network trainer returns
its weights and biases.
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


def si(x, y, rank, lam, fit_intercept=True):
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    n = x.shape[0]
    _, _, right_t = np.linalg.svd(xc, full_matrices=False)
    basis = right_t[:rank].T                       # m x rank
    scores = xc @ basis                            # n x rank
    gram = scores.T @ scores / n + lam * np.eye(rank)
    theta = np.linalg.solve(gram, scores.T @ yc / n)
    beta = basis @ theta
    return beta, y_mean - float(x_mean @ beta), True


def nn_forward(weights, biases, x):
    acts = [x]
    pre = []
    h = x
    last = len(weights) - 1
    for idx, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = z if idx == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts[-1][:, 0], (acts, pre)


def nn_loss_and_grad(weights, biases, x, y, weight_decay=0.0):
    n = x.shape[0]
    out, (acts, pre) = nn_forward(weights, biases, x)
    resid = out - y
    loss = float(np.mean(resid**2))
    if weight_decay > 0:
        loss += 0.5 * weight_decay * sum(float((w**2).sum()) for w in weights)
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    delta = (2.0 / n) * resid[:, None]
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if weight_decay > 0:
            grad_w[layer] = grad_w[layer] + weight_decay * weights[layer]
        if layer > 0:
            delta = (delta @ weights[layer].T) * (pre[layer - 1] > 0)
    return loss, grad_w, grad_b


def nn(x, y, cfg):
    """Adam with minibatches and early stopping on the last 10% of rows.

    Returns the weights, the biases and the number of epochs run.
    """
    n, m = x.shape
    rng = np.random.default_rng(cfg.seed)
    sizes = [m, *cfg.hidden_sizes, 1]
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i], sizes[i + 1]))
        for i in range(len(sizes) - 1)
    ]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    n_val = max(1, n // 10)
    x_train, y_train = x[: n - n_val], y[: n - n_val]
    x_val, y_val = x[n - n_val :], y[n - n_val :]

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = np.inf
    best_params = None
    stale = 0
    epochs = 0
    for epoch in range(cfg.epochs):
        epochs = epoch + 1
        order = rng.permutation(len(y_train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad_w, grad_b = nn_loss_and_grad(
                weights, biases, x_train[batch], y_train[batch], cfg.weight_decay
            )
            if not np.isfinite(loss):
                raise FloatingPointError(f"NaN/inf training loss at epoch {epoch}")
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i in range(len(weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * grad_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * grad_w[i] ** 2
                weights[i] = weights[i] - cfg.learning_rate * (
                    m_w[i] / corr1
                ) / (np.sqrt(v_w[i] / corr2) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grad_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grad_b[i] ** 2
                biases[i] = biases[i] - cfg.learning_rate * (
                    m_b[i] / corr1
                ) / (np.sqrt(v_b[i] / corr2) + eps)
        val_pred, _ = nn_forward(weights, biases, x_val)
        val_mse = float(np.mean((val_pred - y_val) ** 2))
        if val_mse < best_val:
            best_val = val_mse
            best_params = ([w.copy() for w in weights], [b.copy() for b in biases])
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best_params is not None:
        weights, biases = best_params
    return weights, biases, epochs
