"""Fit-and-transfer model families: ridge, lasso/elastic net, simplex-constrained
regression, SVD-space ridge, and a small ReLU network.

Every family exposes a ``fit_*`` function returning an immutable model with a
``predict`` method. All linear families except the simplex-constrained one
fit on column-centered data and recover the intercept afterward; the simplex
family keeps convex-combination semantics with a fixed zero intercept.

Every family has one solver that fits many targets at once: the linear ones
(``*_coefficients``) work from a Gram matrix, and :func:`nn_parameters`
trains one stacked network. Each also solves the leave-one-out design, where
every column of a matrix is regressed on the others. The ``fit_*`` functions
are its one-target case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .matcore import ConvergenceWarning, DataError, check_integer, check_real

__all__ = [
    "LinearModel",
    "NnModel",
    "RegressConfig",
    "fit_ridge",
    "fit_elastic_net",
    "fit_simplex",
    "ridge_coefficients",
    "elastic_net_coefficients",
    "simplex_coefficients",
    "si_coefficients",
    "nn_parameters",
    "fit_si",
    "fit_nn",
    "project_simplex",
    "nn_loss_and_grad",
]

FAMILIES = ("ridge", "lasso", "en", "nn", "sc", "si")


@dataclass(frozen=True)
class RegressConfig:
    """Family selector plus the hyperparameters that family reads."""

    family: str = "ridge"
    lam: float = 1.0                      # ridge / sc / si penalty
    alpha: float = 0.1                    # elastic-net penalty strength
    l1_ratio: float = 0.1                 # elastic-net l1 share (1 = lasso)
    rank: int | None = None               # si truncation rank
    hidden_sizes: tuple[int, ...] = (16,)
    weight_decay: float = 0.0
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 128
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("lam", "alpha", "l1_ratio", "weight_decay", "learning_rate"):
            check_real(name, getattr(self, name))
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("patience", None),
                              ("seed", None)):
            check_integer(name, getattr(self, name), minimum)
        if self.rank is not None:
            check_integer("rank", self.rank)
        if not isinstance(self.hidden_sizes, (list, tuple)):
            raise DataError(f"hidden_sizes must be a list of integers, got {self.hidden_sizes!r}")
        for size in self.hidden_sizes:
            check_integer("hidden_sizes", size, 1)
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise DataError("l1_ratio must lie in [0, 1]")
        if self.lam < 0 or self.alpha < 0 or self.weight_decay < 0:
            raise DataError("penalties must be nonnegative")
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    family: str

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.coefficients.shape[0]:
            raise DataError(
                f"feature count {x.shape[-1]} != fitted {self.coefficients.shape[0]}"
            )
        return x @ self.coefficients + self.intercept


@dataclass(frozen=True)
class NnModel:
    """Fully-connected ReLU network with a scalar output head; stacked
    parameters (see :func:`nn_parameters`) predict a t x n array."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.weights[0].shape[-2]:
            raise DataError(
                f"feature count {x.shape[-1]} != fitted {self.weights[0].shape[-2]}"
            )
        return _forward(self.weights, self.biases, x)[0]


def _center(x: np.ndarray, y: np.ndarray, fit_intercept: bool):
    if fit_intercept:
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        return x - x_mean, y - y_mean, x_mean, y_mean
    return x, y, np.zeros(x.shape[1]), 0.0


def _as_xy(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DataError(f"incompatible shapes X{x.shape}, y{y.shape}")
    return x, y


def _not_converged(message: str, converged: np.ndarray) -> None:
    """One ConvergenceWarning per target that hit its iteration cap."""
    for _ in range(int(np.count_nonzero(~converged))):
        warnings.warn(message, ConvergenceWarning, stacklevel=4)


def _sub_grams(gram: np.ndarray, exclude: np.ndarray | None):
    """Per target, the coordinates it regresses on (t x (p-1), all but
    ``exclude[c]``; without ``exclude`` 1 x p, shared) and its Gram there."""
    p = gram.shape[0]
    idx = np.arange(p)[None]
    if exclude is not None:
        keep = idx != np.asarray(exclude)[:, None]
        idx = np.nonzero(keep)[1].reshape(len(keep), p - 1)
    return idx, gram[idx[:, :, None], idx[:, None, :]]


def ridge_coefficients(
    gram: np.ndarray, cross: np.ndarray, lam: float, exclude: np.ndarray | None = None
) -> np.ndarray:
    """l2-penalized least squares for every column of ``cross`` at once.

    ``gram`` is the p x p feature Gram matrix X'X/n and ``cross`` the p x t
    matrix X'Y/n; column c of the result solves (gram + lam I) b = cross[:, c].
    With ``exclude`` the design is leave-one-out: target c is feature
    ``exclude[c]`` itself (``cross[:, c] == gram[:, exclude[c]]``) and is
    regressed on the other features. All such targets share P = (gram + lam
    I)^-1, and target k's coefficients are -P[:, k] / P[k, k] with 0 at k
    (the neighbourhood-regression identity).
    """
    system = gram + lam * np.eye(gram.shape[0])
    try:
        if exclude is None:
            return np.linalg.solve(system, cross)
        inv = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        raise DataError("singular system; use lam > 0") from None
    cols = np.arange(len(exclude))
    coef = -inv[:, exclude] / inv[exclude, exclude]
    coef[exclude, cols] = 0.0
    return coef


def _step_sizes(gram: np.ndarray, exclude: np.ndarray | None, shift: float, t: int):
    """Per target, 1/L with L the top eigenvalue of its own Gram (excluded row
    and column removed) plus ``shift``, floored at 1e-12; one ``eigvalsh``
    over the :func:`_sub_grams` stack serves every target."""
    lips = np.linalg.eigvalsh(_sub_grams(gram, exclude)[1])[:, -1] + shift
    return 1.0 / np.maximum(np.broadcast_to(lips, (t,)), 1e-12)


def elastic_net_coefficients(
    gram: np.ndarray,
    cross: np.ndarray,
    alpha: float,
    l1_ratio: float,
    exclude: np.ndarray | None = None,
    *,
    max_iters: int = 2000,
    tol: float = 1e-7,
) -> np.ndarray:
    """Accelerated proximal gradient (FISTA) for every column of ``cross`` at once.

    Each column c minimizes (1/2) b'Gb - b'cross[:, c] + penalty, the
    covariance form of (1/2n)||y - Xb||^2 + penalty; see
    :func:`fit_elastic_net` for the penalty. ``gram``, ``cross`` and
    ``exclude`` are as in :func:`ridge_coefficients`; an excluded coordinate
    stays exactly 0, and so do constant (zero-variance) features. Each
    target takes gradient steps 1/L on the smooth part, with L the top
    eigenvalue of its own Gram plus alpha * (1 - l1_ratio), then
    soft-thresholds at alpha * l1_ratio / L. Momentum follows Beck &
    Teboulle (2009) and is reset whenever the (proximal) gradient at the
    extrapolated point has a positive component along the last move, that
    is, the move went uphill (the gradient restart of O'Donoghue & Candes
    2015). A
    target stops after the first step whose largest coefficient change is
    below ``tol``; it then leaves the stacks. One ConvergenceWarning is
    raised per target that is still running after ``max_iters`` steps.
    """
    p, t = cross.shape
    l2 = alpha * (1.0 - l1_ratio)
    step = _step_sizes(gram, exclude, l2, t)[:, None]
    # per target and coordinate, the soft threshold of the prox step, which
    # takes v to v less v clipped to [floor, thresh]; inf on a held-out or
    # constant coordinate, which that sends to exactly 0
    thresh = np.tile(step * (alpha * l1_ratio), (1, p))
    thresh[:, np.diag(gram) == 0.0] = np.inf
    if exclude is not None:
        thresh[np.arange(t), exclude] = np.inf
    floor = -thresh
    shifted = gram + l2 * np.eye(p)       # the smooth part's Hessian
    corr = step * cross.T                 # iterates are one row per target

    out = np.empty((t, p))
    converged = np.zeros(t, dtype=bool)
    running = np.arange(t)
    beta = np.zeros((t, p))
    ahead = beta                          # the extrapolated point
    momentum = np.ones(t)
    for _ in range(max_iters):
        trial = ahead - step * (ahead @ shifted) + corr
        new = trial - np.minimum(np.maximum(trial, floor), thresh)
        delta = new - beta
        done = np.abs(delta).max(axis=1) < tol
        # ahead - new is step times the proximal gradient at ahead
        restart = np.einsum("ij,ij->i", ahead - new, delta) > 0.0
        grown = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        weight = np.where(restart, 0.0, (momentum - 1.0) / grown)
        momentum = np.where(restart, 1.0, grown)
        beta = new
        ahead = new + weight[:, None] * delta
        if done.any():
            out[running[done]] = new[done]
            converged[running[done]] = True
            keep = ~done
            running = running[keep]
            beta, ahead, momentum = beta[keep], ahead[keep], momentum[keep]
            corr, step, thresh, floor = corr[keep], step[keep], thresh[keep], floor[keep]
            if not running.size:
                break
    out[running] = beta
    _not_converged(f"elastic net did not converge within {max_iters} steps", converged)
    return out.T


def fit_ridge(
    x: np.ndarray, y: np.ndarray, lam: float, *, fit_intercept: bool = True
) -> LinearModel:
    """Closed-form l2-penalized least squares: (X'X/n + lam I)^-1 X'y/n."""
    x, y = _as_xy(x, y)
    if lam < 0:
        raise DataError("lam must be nonnegative")
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    n = x.shape[0]
    beta = ridge_coefficients(xc.T @ xc / n, (xc.T @ yc / n)[:, None], lam)[:, 0]
    return LinearModel(beta, y_mean - float(x_mean @ beta), "ridge")


def fit_elastic_net(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float = 1.0,
    *,
    fit_intercept: bool = True,
    max_iters: int = 2000,
    tol: float = 1e-7,
) -> LinearModel:
    """Accelerated proximal gradient (FISTA) for (1/2n)||y - Xb||^2 + penalty.

    The penalty is alpha * (l1_ratio * ||b||_1 + (1 - l1_ratio)/2 * ||b||^2);
    l1_ratio = 1 is the lasso. Steps run in covariance form (Gram matrix
    precomputed) and stop when the largest coefficient change in a step
    drops below ``tol``; ``max_iters`` counts steps. Constant
    (zero-variance) columns keep coefficient 0. This is the one-target case
    of :func:`elastic_net_coefficients`.
    """
    x, y = _as_xy(x, y)
    if alpha < 0 or not 0.0 <= l1_ratio <= 1.0:
        raise DataError("alpha must be >= 0 and l1_ratio in [0, 1]")
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    n = x.shape[0]
    beta = elastic_net_coefficients(
        xc.T @ xc / n, (xc.T @ yc / n)[:, None], alpha, l1_ratio,
        max_iters=max_iters, tol=tol,
    )[:, 0]
    family = "lasso" if l1_ratio == 1.0 else "en"
    return LinearModel(beta, y_mean - float(x_mean @ beta), family)


def _project_rows(v: np.ndarray) -> np.ndarray:
    """Project each row of ``v`` onto the simplex over its finite entries.

    Entries of -inf (a coordinate held out of a target's support) project
    to exactly 0. Sort algorithm, one vectorized pass for all rows.
    """
    width = int(np.isfinite(v[0]).sum())
    u = np.sort(v, axis=1)[:, ::-1][:, :width]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, width + 1)
    # rho is the last index with u - css/idx > 0 (the first always qualifies)
    rho = width - np.argmax((u - css / idx > 0)[:, ::-1], axis=1)
    theta = css[np.arange(len(v)), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort algorithm)."""
    v = np.asarray(v, dtype=np.float64)
    return _project_rows(v[None, :])[0]


def simplex_coefficients(
    gram: np.ndarray,
    cross: np.ndarray,
    lam: float,
    exclude: np.ndarray | None = None,
    *,
    max_iters: int = 5000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Projected gradient over the simplex for every column of ``cross`` at once.

    Column c minimizes (1/2) b'Gb - b'cross[:, c] + (lam/2)||b||^2 over
    b >= 0, sum(b) = 1 (uncentered ``gram``; see :func:`fit_simplex`), with
    ``exclude`` as in :func:`ridge_coefficients`: an excluded coordinate is
    outside the target's simplex. Each target takes steps 1/L with L the top
    eigenvalue of its own Gram (excluded row and column removed) plus lam,
    keeps its best iterate, and stops once a step moves no coefficient by
    ``tol`` or more. One ConvergenceWarning is raised per target that is
    still running after ``max_iters`` steps; a best iterate off the simplex
    raises :class:`DataError`.
    """
    p, t = cross.shape
    step = _step_sizes(gram, exclude, lam, t)

    # iterates are one row per target; an excluded coordinate sits at -inf
    # before each projection and at exactly 0 after it
    corr = np.ascontiguousarray(cross.T)
    width = p if exclude is None else p - 1
    beta = np.full((t, p), 1.0 / width)
    held = None
    if exclude is not None:
        held = (np.arange(t), np.asarray(exclude))
        beta[held] = 0.0

    def objective(b, gb):
        # (1/2n)||y - Xb||^2 + (lam/2)||b||^2 less the constant y'y/2n
        return np.sum(b * (0.5 * gb - corr + 0.5 * lam * b), axis=1)

    gb = beta @ gram
    best = beta.copy()
    best_obj = objective(beta, gb)
    out = np.empty((t, p))
    converged = np.zeros(t, dtype=bool)
    running = np.arange(t)
    for _ in range(max_iters):
        trial = beta - step[:, None] * (gb - corr + lam * beta)
        if held is not None:
            trial[held] = -np.inf
        new = _project_rows(trial)
        gb = new @ gram
        obj = objective(new, gb)
        better = obj < best_obj
        best_obj[better] = obj[better]
        best[better] = new[better]
        done = np.max(np.abs(new - beta), axis=1) < tol
        beta = new
        if done.any():
            out[running[done]] = best[done]
            converged[running[done]] = True
            keep = ~done
            running = running[keep]
            beta, gb, best, best_obj = beta[keep], gb[keep], best[keep], best_obj[keep]
            corr, step = corr[keep], step[keep]
            if held is not None:
                held = (np.arange(running.size), held[1][keep])
            if not running.size:
                break
    out[running] = best
    _not_converged(f"simplex fit did not converge within {max_iters} steps", converged)
    if np.any(out.min(axis=1) < -1e-12) or np.any(np.abs(out.sum(axis=1) - 1.0) > 1e-8):
        raise DataError("simplex projection produced an infeasible point")
    return out.T


def fit_simplex(
    x: np.ndarray,
    y: np.ndarray,
    lam: float = 0.0,
    *,
    max_iters: int = 5000,
    tol: float = 1e-12,
) -> LinearModel:
    """Projected gradient descent for least squares over the simplex.

    Minimizes (1/2n)||y - Xb||^2 + (lam/2)||b||^2 subject to b >= 0 and
    sum(b) = 1 (intercept fixed at 0: the prediction stays a convex
    combination of the columns). Step size 1/L with L the top eigenvalue of
    X'X/n + lam; returns the best feasible iterate, warning on
    non-convergence. This is the one-target case of
    :func:`simplex_coefficients`.
    """
    x, y = _as_xy(x, y)
    if lam < 0:
        raise DataError("lam must be nonnegative")
    n = x.shape[0]
    beta = simplex_coefficients(
        x.T @ x / n, (x.T @ y / n)[:, None], lam, max_iters=max_iters, tol=tol
    )[:, 0]
    return LinearModel(beta, 0.0, "sc")


def si_coefficients(
    gram: np.ndarray, cross: np.ndarray, rank: int, lam: float,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Ridge in the top-``rank`` principal directions for every column of ``cross``.

    Column c's coefficients are V_r diag(1/(e_r + lam)) V_r' cross[:, c],
    with (e_r, V_r) the top eigenpairs of the centered ``gram`` X'X/n (its
    right singular pairs), less row and column ``exclude[c]`` with
    ``exclude`` (as in :func:`ridge_coefficients`). One batched ``eigh``
    serves all targets; ``rank`` must lie in [1, coordinates per target].
    """
    idx, grams = _sub_grams(gram, exclude)
    if not 1 <= rank <= idx.shape[1]:
        raise DataError(f"rank {rank} out of range for {idx.shape[1]} features")
    vals, vecs = np.linalg.eigh(grams)
    vals, vecs = vals[:, -rank:], vecs[:, :, -rank:]
    cols = np.arange(cross.shape[1])[:, None]
    theta = (np.swapaxes(vecs, 1, 2) @ cross[idx, cols][:, :, None])[:, :, 0]
    coef = np.zeros(cross.shape)
    coef[idx, cols] = (vecs @ (theta / (vals + lam))[:, :, None])[:, :, 0]
    return coef


def fit_si(
    x: np.ndarray,
    y: np.ndarray,
    rank: int,
    lam: float = 0.0,
    *,
    fit_intercept: bool = True,
) -> LinearModel:
    """Ridge regression in the top-``rank`` right-singular coordinates of X.

    Equivalent to principal-component ridge: project the (centered) design
    onto its leading right singular vectors, ridge-solve there, and map the
    coefficients back. With rank = n_features this reproduces
    :func:`fit_ridge` exactly, and the returned coefficients always lie in
    the span of the top singular directions. This is the one-target case of
    :func:`si_coefficients`.
    """
    x, y = _as_xy(x, y)
    n, m = x.shape
    if not 1 <= rank <= min(n, m):
        raise DataError(f"rank {rank} out of range for {n}x{m} design")
    xc, yc, x_mean, y_mean = _center(x, y, fit_intercept)
    beta = si_coefficients(xc.T @ xc / n, (xc.T @ yc / n)[:, None], rank, lam)[:, 0]
    return LinearModel(beta, y_mean - float(x_mean @ beta), "si")


# ---------------------------------------------------------------------------
# Single-hidden-layer (or two-layer) ReLU network trained with Adam.
# ---------------------------------------------------------------------------

def _forward(weights, biases, x):
    """Return (output, per-layer pre/post activations for backprop); stacked
    parameters run every network on the shared ``x`` (t x n output)."""
    acts = [x]
    pre = []
    h = x
    last = len(weights) - 1
    for idx, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = z if idx == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts[-1][..., 0], (acts, pre)


def nn_loss_and_grad(weights, biases, x, y, weight_decay: float = 0.0):
    """Mean-squared-error loss (plus l2 weight penalty) and its gradients.

    The penalty is (weight_decay/2) * sum ||W||^2 over weight matrices only,
    so the analytic gradients here match central finite differences of the
    returned loss. With stacked parameters (see :func:`_forward`) and a
    t x n ``y``, every network gets its own loss and gradients.
    """
    n = x.shape[0]
    out, (acts, pre) = _forward(weights, biases, x)
    resid = out - y
    loss = np.mean(resid**2, axis=-1)
    if weight_decay > 0:
        loss = loss + 0.5 * weight_decay * sum((w**2).sum(axis=(-2, -1)) for w in weights)

    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    delta = (2.0 / n) * resid[..., None]
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = np.swapaxes(acts[layer], -1, -2) @ delta
        grad_b[layer] = delta.sum(axis=-2).reshape(np.shape(biases[layer]))
        if weight_decay > 0:
            grad_w[layer] = grad_w[layer] + weight_decay * weights[layer]
        if layer > 0:
            delta = (delta @ np.swapaxes(weights[layer], -1, -2)) * (pre[layer - 1] > 0)
    return loss, grad_w, grad_b


def nn_parameters(
    x: np.ndarray, y: np.ndarray, cfg: RegressConfig, exclude: np.ndarray | None = None
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Train one ReLU network per column of ``y`` on the rows of ``x``, at once.

    Returns weights and biases stacked on a leading axis of t networks (t x
    fan_in x fan_out, t x 1 x fan_out). ``exclude`` is as in
    :func:`ridge_coefficients`; network c's first-layer row ``exclude[c]``
    is held at 0. Each network gets the initial draws and minibatches of its
    one-target :func:`fit_nn`, its own Adam state and its own early stop,
    after which it leaves the stacks: it is neither computed nor updated.
    """
    x = np.asarray(x, dtype=np.float64)
    n, m = x.shape
    if n < 2:
        raise DataError("fit_nn requires at least 2 rows")

    t = y.shape[1]
    live = np.ones((t, m, 1))               # 0 on a held-out input's first-layer row
    if exclude is not None:
        live[np.arange(t), exclude] = 0.0
    rng = np.random.default_rng(cfg.seed)
    sizes = [m if exclude is None else m - 1, *cfg.hidden_sizes, 1]
    layers = len(sizes) - 1
    draws = [
        rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i], sizes[i + 1]))
        for i in range(layers)
    ]
    first = np.zeros((t, m, sizes[1]))
    first[live[:, :, 0] > 0] = np.tile(draws[0], (t, 1))   # the draw on kept rows
    # weights, then biases
    params = [first] + [np.repeat(w[None], t, axis=0) for w in draws[1:]]
    params += [np.zeros((t, 1, size)) for size in sizes[1:]]

    n_val = max(1, n // 10)
    x_train, x_val = x[: n - n_val], x[n - n_val :]
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64).T)   # one row per network
    y_train, y_val = y[:, : n - n_val], y[:, n - n_val :]

    moments = [np.zeros_like(p) for p in params]
    squares = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best = [p.copy() for p in params]
    best_val = np.full(t, np.inf)
    stale = np.zeros(t, dtype=np.int64)
    ids = np.arange(t)      # the networks still training; every stack holds only these
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad_w, grad_b = nn_loss_and_grad(
                params[:layers], params[layers:], x_train[batch], y_train[:, batch],
                cfg.weight_decay,
            )
            if not np.all(np.isfinite(loss)):
                raise FloatingPointError(
                    f"NaN/inf training loss at epoch {epoch}; "
                    "lower the learning rate or rescale the inputs"
                )
            grad_w[0] *= live
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i, g in enumerate(grad_w + grad_b):
                moments[i] = beta1 * moments[i] + (1 - beta1) * g
                squares[i] = beta2 * squares[i] + (1 - beta2) * g**2
                params[i] = params[i] - cfg.learning_rate * (
                    moments[i] / corr1
                ) / (np.sqrt(squares[i] / corr2) + eps)
        val_pred, _ = _forward(params[:layers], params[layers:], x_val)
        val_mse = np.mean((val_pred - y_val) ** 2, axis=-1)
        better = val_mse < best_val
        # a network that never improved keeps its latest parameters
        take = better | np.isinf(best_val)
        best_val[better] = val_mse[better]
        for b, p in zip(best, params):
            b[ids[take]] = p[take]
        stale = np.where(better, 0, stale + 1)
        keep = better | (stale < cfg.patience)
        if not keep.all():
            ids = ids[keep]
            if not ids.size:
                break
            params, moments, squares = (
                [a[keep] for a in arrays] for arrays in (params, moments, squares)
            )
            live, y_train, y_val, best_val, stale = (
                a[keep] for a in (live, y_train, y_val, best_val, stale)
            )
    return tuple(best[:layers]), tuple(best[layers:])


def fit_nn(x: np.ndarray, y: np.ndarray, cfg: RegressConfig) -> NnModel:
    """Train the ReLU network with Adam, minibatches, and early stopping.

    The last 10% of rows form a fixed validation split; training stops when
    validation MSE fails to improve for ``cfg.patience`` epochs and the best
    parameters are restored. Fully deterministic given ``cfg.seed``. This is
    the one-target case of :func:`nn_parameters`.
    """
    x, y = _as_xy(x, y)
    weights, biases = nn_parameters(x, y[:, None], cfg)
    return NnModel(tuple(w[0] for w in weights), tuple(b[0, 0] for b in biases))
