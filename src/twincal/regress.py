"""Fit-and-transfer model families: ridge, lasso/elastic net, simplex-constrained
regression, SVD-space ridge, and a small ReLU network.

:func:`fit_columns` is the one dispatch on the family: it fits many target
columns at once and returns one stacked model with a ``predict`` method. All
linear families except the simplex-constrained one fit on column-centered
data and recover the intercept afterward; the simplex family keeps
convex-combination semantics with a fixed zero intercept.

Each family has one solver that fits every target at once: the linear ones
(``*_coefficients``) work from a Gram matrix, and :func:`nn_parameters`
trains one stacked network. Each also solves the leave-one-out design, where
every column of a matrix is regressed on the others. The ``fit_*`` functions
are the one-target case of :func:`fit_columns`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .matcore import ConvergenceWarning, DataError, check_integer, check_real

__all__ = [
    "LinearModel",
    "NnModel",
    "RegressConfig",
    "fit_columns",
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
    """Coefficients and intercepts; a stacked model (m x t coefficients, t
    intercepts) predicts an n x t array."""

    coefficients: np.ndarray
    intercept: float | np.ndarray
    family: str

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.coefficients.shape[0]:
            raise DataError(
                f"feature count {x.shape[-1]} != fitted {self.coefficients.shape[0]}"
            )
        out = x @ self.coefficients
        out += self.intercept
        return out


@dataclass(frozen=True)
class NnModel:
    """Fully-connected ReLU network with a scalar output head; stacked
    parameters (see :func:`nn_parameters`) predict an n x t array."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.weights[0].shape[-2]:
            raise DataError(
                f"feature count {x.shape[-1]} != fitted {self.weights[0].shape[-2]}"
            )
        return _forward(self.weights, self.biases, x)[0].T


def fit_columns(
    x: np.ndarray,
    cfg: RegressConfig,
    y: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> LinearModel | NnModel:
    """Fit ``cfg.family`` for every target at once; one stacked model.

    With ``y`` (n x t) target c is ``y[:, c]``, regressed on every column of
    ``x``; a 1-d ``y`` gives a one-target model (1-d coefficients, scalar
    intercept, an n-vector prediction). With ``exclude`` instead the design
    is leave-one-out: target c is column ``exclude[c]`` of ``x``, regressed
    on the other columns. The linear families center ``x`` (and ``y``)
    unless the family is ``sc``, share one Gram matrix X'X/n across targets,
    and recover the intercepts afterward; the si rank is clamped to each
    target's design.
    """
    if (y is None) == (exclude is None):
        raise DataError("fit_columns takes either y or a leave-one-out exclude")
    x = np.asarray(x, dtype=np.float64)
    if y is not None:
        y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y is not None and (y.ndim not in (1, 2) or len(y) != len(x)):
        raise DataError(f"incompatible shapes X{x.shape}, y{np.shape(y)}")
    n, m = x.shape
    if cfg.family == "nn":
        targets = x[:, exclude] if y is None else y.reshape(n, -1)
        weights, biases = nn_parameters(x, targets, cfg, exclude)
        if y is not None and y.ndim == 1:
            return NnModel(tuple(w[0] for w in weights), tuple(b[0, 0] for b in biases))
        return NnModel(weights, biases)

    centered = cfg.family != "sc"
    means = x.mean(axis=0) if centered else np.zeros(m)
    xc = x - means if centered else x
    gram = xc.T @ xc / n
    if y is None:
        y_means, cross = means[exclude], gram[:, exclude]
    else:
        y_means = y.mean(axis=0) if centered else np.zeros(y.shape[1:])
        cross = xc.T @ (y - y_means) / n
    columns = cross.reshape(m, -1)
    if cfg.family == "ridge":
        coef = ridge_coefficients(gram, columns, cfg.lam, exclude)
    elif cfg.family == "sc":
        coef = simplex_coefficients(gram, columns, cfg.lam, exclude)
    elif cfg.family == "si":
        width = m if exclude is None else m - 1
        rank = min(n, width) if cfg.rank is None else min(cfg.rank, n, width)
        coef = si_coefficients(gram, columns, rank, cfg.lam, exclude)
    else:
        l1_ratio = 1.0 if cfg.family == "lasso" else cfg.l1_ratio
        coef = elastic_net_coefficients(gram, columns, cfg.alpha, l1_ratio, exclude)
    coef = coef.reshape(cross.shape)
    return LinearModel(coef, y_means - means @ coef, cfg.family)


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


def _proximal_gradient(hessian, cross, step, beta, prox, bounds, *, accelerate,
                       max_iters, tol, message):
    """Proximal gradient for every row of ``beta`` at once; the final iterates.

    Row c minimizes (1/2) b'Hb - b'cross[:, c] + g(b) from the start
    ``beta[c]``: each step moves ``step[c]`` (1/L) down the gradient of the
    smooth part, then ``prox(v, bounds)`` maps the stepped rows ``v``;
    ``bounds`` holds what the prox reads for each target, one row each. With
    ``accelerate`` the steps are taken from an extrapolated point: momentum
    follows Beck & Teboulle (2009) and is reset whenever the (proximal)
    gradient at that point has a positive component along the last move,
    that is, the move went uphill (the gradient restart of O'Donoghue &
    Candes 2015). A target stops after the first step whose largest
    coefficient change is below ``tol``; it then leaves the stacks. One
    ConvergenceWarning ``message`` is raised per target that is still
    running after ``max_iters`` steps.
    """
    corr = step * cross.T                 # iterates are one row per target
    out = np.empty_like(beta)
    running = np.arange(len(beta))
    ahead = beta                          # the extrapolated point
    momentum = np.ones(len(beta))
    for _ in range(max_iters):
        new = prox(ahead - step * (ahead @ hessian) + corr, bounds)
        delta = new - beta
        done = np.abs(delta).max(axis=1) < tol
        if accelerate:
            # ahead - new is step times the proximal gradient at ahead
            restart = np.einsum("ij,ij->i", ahead - new, delta) > 0.0
            grown = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            weight = np.where(restart, 0.0, (momentum - 1.0) / grown)
            momentum = np.where(restart, 1.0, grown)
            ahead = new + weight[:, None] * delta
        else:
            ahead = new
        beta = new
        if done.any():
            out[running[done]] = new[done]
            keep = ~done
            running = running[keep]
            beta, ahead, momentum = beta[keep], ahead[keep], momentum[keep]
            corr, step, bounds = corr[keep], step[keep], bounds[keep]
            if not running.size:
                break
    out[running] = beta
    # one level each for this loop, the kernel, fit_columns and the fit_*
    # wrapper: a one-target fit's warning names its caller's line
    for _ in range(running.size):
        warnings.warn(message, ConvergenceWarning, stacklevel=5)
    return out


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
    target starts at 0 and takes gradient steps 1/L on the smooth part, with
    L the top eigenvalue of its own Gram plus alpha * (1 - l1_ratio), then
    soft-thresholds at alpha * l1_ratio / L; see :func:`_proximal_gradient`
    for the momentum, the stop rule and the ConvergenceWarnings.
    """
    p, t = cross.shape
    l2 = alpha * (1.0 - l1_ratio)
    step = _step_sizes(gram, exclude, l2, t)[:, None]
    # per target and coordinate, the soft threshold of the prox step, which
    # takes v to v less v clipped to [-thresh, thresh]; inf on a held-out or
    # constant coordinate, which that sends to exactly 0
    thresh = np.tile(step * (alpha * l1_ratio), (1, p))
    thresh[:, np.diag(gram) == 0.0] = np.inf
    if exclude is not None:
        thresh[np.arange(t), exclude] = np.inf
    return _proximal_gradient(
        gram + l2 * np.eye(p), cross, step, np.zeros((t, p)),
        lambda v, bound: v - np.minimum(np.maximum(v, -bound), bound), thresh,
        accelerate=True, max_iters=max_iters, tol=tol,
        message=f"elastic net did not converge within {max_iters} steps",
    ).T


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float) -> LinearModel:
    """Closed-form l2-penalized least squares: (X'X/n + lam I)^-1 X'y/n."""
    return fit_columns(x, RegressConfig("ridge", lam=lam), y)


def fit_elastic_net(
    x: np.ndarray, y: np.ndarray, alpha: float, l1_ratio: float = 1.0
) -> LinearModel:
    """Accelerated proximal gradient (FISTA) for (1/2n)||y - Xb||^2 + penalty.

    The penalty is alpha * (l1_ratio * ||b||_1 + (1 - l1_ratio)/2 * ||b||^2);
    l1_ratio = 1 is the lasso. Steps run in covariance form (Gram matrix
    precomputed) and stop when the largest coefficient change in a step
    drops below 1e-7, after at most 2000 steps. Constant (zero-variance)
    columns keep coefficient 0. This is the one-target case of
    :func:`elastic_net_coefficients`.
    """
    family = "lasso" if l1_ratio == 1.0 else "en"
    return fit_columns(x, RegressConfig(family, alpha=alpha, l1_ratio=l1_ratio), y)


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
    outside the target's simplex. Each target starts uniform on its simplex
    and takes steps 1/L, with L the top eigenvalue of its own Gram (excluded
    row and column removed) plus lam, each followed by the projection and
    without momentum; see :func:`_proximal_gradient` for the stop rule and
    the ConvergenceWarnings. At step 1/L no step raises the objective, so
    the last iterate is the best one up to rounding. A result off the
    simplex raises :class:`DataError`.
    """
    p, t = cross.shape
    # 0 on a target's simplex, -inf on its excluded coordinate, which the
    # projection then sends to exactly 0
    held = np.zeros((t, p))
    if exclude is not None:
        held[np.arange(t), exclude] = -np.inf
    start = np.where(held < 0.0, 0.0, 1.0 / (p if exclude is None else p - 1))
    out = _proximal_gradient(
        gram + lam * np.eye(p), cross, _step_sizes(gram, exclude, lam, t)[:, None], start,
        lambda v, mask: _project_rows(v + mask), held,
        accelerate=False, max_iters=max_iters, tol=tol,
        message=f"simplex fit did not converge within {max_iters} steps",
    )
    if np.any(out.min(axis=1) < -1e-12) or np.any(np.abs(out.sum(axis=1) - 1.0) > 1e-8):
        raise DataError("simplex projection produced an infeasible point")
    return out.T


def fit_simplex(x: np.ndarray, y: np.ndarray, lam: float = 0.0) -> LinearModel:
    """Projected gradient descent for least squares over the simplex.

    Minimizes (1/2n)||y - Xb||^2 + (lam/2)||b||^2 subject to b >= 0 and
    sum(b) = 1 (intercept fixed at 0: the prediction stays a convex
    combination of the columns). Step size 1/L with L the top eigenvalue of
    X'X/n + lam; returns the last iterate, warning on non-convergence.
    This is the one-target case of :func:`simplex_coefficients`.
    """
    return fit_columns(x, RegressConfig("sc", lam=lam), y)


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


def fit_si(x: np.ndarray, y: np.ndarray, rank: int, lam: float = 0.0) -> LinearModel:
    """Ridge regression in the top-``rank`` right-singular coordinates of X.

    Equivalent to principal-component ridge: project the centered design
    onto its leading right singular vectors, ridge-solve there, and map the
    coefficients back. With rank = n_features this reproduces
    :func:`fit_ridge` exactly, and the returned coefficients always lie in
    the span of the top singular directions. This is the one-target case of
    :func:`si_coefficients`.
    """
    cfg = RegressConfig("si", lam=lam, rank=rank)
    if not 1 <= rank <= min(np.shape(x)):
        raise DataError(f"rank {rank} out of range for a design of shape {np.shape(x)}")
    return fit_columns(x, cfg, y)


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
    return fit_columns(x, replace(cfg, family="nn"), y)
