"""Straightforward loops, kept as reference oracles.

Most are the per-target solvers the batched kernels in ``twincal.regress``
replaced: a normal-equation ridge solve, scalar cyclic coordinate descent,
projected gradient with a one-vector simplex projection, SVD-space ridge and
a one-network Adam trainer. The linear ones return the coefficients, the
intercept and whether the loop converged, so tests can compare coefficients,
fits and convergence counts target by target; the network trainer returns
its weights and biases. Then come the regularized ALS objective, which no
ALS half-step in ``twincal.completion`` may raise, the thin-SVD refill loop
that ``twincal.completion._refill`` replaced with a Gram eigendecomposition,
and the per-target completion leave-one-out loop that
``twincal.completion.held_out_columns`` replaced by holding each target
column out in place. Three bodies follow as their modules had them before
they held fewer full-size buffers, each giving the same bits: the refill
loop with new buffers every iteration, standardization of a dense matrix
through a ``MaskedMatrix``, and the alignment report that built all four
matrices before decomposing any. Last come the cell-at-a-time CSV reader and
writer that ``twincal.matcore.read_matrix_csv`` and ``write_matrix_csv``
replaced with a row-at-a-time reader and one format string per written row.
"""

import csv
import warnings

import numpy as np

from twincal.completion import (
    CompletionMethod,
    StackedTask,
    _check_rank,
    _mean_filled,
    _refill,
    als_impute,
    estimate_effective_rank,
    hard_impute,
    impute_dense,
    soft_impute,
)
from twincal.diagnostics import AlignmentReport, SubspaceAxis, _angle_curves
from twincal.matcore import ConvergenceWarning, DataError, MaskedMatrix


def _center(x, y):
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    return x - x_mean, y - y_mean, x_mean, y_mean


def ridge(x, y, lam):
    xc, yc, x_mean, y_mean = _center(x, y)
    n, m = x.shape
    beta = np.linalg.solve(xc.T @ xc / n + lam * np.eye(m), xc.T @ yc / n)
    return beta, y_mean - float(x_mean @ beta), True


def elastic_net(x, y, alpha, l1_ratio, max_iters=2000, tol=1e-7):
    xc, yc, x_mean, y_mean = _center(x, y)
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


def si(x, y, rank, lam):
    xc, yc, x_mean, y_mean = _center(x, y)
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


def als_objective(values, mask, a, b, lam):
    """Squared error of A B' on the observed cells plus lam (||A||^2 + ||B||^2)."""
    resid = np.where(mask, values - a @ b.T, 0.0)
    return float((resid**2).sum() + lam * ((a**2).sum() + (b**2).sum()))


def svd_refill(values, mask, start, rank, lam, max_iters, tol):
    """One thin SVD of the filled matrix per iteration, soft-thresholded by
    ``lam`` and truncated to ``rank``; same signature, stop rule and return
    value (filled, reconstruction, converged) as ``completion._refill``."""
    filled = recon = start
    recon_prev = None
    for _ in range(max_iters):
        left, sv, right_t = np.linalg.svd(filled, full_matrices=False)
        if lam > 0:
            sv = np.maximum(sv - lam, 0.0)
        sv[rank:] = 0.0
        recon = (left * sv) @ right_t
        filled = np.where(mask, values, recon)
        if recon_prev is not None:
            denom = max(float(np.linalg.norm(recon_prev)), 1e-12)
            if float(np.linalg.norm(recon - recon_prev)) / denom < tol:
                return filled, recon, True
        recon_prev = recon
    return filled, recon, False


def stacked_complete(task, cfg):
    """The human block, with a NaN placeholder for the target column, stacked
    on the twin and completed by the public hsv/ssv/als solver."""
    n = task.human.n_rows
    m_plus = task.twin.n_cols
    feature_cols = np.arange(m_plus) != task.target_col
    top_values = np.full((n, m_plus), np.nan)
    top_mask = np.zeros((n, m_plus), dtype=bool)
    top_values[:, feature_cols] = task.human.values
    top_mask[:, feature_cols] = task.human.mask
    stacked = MaskedMatrix(
        np.concatenate([top_values, task.twin.values], axis=0),
        np.concatenate([top_mask, task.twin.mask], axis=0),
    )
    solver = {
        CompletionMethod.HARD_SVD: hard_impute,
        CompletionMethod.SOFT_SVD: soft_impute,
        CompletionMethod.ALS: als_impute,
    }[cfg.method]
    return solver(stacked, cfg)[:n, task.target_col]


def synthetic_prior_impute(task, cfg):
    """The human matrix with the twin's target column appended as an
    unobserved column, refilled from a start holding that column."""
    if not task.twin.mask[:, task.target_col].all():
        raise DataError("the warm start needs a fully observed twin target column")
    task.human.require_coverage()
    n, m = task.human.shape
    _check_rank(cfg.rank, (n, m + 1))
    twin_col = task.twin.values[:, task.target_col]
    values = np.column_stack([task.human.values, twin_col])
    mask = np.column_stack([task.human.mask, np.zeros(n, dtype=bool)])
    start = _mean_filled(values, mask)
    start[:, m] = twin_col
    filled, _, _ = _refill(values, mask, start, cfg.rank, 0.0, cfg.max_iters, cfg.tol)
    return filled[:, m]


def completion_loo(human, twin, cfg, twin_dense):
    """Per target j: the human without column j, the twin with column j
    moved last (for sp, filled from ``twin_dense``), one ``StackedTask``, and
    one solve with its ConvergenceWarning silenced. Returns the n x m
    predictions."""
    n, m = human.shape
    cols = np.arange(m)
    sp = cfg.method is CompletionMethod.SYNTHETIC_PRIOR
    predictions = np.empty((n, m))
    for j in range(m):
        feats = cols != j
        sub_human = MaskedMatrix(human.values[:, feats], human.mask[:, feats])
        order = np.concatenate([cols[feats], [j]])
        sub_values = twin.values[:, order]
        sub_mask = twin.mask[:, order]
        if sp:
            sub_values[:, m - 1] = twin_dense[:, j]
            sub_mask[:, m - 1] = True
        task = StackedTask(sub_human, MaskedMatrix(sub_values, sub_mask), target_col=m - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            solve = synthetic_prior_impute if sp else stacked_complete
            predictions[:, j] = solve(task, cfg)
    return predictions


def gram_refill(values, mask, start, rank, lam, max_iters, tol):
    """``completion._refill`` as it allocated before it reused its buffers: a
    new reconstruction, fill and difference each iteration."""
    filled = recon = start
    recon_prev = None
    tall = start.shape[0] >= start.shape[1]
    for _ in range(max_iters):
        x = filled if tall else filled.T
        eig, vecs = np.linalg.eigh(x.T @ x)
        top = vecs[:, -rank:]
        scores = x @ top
        if lam > 0:
            sv = np.sqrt(np.maximum(eig[-rank:], 0.0))
            scores *= np.divide(sv - lam, sv, out=np.zeros(rank), where=sv > lam)
        recon = scores @ top.T if tall else (scores @ top.T).T
        filled = np.where(mask, values, recon)
        if recon_prev is not None:
            denom = max(float(np.linalg.norm(recon_prev)), 1e-12)
            if float(np.linalg.norm(recon - recon_prev)) / denom < tol:
                return filled, recon, True
        recon_prev = recon
    return filled, recon, False


def standardize_masked(values):
    """A dense matrix standardized the way ``calibrate`` did before
    ``matcore.standardize_dense``: through a :class:`MaskedMatrix` and the
    masked body of the former ``standardize_columns``, with NaN cells as
    missing. Returns (values, means, stds); missing cells stay NaN."""
    matrix = MaskedMatrix.from_dense(values)
    mask = matrix.mask
    counts = mask.sum(axis=0)
    filled = np.where(mask, matrix.values, 0.0)
    means = filled.sum(axis=0) / counts
    col_max = np.where(mask, matrix.values, -np.inf).max(axis=0)
    col_min = np.where(mask, matrix.values, np.inf).min(axis=0)
    constant = col_max == col_min
    means = np.where(constant, col_max, means)
    centered = np.where(mask, matrix.values - means, 0.0)
    stds = np.sqrt((centered**2).sum(axis=0) / counts)
    stds = np.where(constant, 0.0, stds)
    scale = np.where(constant, 1.0, stds)
    standardized = np.where(mask, centered / scale, np.nan)
    standardized[:, constant] = np.where(mask[:, constant], 0.0, np.nan)
    return MaskedMatrix(standardized, mask).values, means, stds


def alignment_report(human, twin, axis, seed=0, *, rank=None, impute_rank=None):
    """``diagnostics.alignment_report`` with every matrix built up front: both
    imputed, demeaned copies, both baselines, then four SVDs whose bases
    are views of the full factors."""
    def dense_demeaned(matrix):
        dense, used_rank = impute_dense(matrix, impute_rank, seed)
        return dense - dense.mean(axis=0), used_rank

    axis = SubspaceAxis(axis)
    h, human_impute_rank = dense_demeaned(human)
    t, _ = dense_demeaned(twin)
    if rank is None:
        if impute_rank is None and human_impute_rank:
            rank = human_impute_rank
        else:
            rank = estimate_effective_rank(human, seed=seed)
    row_space = axis is SubspaceAxis.ROW_SPACE
    r_max = min(rank + 2, min(h.shape), min(t.shape))
    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=t.shape)
    gaussian -= gaussian.mean(axis=0)
    shuffled = h.copy()
    for j in range(shuffled.shape[1]):
        shuffled[:, j] = shuffled[rng.permutation(shuffled.shape[0]), j]
    bases, spectra = [], []
    for matrix in (h, t, gaussian, shuffled):
        left, sv, _ = np.linalg.svd(matrix.T if row_space else matrix, full_matrices=False)
        bases.append(left[:, :r_max])
        spectra.append(sv)
    q_human, q_twin, q_gaussian, q_shuffled = bases
    cos, dist = _angle_curves(q_human, q_twin)
    g_cos, g_dist = _angle_curves(q_human, q_gaussian)
    s_cos, s_dist = _angle_curves(q_human, q_shuffled)
    return AlignmentReport(
        axis=axis, rank=int(rank), r_max=int(r_max), cosines=cos, proj_frobenius=dist,
        gaussian_cosines=g_cos, gaussian_proj_frobenius=g_dist,
        shuffled_cosines=s_cos, shuffled_proj_frobenius=s_dist, seed=seed,
        human_spectrum=spectra[0], twin_spectrum=spectra[1],
    )


def _format_cell(x: float) -> str:
    return "%.17g" % x


def write_matrix_csv_cells(
    path,
    matrix: MaskedMatrix | np.ndarray,
    *,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
) -> None:
    """Write a (masked) matrix in the toolkit's CSV interchange format."""
    if not isinstance(matrix, MaskedMatrix):
        matrix = MaskedMatrix.from_dense(np.asarray(matrix, dtype=np.float64))
    n, m = matrix.shape
    if row_labels is None:
        row_labels = [f"r{i}" for i in range(n)]
    if col_labels is None:
        col_labels = [f"c{j}" for j in range(m)]
    if len(row_labels) != n or len(col_labels) != m:
        raise DataError("label lengths do not match matrix dimensions")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *col_labels])
        for i in range(n):
            row = [
                _format_cell(matrix.values[i, j]) if matrix.mask[i, j] else "NA"
                for j in range(m)
            ]
            writer.writerow([row_labels[i], *row])


def read_matrix_csv_cells(path, *, return_labels: bool = False):
    """Read a matrix written by :func:`write_matrix_csv`.

    "NA" (any case) and empty cells are missing. Returns a
    :class:`MaskedMatrix`, optionally with (row_labels, col_labels).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise DataError(f"{path}: expected a header row plus at least one data row")
    col_labels = rows[0][1:]
    m = len(col_labels)
    row_labels = []
    values = np.full((len(rows) - 1, m), np.nan)
    mask = np.zeros((len(rows) - 1, m), dtype=bool)
    try:
        for i, row in enumerate(rows[1:]):
            if len(row) != m + 1:
                raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {m + 1}")
            row_labels.append(row[0])
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "" or cell.upper() == "NA":
                    continue
                values[i, j] = float(cell)
                mask[i, j] = True
    except DataError:
        raise
    except ValueError:
        raise DataError(
            f"{path}: row {i + 1}, column {col_labels[j]!r}: not a number: {cell!r}"
        ) from None
    try:
        matrix = MaskedMatrix(values, mask)
    except DataError:
        # only a non-finite cell (inf, nan) fails here; name the first one
        i, j = np.argwhere(mask & ~np.isfinite(values))[0]
        raise DataError(
            f"{path}: row {i + 1}, column {col_labels[j]!r}: "
            f"non-finite value {float(values[i, j])!r}"
        ) from None
    if return_labels:
        return matrix, row_labels, col_labels
    return matrix
