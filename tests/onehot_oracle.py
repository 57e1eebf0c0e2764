"""The one-hot tensor form of the ensemble mixture map, kept as a reference oracle.

The mixture of every question is q_j = sum_i w_i * onehot(answer_ij) + pi: an
explicit (m, K, n) indicator tensor contracted by ``einsum``. ``twincal.distcal``
computes the same formula; this copy builds the tensor and the objective on its
own, so tests can check the library's tensor layout and sums bit for bit.
"""

import numpy as np

from twincal.distcal import Discrepancy, _grads_wrt_q, _values


def onehot(twin_cols, n_categories):
    """(m, K, n) indicator tensor of the twin answers (codes 1..K)."""
    n, m = twin_cols.shape
    out = np.zeros((m, n_categories, n))
    out[np.arange(m)[:, None], twin_cols.T - 1, np.arange(n)[None, :]] = 1.0
    return out


def objective_and_gradient(w, pi, p, twin_cols, kind, epsilon_floor=1e-9):
    """Mean discrepancy over the rows of p and its gradients in w and pi."""
    kind = Discrepancy(kind)
    m, n_categories = p.shape
    indicators = onehot(twin_cols, n_categories)
    q = np.einsum("mkn,n->mk", indicators, w) + pi[None, :]
    gq = _grads_wrt_q(kind, p, q, epsilon_floor)
    grad_w = np.einsum("mkn,mk->n", indicators, gq) / m
    return float(_values(kind, p, q, epsilon_floor).mean()), grad_w, gq.mean(axis=0)
