#!/usr/bin/env python3
"""Tour of the completion solvers on a masked low-rank matrix.

Shows recovery quality of hard/soft SVD imputation and ALS on a rank-3
matrix with 25% of entries hidden, held-out rank estimation, and the
stacked-matrix route for predicting an entirely missing target column.
"""

import numpy as np

import twincal as tc

rng = np.random.default_rng(0)
n, m, rank = 80, 50, 3
truth = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
mask = rng.random((n, m)) >= 0.25
matrix = tc.MaskedMatrix(np.where(mask, truth, np.nan), mask)
hidden = ~mask
print(f"rank-{rank} matrix, {n}x{m}, {hidden.mean():.0%} of entries hidden")

print("\n-- solver comparison (masked-entry RMSE) --")
for label, cfg in [
    ("hard SVD", tc.CompletionConfig("hsv", rank=3, max_iters=500, tol=1e-10)),
    ("soft SVD", tc.CompletionConfig("ssv", rank=3, lam=0.05, max_iters=500, tol=1e-9)),
    ("ALS", tc.CompletionConfig("als", rank=3, lam=1e-4, max_iters=200, tol=1e-9)),
]:
    filled = {
        "hsv": tc.hard_impute,
        "ssv": tc.soft_impute,
        "als": tc.als_impute,
    }[cfg.method.value](matrix, cfg)
    rmse = np.sqrt(np.mean((filled[hidden] - truth[hidden]) ** 2))
    print(f"  {label:>8}: {rmse:.2e}")

print("\n-- effective rank from a held-out sweep --")
est = tc.estimate_effective_rank(matrix, seed=1)
print(f"  estimated rank: {est} (true rank {rank})")

print("\n-- stacked completion of a fully missing target column --")
users = rng.normal(size=(n, rank))
questions = rng.normal(size=(m, rank))
target = users @ rng.normal(size=rank)
human = tc.MaskedMatrix.from_dense(users @ questions.T)
twin = tc.MaskedMatrix.from_dense(
    np.concatenate([users @ questions.T, target[:, None]], axis=1)
)
task = tc.StackedTask(human, twin, target_col=m)
pred = tc.stacked_complete(task, tc.CompletionConfig("hsv", rank=3,
                                                     max_iters=1000, tol=1e-12))
rel = np.linalg.norm(pred - target) / np.linalg.norm(target)
print(f"  relative target error: {rel:.2e}")

warm = tc.synthetic_prior_impute(task, tc.CompletionConfig("sp", rank=3,
                                                           max_iters=500, tol=1e-10))
print(f"  warm-start refinement error: "
      f"{np.linalg.norm(warm - target) / np.linalg.norm(target):.2e}")
