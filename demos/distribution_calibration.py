#!/usr/bin/env python3
"""Distribution-level calibration with a reweighted twin ensemble.

Only the human marginal distribution of each training question is observed.
A simplex-constrained weighting of the twins (plus K dummy members pinned to
each answer) is fitted by mirror descent to match those marginals, then used
to predict the response distribution of a held-out question.
"""

import numpy as np

import twincal as tc
from twincal.distcal import EnsembleVariant, evaluate_on_questions

SEED = 11
# a near-one-hot mixture makes the held-out question a typical single
# question rather than the (easy, error-cancelling) average of all of them
coeffs = np.random.default_rng(SEED).dirichlet(np.full(40, 0.02))
world, marginals, samples, target_marginal = tc.generate_discrete_world(
    500, 40, 5, seed=SEED, target_coeffs=coeffs
)
train_idx, test_idx = tc.split_questions(40, 0.2, seed=SEED)
print(f"{world.n_twins} twins, {world.n_questions} questions "
      f"({len(train_idx)} train / {len(test_idx)} test), K={world.n_categories}")
print(f"twin mixture over {len(world.twin_mixture)} support atoms; the human "
      f"population is a reweighting with bound A={world.reweight_bound:.2f}")

p_train = [marginals[j] for j in train_idx]
p_test = [marginals[j] for j in test_idx]

print("\n-- fit with the TV objective, score on every metric --")
fitted = tc.fit_weights(p_train, samples[:, train_idx], "tv")
baseline = tc.uniform_baseline(500, 5)
print(f"{'metric':>10} {'calibrated':>12} {'baseline':>12}")
for metric in tc.Discrepancy:
    cal = evaluate_on_questions(fitted, p_test, samples[:, test_idx], 5, metric)
    base = evaluate_on_questions(baseline, p_test, samples[:, test_idx], 5, metric)
    print(f"{metric.value:>10} {cal.mean():12.4f} {base.mean():12.4f}")

print("\n-- ensemble variants (TV objective, test TV) --")
for variant in EnsembleVariant:
    w = tc.fit_weights(p_train, samples[:, train_idx], "tv", variant)
    tv = evaluate_on_questions(w, p_test, samples[:, test_idx], 5, tc.Discrepancy.TV)
    print(f"  {variant.value:>22}: {tv.mean():.4f}")

print("\n-- held-out target question --")
pred = tc.ensemble_distribution(fitted, samples[:, 40], 5)
base_pred = tc.ensemble_distribution(baseline, samples[:, 40], 5)
print("  true      ", np.round(target_marginal.probs, 3))
print("  calibrated", np.round(pred.probs, 3))
print("  baseline  ", np.round(base_pred.probs, 3))
print(f"  TV(true, calibrated) = {tc.discrepancy('tv', target_marginal, pred):.4f}")
print(f"  TV(true, baseline)   = {tc.discrepancy('tv', target_marginal, base_pred):.4f}")
print(f"  a-priori bound       = {tc.tv_error_bound(world, alpha=0.05):.4f}")

scores = np.arange(1.0, 6.0)
ratio = tc.variance_ratio(pred, target_marginal, scores)
ratio_base = tc.variance_ratio(base_pred, target_marginal, scores)
print(f"\n  variance ratio: calibrated {ratio:.2f}, baseline {ratio_base:.2f} "
      "(1 = faithful dispersion)")
