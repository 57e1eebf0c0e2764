"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Synthetic worlds from :mod:`twincal.synth` serve as the oracles
throughout; no external data is required.
"""

import json
import time

import numpy as np
import pytest

import twincal as tc
from twincal.cli import main as cli_main
from twincal.distcal import (
    Discrepancy,
    EnsembleVariant,
    MirrorDescentConfig,
    objective_and_gradient,
)
from twincal.matcore import MaskedMatrix, write_matrix_csv
from twincal.regress import nn_loss_and_grad

RIDGE_SMALL = tc.RegressConfig(family="ridge", lam=1e-8)


def report(number, description):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_01_exact_transfer_under_row_space_inclusion():
    start = time.monotonic()
    world, human, twin, target = tc.generate_latent_world(
        200, 50, 5, twin_dim=7, alignment="rotated_superset",
        noise_sigma=0.0, seed=101,
    )
    assert world.row_space_residual() < 1e-10
    task = tc.CalibrationTask(human, twin, target_index=50,
                              method=RIDGE_SMALL, standardize=False)
    pred, _ = tc.fit_and_transfer(task)
    rel = np.linalg.norm(pred - target) / np.linalg.norm(target)
    elapsed = time.monotonic() - start
    assert rel < 1e-5
    assert elapsed < 5.0
    report(1, f"row-space-inclusion transfer rel err {rel:.2e} in {elapsed:.2f}s")


def test_02_calibration_beats_biased_twin():
    start = time.monotonic()
    en = tc.RegressConfig(family="en", alpha=0.2, l1_ratio=0.1)
    gaps = []
    for seed in range(5):
        _, human, twin, _ = tc.generate_latent_world(
            300, 60, 5, alignment="linear_distortion", noise_sigma=0.1,
            row_bias_scale=0.5, distortion_noise=0.05, missing_frac=0.1,
            seed=200 + seed,
        )
        twin_features = MaskedMatrix(twin.values[:, :60], twin.mask[:, :60])
        rep = tc.loo_evaluate(human, twin_features, en, impute_rank=5, seed=seed)
        gaps.append(rep.mean - rep.baseline_mean)
        assert rep.mean - rep.baseline_mean >= 0.2, f"seed {seed}: gap {gaps[-1]:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"elastic-net gain over twin baseline {min(gaps):.3f}..{max(gaps):.3f} "
              f"across 5 seeds in {elapsed:.1f}s")


def test_03_completion_oracle_equivalence():
    rng = np.random.default_rng(303)
    truth = rng.normal(size=(100, 2)) @ rng.normal(size=(2, 80))
    mask = rng.random((100, 80)) >= 0.2
    matrix = MaskedMatrix(np.where(mask, truth, np.nan), mask)
    hidden = ~mask

    def rmse(filled):
        return float(np.sqrt(np.mean((filled[hidden] - truth[hidden]) ** 2)))

    hard = tc.hard_impute(
        matrix, tc.CompletionConfig("hsv", rank=2, max_iters=2000, tol=1e-12)
    )
    soft = tc.soft_impute(
        matrix, tc.CompletionConfig("ssv", rank=2, lam=0.01, max_iters=2000, tol=1e-10)
    )
    als = tc.als_impute(
        matrix, tc.CompletionConfig("als", rank=2, lam=1e-6, max_iters=300, tol=1e-8)
    )
    r_hard, r_soft, r_als = rmse(hard), rmse(soft), rmse(als)
    assert r_hard < 1e-4
    assert r_soft < 1e-2
    assert r_als < 1e-3
    report(3, f"masked-entry RMSE hsv {r_hard:.1e}, ssv {r_soft:.1e}, als {r_als:.1e}")


def _mixed_suite(seed=404):
    """Half in-span, half off-span targets over a shared biased-twin world."""
    rng = np.random.default_rng(seed)
    n, m, d, d_s = 250, 40, 6, 4
    n_targets = 10
    users = rng.normal(0, d**-0.25, (n, d))
    questions = np.zeros((m, d))
    questions[:, :d_s] = rng.normal(0, d_s**-0.25, (m, d_s))
    targets = np.zeros((2 * n_targets, d))
    targets[:n_targets, :d_s] = rng.normal(0, d_s**-0.25, (n_targets, d_s))
    targets[n_targets:, :d_s] = 0.3 * rng.normal(0, d_s**-0.25, (n_targets, d_s))
    targets[n_targets:, d_s:] = rng.normal(0, 1.2 * (d - d_s) ** -0.25,
                                           (n_targets, d - d_s))
    bias = rng.normal(0, 0.8, n)
    sigma, eta = 0.05, 0.1
    human = users @ questions.T + sigma * rng.normal(size=(n, m))
    twin = users @ questions.T + bias[:, None] + eta * rng.normal(size=(n, m))
    twin_targets = users @ targets.T + bias[:, None] + eta * rng.normal(
        size=(n, 2 * n_targets)
    )
    truth = users @ targets.T + sigma * rng.normal(size=(n, 2 * n_targets))
    return human, twin, twin_targets, truth


def test_04_adaptive_transfer_endpoints_and_interior_gain():
    # bitwise endpoint contracts on a single task
    _, human, twin, _ = tc.generate_latent_world(
        60, 20, 3, seed=400, alignment="identical", noise_sigma=0.05
    )
    task = tc.CalibrationTask(human, twin, target_index=20, method=RIDGE_SMALL)
    fallback = twin.values[:, 20]
    always, _ = tc.fit_and_transfer(task)
    assert np.array_equal(tc.adaptive_transfer(task, np.inf, fallback), always)
    assert np.array_equal(tc.adaptive_transfer(task, 0.0, fallback), fallback)

    # constructed mixed suite: an interior threshold beats both endpoints
    human, twin, twin_targets, truth = _mixed_suite()
    n_t = twin_targets.shape[1]
    cal_corr = np.empty(n_t)
    base_corr = np.empty(n_t)
    mses = np.empty(n_t)
    human_m = MaskedMatrix.from_dense(human)
    for t in range(n_t):
        twin_full = MaskedMatrix.from_dense(
            np.concatenate([twin, twin_targets[:, t][:, None]], axis=1)
        )
        task = tc.CalibrationTask(human_m, twin_full, target_index=twin.shape[1],
                                  method=RIDGE_SMALL)
        pred, diag = tc.fit_and_transfer(task)
        cal_corr[t] = tc.pearson(pred, truth[:, t])
        base_corr[t] = tc.pearson(twin_targets[:, t], truth[:, t])
        mses[t] = diag.train_mse
    taus = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, np.inf]
    means = {
        tau: float(np.mean(np.where(mses < tau, cal_corr, base_corr)))
        for tau in taus
    }
    endpoint_best = max(means[0.0], means[np.inf])
    interior_best = max(means[t] for t in taus[1:-1])
    assert interior_best >= endpoint_best + 0.02
    report(4, f"interior tau mean corr {interior_best:.3f} vs endpoints "
              f"{means[0.0]:.3f}/{means[np.inf]:.3f}")


def test_05_new_user_symmetry():
    # column-space-superset world: transposed row-space-superset construction
    world, human, twin, target = tc.generate_latent_world(
        150, 45, 4, twin_dim=6, alignment="rotated_superset",
        noise_sigma=0.0, seed=505,
    )
    user_task = tc.CalibrationTask(
        human.transpose(), twin.transpose(), target_index=45,
        method=RIDGE_SMALL, orientation="new_user", standardize=False,
    )
    pred = tc.calibrate_new_user(user_task)
    rel = np.linalg.norm(pred - target) / np.linalg.norm(target)
    assert rel < 1e-5

    # symmetric world: the user task is bitwise the transposed question task
    rng = np.random.default_rng(506)
    factors = rng.normal(0, 3**-0.25, (40, 3))
    symmetric = factors @ factors.T
    target_col = factors @ rng.normal(0, 3**-0.25, 3)
    human_sym = MaskedMatrix.from_dense(symmetric)
    twin_q = MaskedMatrix.from_dense(
        np.concatenate([symmetric, target_col[:, None]], axis=1)
    )
    twin_u = MaskedMatrix.from_dense(
        np.concatenate([symmetric, target_col[None, :]], axis=0)
    )
    q_task = tc.CalibrationTask(human_sym, twin_q, target_index=40,
                                method=RIDGE_SMALL, standardize=False)
    u_task = tc.CalibrationTask(human_sym, twin_u, target_index=40,
                                method=RIDGE_SMALL, orientation="new_user",
                                standardize=False)
    pred_q, _ = tc.fit_and_transfer(q_task)
    pred_u = tc.calibrate_new_user(u_task)
    assert np.array_equal(pred_q, pred_u)
    report(5, f"new-user transfer rel err {rel:.2e}; transposition bitwise-consistent")


def test_06_distributional_calibration_with_error_bound():
    md = MirrorDescentConfig(max_iters=2000)
    reductions, test_tvs = [], []
    bound_holds = 0
    n_instances = 20
    for seed in range(n_instances):
        world, p_all, samples, p_target = tc.generate_discrete_world(
            500, 40, 5, seed=600 + seed
        )
        train_idx, test_idx = tc.split_questions(40, 0.2, seed=seed)
        p_train = [p_all[j] for j in train_idx]
        fitted = tc.fit_weights(p_train, samples[:, train_idx], "tv",
                                EnsembleVariant.PERSONAS_AND_DUMMIES, md)
        baseline = tc.uniform_baseline(500, 5)

        def mean_tv(weights):
            return float(np.mean([
                tc.discrepancy("tv", p_all[j],
                               tc.ensemble_distribution(weights, samples[:, j], 5))
                for j in test_idx
            ]))

        cal_tv = mean_tv(fitted)
        base_tv = mean_tv(baseline)
        target_pred = tc.ensemble_distribution(fitted, samples[:, 40], 5)
        target_tv = tc.discrepancy("tv", p_target, target_pred)
        bound = tc.tv_error_bound(world, alpha=0.05)
        bound_holds += target_tv <= bound
        if seed < 5:
            assert cal_tv < 0.05, f"seed {seed}: test TV {cal_tv:.4f}"
            assert cal_tv <= 0.5 * base_tv, (
                f"seed {seed}: reduction {(1 - cal_tv / base_tv) * 100:.0f}%"
            )
        test_tvs.append(cal_tv)
        reductions.append(1 - cal_tv / base_tv)
    assert bound_holds >= 19
    report(6, f"test TV {max(test_tvs[:5]):.3f} max over 5 seeds, reductions "
              f">= {min(reductions[:5]) * 100:.0f}%, bound held {bound_holds}/20")


def test_07_discrepancy_suite():
    rng = np.random.default_rng(707)
    kinds = list(Discrepancy)
    symmetric = [Discrepancy.TV, Discrepancy.HELLINGER, Discrepancy.KS,
                 Discrepancy.CDF_L1, Discrepancy.CDF_L2]
    for _ in range(40):
        p = tc.Categorical(rng.dirichlet(np.ones(6)))
        q = tc.Categorical(rng.dirichlet(np.ones(6)))
        for kind in kinds:
            value = tc.discrepancy(kind, p, q)
            assert value >= -1e-12
            assert tc.discrepancy(kind, p, p) <= 1e-10
            if kind in symmetric:
                assert abs(value - tc.discrepancy(kind, q, p)) < 1e-12
        assert tc.discrepancy("ks", p, q) <= tc.discrepancy("tv", p, q) + 1e-12
        assert tc.discrepancy("tv", p, q) <= 1.0 + 1e-12

    # tagged closed-form examples
    delta1 = tc.Categorical(np.array([1.0, 0.0]))
    delta2 = tc.Categorical(np.array([0.0, 1.0]))
    for kind in ("tv", "ks", "cdf_l1", "cdf_l2", "hellinger"):
        assert tc.discrepancy(kind, delta1, delta2) == pytest.approx(1.0)
    uniform5 = tc.Categorical(np.full(5, 0.2))
    point5 = tc.Categorical(np.array([1.0, 0, 0, 0, 0]))
    assert tc.discrepancy("tv", uniform5, point5) == pytest.approx(0.8)
    report(7, "all seven discrepancy measures pass axioms and tagged examples")


def test_08_gradient_checks():
    rng = np.random.default_rng(808)

    # network backprop vs central differences, 20 random parameter points
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    worst_nn = 0.0
    for _ in range(20):
        weights = [rng.normal(size=(2, 3)), rng.normal(size=(3, 1))]
        biases = [rng.normal(size=3), rng.normal(size=1)]
        _, grad_w, grad_b = nn_loss_and_grad(weights, biases, x, y, 0.01)
        h = 1e-6
        for params, grads in ((weights, grad_w), (biases, grad_b)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    up = nn_loss_and_grad(weights, biases, x, y, 0.01)[0]
                    p[idx] = orig - h
                    dn = nn_loss_and_grad(weights, biases, x, y, 0.01)[0]
                    p[idx] = orig
                    fd = (up - dn) / (2 * h)
                    rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
                    worst_nn = max(worst_nn, rel)
    assert worst_nn < 1e-4

    # KL and chi-square ensemble gradients vs central differences
    n, m, k = 15, 8, 4
    cols = rng.integers(1, k + 1, size=(n, m))
    p_train = np.stack([rng.dirichlet(np.ones(k)) for _ in range(m)])
    worst_md = 0.0
    for kind in (Discrepancy.KL, Discrepancy.CHI_SQUARE):
        for _ in range(20):
            raw = rng.dirichlet(np.ones(n + k)) + 0.01
            raw /= raw.sum()
            w, pi = raw[:n], raw[n:]
            _, grad_w, grad_pi = objective_and_gradient(w, pi, p_train, cols, kind)
            h = 1e-6
            flat = np.concatenate([w, pi])
            analytic = np.concatenate([grad_w, grad_pi])
            for i in range(n + k):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                f_up = objective_and_gradient(up[:n], up[n:], p_train, cols, kind)[0]
                f_dn = objective_and_gradient(dn[:n], dn[n:], p_train, cols, kind)[0]
                fd = (f_up - f_dn) / (2 * h)
                rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-8)
                worst_md = max(worst_md, rel)
    assert worst_md < 1e-4
    report(8, f"gradient checks: nn rel err {worst_nn:.1e}, "
              f"mirror-descent rel err {worst_md:.1e}")


def test_09_subspace_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        a = rng.normal(size=(14, 7))
        b = rng.normal(size=(14, 7))
        direct = tc.projection_frobenius(a, b, k)
        cos = tc.principal_angle_cosines(a, b, k)
        identity = 2 * k - 2 * float(np.sum(cos**2))
        worst = max(worst, abs(direct**2 - identity))
        assert abs(direct**2 - identity) < 1e-8
    a = rng.normal(size=(20, 6))
    assert tc.projection_frobenius(a, a, 4) == pytest.approx(0.0, abs=1e-10)
    report(9, f"projector/cosine identity holds on 50 pairs (worst gap {worst:.1e})")


def test_10_variant_nesting():
    md = MirrorDescentConfig(max_iters=1200)
    for seed in (20, 21, 22):
        for objective in (Discrepancy.TV, Discrepancy.KL):
            _, p_all, samples, _ = tc.generate_discrete_world(150, 16, 4,
                                                              seed=1000 + seed)
            cols = samples[:, :16]
            best = {}
            for variant in EnsembleVariant:
                fitted = tc.fit_weights(p_all, cols, objective, variant, md)
                best[variant] = float(np.min(fitted.trace))
            joint = best[EnsembleVariant.PERSONAS_AND_DUMMIES]
            assert joint <= best[EnsembleVariant.PERSONAS_ONLY] + 1e-6
            assert joint <= best[EnsembleVariant.DUMMIES_ONLY] + 1e-6
    report(10, "joint ensemble dominates both restricted variants on every instance")


def test_11_subcommand_determinism(tmp_path):
    _, human, twin, _ = tc.generate_latent_world(
        40, 12, 3, seed=1100, alignment="linear_distortion",
        noise_sigma=0.1, row_bias_scale=0.3, missing_frac=0.1,
    )
    twin_features = MaskedMatrix(twin.values[:, :12], twin.mask[:, :12])
    hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
    write_matrix_csv(hp, human)
    write_matrix_csv(tp, twin_features)

    world, marginals, samples, _ = tc.generate_discrete_world(60, 10, 4, seed=1101)
    rng = np.random.default_rng(0)
    codes = np.stack([rng.choice(4, size=50, p=p.probs) + 1 for p in marginals], 1)
    hd, td = tmp_path / "hd.csv", tmp_path / "td.csv"
    write_matrix_csv(hd, codes.astype(float))
    write_matrix_csv(td, samples[:, :10].astype(float))
    dc_cfg = tmp_path / "dc.json"
    dc_cfg.write_text(json.dumps({"n_categories": 4,
                                  "mirror_descent": {"max_iters": 80}}))

    invocations = {
        "calibrate": ["calibrate", "--human", str(hp), "--twin", str(tp),
                      "--method", "ridge", "--seed", "3"],
        "eval-sweep": ["eval-sweep", "--human", str(hp), "--twin", str(tp),
                       "--method", "ridge", "--taus", "0,0.1,inf", "--seed", "3"],
        "diagnose": ["diagnose", "--human", str(hp), "--twin", str(tp),
                     "--seed", "3"],
        "distcal": ["distcal", "--config", str(dc_cfg), "--human", str(hd),
                    "--twin", str(td), "--seed", "3"],
        "synth": ["synth", "--kind", "discrete", "--seed", "3"],
    }
    for name, argv in invocations.items():
        trees = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}_{run}"
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0, name
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1], f"{name} outputs differ between runs"
    report(11, "all five subcommands reproduce byte-identical outputs")
