import re
import warnings

import numpy as np
import pytest
import scalar_oracles as oracle

import twincal.regress as regress
from twincal.calibrate import (
    CalibrationTask,
    adaptive_transfer,
    calibrate_new_user,
    fit_and_transfer,
    loo_evaluate,
    sweep_thresholds,
)
from twincal.completion import CompletionConfig, impute_dense
from twincal.matcore import DataError, EmptyColumnError, MaskedMatrix, standardize_dense
from twincal.regress import RegressConfig
from twincal.synth import generate_latent_world

RIDGE = RegressConfig(family="ridge", lam=1e-8)


def identical_task(n=60, m=20, d=3, seed=0, standardize=True):
    _, human, twin, target = generate_latent_world(
        n, m, d, seed=seed, alignment="identical"
    )
    task = CalibrationTask(human, twin, target_index=m, method=RIDGE,
                           standardize=standardize)
    return task, target


class TestFitAndTransfer:
    def test_identical_world_exact(self):
        # standardized path: twin stats equal human stats, so transfer is exact
        task, target = identical_task()
        pred, diag = fit_and_transfer(task)
        rel = np.linalg.norm(pred - target) / np.linalg.norm(target)
        assert rel < 1e-6
        assert diag.train_mse < 1e-10

    def test_rotated_superset_exact_on_raw_scale(self):
        world, human, twin, target = generate_latent_world(
            120, 40, 4, twin_dim=6, alignment="rotated_superset", seed=1
        )
        assert world.row_space_residual() < 1e-10
        task = CalibrationTask(human, twin, target_index=40, method=RIDGE,
                               standardize=False)
        pred, _ = fit_and_transfer(task)
        assert np.linalg.norm(pred - target) / np.linalg.norm(target) < 1e-5

    def test_scaled_human_keeps_correlation(self):
        # doubling the human responses rescales predictions affinely, leaving
        # the correlation against the (doubled) truth unchanged
        from twincal.matcore import pearson

        _, human, twin, target = generate_latent_world(
            50, 15, 3, seed=2, alignment="linear_distortion",
            noise_sigma=0.05, distortion_noise=0.05,
        )
        task = CalibrationTask(human, twin, target_index=15, method=RIDGE)
        pred, _ = fit_and_transfer(task)
        scaled_human = MaskedMatrix(2.0 * human.values, human.mask)
        task2 = CalibrationTask(scaled_human, twin, target_index=15, method=RIDGE)
        pred2, _ = fit_and_transfer(task2)
        assert abs(pearson(pred, target) - pearson(pred2, 2.0 * target)) < 1e-10

    def test_completion_method_rejected(self):
        task, _ = identical_task()
        bad = CalibrationTask(task.human, task.twin, task.target_index,
                              method=CompletionConfig("hsv", rank=2))
        with pytest.raises(DataError):
            fit_and_transfer(bad)

    def test_shape_validation(self):
        _, human, twin, _ = generate_latent_world(20, 10, 2, seed=3)
        with pytest.raises(DataError):
            CalibrationTask(human, human, target_index=5, method=RIDGE)

    @pytest.mark.parametrize("orientation", ["new_question", "new_user"])
    @pytest.mark.parametrize("case,error", [
        ("short_twin", "human and twin must have equal row counts"),
        ("no_target", "twin must have exactly one extra (target) column"),
        ("index", "target_index 11 out of range"),
        ("hole", "twin must cover the target index fully"),
    ])
    def test_each_shape_rejection_in_both_orientations(self, orientation, case, error):
        _, human, twin, _ = generate_latent_world(20, 10, 2, seed=3)
        index = 11 if case == "index" else 10
        if case == "short_twin":
            twin = MaskedMatrix(twin.values[:-1], twin.mask[:-1])
        elif case == "no_target":
            twin = human
        elif case == "hole":
            mask = twin.mask.copy()
            mask[4, 10] = False
            twin = MaskedMatrix(twin.values, mask)
        if orientation == "new_user":
            # the same task transposed: the messages swap "row" and "column"
            human, twin = human.transpose(), twin.transpose()
            error = error.replace("row", "ROW").replace("column", "row").replace("ROW", "column")
        with pytest.raises(DataError, match=re.escape(error)):
            CalibrationTask(human, twin, target_index=index, method=RIDGE,
                            orientation=orientation)


class TestAdaptiveTransfer:
    def test_infinite_tau_is_always_transfer_bitwise(self):
        task, _ = identical_task(seed=4)
        fallback = task.twin.values[:, task.target_index]
        pred, _ = fit_and_transfer(task)
        gated = adaptive_transfer(task, np.inf, fallback)
        assert np.array_equal(gated, pred)

    def test_zero_tau_is_always_fallback_bitwise(self):
        task, _ = identical_task(seed=5)
        fallback = task.twin.values[:, task.target_index]
        gated = adaptive_transfer(task, 0.0, fallback)
        assert np.array_equal(gated, fallback)

    def test_interior_tau_mixes(self):
        task, _ = identical_task(seed=6)
        _, diag = fit_and_transfer(task)
        fallback = task.twin.values[:, task.target_index]
        above = adaptive_transfer(task, diag.train_mse * 2 + 1e-12, fallback)
        below = adaptive_transfer(task, diag.train_mse / 2, fallback)
        assert not np.array_equal(above, below)


class TestNewUser:
    def test_transposition_consistency_bitwise(self):
        # a new-user task is exactly the transposed new-question task
        _, human, twin, target = generate_latent_world(
            30, 14, 3, twin_dim=5, alignment="rotated_superset", seed=7
        )
        question_task = CalibrationTask(human, twin, target_index=14,
                                        method=RIDGE, standardize=False)
        user_task = CalibrationTask(
            human.transpose(), twin.transpose(), target_index=14,
            method=RIDGE, orientation="new_user", standardize=False,
        )
        pred_q, _ = fit_and_transfer(question_task)
        pred_u = calibrate_new_user(user_task)
        assert np.array_equal(pred_q, pred_u)

    def test_column_space_superset_exact(self):
        # transposing a row-space-superset world yields a column-space-superset
        # world: the twin user geometry spans the human one
        world, human, twin, target = generate_latent_world(
            120, 40, 4, twin_dim=6, alignment="rotated_superset", seed=8
        )
        user_task = CalibrationTask(
            human.transpose(), twin.transpose(), target_index=40,
            method=RIDGE, orientation="new_user", standardize=False,
        )
        pred = calibrate_new_user(user_task)
        assert np.linalg.norm(pred - target) / np.linalg.norm(target) < 1e-5

    def test_orientation_enforced(self):
        task, _ = identical_task(seed=9)
        with pytest.raises(DataError):
            calibrate_new_user(task)


class TestLooEvaluate:
    def test_perfect_twin_noiseless(self):
        _, human, twin, _ = generate_latent_world(40, 12, 3, seed=10,
                                                  alignment="identical")
        twin_features = MaskedMatrix.from_dense(twin.values[:, :12])
        report = loo_evaluate(human, twin_features, RIDGE)
        assert report.baseline_mean == pytest.approx(1.0, abs=1e-9)
        assert report.mean >= report.baseline_mean - 1e-9
        assert len(report.per_target) == 12
        assert report.skipped_count == 0

    def test_independent_twin_finite(self):
        rng = np.random.default_rng(11)
        _, human, _, _ = generate_latent_world(30, 10, 2, seed=11,
                                               noise_sigma=0.1)
        noise_twin = MaskedMatrix.from_dense(rng.normal(size=(30, 10)))
        report = loo_evaluate(human, noise_twin, RIDGE)
        assert np.isfinite(report.mean)
        assert abs(report.baseline_mean) < 0.5

    def test_completion_methods_run(self):
        _, human, twin, _ = generate_latent_world(30, 10, 2, seed=12,
                                                  alignment="identical")
        twin_features = MaskedMatrix.from_dense(twin.values[:, :10])
        for method in [CompletionConfig("hsv", rank=2),
                       CompletionConfig("ssv", rank=3, lam=0.01),
                       CompletionConfig("als", rank=2, lam=1e-6),
                       CompletionConfig("sp", rank=2)]:
            report = loo_evaluate(human, twin_features, method)
            assert report.mean > 0.9

    def test_adaptive_gate_inside_loo(self):
        _, human, twin, _ = generate_latent_world(30, 10, 2, seed=13,
                                                  alignment="identical",
                                                  noise_sigma=0.05)
        twin_features = MaskedMatrix.from_dense(twin.values[:, :10])
        always = loo_evaluate(human, twin_features, RIDGE, tau=np.inf)
        never = loo_evaluate(human, twin_features, RIDGE, tau=0.0)
        assert all(r.transferred for r in always.per_target)
        assert not any(r.transferred for r in never.per_target)
        # gated off: predictions equal the twin baseline, correlations match
        for r in never.per_target:
            assert r.corr == pytest.approx(r.baseline_corr, abs=1e-12)

    def test_standardization_of_inputs_invariance(self):
        # fully observed pair: pre-standardizing both inputs changes nothing
        # in the reported correlations (affine invariance end to end)
        _, human, twin, _ = generate_latent_world(
            40, 12, 3, seed=14, alignment="linear_distortion",
            noise_sigma=0.1, row_bias_scale=0.4,
        )
        twin_features = MaskedMatrix.from_dense(twin.values[:, :12])
        assert human.is_fully_observed() and twin_features.is_fully_observed()
        report = loo_evaluate(human, twin_features, RIDGE)
        h_std = MaskedMatrix.from_dense(standardize_dense(human.values)[0])
        t_std = MaskedMatrix.from_dense(standardize_dense(twin_features.values)[0])
        report_std = loo_evaluate(h_std, t_std, RIDGE)
        for a, b in zip(report.per_target, report_std.per_target):
            assert a.corr == pytest.approx(b.corr, abs=1e-10)
            assert a.baseline_corr == pytest.approx(b.baseline_corr, abs=1e-10)

    def test_new_user_orientation(self):
        _, human, twin, _ = generate_latent_world(25, 15, 3, seed=15,
                                                  alignment="identical")
        twin_features = MaskedMatrix.from_dense(twin.values[:, :15])
        report = loo_evaluate(human, twin_features, RIDGE, "new_user")
        assert len(report.per_target) == 25  # one per user row
        assert report.mean > 1 - 1e-6

    def test_report_serialization(self):
        _, human, twin, _ = generate_latent_world(20, 8, 2, seed=16,
                                                  alignment="identical")
        twin_features = MaskedMatrix.from_dense(twin.values[:, :8])
        with pytest.warns(RuntimeWarning, match="clamped"):
            report = loo_evaluate(human, twin_features, RIDGE, fisher_z=True)
        payload = report.to_json_dict()
        assert payload["fisher_z"] is True
        assert len(payload["per_target"]) == 8

    def test_shape_mismatch_rejected(self):
        _, human, twin, _ = generate_latent_world(20, 8, 2, seed=17)
        with pytest.raises(DataError):
            loo_evaluate(human, twin, RIDGE)  # twin has m+1 columns here

    @pytest.mark.parametrize("orientation,blank", [("new_question", "column"),
                                                   ("new_user", "row")])
    @pytest.mark.parametrize("side,method", [("human", RIDGE),
                                             ("human", CompletionConfig("sp", rank=2)),
                                             ("twin", CompletionConfig("hsv", rank=2))],
                             ids=["human_ridge", "human_sp", "twin_hsv"])
    def test_coverage_error_names_the_given_layout(self, orientation, blank, side, method):
        # the held-out line is blank in the layout given (a row for a new
        # user), and the error names it so, not by the transposed axis
        _, human, twin, _ = generate_latent_world(20, 8, 2, seed=17, missing_frac=0.1)
        pair = {"human": human, "twin": MaskedMatrix(twin.values[:, :8], twin.mask[:, :8])}
        mask = pair[side].mask.copy()
        if blank == "row":
            mask[4] = False
        else:
            mask[:, 4] = False
        pair[side] = MaskedMatrix(pair[side].values, mask)
        with pytest.raises(DataError, match=f"^{blank} 4 has no observed entries$"):
            loo_evaluate(pair["human"], pair["twin"], method, orientation)


# (R1) the nine methods whose answer does not depend on the order of rows
# and columns. nn is exempt: its initial draws follow input position, so a
# permutation moves its predictions by as much as a change of seed does
# (several units on this world).
PERMUTED_METHODS = {
    "ridge": RegressConfig("ridge", lam=1.0),
    "lasso": RegressConfig("lasso", alpha=0.05),
    "en": RegressConfig("en"),
    "sc": RegressConfig("sc", lam=0.01),
    "si": RegressConfig("si", rank=3, lam=1.0),
    "hsv": CompletionConfig("hsv", rank=3),
    "ssv": CompletionConfig("ssv", rank=3, lam=1.0),
    "als": CompletionConfig("als", rank=3, lam=1.0),
    "sp": CompletionConfig("sp", rank=3),
}
# the largest deviation measured over four permutations was 1.4e-12
# (lasso, new user), on predictions of up to ~9
PERMUTED_TOL = 1e-11


class TestPermutation:
    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("orientation", ["new_question", "new_user"])
    @pytest.mark.parametrize("name", sorted(PERMUTED_METHODS))
    def test_permuting_rows_and_columns_permutes_predictions(self, name, orientation):
        # a fixed impute_rank: the rank search draws its holdout in cell
        # order, so a searched rank may differ under a permutation
        _, human, twin, _ = generate_latent_world(
            60, 12, 3, seed=1, alignment="linear_distortion", noise_sigma=0.1,
            row_bias_scale=0.5, missing_frac=0.1)
        twin = MaskedMatrix(twin.values[:, :12], twin.mask[:, :12])
        rng = np.random.default_rng(2)
        rows, cols = rng.permutation(60), rng.permutation(12)

        def predict(pair):
            return loo_evaluate(*pair, PERMUTED_METHODS[name], orientation,
                                impute_rank=3, return_predictions=True)[1]

        pred = predict((human, twin))
        permuted = predict([MaskedMatrix(a.values[rows][:, cols], a.mask[rows][:, cols])
                            for a in (human, twin)])
        # predictions come back in the held-out orientation: users as columns
        # for a new user
        expected = pred[rows][:, cols] if orientation == "new_question" else pred[cols][:, rows]
        assert np.max(np.abs(permuted - expected)) <= PERMUTED_TOL


# (R4) the one-target API agrees with the leave-one-out: fit_and_transfer on
# the human without target j gives prediction j. The human is fully observed
# (with missing cells, the up-front imputation sees column j and the two
# paths differ) and so is the twin's line j, which CalibrationTask requires;
# the twin misses cells elsewhere. nn is exempt, as in (R1): the one-target
# network's initial draws follow the column positions of its design.
ONE_TARGET_METHODS = {name: PERMUTED_METHODS[name] for name in ("ridge", "lasso", "en", "sc", "si")}
# the largest difference measured on three worlds was 2.4e-14 (lasso, new
# user), on predictions of up to ~7
ONE_TARGET_TOL = 1e-12


class TestOneTargetIsTheLeaveOneOut:
    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("orientation,targets", [("new_question", (0, 4, 10)),
                                                     ("new_user", (0, 22, 58))],
                             ids=["new_question", "new_user"])
    @pytest.mark.parametrize("name", sorted(ONE_TARGET_METHODS))
    def test_fit_and_transfer_is_the_loo_prediction(self, name, orientation, targets):
        _, human, twin, _ = generate_latent_world(
            60, 12, 3, seed=1, alignment="linear_distortion", noise_sigma=0.1,
            row_bias_scale=0.5)
        mask = np.random.default_rng(1).random((60, 12)) >= 0.15
        mask[::2] = True   # the even rows and columns are fully observed
        mask[:, ::2] = True
        twin = MaskedMatrix(np.where(mask, twin.values[:, :12], np.nan), mask)
        method = ONE_TARGET_METHODS[name]
        _, pred = loo_evaluate(human, twin, method, orientation, impute_rank=3,
                               return_predictions=True)
        axis = 1 if orientation == "new_question" else 0
        for j in targets:
            without_j = MaskedMatrix(np.delete(human.values, j, axis),
                                     np.delete(human.mask, j, axis))
            single, _ = fit_and_transfer(CalibrationTask(
                without_j, twin, j, method, orientation, impute_rank=3))
            assert np.max(np.abs(single - pred[:, j])) <= ONE_TARGET_TOL


class TestErrorShrinksWithScale:
    def test_error_decreases_along_growing_worlds(self):
        # noiseless in-span worlds with vanishing ridge penalty: the transfer
        # error is penalty-dominated and must shrink to zero as n grows
        errors = []
        for n, lam in [(50, 1e-4), (100, 1e-6), (200, 1e-8)]:
            _, human, twin, target = generate_latent_world(
                n, 30, 4, twin_dim=6, alignment="rotated_superset", seed=18
            )
            task = CalibrationTask(
                human, twin, target_index=30,
                method=RegressConfig(family="ridge", lam=lam),
                standardize=False,
            )
            pred, _ = fit_and_transfer(task)
            errors.append(np.linalg.norm(pred - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-4


class TestSweep:
    def test_sweep_matches_loo_at_endpoints(self):
        _, human, twin, _ = generate_latent_world(30, 10, 2, seed=19,
                                                  alignment="identical",
                                                  noise_sigma=0.05)
        twin_features = MaskedMatrix.from_dense(twin.values[:, :10])
        records = sweep_thresholds(human, twin_features, RIDGE, [0.0, np.inf])
        always = loo_evaluate(human, twin_features, RIDGE, tau=np.inf)
        never = loo_evaluate(human, twin_features, RIDGE, tau=0.0)
        assert records[0]["mean"] == pytest.approx(never.mean, abs=1e-12)
        assert records[1]["mean"] == pytest.approx(always.mean, abs=1e-12)
        assert records[0]["n_transferred"] == 0
        assert records[1]["n_transferred"] == 10

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_or_nan_tau_rejected(self, bad):
        _, human, twin, _ = generate_latent_world(20, 6, 2, seed=20)
        twin_features = MaskedMatrix.from_dense(twin.values[:, :6])
        with pytest.raises(DataError, match="tau"):
            loo_evaluate(human, twin_features, RIDGE, tau=bad)
        with pytest.raises(DataError, match="tau"):
            sweep_thresholds(human, twin_features, RIDGE, [0.0, bad, np.inf])
        task, _ = identical_task(n=20, m=6, seed=20)
        with pytest.raises(DataError, match="tau"):
            adaptive_transfer(task, bad, task.twin.values[:, task.target_index])

    @pytest.mark.parametrize("orientation", ["new_question", "new_user"])
    @pytest.mark.parametrize("taus", [[], [0.5], [0.0, np.inf]])
    def test_completion_method_gate_rejected_before_imputation(self, monkeypatch,
                                                               orientation, taus):
        # an empty grid is rejected too: the sweep is a gated pass whatever its taus
        import twincal.calibrate

        def no_imputation(*args, **kwargs):
            raise AssertionError("imputed before the method was checked")

        monkeypatch.setattr(twincal.calibrate, "impute_dense", no_imputation)
        monkeypatch.setattr(twincal.calibrate, "held_out_columns", no_imputation)
        _, human, twin, _ = generate_latent_world(20, 6, 2, seed=21)
        twin_features = MaskedMatrix.from_dense(twin.values[:, :6])
        hsv = CompletionConfig("hsv", rank=2)
        with pytest.raises(DataError, match="regression methods only"):
            sweep_thresholds(human, twin_features, hsv, taus, orientation)
        for tau in taus:
            with pytest.raises(DataError, match="regression methods only"):
                loo_evaluate(human, twin_features, hsv, orientation, tau=tau)


class TestLooEngine:
    # stated before comparing: the shared-Gram engine reproduces per-target
    # fits to rounding, except the simplex family's best-iterate choice
    # (see tests/test_regress.py) and lasso and elastic net. Those take
    # proximal-gradient steps where the coordinate-descent oracle takes
    # coordinate steps, so they are compared with the oracle run to
    # convergence: a target stops up to ~1.5e-5 from the optimum, which
    # moves a prediction (7 features of order 1) by up to ~1e-4. si's rank
    # 50 is above the 7 columns each target regresses on, so the engine
    # clamps it to 7. For lasso and elastic net the single-target entry
    # point also repeats the engine's own steps, to rounding (SINGLE_TOL).
    TOLS = {"ridge": 1e-10, "lasso": 2e-4, "en": 2e-4, "sc": 1e-6, "si": 1e-10}
    SINGLE_TOL = 1e-10
    ORACLES = {
        "ridge": lambda x, y: oracle.ridge(x, y, 0.5),
        "lasso": lambda x, y: oracle.elastic_net(x, y, 0.05, 1.0, max_iters=100_000, tol=1e-13),
        "en": lambda x, y: oracle.elastic_net(x, y, 0.1, 0.3, max_iters=100_000, tol=1e-13),
        "sc": lambda x, y: oracle.simplex(x, y, 0.01),
        "si": lambda x, y: oracle.si(x, y, 7, 0.1),
    }
    CONFIGS = {
        "ridge": RegressConfig(family="ridge", lam=0.5),
        "lasso": RegressConfig(family="lasso", alpha=0.05),
        "en": RegressConfig(family="en", alpha=0.1, l1_ratio=0.3),
        "sc": RegressConfig(family="sc", lam=0.01),
        "si": RegressConfig(family="si", rank=50, lam=0.1),
    }
    # |engine - oracle| / max(1, |oracle|): the stacked network repeats the
    # one-target arithmetic with a zero first-layer row added
    NN_RTOL = 1e-12
    # with minibatches of 16 rows and a patience of 4, patched in where it runs
    NN = RegressConfig(family="nn", hidden_sizes=(6,), epochs=60, learning_rate=1e-2, seed=1)

    @staticmethod
    def world():
        _, human, twin, _ = generate_latent_world(
            50, 8, 3, seed=24, alignment="linear_distortion", noise_sigma=0.1,
        )
        values = twin.values[:, :8].copy()
        values[:, 2] = 1.5  # a constant twin column
        return human, values, MaskedMatrix.from_dense(values)

    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("family", ["ridge", "lasso", "en", "sc", "si"])
    def test_loo_matches_per_target_fits(self, family):
        human, values, twin_features = self.world()
        report, pred = loo_evaluate(human, twin_features, self.CONFIGS[family],
                                    standardize=False, return_predictions=True)
        tol = self.TOLS[family]
        for j in range(8):
            feats = np.arange(8) != j
            beta, icpt, converged = self.ORACLES[family](values[:, feats], values[:, j])
            assert converged or family == "sc"
            fitted = values[:, feats] @ beta + icpt
            mse = float(np.mean((fitted - values[:, j]) ** 2))
            assert abs(report.per_target[j].train_mse - mse) <= tol
            expected = human.values[:, feats] @ beta + icpt
            assert np.max(np.abs(pred[:, j] - expected)) <= tol
            # the single-target entry point runs the same engine
            task = CalibrationTask(MaskedMatrix.from_dense(human.values[:, feats]),
                                   twin_features, target_index=j,
                                   method=self.CONFIGS[family], standardize=False)
            single, diag = fit_and_transfer(task)
            assert np.max(np.abs(single - expected)) <= tol
            assert abs(diag.train_mse - mse) <= tol
            if family in ("lasso", "en"):
                assert np.max(np.abs(single - pred[:, j])) <= self.SINGLE_TOL
                assert abs(diag.train_mse - report.per_target[j].train_mse) <= self.SINGLE_TOL

    def test_nn_loo_matches_per_target_networks(self, monkeypatch):
        monkeypatch.setattr(regress, "_NN_BATCH_SIZE", 16)
        monkeypatch.setattr(regress, "_NN_PATIENCE", 4)
        human, values, twin_features = self.world()
        report, pred = loo_evaluate(human, twin_features, self.NN,
                                    standardize=False, return_predictions=True)
        epochs = set()
        for j in range(8):
            feats = np.arange(8) != j
            weights, biases, ran = oracle.nn(values[:, feats], values[:, j], self.NN)
            epochs.add(ran)
            fitted = oracle.nn_forward(weights, biases, values[:, feats])[0]
            mse = float(np.mean((fitted - values[:, j]) ** 2))
            assert abs(report.per_target[j].train_mse - mse) <= self.NN_RTOL * max(1.0, mse)
            expected = oracle.nn_forward(weights, biases, human.values[:, feats])[0]
            scale = np.maximum(1.0, np.abs(expected))
            assert np.max(np.abs(pred[:, j] - expected) / scale) <= self.NN_RTOL
            task = CalibrationTask(MaskedMatrix.from_dense(human.values[:, feats]),
                                   twin_features, target_index=j, method=self.NN,
                                   standardize=False)
            single, diag = fit_and_transfer(task)
            assert np.max(np.abs(single - expected) / scale) <= self.NN_RTOL
            assert abs(diag.train_mse - mse) <= self.NN_RTOL * max(1.0, mse)
        assert len(epochs - {self.NN.epochs}) >= 3, "targets should stop at different epochs"

    def test_si_rank_below_one_rejected(self):
        human, _, twin_features = self.world()
        with pytest.raises(DataError, match="rank 0"):
            loo_evaluate(human, twin_features, RegressConfig(family="si", rank=0))

    def test_sweep_regates_loo_target_for_target(self):
        # in each orientation, one tau per gating step, so each target's gate
        # flips on its own; a constant human target (a column, or a row for a
        # new user) is skipped at every tau
        _, human, twin, _ = generate_latent_world(
            40, 9, 3, seed=25, alignment="linear_distortion", noise_sigma=0.2,
        )
        twin_features = MaskedMatrix.from_dense(twin.values[:, :9])
        method = RegressConfig(family="ridge", lam=0.3)
        for orientation, constant, n_targets in (("new_question", np.s_[:, 4], 9),
                                                 ("new_user", np.s_[4], 40)):
            values = human.values.copy()
            values[constant] = 2.0
            held = MaskedMatrix(values, human.mask)
            ungated = loo_evaluate(held, twin_features, method, orientation)
            mses = sorted(r.train_mse for r in ungated.per_target)
            taus = [0.0] + [m * (1 + 1e-9) for m in mses] + [np.inf]
            records = sweep_thresholds(held, twin_features, method, taus, orientation)

            inf_record = records[-1]
            assert inf_record["mean"] == ungated.mean
            assert inf_record["se"] == ungated.se
            assert inf_record["skipped"] == ungated.skipped_count == 1
            assert inf_record["n_transferred"] == len(ungated.per_target) == n_targets
            for tau, record in zip(taus, records):
                gated = loo_evaluate(held, twin_features, method, orientation, tau=tau)
                assert record["mean"] == gated.mean
                assert record["se"] == gated.se
                assert record["skipped"] == gated.skipped_count
                assert record["n_transferred"] == sum(r.transferred for r in gated.per_target)
            # every gating step is taken on its own
            assert [r["n_transferred"] for r in records] == list(range(len(taus) - 1)) + [len(mses)]


class TestCompletionLoo:
    """The completion leave-one-out, each target column held out in place,
    against the per-target loop it replaced (``oracle.completion_loo``)."""

    # stated before comparing: moving column j out of last place changes the
    # rounding of every Gram product and eigendecomposition, which moves the
    # predictions by ~1e-13 of the largest one
    RTOL = 1e-10
    CONFIGS = {
        "hsv": CompletionConfig("hsv", rank=3, max_iters=60),
        "ssv": CompletionConfig("ssv", rank=4, lam=0.5, max_iters=60),
        "als": CompletionConfig("als", rank=3, lam=0.5, max_iters=60),
        "sp": CompletionConfig("sp", rank=3, max_iters=60),
    }

    @staticmethod
    def world(n, m, seed):
        _, human, twin, _ = generate_latent_world(
            n, m, 3, seed=seed, alignment="linear_distortion", noise_sigma=0.1,
            missing_frac=0.2,
        )
        return human, MaskedMatrix(twin.values[:, :m], twin.mask[:, :m])

    @pytest.mark.parametrize("method", ["hsv", "ssv", "als", "sp"])
    @pytest.mark.parametrize("orientation,n,m", [("new_question", 36, 10),
                                                 ("new_user", 40, 12)])
    def test_matches_per_target_loop(self, method, orientation, n, m):
        human, twin = self.world(n, m, seed=n + m)
        cfg = self.CONFIGS[method]
        _, pred = loo_evaluate(human, twin, cfg, orientation, impute_rank=3,
                               return_predictions=True)
        if orientation == "new_user":
            human, twin = human.transpose(), twin.transpose()
        twin_dense, _ = impute_dense(twin, 3)
        want = oracle.completion_loo(human, twin, cfg, twin_dense)
        assert pred.shape == want.shape == human.shape
        assert np.max(np.abs(pred - want)) <= self.RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("method", ["hsv", "ssv", "als", "sp"])
    def test_capped_loo_raises_no_warning(self, method):
        human, twin = self.world(30, 8, seed=3)
        capped = CompletionConfig(method, rank=2, max_iters=2, tol=1e-16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = loo_evaluate(human, twin, capped, impute_rank=2)
        assert report.skipped_count < 8

    @pytest.mark.parametrize("method", ["hsv", "ssv", "als", "sp"])
    def test_row_observed_only_in_held_out_column(self, method):
        human, twin = self.world(30, 8, seed=4)
        mask = human.mask.copy()
        mask[5] = False
        mask[5, 3] = True
        human = MaskedMatrix(np.nan_to_num(human.values), mask)
        cfg = self.CONFIGS[method]
        with pytest.raises(EmptyColumnError,
                           match="^row 5 has no observed entries with column 3 held out$"):
            loo_evaluate(human, twin, cfg, impute_rank=3)
        with pytest.raises(DataError, match="row 5 has no observed entries"):
            oracle.completion_loo(human, twin, cfg, impute_dense(twin, 3)[0])

    @pytest.mark.parametrize("method", ["hsv", "ssv", "als", "sp"])
    def test_new_user_observed_only_in_held_out_row(self, method):
        # question (column) 5 is answered only by user (row) 2: holding that
        # user out empties the question, and the error says so in the
        # files' layout, before anything is solved
        human, twin = self.world(30, 8, seed=4)
        mask = human.mask.copy()
        mask[:, 5] = False
        mask[2, 5] = True
        human = MaskedMatrix(np.nan_to_num(human.values), mask)
        cfg = self.CONFIGS[method]
        with pytest.raises(EmptyColumnError,
                           match="^column 5 has no observed entries with row 2 held out$"):
            loo_evaluate(human, twin, cfg, "new_user", impute_rank=3)
        twin_dense = impute_dense(twin.transpose(), 3)[0]
        with pytest.raises(DataError, match="row 5 has no observed entries"):
            oracle.completion_loo(human.transpose(), twin.transpose(), cfg, twin_dense)

    @pytest.mark.parametrize("orientation", ["new_question", "new_user"])
    def test_empty_human_line_is_named_plainly(self, orientation):
        human, twin = self.world(30, 8, seed=4)
        mask = human.mask.copy()
        if orientation == "new_question":
            mask[5] = False
        else:
            mask[:, 5] = False
        line = "row" if orientation == "new_question" else "column"
        human = MaskedMatrix(np.nan_to_num(human.values), mask)
        with pytest.raises(EmptyColumnError, match=f"^{line} 5 has no observed entries$"):
            loo_evaluate(human, twin, self.CONFIGS["hsv"], orientation, impute_rank=3)
