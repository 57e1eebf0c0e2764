import warnings

import numpy as np
import pytest
import scalar_oracles as oracle

import twincal.regress as regress
from twincal.calibrate import loo_evaluate
from twincal.matcore import ConvergenceWarning, DataError, MaskedMatrix
from twincal.regress import (
    FAMILIES,
    LinearModel,
    NnModel,
    RegressConfig,
    _elastic_net_coefficients,
    _nn_parameters,
    _ridge_coefficients,
    _si_coefficients,
    _simplex_coefficients,
    fit_columns,
    fit_elastic_net,
    fit_ridge,
    fit_simplex,
    nn_loss_and_grad,
    project_simplex,
)


def random_xy(n, m, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    beta = rng.normal(size=m)
    y = x @ beta + noise * rng.normal(size=n)
    return x, y, beta


def target_last(x, y, centered=True):
    """A kernel's one-target inputs: the Gram matrix [x | y]'[x | y]/n,
    centered or not, and ``exclude`` naming y's column, the last."""
    xy = np.column_stack([x, y])
    if centered:
        xy = xy - xy.mean(axis=0)
    return xy.T @ xy / len(xy), np.array([xy.shape[1] - 1])


class TestRidge:
    def test_identity_design_no_centering(self):
        y = np.array([2.0, -1.0, 0.5])
        coef = _ridge_coefficients(*target_last(np.eye(3), y, centered=False), 0.0)[:, 0]
        assert np.allclose(coef[:3], y, atol=1e-12) and coef[3] == 0.0

    @pytest.mark.parametrize("exact", ["constant", "linear"])
    def test_exact_fit_at_zero_lambda(self, exact):
        # x fits y exactly, so the Gram of [x | y] is singular at lam 0 while
        # y's own system is not: the fit is still y's least-squares fit
        x, y, beta = random_xy(20, 4, seed=5)
        beta, intercept = (np.zeros(4), 1.5) if exact == "constant" else (beta, -2.0)
        model = fit_ridge(x, x @ beta + intercept, 0.0)
        assert np.max(np.abs(model.coefficients - beta)) < 1e-12
        assert abs(model.intercept - intercept) < 1e-12

    def test_huge_lambda_predicts_mean(self):
        x, y, _ = random_xy(30, 5, seed=0)
        model = fit_ridge(x, y, 1e12)
        assert np.max(np.abs(model.coefficients)) < 1e-9
        assert np.allclose(model.predict(x), y.mean(), atol=1e-6)

    def test_matches_direct_normal_equations(self):
        # oracle: independent dense solve of the centered normal equations
        x, y, _ = random_xy(5, 3, seed=1, noise=0.3)
        lam = 0.1
        xc = x - x.mean(0)
        yc = y - y.mean()
        expected = np.linalg.inv(xc.T @ xc / 5 + lam * np.eye(3)) @ (xc.T @ yc / 5)
        model = fit_ridge(x, y, lam)
        assert np.max(np.abs(model.coefficients - expected)) < 1e-10

    def test_singular_at_zero_lambda(self):
        x = np.ones((4, 2))  # rank deficient
        with pytest.raises(DataError, match="singular system"):
            _ridge_coefficients(*target_last(x, np.arange(4.0), centered=False), 0.0)
        with pytest.raises(DataError, match="singular system"):
            fit_ridge(x, np.arange(4.0), 0.0)

    def test_coefficient_norm_shrinks_with_lambda(self):
        x, y, _ = random_xy(40, 8, seed=2, noise=0.5)
        norms = [
            np.linalg.norm(fit_ridge(x, y, lam).coefficients)
            for lam in [0.0, 0.01, 0.1, 1.0, 10.0]
        ]
        assert np.all(np.diff(norms) <= 1e-12)


class TestElasticNet:
    def test_alpha_zero_matches_least_squares(self, monkeypatch):
        monkeypatch.setattr(regress, "_ENET_MAX_ITERS", 20000)
        x, y, beta = random_xy(50, 6, seed=3)
        coef = _elastic_net_coefficients(*target_last(x, y), 0.0, 0.5)[:6, 0]
        assert np.max(np.abs(coef - beta)) < 1e-6

    def test_orthonormal_design_closed_form(self):
        # oracle: with X'X = n I the lasso is coordinatewise soft-thresholding
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(24, 6)))
        x = q * np.sqrt(24)
        y = rng.normal(size=24)
        alpha = 0.15
        coef = _elastic_net_coefficients(*target_last(x, y, centered=False), alpha, 1.0)[:6, 0]
        rho = x.T @ y / 24
        expected = np.sign(rho) * np.maximum(np.abs(rho) - alpha, 0.0)
        assert np.max(np.abs(coef - expected)) < 1e-10

    def test_full_shrinkage_threshold(self):
        x, y, _ = random_xy(30, 5, seed=5, noise=0.1)
        xc = x - x.mean(0)
        yc = y - y.mean()
        alpha = np.max(np.abs(xc.T @ yc / 30)) * 1.01
        model = fit_elastic_net(x, y, alpha, 1.0)
        assert np.all(model.coefficients == 0.0)

    def test_objective_beats_ridge_solution_and_zero(self):
        x, y, _ = random_xy(40, 7, seed=6, noise=0.4)
        alpha, l1 = 0.2, 0.6
        xc, yc = x - x.mean(0), y - y.mean()

        def objective(b):
            r = yc - xc @ b
            return (
                0.5 * (r @ r) / 40
                + alpha * (l1 * np.abs(b).sum() + 0.5 * (1 - l1) * (b @ b))
            )

        en = fit_elastic_net(x, y, alpha, l1)
        ridge = fit_ridge(x, y, alpha)
        assert objective(en.coefficients) <= objective(ridge.coefficients) + 1e-12
        assert objective(en.coefficients) <= objective(np.zeros(7)) + 1e-12

    def test_lasso_family_label(self):
        x, y, _ = random_xy(10, 3, seed=7)
        assert fit_elastic_net(x, y, 0.1, 1.0).family == "lasso"
        assert fit_elastic_net(x, y, 0.1, 0.5).family == "en"


class TestSimplex:
    def test_perfect_donor_column(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        y = x[:, 2].copy()
        model = fit_simplex(x, y, 0.0)
        assert model.coefficients[2] > 0.99
        assert abs(model.intercept) == 0.0

    def test_single_column_is_trivial(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 1))
        model = fit_simplex(x, rng.normal(size=20), 0.0)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_search_oracle(self):
        # oracle: exhaustive simplex grid at resolution 1e-3 (3 columns)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        lam = 0.05
        n = len(y)

        def objective(b):
            if b.ndim == 2:
                r = y[:, None] - x @ b.T
                return 0.5 * (r**2).sum(axis=0) / n + 0.5 * lam * (b**2).sum(axis=1)
            r = y - x @ b
            return 0.5 * (r @ r) / n + 0.5 * lam * (b @ b)

        steps = np.arange(0, 1001)
        grid = []
        for i in steps:
            j = np.arange(0, 1001 - i)
            block = np.column_stack(
                [np.full(j.size, i / 1000.0), j / 1000.0, (1000 - i - j) / 1000.0]
            )
            grid.append(block)
        grid = np.concatenate(grid)
        best = objective(grid).min()
        model = fit_simplex(x, y, lam)
        assert objective(model.coefficients) <= best + 1e-4

    def test_feasibility_invariant(self):
        for seed in range(5):
            x, y, _ = random_xy(20, 6, seed=seed, noise=1.0)
            b = fit_simplex(x, y, 0.01).coefficients
            assert b.min() >= -1e-12
            assert abs(b.sum() - 1.0) <= 1e-8

    def test_projection_is_euclidean(self):
        v = np.array([0.3, 2.0, -0.4])
        p = project_simplex(v)
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-12
        # oracle: projection of a feasible point is itself
        q = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(q), q, atol=1e-12)


class TestSi:
    def test_full_rank_equals_ridge(self):
        x, y, _ = random_xy(30, 6, seed=11, noise=0.3)
        si = fit_columns(x, RegressConfig("si", rank=6, lam=0.2), y)
        ridge = fit_ridge(x, y, 0.2)
        assert np.max(np.abs(si.coefficients - ridge.coefficients)) < 1e-8
        assert abs(si.intercept - ridge.intercept) < 1e-8

    def test_rank_one_signal_fit(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=20)
        v = rng.normal(size=5)
        x = np.outer(u, v)
        y = 2.0 * u
        coef = _si_coefficients(*target_last(x, y, centered=False), 1, 0.0)[:5, 0]
        assert np.max(np.abs(x @ coef - y)) < 1e-8

    def test_coefficients_in_top_subspace(self):
        x, y, _ = random_xy(30, 10, seed=13, noise=0.2)
        rank = 4
        model = fit_columns(x, RegressConfig("si", rank=rank, lam=0.01), y)
        xc = x - x.mean(0)
        _, _, vt = np.linalg.svd(xc, full_matrices=False)
        basis = vt[:rank].T
        residual = model.coefficients - basis @ (basis.T @ model.coefficients)
        assert np.linalg.norm(residual) < 1e-8

    def test_rank_out_of_range(self):
        x, y, _ = random_xy(10, 4, seed=14)
        for rank in (0, -1):
            with pytest.raises(DataError, match="rank"):
                fit_columns(x, RegressConfig("si", rank=rank, lam=0.1), y)
        # a rank above the design's is clamped to it
        clamped = fit_columns(x, RegressConfig("si", rank=5, lam=0.1), y)
        full = fit_columns(x, RegressConfig("si", rank=4, lam=0.1), y)
        assert np.array_equal(clamped.coefficients, full.coefficients)


class TestNn:
    def test_realizable_linear_target(self, monkeypatch):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(200, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        monkeypatch.setattr(regress, "_NN_PATIENCE", 100)
        monkeypatch.setattr(regress, "_NN_BATCH_SIZE", 64)
        cfg = RegressConfig(family="nn", hidden_sizes=(16,), epochs=800,
                            learning_rate=1e-2, seed=0)
        model = fit_columns(x, cfg, y)
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse < 1e-3

    def test_gradient_check_small_net(self):
        # oracle: central finite differences of the same loss
        rng = np.random.default_rng(16)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        weights = [rng.normal(size=(2, 3)), rng.normal(size=(3, 1))]
        biases = [rng.normal(size=3), rng.normal(size=1)]
        wd = 0.05
        _, grad_w, grad_b = nn_loss_and_grad(weights, biases, x, y, wd)

        def loss_at(params):
            w = [params[0], params[1]]
            b = [params[2], params[3]]
            return nn_loss_and_grad(w, b, x, y, wd)[0]

        params = [weights[0], weights[1], biases[0], biases[1]]
        analytic = [grad_w[0], grad_w[1], grad_b[0], grad_b[1]]
        h = 1e-6
        for p, g in zip(params, analytic):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = loss_at(params)
                p[idx] = orig - h
                down = loss_at(params)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                assert abs(fd - g[idx]) / denom < 1e-4

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        cfg = RegressConfig(family="nn", hidden_sizes=(5,), epochs=20, seed=3)
        a = fit_columns(x, cfg, y)
        b = fit_columns(x, cfg, y)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_zero_input_follows_bias_path(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_columns(x, RegressConfig(family="nn", hidden_sizes=(4,),
                                             epochs=5, seed=0), y)
        out = model.predict(np.zeros((1, 3)))
        h = np.maximum(model.biases[0], 0.0)
        expected = h @ model.weights[1][:, 0] + model.biases[1][0]
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_two_hidden_layers(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = fit_columns(x, RegressConfig(family="nn", hidden_sizes=(6, 4),
                                             epochs=5, seed=1), y)
        assert len(model.weights) == 3
        assert np.all(np.isfinite(model.predict(x)))


class TestPredict:
    def test_constant_model(self):
        model = LinearModel(np.zeros(3), 2.5, "ridge")
        assert np.allclose(model.predict(np.random.default_rng(0).normal(size=(7, 3))), 2.5)

    def test_training_consistency(self):
        x, y, _ = random_xy(25, 4, seed=20, noise=0.2)
        model = fit_ridge(x, y, 0.1)
        fitted = model.predict(x)
        assert np.allclose(fitted, x @ model.coefficients + model.intercept, atol=1e-12)

    def test_manual_matrix_product(self):
        rng = np.random.default_rng(21)
        model = LinearModel(rng.normal(size=4), -0.7, "ridge")
        x = rng.normal(size=(9, 4))
        assert np.max(np.abs(model.predict(x) - (x @ model.coefficients - 0.7))) < 1e-12

    def test_dimension_mismatch(self):
        model = LinearModel(np.ones(3), 0.0, "ridge")
        with pytest.raises(DataError):
            model.predict(np.ones((2, 4)))


class TestFitColumns:
    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_targets_match_one_target_fits(self, family):
        x = random_xy(40, 6, seed=23)[0]
        targets = np.array([0, 2, 5])
        cfg = RegressConfig(family, rank=3, hidden_sizes=(4,), epochs=5)
        pred = fit_columns(x, cfg, exclude=targets).predict(x)
        assert pred.shape == (40, 3)
        for c, j in enumerate(targets):
            others = np.delete(x, j, axis=1)
            one = fit_columns(others, cfg, x[:, j])
            assert np.max(np.abs(pred[:, c] - one.predict(others))) <= SIMPLEX_TOL

    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_target_fit_is_the_loo_fit_of_y_last(self, family):
        x, y, _ = random_xy(40, 5, seed=29, noise=0.5)
        cfg = RegressConfig(family, rank=3, hidden_sizes=(4, 3), epochs=5)
        one = fit_columns(x, cfg, y)
        loo = fit_columns(np.column_stack([x, y]), cfg, exclude=np.array([5]))
        if family == "nn":
            assert np.array_equal(one.weights[0], loo.weights[0][0, :5])
            for got, want in zip(one.weights[1:] + one.biases, loo.weights[1:] + loo.biases):
                assert np.array_equal(got, want[0].reshape(got.shape))
        else:
            assert np.array_equal(one.coefficients, loo.coefficients[:5, 0])
            assert loo.coefficients[5, 0] == 0.0
            assert one.intercept == loo.intercept[0]

    def test_two_d_y_rejected(self):
        x = random_xy(10, 3, seed=25)[0]
        for y in (x[:, :2], x[:, :1]):
            with pytest.raises(DataError, match=r"X\(10, 3\), y\(10, \d\)"):
                fit_columns(x, RegressConfig(), y)

    def test_one_target_warnings_name_the_caller(self):
        # a near-collinear design on which both one-target fits reach their caps
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 12))
        x += 1e-3 * rng.normal(size=x.shape)
        y = x[:, 0] + rng.normal(size=40)
        for fit, args in ((fit_elastic_net, (x, y, 1e-4)), (fit_simplex, (x, y))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit(*args)
            assert [w.category for w in caught] == [ConvergenceWarning]
            assert caught[0].filename == __file__

    @staticmethod
    def warned_at(monkeypatch, call):
        """The (file, line) each ConvergenceWarning of ``call()`` names, with
        every simplex fit capped at 3 steps."""
        monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught and {w.category for w in caught} == {ConvergenceWarning}
        return {(w.filename, w.lineno) for w in caught}

    def test_fit_columns_warning_names_its_caller(self, monkeypatch):
        x, y, _ = random_xy(30, 6, seed=26)
        call = lambda: fit_columns(x, RegressConfig("sc"), y)  # noqa: E731
        assert self.warned_at(monkeypatch, call) == {(__file__, call.__code__.co_firstlineno)}

    def test_fit_simplex_warning_names_its_caller(self, monkeypatch):
        x, y, _ = random_xy(30, 6, seed=27)
        call = lambda: fit_simplex(x, y)  # noqa: E731
        assert self.warned_at(monkeypatch, call) == {(__file__, call.__code__.co_firstlineno)}

    def test_loo_warnings_name_the_loo_caller(self, monkeypatch):
        # one warning per capped target, each naming this file, not calibrate.py
        x = random_xy(30, 6, seed=28)[0]
        human, twin = MaskedMatrix.from_dense(x), MaskedMatrix.from_dense(x + 0.1)
        call = lambda: loo_evaluate(human, twin, RegressConfig("sc"))  # noqa: E731
        assert self.warned_at(monkeypatch, call) == {(__file__, call.__code__.co_firstlineno)}

    def test_takes_y_or_exclude(self):
        x = random_xy(10, 3, seed=25)[0]
        for kwargs in ({}, {"y": x[:, 0], "exclude": [0]}):
            with pytest.raises(DataError, match="exclude"):
                fit_columns(x, RegressConfig(), **kwargs)


class TestConfig:
    def test_unknown_family(self):
        with pytest.raises(DataError):
            RegressConfig(family="bogus")

    def test_l1_ratio_range(self):
        with pytest.raises(DataError):
            RegressConfig(family="en", l1_ratio=1.5)

    def test_one_target_fits_reject_bad_hyperparameters(self):
        x, y, _ = random_xy(10, 3, seed=22)
        for bad in (True, float("nan"), float("inf"), -1.0, "0.1"):
            for fit in (
                lambda: fit_ridge(x, y, bad),
                lambda: fit_elastic_net(x, y, bad, 0.5),
                lambda: fit_elastic_net(x, y, 0.1, bad),
                lambda: fit_simplex(x, y, bad),
                lambda: fit_columns(x, RegressConfig("si", rank=2, lam=bad), y),
            ):
                with pytest.raises(DataError):
                    fit()
        for rank in (True, 2.0, "2"):
            with pytest.raises(DataError, match="rank"):
                fit_columns(x, RegressConfig("si", rank=rank), y)


# ---------------------------------------------------------------------------
# Batched leave-one-out kernels against the scalar one-target loops.
# ---------------------------------------------------------------------------

# Tolerances fixed before comparing. Ridge follows the oracle's arithmetic
# except for the summation order of Gram products, so it agrees to
# rounding; si takes eigenpairs of the Gram matrix where the oracle takes
# the SVD of the design, which also agrees to rounding. The simplex kernel
# takes the oracle's steps with the gradient summed in another order, and
# returns its last iterate where the oracle keeps its best: at step 1/L no
# projected-gradient step raises the objective, so the two are the same
# iterate up to rounding, which a capped target carries through its steps;
# SIMPLEX_OBJ_TOL bounds how far the last iterate's objective may exceed the
# oracle's best one. The stacked network does the one-target network's
# arithmetic with a zero first-layer row added; NN_RTOL bounds
# |batched - oracle| / max(1, |oracle|).
#
# Lasso and elastic net take accelerated proximal-gradient steps where the
# coordinate-descent oracle takes coordinate steps, so their iterates differ
# and both are held to the optimum instead: the oracle is run to
# convergence, and the kernel's objective and Karush-Kuhn-Tucker (KKT)
# residual are checked. A kernel target stops once a step moves no
# coefficient by 1e-7; on this near-collinear design that leaves it up to
# ~1.5e-5 from the optimum, ~5e-11 above the optimal objective and with KKT
# residuals up to ~2e-6. The tolerances below give these a 5-20x margin.
EXACTISH_TOL = 1e-10
SIMPLEX_TOL = 1e-6
SIMPLEX_OBJ_TOL = 1e-12
NN_RTOL = 1e-12
ENET_TOL = 1e-4
ENET_OBJ_TOL = 1e-9
ENET_KKT_TOL = 1e-5
# (alpha, l1_ratio) of the lasso and elastic-net kernel checks
ENET_PENALTIES = {"lasso": (0.05, 1.0), "en": (0.1, 0.3)}
# at this cap the nine loo_world targets split: the constant column stops
# after one step and the others need 50-270 steps
ENET_CAP = 60


def loo_world(n=60, m=9, seed=30):
    """A seeded low-rank twin design with one constant column (column 3)."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(n, 3)) @ rng.normal(size=(3, m)) + 0.3 * rng.normal(size=(n, m))
    t[:, 3] = 2.5
    return t


def loo_oracle(t, fit):
    """Per-target oracle coefficients (m x m, zero diagonal), intercepts, flags."""
    m = t.shape[1]
    coef = np.zeros((m, m))
    intercepts = np.zeros(m)
    converged = np.zeros(m, dtype=bool)
    for j in range(m):
        feats = np.arange(m) != j
        beta, intercepts[j], converged[j] = fit(t[:, feats], t[:, j])
        coef[feats, j] = beta
    return coef, intercepts, converged


def converged_enet(x, y, alpha, l1_ratio):
    """The coordinate-descent oracle, run to convergence."""
    fit = oracle.elastic_net(x, y, alpha, l1_ratio, max_iters=100_000, tol=1e-13)
    assert fit[2], "the oracle should converge"
    return fit


def enet_objective(gram, cross, b, alpha, l1_ratio):
    """(1/2) b'Gb - b'cross + penalty: the covariance form both solvers minimize."""
    penalty = alpha * (l1_ratio * np.abs(b).sum() + 0.5 * (1.0 - l1_ratio) * (b @ b))
    return 0.5 * (b @ gram @ b) - b @ cross + penalty


def centered_gram(t):
    tc = t - t.mean(axis=0)
    return tc.T @ tc / t.shape[0]


def loo_batched(t, kernel, centered=True):
    """The same fits from one shared Gram matrix, warnings recorded."""
    means = t.mean(axis=0) if centered else np.zeros(t.shape[1])
    tc = t - means
    gram = tc.T @ tc / t.shape[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        coef = kernel(gram, np.arange(t.shape[1]))
    n_warn = sum(issubclass(w.category, ConvergenceWarning) for w in caught)
    return coef, means - means @ coef, n_warn


FAMILIES_VS_ORACLE = {
    "ridge": (
        lambda x, y: oracle.ridge(x, y, 0.5),
        lambda g, e: _ridge_coefficients(g, e, 0.5),
        True, EXACTISH_TOL,
    ),
    "lasso": (
        lambda x, y: converged_enet(x, y, 0.05, 1.0),
        lambda g, e: _elastic_net_coefficients(g, e, 0.05, 1.0),
        True, ENET_TOL,
    ),
    "en": (
        lambda x, y: converged_enet(x, y, 0.1, 0.3),
        lambda g, e: _elastic_net_coefficients(g, e, 0.1, 0.3),
        True, ENET_TOL,
    ),
    "sc": (
        lambda x, y: oracle.simplex(x, y, 0.01, max_iters=300),
        lambda g, e: _simplex_coefficients(g, e, 0.01),
        False, SIMPLEX_TOL,
    ),
    "si": (
        lambda x, y: oracle.si(x, y, 4, 0.1),
        lambda g, e: _si_coefficients(g, e, 4, 0.1),
        True, EXACTISH_TOL,
    ),
    "si-full": (
        lambda x, y: oracle.si(x, y, 8, 0.1),
        lambda g, e: _si_coefficients(g, e, 8, 0.1),
        True, EXACTISH_TOL,
    ),
}


class TestBatchedLooKernels:
    @pytest.mark.parametrize("family", sorted(FAMILIES_VS_ORACLE))
    def test_matches_scalar_oracle(self, family, monkeypatch):
        # the sc kernel stops at the oracle's 300-step cap
        monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", 300)
        one_fit, kernel, centered, tol = FAMILIES_VS_ORACLE[family]
        t = loo_world()
        human = t + np.random.default_rng(31).normal(scale=0.2, size=t.shape)
        ref_coef, ref_icpt, ref_conv = loo_oracle(t, one_fit)
        coef, icpt, n_warn = loo_batched(t, kernel, centered)

        assert np.all(np.diag(coef) == 0.0)
        assert np.max(np.abs(coef - ref_coef)) <= tol
        assert np.max(np.abs(icpt - ref_icpt)) <= tol
        if family in ("ridge", "lasso", "en"):
            # the constant column is never used as a feature
            assert np.all(np.delete(coef[3], 3) == 0.0)
        # train MSEs and human transfers, each one matrix product
        fitted, ref_fitted = t @ coef + icpt, t @ ref_coef + ref_icpt
        mse = np.mean((fitted - t) ** 2, axis=0)
        ref_mse = np.mean((ref_fitted - t) ** 2, axis=0)
        assert np.max(np.abs(mse - ref_mse)) <= tol
        pred, ref_pred = human @ coef + icpt, human @ ref_coef + ref_icpt
        assert np.max(np.abs(pred - ref_pred)) <= tol
        # one warning per target the oracle leaves unconverged
        assert n_warn == np.count_nonzero(~ref_conv)
        if family == "sc":
            assert 0 < n_warn < t.shape[1], "caps should split converged/unconverged"

    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("cap", [300, 5000])
    @pytest.mark.parametrize("n,m", [(60, 9), (96, 48)])
    def test_simplex_last_iterate_is_best(self, n, m, cap, monkeypatch):
        monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", cap)
        t = loo_world(n=n, m=m)
        gram = t.T @ t / n
        coef = _simplex_coefficients(gram, np.arange(m), 0.01)
        for j in range(m):
            feats = np.arange(m) != j
            sub, cross = gram[np.ix_(feats, feats)], gram[feats, j]
            best = oracle.simplex(t[:, feats], t[:, j], 0.01, max_iters=cap)[0]
            # at l1_ratio 0 the elastic-net objective is the simplex kernel's
            assert (enet_objective(sub, cross, coef[feats, j], 0.01, 0.0)
                    <= enet_objective(sub, cross, best, 0.01, 0.0) + SIMPLEX_OBJ_TOL)

    @pytest.mark.parametrize("family", sorted(ENET_PENALTIES))
    def test_elastic_net_meets_optimality_conditions(self, family):
        alpha, l1 = ENET_PENALTIES[family]
        t = loo_world()
        m = t.shape[1]
        gram = centered_gram(t)
        coef = _elastic_net_coefficients(gram, np.arange(m), alpha, l1)
        for j in range(m):
            feats = np.arange(m) != j
            sub, cross, b = gram[np.ix_(feats, feats)], gram[feats, j], coef[feats, j]
            ref = converged_enet(t[:, feats], t[:, j], alpha, l1)[0]
            assert (enet_objective(sub, cross, b, alpha, l1)
                    <= enet_objective(sub, cross, ref, alpha, l1) + ENET_OBJ_TOL)
            # KKT: 0 lies in the subdifferential of the objective at b
            grad = sub @ b - cross
            on = b != 0.0
            stationary = grad + alpha * (1.0 - l1) * b + alpha * l1 * np.sign(b)
            assert np.all(np.abs(stationary[on]) <= ENET_KKT_TOL)
            assert np.all(np.abs(grad[~on]) <= alpha * l1 + ENET_KKT_TOL)

    @pytest.mark.parametrize("family", sorted(ENET_PENALTIES))
    def test_elastic_net_caps_split_converged_and_unconverged(self, family, monkeypatch):
        monkeypatch.setattr(regress, "_ENET_MAX_ITERS", ENET_CAP)
        alpha, l1 = ENET_PENALTIES[family]
        t = loo_world()
        m = t.shape[1]
        coef, _, n_warn = loo_batched(
            t, lambda g, e: _elastic_net_coefficients(g, e, alpha, l1)
        )
        # each target of the batch takes the steps of its own one-target run
        gram = centered_gram(t)
        single_warn = 0
        for j in range(m):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ConvergenceWarning)
                single = _elastic_net_coefficients(gram, np.array([j]), alpha, l1)
            single_warn += len(caught)
            assert np.max(np.abs(coef[:, j] - single[:, 0])) <= EXACTISH_TOL
        assert n_warn == single_warn
        assert 0 < n_warn < m - 1, "caps should split converged/unconverged"

    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    def test_one_target_fits_are_the_kernel(self):
        t = loo_world()
        x, y = np.delete(t, 5, axis=1), t[:, 5]
        for fit, ref in [
            (fit_ridge(x, y, 0.5), oracle.ridge(x, y, 0.5)),
            (fit_simplex(x, y, 0.01), oracle.simplex(x, y, 0.01)),
            (fit_columns(x, RegressConfig("si", rank=3, lam=0.1), y), oracle.si(x, y, 3, 0.1)),
        ]:
            assert np.max(np.abs(fit.coefficients - ref[0])) <= SIMPLEX_TOL
            assert abs(fit.intercept - ref[1]) <= SIMPLEX_TOL
        # the elastic net's one-target fit is the kernel's fit of y as the
        # last column, and it is as good as the converged oracle
        full, last = target_last(x, y)
        en = fit_elastic_net(x, y, 0.1, 0.3)
        column = _elastic_net_coefficients(full, last, 0.1, 0.3)[:, 0]
        assert np.array_equal(en.coefficients, column[:-1]) and column[-1] == 0.0
        gram, cross = full[:-1, :-1], full[:-1, -1]
        ref = converged_enet(x, y, 0.1, 0.3)
        assert (enet_objective(gram, cross, en.coefficients, 0.1, 0.3)
                <= enet_objective(gram, cross, ref[0], 0.1, 0.3) + ENET_OBJ_TOL)
        assert abs(en.intercept - ref[1]) <= ENET_TOL

    def test_projection_matches_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=7)
            assert np.array_equal(project_simplex(v), oracle.project_simplex(v))

    def test_simplex_feasibility_error(self, monkeypatch):
        # a broken projection that returns the all-ones vector, the exact
        # (off-simplex) fit of y = x @ 1, must not come back as a model
        monkeypatch.setattr(regress, "_project_rows", lambda v: np.ones(v.shape))
        monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", 3)
        x = random_xy(20, 4, seed=33)[0]
        with pytest.raises(DataError, match="infeasible"):
            _simplex_coefficients(*target_last(x, x.sum(axis=1), centered=False), 0.0)

    def test_ridge_own_systems_match_the_shared_inverse(self, monkeypatch):
        # the per-target solves that a singular shared matrix falls back to
        # give the shared inverse's coefficients
        t = loo_world()
        gram, cols = centered_gram(t), np.arange(t.shape[1])
        shared = _ridge_coefficients(gram, cols, 0.5)

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(regress.np.linalg, "inv", singular)
        own = _ridge_coefficients(gram, cols, 0.5)
        assert np.max(np.abs(own - shared)) <= EXACTISH_TOL
        assert np.all(own[cols, cols] == 0.0)

    def test_si_rank_must_be_positive_and_fit_the_design(self):
        t = loo_world()
        gram = np.cov(t.T, bias=True)
        cols = np.arange(t.shape[1])
        for rank in (0, -1, t.shape[1], t.shape[1] + 1):
            with pytest.raises(DataError, match="rank"):
                _si_coefficients(gram, cols, rank, 0.1)

    @pytest.mark.filterwarnings("ignore::twincal.matcore.ConvergenceWarning")
    @pytest.mark.parametrize("m", [9, 48, 60])
    def test_simplex_step_sizes_match_the_loop_bitwise(self, m, monkeypatch):
        t = loo_world(n=2 * m, m=m)
        gram = t.T @ t / t.shape[0]
        cols = np.arange(m)
        loop = [np.linalg.eigvalsh(np.delete(np.delete(gram, j, 0), j, 1))[-1]
                for j in cols]
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            seen.append(eigvalsh(a))
            return seen[-1]

        monkeypatch.setattr(regress.np.linalg, "eigvalsh", spy)
        monkeypatch.setattr(regress, "_SIMPLEX_MAX_ITERS", 1)
        _simplex_coefficients(gram, cols, 0.0)
        assert len(seen) == 1 and seen[0].shape == (m, m - 1)
        assert np.array_equal(seen[0][:, -1], np.array(loop))


# ---------------------------------------------------------------------------
# The stacked network against one-target Adam loops.
# ---------------------------------------------------------------------------

# every network stops early except the constant column's, at 7 distinct
# epochs, with minibatches of 16 rows and a patience of 4 (small_nn_steps)
NN_CFG = RegressConfig(family="nn", hidden_sizes=(6, 4), epochs=80,
                       learning_rate=1e-2, weight_decay=0.01, seed=2)


@pytest.fixture
def small_nn_steps(monkeypatch):
    monkeypatch.setattr(regress, "_NN_BATCH_SIZE", 16)
    monkeypatch.setattr(regress, "_NN_PATIENCE", 4)


def nn_loo_oracle(t, cfg):
    """Per-target oracle fitted values (n x m) and epochs run."""
    m = t.shape[1]
    fitted = np.empty(t.shape)
    epochs = []
    for j in range(m):
        feats = np.arange(m) != j
        weights, biases, ran = oracle.nn(t[:, feats], t[:, j], cfg)
        fitted[:, j] = oracle.nn_forward(weights, biases, t[:, feats])[0]
        epochs.append(ran)
    return fitted, epochs


def assert_close(actual, expected, rtol):
    assert np.max(np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))) <= rtol


@pytest.mark.usefixtures("small_nn_steps")
class TestStackedNetwork:
    def test_loo_matches_one_target_loops(self):
        t = loo_world(n=80, m=10)
        ref, epochs = nn_loo_oracle(t, NN_CFG)
        early = [e for e in epochs if e < NN_CFG.epochs]
        assert len(set(early)) >= 5, "targets should stop at different epochs"

        weights, biases = _nn_parameters(t, NN_CFG, np.arange(10))
        assert weights[0].shape == (10, 10, 6) and biases[0].shape == (10, 1, 6)
        # each network's own input row stays exactly 0
        assert np.all(weights[0][np.arange(10), np.arange(10)] == 0.0)
        fitted = NnModel(weights, biases).predict(t)
        assert_close(fitted, ref, NN_RTOL)
        mse = np.mean((fitted - t) ** 2, axis=0)
        assert_close(mse, np.mean((ref - t) ** 2, axis=0), NN_RTOL)

    def test_one_target_fit_is_the_kernel(self):
        t = loo_world(n=80, m=10)
        x, y = np.delete(t, 0, axis=1), t[:, 0]
        model = fit_columns(x, NN_CFG, y)
        weights, biases, _ = oracle.nn(x, y, NN_CFG)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert got.shape == want.shape
            assert_close(got, want, NN_RTOL)

    def test_stopped_network_neither_raises_nor_updates(self, monkeypatch):
        t = loo_world(n=80, m=10)
        _, epochs = nn_loo_oracle(t, NN_CFG)
        first = int(np.argmin(epochs))
        later = max(range(10), key=lambda j: epochs[j])
        assert epochs[first] < epochs[later]
        batches = -(-(80 - 8) // regress._NN_BATCH_SIZE)   # per epoch, 72 training rows
        expected = _nn_parameters(t, NN_CFG, np.arange(10))
        clean = regress.nn_loss_and_grad

        stacked = []   # networks in the stacks, per call

        def poisoned(target):
            def loss_and_grad(*args):
                loss, grad_w, grad_b = clean(*args)
                stacked.append(len(loss))
                if len(stacked) > epochs[first] * batches:
                    # network c is the one whose first-layer row c is held at 0
                    slot = ~args[0][0][:, target].any(axis=-1)
                    loss = loss.copy()
                    loss[slot] = np.nan
                    for g in grad_w + grad_b:
                        g[slot] = np.nan
                return loss, grad_w, grad_b
            return loss_and_grad

        # the first network to stop leaves the stacks: NaN after its stop changes nothing
        monkeypatch.setattr(regress, "nn_loss_and_grad", poisoned(first))
        got = _nn_parameters(t, NN_CFG, np.arange(10))
        for a, b in zip(got[0] + got[1], expected[0] + expected[1]):
            assert np.array_equal(a, b)
        stops = np.bincount(epochs, minlength=NN_CFG.epochs + 1)
        assert stacked[epochs[first] * batches - 1] == 10
        assert stacked[epochs[first] * batches] == 10 - stops[epochs[first]]
        stacked.clear()
        # a network still training raises at the same point
        monkeypatch.setattr(regress, "nn_loss_and_grad", poisoned(later))
        with pytest.raises(FloatingPointError, match=f"epoch {epochs[first]};"):
            _nn_parameters(t, NN_CFG, np.arange(10))
