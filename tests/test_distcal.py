import numpy as np
import pytest

import onehot_oracle
import twincal.distcal as distcal
from twincal.distcal import (
    Categorical,
    Discrepancy,
    EnsembleVariant,
    EnsembleWeights,
    MirrorDescentConfig,
    cross_table,
    discrepancy,
    ensemble_distribution,
    evaluate_on_questions,
    fit_weights,
    objective_and_gradient,
    split_questions,
    uniform_baseline,
    variance_ratio,
)
from twincal.matcore import DataError
from twincal.synth import generate_discrete_world

ALL = list(Discrepancy)
SYMMETRIC = [Discrepancy.TV, Discrepancy.HELLINGER, Discrepancy.KS,
             Discrepancy.CDF_L1, Discrepancy.CDF_L2]


def cat(*probs):
    return Categorical(np.asarray(probs, dtype=float))


def random_pair(rng, k):
    return (Categorical(rng.dirichlet(np.ones(k))),
            Categorical(rng.dirichlet(np.ones(k))))


class TestCategorical:
    def test_validation(self):
        with pytest.raises(DataError):
            Categorical(np.array([0.5, 0.6]))
        with pytest.raises(DataError):
            Categorical(np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probs_rejected(self, bad):
        # every comparison with NaN is False, so the range checks alone pass it
        with pytest.raises(DataError, match="finite"):
            Categorical(np.array([bad, 0.5]))

    def test_from_codes(self):
        p = Categorical.from_codes(np.array([1, 1, 2, 3]), 3)
        assert np.allclose(p.probs, [0.5, 0.25, 0.25])
        with pytest.raises(DataError):
            Categorical.from_codes(np.array([], dtype=np.int64), 3)

    def test_from_codes_rejects_non_integral_codes(self):
        # 1.9, 2.5 were counted as 1, 2 by an int64 cast
        for codes in ([1.9, 2.5, 3.0], [1.0, np.nan, 2.0], [1.0, np.inf]):
            with pytest.raises(DataError, match="finite integers"):
                Categorical.from_codes(np.array(codes), 3)
        p = Categorical.from_codes(np.array([1.0, 2.0, 2.0, 3.0]), 3)
        assert np.array_equal(p.probs, [0.25, 0.5, 0.25])

    def test_variance(self):
        p = cat(0.5, 0.5)
        assert p.variance(np.array([0.0, 1.0])) == pytest.approx(0.25)


class TestDiscrepancy:
    @pytest.mark.parametrize("kind", ALL)
    def test_identity_of_indiscernibles(self, kind):
        rng = np.random.default_rng(0)
        p = Categorical(rng.dirichlet(np.ones(5)))
        assert discrepancy(kind, p, p) <= 1e-10
        q = Categorical(rng.dirichlet(np.ones(5)))
        assert discrepancy(kind, p, q) > 1e-10

    def test_disjoint_point_masses(self):
        p, q = cat(1.0, 0.0), cat(0.0, 1.0)
        assert discrepancy("tv", p, q) == pytest.approx(1.0)
        assert discrepancy("ks", p, q) == pytest.approx(1.0)
        assert discrepancy("cdf_l1", p, q) == pytest.approx(1.0)
        assert discrepancy("cdf_l2", p, q) == pytest.approx(1.0)
        assert discrepancy("hellinger", p, q) == pytest.approx(1.0)
        # clamped ratios blow up but stay finite
        assert discrepancy("chi2", p, q) > 1e6
        assert discrepancy("kl", p, q) > 10

    def test_uniform_vs_point_mass_hand_values(self):
        p = cat(*([0.2] * 5))
        q = cat(1.0, 0.0, 0.0, 0.0, 0.0)
        assert discrepancy("tv", p, q) == pytest.approx(0.8)
        assert discrepancy("ks", p, q) == pytest.approx(0.8)
        assert discrepancy("cdf_l1", p, q) == pytest.approx(0.8 + 0.6 + 0.4 + 0.2)
        assert discrepancy("cdf_l2", p, q) == pytest.approx(
            0.8**2 + 0.6**2 + 0.4**2 + 0.2**2
        )
        assert discrepancy("hellinger", p, q) == pytest.approx(1 - np.sqrt(0.2))

    @pytest.mark.parametrize("kind", ALL)
    def test_nonnegative_on_random_pairs(self, kind):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = random_pair(rng, 6)
            assert discrepancy(kind, p, q) >= -1e-12

    @pytest.mark.parametrize("kind", SYMMETRIC)
    def test_documented_symmetries(self, kind):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = random_pair(rng, 5)
            assert discrepancy(kind, p, q) == pytest.approx(
                discrepancy(kind, q, p), abs=1e-12
            )

    def test_ks_below_tv_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = random_pair(rng, 7)
            tv = discrepancy("tv", p, q)
            ks = discrepancy("ks", p, q)
            assert ks <= tv + 1e-12
            assert tv <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            discrepancy("tv", cat(1.0), cat(0.5, 0.5))

    def test_spec_wrapper(self):
        # the spec is the enum member or its string value, nothing else
        p, q = cat(0.5, 0.5), cat(0.25, 0.75)
        assert discrepancy(Discrepancy.KL, p, q) == discrepancy("kl", p, q)
        with pytest.raises(ValueError):
            discrepancy("not-a-measure", p, q)


class TestEnsembleDistribution:
    def test_degenerate_column(self):
        w = EnsembleWeights(np.full(4, 0.25), np.zeros(3),
                            EnsembleVariant.PERSONAS_ONLY)
        p = ensemble_distribution(w, np.array([3, 3, 3, 3]), 3)
        assert np.allclose(p.probs, [0, 0, 1])

    def test_dummies_only_uniform(self):
        w = EnsembleWeights(np.zeros(4), np.full(3, 1 / 3),
                            EnsembleVariant.DUMMIES_ONLY)
        p = ensemble_distribution(w, np.array([1, 2, 3, 1]), 3)
        assert np.allclose(p.probs, 1 / 3)

    def test_hand_accumulation(self):
        w = EnsembleWeights(np.full(4, 0.25), np.zeros(3))
        p = ensemble_distribution(w, np.array([1, 1, 2, 3]), 3)
        assert np.allclose(p.probs, [0.5, 0.25, 0.25])

    def test_out_of_range_category(self):
        w = uniform_baseline(3, 2)
        with pytest.raises(DataError):
            ensemble_distribution(w, np.array([1, 2, 3]), 2)

    def test_non_integral_codes_rejected(self):
        w = uniform_baseline(3, 3)
        with pytest.raises(DataError, match="finite integers"):
            ensemble_distribution(w, np.array([1.5, 2.7, 3.2]), 3)
        exact = ensemble_distribution(w, np.array([1.0, 2.0, 2.0]), 3)
        assert np.allclose(exact.probs, [1 / 3, 2 / 3, 0])

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(4)
        col = rng.integers(1, 5, size=10)
        raw_a = rng.dirichlet(np.ones(14))
        raw_b = rng.dirichlet(np.ones(14))
        for lam in (0.25, 0.5, 0.9):
            mixed = lam * raw_a + (1 - lam) * raw_b
            wa = EnsembleWeights(raw_a[:10], raw_a[10:])
            wb = EnsembleWeights(raw_b[:10], raw_b[10:])
            wm = EnsembleWeights(mixed[:10], mixed[10:])
            pm = ensemble_distribution(wm, col, 4).probs
            blended = (lam * ensemble_distribution(wa, col, 4).probs
                       + (1 - lam) * ensemble_distribution(wb, col, 4).probs)
            assert np.max(np.abs(pm - blended)) < 1e-12

    def test_weights_validation(self):
        with pytest.raises(DataError):
            EnsembleWeights(np.array([0.6]), np.array([0.6]))
        with pytest.raises(DataError):
            EnsembleWeights(np.array([0.5]), np.array([0.5]),
                            EnsembleVariant.PERSONAS_ONLY)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            EnsembleWeights(np.array([bad, 0.5]), np.array([0.5]))
        with pytest.raises(DataError, match="finite"):
            EnsembleWeights(np.array([0.5]), np.array([0.5, bad]))

    def test_dummy_count_must_match_categories(self):
        w = EnsembleWeights(np.full(3, 0.25), np.array([0.25]))
        with pytest.raises(DataError, match="dummy count"):
            ensemble_distribution(w, np.array([1, 2, 3]), 3)


class TestFitWeights:
    def test_recovers_known_mixture(self):
        # construct the training marginals exactly from a known weight vector
        rng = np.random.default_rng(5)
        n, m, k = 60, 25, 4
        cols = rng.integers(1, k + 1, size=(n, m))
        true = EnsembleWeights(
            np.full(n, 0.7 / n), np.full(k, 0.3 / k)
        )
        p_train = [ensemble_distribution(true, cols[:, j], k) for j in range(m)]
        fitted = fit_weights(p_train, cols, "tv")
        final_tv = np.mean([
            discrepancy("tv", p_train[j],
                        ensemble_distribution(fitted, cols[:, j], k))
            for j in range(m)
        ])
        assert final_tv < 0.02

    def test_single_question_dummies_only(self):
        p = [cat(0.3, 0.5, 0.2)]
        cols = np.array([[1], [2]])
        fitted = fit_weights(p, cols, "tv", EnsembleVariant.DUMMIES_ONLY)
        assert np.all(fitted.w == 0.0)
        assert discrepancy("tv", p[0], Categorical(fitted.pi)) < 1e-3

    def test_single_twin_personas_only_floor(self):
        # feasible set is the single point w = [1]; best TV is exactly 0.5
        p = [cat(0.5, 0.5)]
        cols = np.array([[1]])
        fitted = fit_weights(p, cols, "tv", EnsembleVariant.PERSONAS_ONLY)
        pred = ensemble_distribution(fitted, cols[:, 0], 2)
        assert discrepancy("tv", p[0], pred) == pytest.approx(0.5, abs=1e-3)

    def test_best_iterate_trace_nonincreasing(self):
        world, p_train, samples, _ = generate_discrete_world(80, 12, 4, seed=6)
        fitted = fit_weights(p_train, samples[:, :12], "kl")
        running_best = np.minimum.accumulate(fitted.trace)
        assert np.all(np.diff(running_best) <= 0.0)
        assert fitted.trace is not None and len(fitted.trace) >= 1

    @pytest.mark.parametrize("kind", ALL)
    def test_every_objective_optimizes(self, kind):
        world, p_train, samples, _ = generate_discrete_world(60, 10, 4, seed=7)
        cfg = MirrorDescentConfig(max_iters=400)
        fitted = fit_weights(p_train, samples[:, :10], kind,
                             EnsembleVariant.PERSONAS_AND_DUMMIES, cfg)
        start = fitted.trace[0]
        assert np.min(fitted.trace) <= start + 1e-12

    def test_variant_nesting(self):
        world, p_train, samples, _ = generate_discrete_world(100, 15, 5, seed=8)
        cols = samples[:, :15]
        best = {
            variant: float(np.min(
                fit_weights(p_train, cols, "tv", variant).trace
            ))
            for variant in EnsembleVariant
        }
        full = best[EnsembleVariant.PERSONAS_AND_DUMMIES]
        assert full <= best[EnsembleVariant.PERSONAS_ONLY] + 1e-6
        assert full <= best[EnsembleVariant.DUMMIES_ONLY] + 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        n, m, k = 12, 6, 4
        cols = rng.integers(1, k + 1, size=(n, m))
        p_train = np.stack([rng.dirichlet(np.ones(k)) for _ in range(m)])
        raw = rng.dirichlet(np.ones(n + k))
        w, pi = raw[:n], raw[n:]
        h = 1e-6
        for kind in (Discrepancy.KL, Discrepancy.CHI_SQUARE):
            _, grad_w, grad_pi = objective_and_gradient(w, pi, p_train, cols, kind)
            for i in range(n):
                up, dn = w.copy(), w.copy()
                up[i] += h
                dn[i] -= h
                f_up, _, _ = objective_and_gradient(up, pi, p_train, cols, kind)
                f_dn, _, _ = objective_and_gradient(dn, pi, p_train, cols, kind)
                fd = (f_up - f_dn) / (2 * h)
                assert abs(fd - grad_w[i]) / max(abs(fd), 1e-8) < 1e-5
            for j in range(k):
                up, dn = pi.copy(), pi.copy()
                up[j] += h
                dn[j] -= h
                f_up, _, _ = objective_and_gradient(w, up, p_train, cols, kind)
                f_dn, _, _ = objective_and_gradient(w, dn, p_train, cols, kind)
                fd = (f_up - f_dn) / (2 * h)
                assert abs(fd - grad_pi[j]) / max(abs(fd), 1e-8) < 1e-5


class TestPredictAndBaseline:
    def test_uniform_dummies_prediction(self):
        w = EnsembleWeights(np.zeros(5), np.full(4, 0.25),
                            EnsembleVariant.DUMMIES_ONLY)
        rng = np.random.default_rng(10)
        p = ensemble_distribution(w, rng.integers(1, 5, size=5), 4)
        assert np.allclose(p.probs, 0.25)

    def test_concentrated_twin_prediction(self):
        w = EnsembleWeights(np.array([0.0, 1.0, 0.0]), np.zeros(3),
                            EnsembleVariant.PERSONAS_ONLY)
        p = ensemble_distribution(w, np.array([1, 2, 3]), 3)
        assert np.allclose(p.probs, [0, 1, 0])

    def test_baseline_is_empirical_twin_distribution(self):
        col = np.array([1, 1, 2, 4])
        p = ensemble_distribution(uniform_baseline(4, 4), col, 4)
        assert np.allclose(p.probs, [0.5, 0.25, 0.0, 0.25])


class TestVarianceRatio:
    def test_equal_distributions(self):
        p = cat(0.2, 0.5, 0.3)
        assert variance_ratio(p, p, np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)

    def test_degenerate_prediction(self):
        truth = cat(0.5, 0.5)
        point = cat(1.0, 0.0)
        assert variance_ratio(point, truth, np.array([0.0, 1.0])) == 0.0

    def test_bernoulli_arithmetic(self):
        truth = cat(0.5, 0.5)
        pred = cat(0.9, 0.1)
        assert variance_ratio(pred, truth, np.array([0.0, 1.0])) == pytest.approx(0.36)

    def test_zero_true_variance_rejected(self):
        with pytest.raises(DataError):
            variance_ratio(cat(0.5, 0.5), cat(1.0, 0.0), np.array([0.0, 1.0]))


class TestSplitAndCrossTable:
    def test_split_shapes_and_determinism(self):
        tr, te = split_questions(40, 0.2, seed=0)
        tr2, te2 = split_questions(40, 0.2, seed=0)
        assert len(te) == 8 and len(tr) == 32
        assert np.array_equal(tr, tr2) and np.array_equal(te, te2)
        assert len(np.intersect1d(tr, te)) == 0

    def test_cross_table_schema(self):
        world, p_all, samples, _ = generate_discrete_world(60, 10, 4, seed=11)
        cfg = MirrorDescentConfig(max_iters=150)
        table = cross_table(p_all, samples[:, :10], 4, cfg=cfg, seed=0,
                            objectives=[Discrepancy.TV],
                            variants=[EnsembleVariant.PERSONAS_AND_DUMMIES])
        row = table["rows"]["tv"]["personas_and_dummies"]
        assert set(row["test_metrics"]) == {d.value for d in Discrepancy}
        assert len(row["weights"]["w"]) == 60
        assert set(table["baseline"]) == {d.value for d in Discrepancy}
        assert len(table["test_questions"]) == 2


class TestMixtureMap:
    """The one-hot einsum mixture against the oracle and its callers."""

    @pytest.mark.parametrize("kind", ALL)
    def test_objective_matches_onehot_oracle(self, kind):
        rng = np.random.default_rng(12)
        n, m, k = 30, 9, 5
        cols = rng.integers(1, k + 1, size=(n, m))
        p_train = np.stack([rng.dirichlet(np.ones(k)) for _ in range(m)])
        # weights in multiples of 1/1024 make q exact whatever the summation
        # order, so subgradients at CDF ties (the last CDF entries are both
        # 1) pick the same sign on both sides
        counts = 1 + rng.multinomial(1024 - (n + k), rng.dirichlet(np.ones(n + k)))
        w, pi = counts[:n] / 1024, counts[n:] / 1024
        got = objective_and_gradient(w, pi, p_train, cols, kind)
        want = onehot_oracle.objective_and_gradient(w, pi, p_train, cols, kind)
        # tolerance: 1e-12 relative to max(1, |oracle|); the exact sums are
        # checked bitwise in test_sums_keep_the_onehot_order
        for g, o in zip(got, want):
            scale = max(1.0, float(np.max(np.abs(o))))
            assert np.max(np.abs(np.asarray(g) - o)) <= 1e-12 * scale

    def test_sums_keep_the_onehot_order(self):
        # the non-smooth objectives turn last-bit changes in q into other
        # iterates, so the fit must round exactly as the one-hot einsum does:
        # the same (m, K, n) tensor, layout included, and the same sums
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 8, 9, 250):
            m, k = 6, 5
            cols = rng.integers(1, k + 1, size=(n, m))
            p = rng.dirichlet(np.ones(k), size=m)
            raw = rng.dirichlet(np.ones(n + k))
            w, pi = raw[:n], raw[n:]
            indicators = onehot_oracle.onehot(cols, k)
            _, got = distcal._prepare(p, cols)
            assert np.array_equal(got, indicators)
            assert got.strides == indicators.strides
            q = distcal._predictions(got, EnsembleWeights(w, pi))
            want = np.einsum("mkn,n->mk", indicators, w) + pi
            assert np.array_equal(q, want / want.sum(axis=1, keepdims=True))
            for kind in (Discrepancy.TV, Discrepancy.KL, Discrepancy.CDF_L2):
                fit = distcal._objective(w, pi, p, got, kind, 1e-9)
                oracle = onehot_oracle.objective_and_gradient(w, pi, p, cols, kind)
                for g, o in zip(fit, oracle):
                    assert np.array_equal(g, o)

    def test_evaluate_matches_per_question_loop(self):
        world, p_all, samples, _ = generate_discrete_world(70, 12, 5, seed=13)
        cols = samples[:, :12]
        raw = np.random.default_rng(14).dirichlet(np.ones(75))
        weights = EnsembleWeights(raw[:70], raw[70:])
        for metric in ALL:
            loop = [
                discrepancy(metric, p_all[j], ensemble_distribution(weights, cols[:, j], 5))
                for j in range(12)
            ]
            got = evaluate_on_questions(weights, p_all, cols, 5, metric)
            assert np.array_equal(got, loop)

    def test_evaluate_rejects_bad_inputs(self):
        weights = uniform_baseline(3, 2)
        cols = np.array([[1, 2], [2, 2], [1, 1]])
        good = [cat(0.5, 0.5), cat(0.2, 0.8)]
        cases = [
            ([cat(0.5, 0.5), cat(0.2, 0.3, 0.5)], cols),      # category counts differ
            ([np.array([0.5, 0.5]), np.array([0.2, 0.9])], cols),  # not a distribution
            (good, np.array([[1, 2], [3, 2], [1, 1]])),        # code out of range
            (good, cols[:2]),                                   # twin count != weights
            (good, cols[:, :1]),                                # question count
        ]
        for p_list, twin_cols in cases:
            with pytest.raises(DataError):
                evaluate_on_questions(weights, p_list, twin_cols, 2, "tv")
        # a category count of 0 is checked against the rows' own like any other
        with pytest.raises(DataError, match="category count"):
            evaluate_on_questions(weights, good[:1], cols[:, :1], 0, "tv")

    def test_cross_table_cells_are_fit_weights(self):
        world, p_all, samples, _ = generate_discrete_world(40, 10, 4, seed=15)
        cols = samples[:, :10]
        cfg = MirrorDescentConfig(max_iters=60)
        table = cross_table(p_all, cols, 4, cfg=cfg, seed=1)
        train = table["train_questions"]
        for objective in ALL:
            for variant in EnsembleVariant:
                cell = table["rows"][objective.value][variant.value]
                alone = fit_weights([p_all[j] for j in train], cols[:, train],
                                    objective, variant, cfg)
                assert cell["weights"]["w"] == alone.w.tolist()
                assert cell["weights"]["pi"] == alone.pi.tolist()
                assert cell["train_objective_value"] == float(np.min(alone.trace))

    def test_cross_table_runs_each_start_once(self, monkeypatch):
        world, p_all, samples, _ = generate_discrete_world(30, 8, 3, seed=16)
        calls = []
        real_run = distcal._mirror_descent_run

        def counted(*args):
            calls.append(args[0][2:])
            return real_run(*args)

        monkeypatch.setattr(distcal, "_mirror_descent_run", counted)
        cfg = MirrorDescentConfig(max_iters=20)
        cross_table(p_all, samples[:, :8], 3, cfg=cfg)
        assert len(calls) == 3 * len(ALL)
        calls.clear()
        cross_table(p_all, samples[:, :8], 3, cfg=cfg, objectives=["tv"],
                    variants=[EnsembleVariant.PERSONAS_ONLY])
        assert calls == [(True, False)]

    def test_cross_table_builds_the_indicators_once(self, monkeypatch):
        world, p_all, samples, _ = generate_discrete_world(30, 8, 3, seed=16)
        shapes = []
        real_onehot = distcal._onehot

        def counted(twin_cols, n_categories):
            shapes.append(np.shape(twin_cols))
            return real_onehot(twin_cols, n_categories)

        monkeypatch.setattr(distcal, "_onehot", counted)
        cross_table(p_all, samples[:, :8], 3, cfg=MirrorDescentConfig(max_iters=5))
        assert shapes == [(30, 8)]

    def test_fit_rejects_non_integral_codes(self):
        p_train = [cat(0.2, 0.3, 0.5)] * 3
        with pytest.raises(DataError, match="finite integers"):
            fit_weights(p_train[:1], [[1.5], [2.2], [3.9]], "tv")
        with pytest.raises(DataError, match="finite integers"):
            cross_table(p_train, np.array([[1, 2, np.nan], [2, 2, 3]]), 3)
