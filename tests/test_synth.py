import numpy as np
import pytest

from twincal.distcal import Categorical, discrepancy
from twincal.matcore import DataError
from twincal.synth import (
    generate_discrete_world,
    generate_latent_world,
    tv_error_bound,
)


class TestLatentWorld:
    def test_determinism_bitwise(self):
        a = generate_latent_world(30, 20, 3, alignment="linear_distortion",
                                  noise_sigma=0.2, missing_frac=0.1,
                                  row_bias_scale=0.5, seed=11)
        b = generate_latent_world(30, 20, 3, alignment="linear_distortion",
                                  noise_sigma=0.2, missing_frac=0.1,
                                  row_bias_scale=0.5, seed=11)
        for left, right in zip(a, b):
            if hasattr(left, "values"):
                assert np.array_equal(left.mask, right.mask)
                assert np.array_equal(left.values[left.mask], right.values[right.mask])
            elif isinstance(left, np.ndarray):
                assert np.array_equal(left, right)

    def test_identical_world_noiseless_equality(self):
        _, human, twin, _ = generate_latent_world(25, 15, 4, seed=0,
                                                  alignment="identical")
        assert np.array_equal(human.values, twin.values[:, :15])

    def test_noiseless_rank_is_exact(self):
        _, human, _, _ = generate_latent_world(40, 30, 5, seed=1)
        sv = np.linalg.svd(human.values, compute_uv=False)
        assert sv[4] > 1e-6
        assert sv[5] < 1e-8

    def test_rotated_superset_inclusion_residual(self):
        world, _, _, _ = generate_latent_world(
            50, 30, 4, twin_dim=6, alignment="rotated_superset", seed=2
        )
        assert world.row_space_residual() < 1e-10

    def test_independent_world_has_large_residual(self):
        world, _, _, _ = generate_latent_world(
            50, 30, 4, alignment="independent", seed=3
        )
        assert world.row_space_residual() > 1e-3

    def test_target_column_never_masked(self):
        _, _, twin, _ = generate_latent_world(40, 25, 3, missing_frac=0.3, seed=4)
        assert twin.mask[:, 25].all()

    def test_masks_keep_coverage(self):
        _, human, twin, _ = generate_latent_world(20, 12, 2, missing_frac=0.4, seed=5)
        assert human.mask.sum(0).min() >= 1
        assert human.mask.sum(1).min() >= 1
        assert twin.mask.sum(0).min() >= 1

    def test_linear_distortion_condition_number(self):
        world, _, _, _ = generate_latent_world(
            30, 20, 4, alignment="linear_distortion", seed=6
        )
        cond = np.linalg.cond(world.mixing)
        assert cond <= 10.0

    def test_row_bias_present_only_when_requested(self):
        w0, _, _, _ = generate_latent_world(20, 10, 2, seed=7,
                                            alignment="linear_distortion")
        w1, _, _, _ = generate_latent_world(20, 10, 2, seed=7,
                                            alignment="linear_distortion",
                                            row_bias_scale=1.0)
        assert w0.row_bias is None
        assert w1.row_bias is not None and w1.row_bias.shape == (20,)

    def test_invalid_params(self):
        with pytest.raises(DataError):
            generate_latent_world(10, 10, 2, missing_frac=0.7)
        with pytest.raises(DataError):
            generate_latent_world(10, 10, 3, twin_dim=2, alignment="rotated_superset")

    @pytest.mark.parametrize("key", ["noise_sigma", "missing_frac", "distortion_noise",
                                     "row_bias_scale"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, float("nan")])
    def test_non_real_numbers_rejected(self, key, value):
        with pytest.raises(DataError, match=f"^{key} must be a real number, got "):
            generate_latent_world(10, 10, 2, alignment="linear_distortion", **{key: value})

    def test_numpy_reals_accepted(self):
        world, human, _, _ = generate_latent_world(
            10, 10, 2, alignment="linear_distortion", noise_sigma=np.float64(0.1),
            missing_frac=np.float32(0.25), distortion_noise=np.int64(0), row_bias_scale=1)
        assert world.noise_sigma == 0.1 and world.row_bias is not None
        assert not human.is_fully_observed()


class TestDiscreteWorld:
    def test_determinism_bitwise(self):
        a = generate_discrete_world(100, 12, 4, seed=9)
        b = generate_discrete_world(100, 12, 4, seed=9)
        assert np.array_equal(a[2], b[2])
        assert np.array_equal(a[0].support_atoms, b[0].support_atoms)

    def test_probabilities_valid_for_all_pairs(self):
        world, marginals, samples, target = generate_discrete_world(50, 10, 5, seed=10)
        # every user-mixture / question pair yields a valid distribution
        for j in range(world.n_questions + 1):
            probs = world.human_embeddings @ world.question_profiles[j]
            assert probs.min() >= -1e-12
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10
        for p in marginals + [target]:
            assert p.probs.min() >= 0
            assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_samples_in_range(self):
        _, _, samples, _ = generate_discrete_world(80, 15, 6, seed=11)
        assert samples.min() >= 1
        assert samples.max() <= 6
        assert samples.shape == (80, 16)

    def test_uniform_target_coeffs_extrapolation_factor(self):
        world, _, _, _ = generate_discrete_world(50, 20, 4, seed=12)
        assert world.n_questions * world.target_coeffs.max() == pytest.approx(1.0)

    def test_exact_reweighting_flag_and_bound(self):
        # the human mixture is a reweighting of the twin mixture within the
        # bound, so the bound carries no reweighting-gap term
        world, _, _, _ = generate_discrete_world(50, 10, 4, seed=13)
        assert np.all(world.human_mixture <= world.reweight_bound * world.twin_mixture + 1e-12)
        assert world.reweight_bound == pytest.approx(
            float(np.max(world.human_mixture / world.twin_mixture))
        )
        bound = tv_error_bound(world, alpha=0.05)
        expected = world.n_questions * world.target_coeffs.max() * (
            np.sqrt(3) * world.reweight_bound
            * np.sqrt((4 + np.log(4 / 0.05)) / 50)
        )
        assert bound == pytest.approx(expected)

    def test_target_profile_is_convex_combination(self):
        world, _, _, _ = generate_discrete_world(30, 8, 3, seed=14)
        recombined = np.einsum(
            "j,jdk->dk", world.target_coeffs, world.question_profiles[:8]
        )
        assert np.max(np.abs(recombined - world.question_profiles[8])) < 1e-12

    def test_sampled_frequencies_concentrate(self):
        # Monte-Carlo check: empirical twin frequencies approach the analytic
        # twin-population marginals at rate sqrt(K/n)
        n, m, k = 5000, 10, 5
        world, _, samples, _ = generate_discrete_world(n, m, k, seed=15)
        worst = 0.0
        for j in range(m):
            counts = np.bincount(samples[:, j] - 1, minlength=k) / n
            analytic = world.twin_mixture @ world.conditional(j)
            empirical = Categorical(counts / counts.sum())
            worst = max(worst, discrepancy("tv", Categorical(analytic / analytic.sum()), empirical))
        assert worst < 3 * np.sqrt(k / n)

    def test_custom_mixtures_validated(self):
        with pytest.raises(DataError):
            generate_discrete_world(10, 5, 3, seed=0,
                                    target_coeffs=np.array([1.0, 1.0]))

    def test_valid_target_coeffs_kept_as_given(self):
        target_coeffs = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        world, _, _, _ = generate_discrete_world(10, 5, 3, seed=0, target_coeffs=target_coeffs)
        assert np.array_equal(world.target_coeffs, target_coeffs)

    def test_support_mixtures_are_fixed(self):
        # five atoms, uniform for the twins, halving per atom for the humans
        world, _, _, _ = generate_discrete_world(10, 5, 3, seed=0)
        assert np.array_equal(world.twin_mixture, np.full(5, 0.2))
        assert np.allclose(world.human_mixture, 0.5 ** np.arange(5) / (2 - 0.5**4), rtol=1e-15)
        assert world.reweight_bound == pytest.approx(5 / (2 - 0.5**4), rel=1e-15)
        for key in ("support_size", "twin_mixture", "human_mixture"):
            with pytest.raises(TypeError, match=key):
                generate_discrete_world(10, 5, 3, seed=0, **{key: 3})

    @pytest.mark.parametrize("key,value,message", [
        ("target_coeffs", [0.5, 0.5, 0.5, 0.5, 0.5], "target_coeffs must be a length-m"),
        ("target_coeffs", [0.25, 0.25, 0.5], "target_coeffs must be a length-m"),
        ("target_coeffs", [np.nan, 0.25, 0.25, 0.25, 0.25], "target_coeffs must be a length-m"),
    ])
    def test_non_simplex_vector_named(self, key, value, message):
        with pytest.raises(DataError, match=f"^{message} simplex vector$"):
            generate_discrete_world(10, 5, 3, seed=0, **{key: np.array(value)})

    def test_noiseless_identical_alignment_correlates_perfectly(self):
        # twin columns equal human columns: every method's input is consistent
        from twincal.calibrate import loo_evaluate
        from twincal.regress import RegressConfig

        _, human, twin, _ = generate_latent_world(40, 12, 3, seed=16,
                                                  alignment="identical")
        twin_features = twin.values[:, :12]
        from twincal.matcore import MaskedMatrix

        report = loo_evaluate(
            human, MaskedMatrix.from_dense(twin_features),
            RegressConfig(family="ridge", lam=1e-8),
        )
        assert report.mean > 1.0 - 1e-6


class TestNoiselessIdenticalInvariant:
    """Every method with exact representational capacity reaches correlation 1.

    The simplex-constrained family cannot (the target embedding generically
    falls outside the convex hull of the feature embeddings) and the network
    carries a finite SGD training floor; both are asserted close instead.
    """

    @staticmethod
    @pytest.fixture(scope="class")
    def world():
        from twincal.matcore import MaskedMatrix

        _, human, twin, _ = generate_latent_world(60, 14, 3, seed=30,
                                                  alignment="identical")
        return human, MaskedMatrix.from_dense(twin.values[:, :14])

    def test_exact_methods_reach_one(self, world):
        import warnings

        from twincal.calibrate import loo_evaluate
        from twincal.completion import CompletionConfig
        from twincal.matcore import ConvergenceWarning
        from twincal.regress import RegressConfig

        human, twin = world
        methods = [
            RegressConfig(family="ridge", lam=1e-10),
            RegressConfig(family="lasso", alpha=1e-8),
            RegressConfig(family="en", alpha=1e-8, l1_ratio=0.5),
            RegressConfig(family="si", rank=3, lam=1e-10),
            CompletionConfig("hsv", rank=3, max_iters=1000, tol=1e-12),
            CompletionConfig("ssv", rank=3, lam=0.0, max_iters=1000, tol=1e-12),
            CompletionConfig("als", rank=3, lam=1e-9, max_iters=500, tol=1e-10),
            CompletionConfig("sp", rank=3, max_iters=1000, tol=1e-12),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for method in methods:
                report = loo_evaluate(human, twin, method)
                assert report.mean >= 1.0 - 1e-6, method

    def test_structural_exceptions_stay_close(self, world):
        import warnings

        from twincal.calibrate import loo_evaluate
        from twincal.matcore import ConvergenceWarning
        from twincal.regress import RegressConfig

        human, twin = world
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            sc = loo_evaluate(human, twin, RegressConfig(family="sc", lam=0.0))
            nn = loo_evaluate(
                human, twin,
                RegressConfig(family="nn", hidden_sizes=(16,), epochs=150,
                              learning_rate=1e-2, seed=0),
            )
        assert 0.9 < sc.mean < 1.0 - 1e-6
        assert 0.95 < nn.mean < 1.0 - 1e-6
