import json

import numpy as np
import pytest
import scalar_oracles as oracle

import twincal.completion
import twincal.diagnostics
from twincal.cli import main
from twincal.diagnostics import (
    alignment_report,
    principal_angle_cosines,
    projection_frobenius,
    variance_explained,
)
from twincal.matcore import DataError, MaskedMatrix, write_matrix_csv
from twincal.synth import generate_latent_world

# distances against the explicit-projector oracle; cosines against the same
# cross-Gram SVD the library takes
DIST_TOL = 1e-12
COS_TOL = 1e-12


def oracle_projector_distance(a, b, k):
    """Reference: ||Qa Qa' - Qb Qb'||_F with both n x n projectors built."""
    qa = np.linalg.svd(a, full_matrices=False)[0][:, :k]
    qb = np.linalg.svd(b, full_matrices=False)[0][:, :k]
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T))


def basis_from(*columns):
    return np.column_stack(columns).astype(float)


E1, E2, E3 = np.eye(3)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 3))
        cos = principal_angle_cosines(a, a, 3)
        assert np.allclose(cos, 1.0, atol=1e-10)

    def test_orthogonal_complements(self):
        k = 3
        a = np.concatenate([np.eye(k), np.zeros((k, k))])
        b = np.concatenate([np.zeros((k, k)), np.eye(k)])
        cos = principal_angle_cosines(a, b, k)
        assert np.allclose(cos, 0.0, atol=1e-10)

    def test_hand_computed_plane_pair(self):
        # oracle: cross-Gram of {e1, e2} vs {e1, (e2+e3)/sqrt(2)} has
        # singular values (1, 1/sqrt(2))
        a = basis_from(E1, E2)
        b = basis_from(E1, (E2 + E3) / np.sqrt(2))
        cos = principal_angle_cosines(a, b, 2)
        assert cos[0] == pytest.approx(1.0, abs=1e-12)
        assert cos[1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_sorted_nonincreasing(self):
        rng = np.random.default_rng(1)
        cos = principal_angle_cosines(rng.normal(size=(10, 4)),
                                      rng.normal(size=(10, 4)), 4)
        assert np.all(np.diff(cos) <= 1e-12)

    def test_k_exceeds_rank_bound(self):
        with pytest.raises(DataError):
            principal_angle_cosines(np.eye(3), np.eye(3), 4)

    def test_basis_choice_invariance(self):
        # re-basing by an orthogonal mixing changes no cosine
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 3))
        b = rng.normal(size=(12, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cos = principal_angle_cosines(a, b, 3)
        cos_mixed = principal_angle_cosines(a @ q, b, 3)
        assert np.max(np.abs(cos - cos_mixed)) < 1e-10


class TestProjectionFrobenius:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 3))
        assert projection_frobenius(a, a, 3) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_closed_form(self):
        k = 2
        a = np.concatenate([np.eye(k), np.zeros((k, k))])
        b = np.concatenate([np.zeros((k, k)), np.eye(k)])
        assert projection_frobenius(a, b, k) == pytest.approx(np.sqrt(2 * k), abs=1e-10)

    def test_plane_pair_identity(self):
        a = basis_from(E1, E2)
        b = basis_from(E1, (E2 + E3) / np.sqrt(2))
        # sqrt(2*2 - 2*(1 + 1/2)) = 1
        assert projection_frobenius(a, b, 2) == pytest.approx(1.0, abs=1e-10)

    def test_cosine_identity_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rng.normal(size=(12, 6))
            b = rng.normal(size=(12, 6))
            direct = projection_frobenius(a, b, k)
            cos = principal_angle_cosines(a, b, k)
            via_cos = np.sqrt(max(2 * k - 2 * np.sum(cos**2), 0.0))
            assert abs(direct**2 - via_cos**2) < 1e-8
            assert direct <= np.sqrt(2 * k) + 1e-8


class TestExplicitProjectorOracle:
    def test_projection_frobenius_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = rng.normal(size=(16, 7))
            b = a + rng.normal(scale=0.3, size=(16, 7))
            for k in range(1, 8):
                assert abs(projection_frobenius(a, b, k)
                           - oracle_projector_distance(a, b, k)) < DIST_TOL

    @pytest.mark.parametrize("axis", ["row_space", "column_space"])
    def test_every_report_curve_matches_oracle(self, axis):
        seed = 3
        _, human, twin, _ = generate_latent_world(30, 14, 3, seed=16,
                                                  alignment="linear_distortion",
                                                  noise_sigma=0.1)
        h = human.values - human.values.mean(axis=0)
        t = twin.values[:, :14] - twin.values[:, :14].mean(axis=0)
        report = alignment_report(MaskedMatrix.from_dense(h), MaskedMatrix.from_dense(t),
                                  axis, seed=seed, rank=3)
        # the baselines as the report draws them: one Gaussian matrix of the
        # twin's shape, then one permutation per human column
        rng = np.random.default_rng(seed)
        gaussian = rng.normal(size=t.shape)
        gaussian -= gaussian.mean(axis=0)
        shuffled = h.copy()
        for j in range(shuffled.shape[1]):
            shuffled[:, j] = shuffled[rng.permutation(shuffled.shape[0]), j]
        orient = (lambda x: x.T) if axis == "row_space" else (lambda x: x)
        curves = [
            (report.cosines, report.proj_frobenius, t),
            (report.gaussian_cosines, report.gaussian_proj_frobenius, gaussian),
            (report.shuffled_cosines, report.shuffled_proj_frobenius, shuffled),
        ]
        assert report.r_max == 5
        for cos, dist, other in curves:
            a, b = orient(h), orient(other)
            for k in range(1, report.r_max + 1):
                assert abs(dist[k - 1] - oracle_projector_distance(a, b, k)) < DIST_TOL
            qa = np.linalg.svd(a, full_matrices=False)[0][:, :report.r_max]
            qb = np.linalg.svd(b, full_matrices=False)[0][:, :report.r_max]
            oracle_cos = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), 0, 1)
            assert np.max(np.abs(cos - oracle_cos)) < COS_TOL


class TestDiagnoseCommand:
    @staticmethod
    def masked_pair(tmp_path):
        _, human, twin, _ = generate_latent_world(40, 12, 3, seed=17,
                                                  noise_sigma=0.1,
                                                  missing_frac=0.15)
        twin = MaskedMatrix(twin.values[:, :12], twin.mask[:, :12])
        hp, tp = tmp_path / "human.csv", tmp_path / "twin.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, twin)
        return hp, tp, human, twin

    def test_variance_csv_matches_variance_explained(self, tmp_path):
        hp, tp, human, twin = self.masked_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["diagnose", "--human", str(hp), "--twin", str(tp),
                     "--seed", "2", "--out", str(out)]) == 0
        rows = (out / "variance_explained.csv").read_text().splitlines()
        table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        assert np.array_equal(table[:, 0], np.arange(1, 13))
        # the CSV curve comes from the report's spectra (one SVD of each
        # matrix, transposed for the row-space axis), the function from its
        # own SVD: equal up to rounding
        assert np.max(np.abs(table[:, 1] - variance_explained(human, seed=2))) < 1e-12
        assert np.max(np.abs(table[:, 2] - variance_explained(twin, seed=2))) < 1e-12

    def test_rank_search_and_imputation_once_per_matrix(self, tmp_path, monkeypatch):
        hp, tp, human, _ = self.masked_pair(tmp_path)
        searched, imputed = [], []
        estimate = twincal.completion.estimate_effective_rank
        impute = twincal.diagnostics.impute_dense

        def counting_estimate(matrix, *args, **kwargs):
            searched.append(float(np.nansum(matrix.values)))
            return estimate(matrix, *args, **kwargs)

        def counting_impute(matrix, *args, **kwargs):
            imputed.append(float(np.nansum(matrix.values)))
            return impute(matrix, *args, **kwargs)

        monkeypatch.setattr(twincal.completion, "estimate_effective_rank", counting_estimate)
        monkeypatch.setattr(twincal.diagnostics, "estimate_effective_rank", counting_estimate)
        monkeypatch.setattr(twincal.diagnostics, "impute_dense", counting_impute)
        out = tmp_path / "out"
        assert main(["diagnose", "--human", str(hp), "--twin", str(tp),
                     "--out", str(out)]) == 0
        assert len(searched) == 2 and len(set(searched)) == 2
        assert len(imputed) == 2 and set(imputed) == set(searched)
        # the reused human estimate is the rank the report states
        rank = json.loads((out / "alignment.json").read_text())["rank"]
        assert rank == estimate(human, seed=0)


class TestAlignmentReport:
    def test_self_alignment(self):
        _, human, _, _ = generate_latent_world(40, 20, 3, seed=5,
                                               noise_sigma=0.1)
        report = alignment_report(human, human, "row_space", seed=0, rank=3)
        assert np.allclose(report.cosines, 1.0, atol=1e-8)
        assert np.allclose(report.proj_frobenius, 0.0, atol=1e-8)
        assert report.r_max == 5
        # both baselines strictly worse at every truncation level
        assert np.all(report.gaussian_proj_frobenius > report.proj_frobenius + 0.1)
        assert np.all(report.shuffled_proj_frobenius > report.proj_frobenius + 0.1)

    def test_row_space_invariant_under_user_mixing(self):
        # mixing users (left-orthogonal action) preserves the question geometry
        _, human, _, _ = generate_latent_world(40, 20, 3, seed=6)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        mixed = q @ human.values
        cos = principal_angle_cosines(human.values.T, mixed.T, 3)
        assert np.allclose(cos, 1.0, atol=1e-8)

    def test_independent_twin_is_finite(self):
        rng = np.random.default_rng(8)
        _, human, _, _ = generate_latent_world(30, 15, 3, seed=8,
                                               noise_sigma=0.1)
        noise = MaskedMatrix.from_dense(rng.normal(size=(30, 15)))
        report = alignment_report(human, noise, "row_space", seed=0, rank=3)
        assert np.all(np.isfinite(report.cosines))
        assert np.all(np.isfinite(report.proj_frobenius))

    def test_column_space_axis(self):
        _, human, _, _ = generate_latent_world(30, 18, 3, seed=9,
                                               noise_sigma=0.05)
        report = alignment_report(human, human, "column_space", seed=0, rank=3)
        assert np.allclose(report.cosines, 1.0, atol=1e-8)

    def test_r_max_clamped_with_warning(self):
        _, human, _, _ = generate_latent_world(20, 4, 2, seed=10,
                                               noise_sigma=0.1)
        with pytest.warns(RuntimeWarning, match="clamp"):
            report = alignment_report(human, human, "row_space", seed=0, rank=3)
        assert report.r_max == 4

    def test_masked_inputs_are_imputed(self):
        _, human, twin, _ = generate_latent_world(40, 20, 3, seed=11,
                                                  missing_frac=0.2,
                                                  alignment="identical")
        twin_features = MaskedMatrix(twin.values[:, :20], twin.mask[:, :20])
        report = alignment_report(human, twin_features, "row_space", seed=0, rank=3)
        assert report.cosines[0] > 0.99

    def test_json_round_trip(self):
        import json

        _, human, _, _ = generate_latent_world(25, 12, 2, seed=12,
                                               noise_sigma=0.1)
        report = alignment_report(human, human, "row_space", seed=0, rank=2)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["r_max"] == report.r_max
        assert len(payload["cosines"]) == report.r_max
        assert len(payload["baselines"]["gaussian"]["proj_frobenius"]) == report.r_max


class TestAlignmentBuffers:
    """The report, built one full-size matrix at a time, against the body that
    built all four up front: every field bit for bit."""

    @staticmethod
    def assert_same_report(got, want):
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(got, name) == value, name

    @pytest.mark.parametrize("axis", ["row_space", "column_space"])
    @pytest.mark.parametrize("kwargs", [{}, {"rank": 2, "impute_rank": 4}],
                             ids=["searched", "fixed"])
    def test_masked_inputs(self, axis, kwargs):
        _, human, twin, _ = generate_latent_world(
            60, 14, 3, seed=16, missing_frac=0.2, alignment="linear_distortion",
            noise_sigma=0.1)
        twin = MaskedMatrix(twin.values[:, :14], twin.mask[:, :14])
        self.assert_same_report(alignment_report(human, twin, axis, seed=3, **kwargs),
                                oracle.alignment_report(human, twin, axis, seed=3, **kwargs))


class TestVarianceExplained:
    def test_rank_one_curve(self):
        rng = np.random.default_rng(13)
        m = np.outer(rng.normal(size=10), rng.normal(size=6))
        curve = variance_explained(MaskedMatrix.from_dense(m))
        assert curve[0] == pytest.approx(1.0, abs=1e-10)
        assert curve[-1] == pytest.approx(1.0, abs=1e-10)

    def test_two_equal_directions(self):
        # demeaning-neutral construction with exactly two equal singular values
        block = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        curve = variance_explained(MaskedMatrix.from_dense(block))
        assert curve[0] == pytest.approx(0.5, abs=1e-12)
        assert curve[1] == pytest.approx(1.0, abs=1e-12)

    def test_random_matrix_properties(self):
        rng = np.random.default_rng(14)
        curve = variance_explained(MaskedMatrix.from_dense(rng.normal(size=(20, 10))))
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_sums_to_demeaned_norm(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(20, 10))
        demeaned = m - m.mean(axis=0)
        human = MaskedMatrix.from_dense(m)
        twin = MaskedMatrix.from_dense(m + 0.1 * rng.normal(size=(20, 10)))
        report = alignment_report(human, twin, "row_space", rank=2)
        assert abs(np.sum(report.human_spectrum**2)
                   - np.linalg.norm(demeaned) ** 2) < 1e-8
        curve_h, _ = report.variance_curves()
        assert curve_h[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(curve_h - variance_explained(human))) < 1e-12

    def test_curve_matches_dense_svd_of_demeaned(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(9, 6))
        sv = np.linalg.svd(m - m.mean(axis=0), compute_uv=False)
        expected = np.cumsum(sv**2) / np.sum(sv**2)
        assert np.allclose(variance_explained(MaskedMatrix.from_dense(m)), expected, atol=1e-12)

    def test_spectrum_nonincreasing_curve_nondecreasing(self):
        rng = np.random.default_rng(5)
        human = MaskedMatrix.from_dense(rng.normal(size=(15, 12)))
        twin = MaskedMatrix.from_dense(rng.normal(size=(15, 12)))
        report = alignment_report(human, twin, "column_space", rank=3)
        for spectrum, curve in zip((report.human_spectrum, report.twin_spectrum),
                                   report.variance_curves()):
            assert spectrum.shape == (12,)
            assert np.all(np.diff(spectrum) <= 1e-12)
            assert np.all(np.diff(curve) >= -1e-12)
            assert curve[-1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DataError):
            variance_explained(MaskedMatrix.from_dense(np.zeros((5, 4))))
