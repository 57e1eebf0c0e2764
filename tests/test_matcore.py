import numpy as np
import pytest

from twincal.matcore import (
    ColumnStats,
    DataError,
    EmptyColumnError,
    MaskedMatrix,
    UndefinedCorrelationError,
    draw_covered_mask,
    mean_correlation,
    pearson,
    read_matrix_csv,
    standardize_columns,
    write_matrix_csv,
)


def masked(values):
    return MaskedMatrix.from_dense(np.asarray(values, dtype=float))


class TestMaskedMatrix:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            MaskedMatrix(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))

    def test_unobserved_cells_are_nan(self):
        m = MaskedMatrix(np.array([[1.0, 7.0]]), np.array([[True, False]]))
        assert np.isnan(m.values[0, 1])
        assert m.values[0, 0] == 1.0

    def test_nonfinite_observed_rejected(self):
        with pytest.raises(DataError):
            MaskedMatrix(np.array([[np.inf]]), np.array([[True]]))

    def test_transpose_round_trip(self):
        m = masked([[1.0, np.nan], [2.0, 3.0]])
        t = m.transpose().transpose()
        assert np.array_equal(m.mask, t.mask)
        assert np.array_equal(m.values[m.mask], t.values[t.mask])

    def test_arrays_immutable_after_construction(self):
        m = masked([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.mask[0, 0] = False

    def test_construction_copies_input(self):
        source = np.array([[1.0, 2.0]])
        m = MaskedMatrix(source, np.ones((1, 2), dtype=bool))
        source[0, 0] = 99.0
        assert m.values[0, 0] == 1.0


class TestDrawCoveredMask:
    def test_returns_first_covering_draw(self):
        empty_row = np.array([[True, True], [False, False]])
        covered = np.array([[True, False], [False, True]])
        draws = iter([empty_row, empty_row, covered, empty_row])
        assert draw_covered_mask(lambda: next(draws), "x") is covered
        assert next(draws) is empty_row

    def test_gives_up_after_ten_draws(self):
        calls = []

        def draw():
            calls.append(1)
            return np.array([[True, False], [True, False]])  # column 1 empty

        with pytest.raises(DataError, match="could not sample a test mask"):
            draw_covered_mask(draw, "a test mask")
        assert len(calls) == 10


class TestStandardize:
    def test_symmetric_two_point_column(self):
        std, stats = standardize_columns(masked([[2.0], [4.0]]))
        assert np.allclose(std.values[:, 0], [-1.0, 1.0])
        assert stats.means[0] == 3.0
        assert stats.stds[0] == 1.0

    def test_constant_column_convention(self):
        std, stats = standardize_columns(masked([[5.0], [5.0], [5.0]]))
        assert np.all(std.values[:, 0] == 0.0)
        assert stats.stds[0] == 0.0
        assert stats.means[0] == 5.0

    def test_missing_entries_ignored(self):
        # oracle: mean/std over the observed entries {1, 3} only
        std, stats = standardize_columns(masked([[1.0], [np.nan], [3.0]]))
        assert stats.means[0] == pytest.approx(2.0)
        assert stats.stds[0] == pytest.approx(1.0)
        assert std.values[0, 0] == pytest.approx(-1.0)
        assert np.isnan(std.values[1, 0])
        assert std.values[2, 0] == pytest.approx(1.0)

    def test_empty_column_rejected_with_index(self):
        values = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(EmptyColumnError, match="column 1"):
            standardize_columns(MaskedMatrix.from_dense(values))

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, (40, 12))
        values[rng.random((40, 12)) < 0.2] = np.nan
        values[:, 3] = 7.25  # constant column
        m = MaskedMatrix.from_dense(values)
        std, stats = standardize_columns(m)
        back = stats.invert(np.where(m.mask, std.values, 0.0))
        assert np.max(np.abs(back[m.mask] - m.values[m.mask])) < 1e-12

    def test_identity_stats_are_noop(self):
        stats = ColumnStats.identity(3)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(stats.apply(x), x)
        assert np.array_equal(stats.invert(x), x)


class TestPearson:
    def test_identical_vectors(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_exact_reversal(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # by the definition: cov = 4/4, stds sqrt(5/4) each -> r = 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        base = pearson(a, b)
        for alpha, beta in [(2.0, 1.0), (0.3, -5.0), (17.0, 0.0)]:
            assert abs(pearson(alpha * a + beta, b) - base) < 1e-12
            assert abs(pearson(a, alpha * b + beta) - base) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1, 2], [1, 2, 3])


class TestMeanCorrelation:
    def test_constant_list(self):
        mean, se = mean_correlation(np.array([0.5, 0.5, 0.5]))
        assert mean == pytest.approx(0.5)
        assert se == 0.0

    def test_singleton_se_is_zero(self):
        mean, se = mean_correlation(np.array([0.0]))
        assert mean == 0.0
        assert se == 0.0

    def test_fisher_z_formula(self):
        mean, _ = mean_correlation(np.array([0.2, 0.6]), fisher_z=True)
        expected = np.tanh((np.arctanh(0.2) + np.arctanh(0.6)) / 2.0)
        assert mean == pytest.approx(expected, abs=1e-14)

    def test_fisher_z_clamps_unit_correlation(self):
        with pytest.warns(RuntimeWarning):
            mean, _ = mean_correlation(np.array([1.0, 0.5]), fisher_z=True)
        assert np.isfinite(mean)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mean_correlation(np.array([]))


class TestCsvRoundTrip:
    def test_bit_faithful_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(7, 5)) * np.pi
        values[rng.random((7, 5)) < 0.3] = np.nan
        m = MaskedMatrix.from_dense(values)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        assert np.array_equal(back.mask, m.mask)
        assert np.array_equal(back.values[back.mask], m.values[m.mask])

    def test_na_case_insensitive_and_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,a,b,c\nr0,1.5,na,\nr1,NA,2,Na\n")
        m = read_matrix_csv(path)
        assert m.mask.tolist() == [[True, False, False], [False, True, False]]
        assert m.values[0, 0] == 1.5

    def test_labels_preserved(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(
            path, np.eye(2), row_labels=["u1", "u2"], col_labels=["q1", "q2"]
        )
        _, rows, cols = read_matrix_csv(path, return_labels=True)
        assert rows == ["u1", "u2"]
        assert cols == ["q1", "q2"]
