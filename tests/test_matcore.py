import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalar_oracles as oracle
import twincal
from twincal import matcore
from twincal.matcore import (
    DataError,
    EmptyColumnError,
    MaskedMatrix,
    UndefinedCorrelationError,
    draw_covered_mask,
    mean_correlation,
    pearson,
    read_matrix_csv,
    standardize_dense,
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

    def test_coverage_names_the_empty_column_or_row(self):
        with pytest.raises(EmptyColumnError, match="column 1 has no observed entries"):
            masked([[1.0, np.nan], [2.0, np.nan]]).require_coverage()
        with pytest.raises(EmptyColumnError, match="row 1 has no observed entries"):
            masked([[1.0, 2.0], [np.nan, np.nan]]).require_coverage()

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
        std, means, stds = standardize_dense(np.array([[2.0], [4.0]]))
        assert np.allclose(std[:, 0], [-1.0, 1.0])
        assert means[0] == 3.0
        assert stds[0] == 1.0

    def test_constant_column_convention(self):
        std, means, stds = standardize_dense(np.array([[5.0], [5.0], [5.0]]))
        assert np.all(std[:, 0] == 0.0)
        assert stds[0] == 0.0
        assert means[0] == 5.0

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, (40, 12))
        values[:, 3] = 7.25  # constant column
        std, means, stds = standardize_dense(values)
        assert np.max(np.abs(std * stds + means - values)) < 1e-12


class TestStandardizeDense:
    """The dense path against the MaskedMatrix round trip it replaced, bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_same_bits_as_masked_path(self, order):
        rng = np.random.default_rng(14)
        values = np.asarray(rng.normal(3.0, 2.5, (60, 9)), order=order)
        values[:, 4] = 7.25  # a constant column
        want, means, stds = oracle.standardize_masked(values)
        held = values.copy(order="K")
        for out in (None, values.copy(order="K")):
            got, got_means, got_stds = standardize_dense(values if out is None else out,
                                                         out=out)
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert got_means.tobytes() == means.tobytes()
            assert got_stds.tobytes() == stds.tobytes()
        assert out is got                       # written in place
        assert values.tobytes() == held.tobytes()  # no out: the input is kept
        assert got_stds[4] == 0.0 and np.all(got[:, 4] == 0.0)


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


# read_matrix_csv parses each cell with the same float(), and write_matrix_csv
# formats each value with the same "%.17g", as the cell-at-a-time oracles, so
# the tolerance is zero: written bytes, read values (bitwise), masks, labels
# and error messages must all be equal.
# files the reader accepts, each with its id
CSV_READS = {
    "na_cases": "id,a,b,c,d\nr0,NA,na,Na,nA\nr1,1,2,3,4\n",
    "padded": "id,a,b,c\nr0, NA ,nA  ,\t\nr1, 1.5 ,1e3,1_0\n",
    "empty": "id,a,b\nr0,,\nr1,-0,5e-324\n",
    "crlf": "id,a,b\r\nr0,1,NA\r\nr1,,2.5\r\n",
    "quoted": 'id,"a,1","b"\n"r,0","3.25","NA"\n"r""1",""," 7 "\n',
    "signs": "id,a\nr0,+1E-3\nr1,-.5\n",
}

# files the reader rejects, each with its id
CSV_ERRORS = {
    "ragged": "id,a,b\nr0,1\n",
    "ragged_long": "id,a,b\nr0,1,2,3\n",
    "abc": "id,a,b\nr0,1,abc\n",
    "padded_abc": "id,a,b\nr0,1, abc \n",
    "padded_na_abc": "id,a,b\nr0, NA ,abc\n",              # padded NA before the bad cell
    "nan": "id,a,b\nr0,1,nan\n",
    "padded_nan": "id,a,b\nr0,1, NaN \n",
    "inf": "id,a,b\nr0,1,inf\n",
    "minus_inf": "id,a,b\nr0,-inf,NA\n",
    "padded_na_inf": "id,a,b\nr0, NA ,inf\n",
    "first_non_finite": "id,a,b\nr0,NA,2\nr1,nan,inf\n",  # the first non-finite in row order
    "bad_cell_first": "id,a,b\nr0,1,abc\nr1,2\n",         # the bad cell comes first
    "ragged_first": "id,a,b\nr0,1\nr1,2,abc\n",           # the ragged row comes first
    "ragged_beats_nan": "id,a,b\nr0,1,nan\nr1,2\n",       # a ragged row beats an earlier nan
    "bad_cell_beats_inf": "id,a,b\nr0,inf,1\nr1,2,abc\n",  # so does a bad cell
    "no_rows": "id,a,b\n",
    "empty": "",
}


class TestCsvOracleParity:
    LABELS = ["a,b", 'say "hi"', "two\nlines", "", "banana"]

    @staticmethod
    def special(shape, seed, missing=0.2):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        specials = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, np.nan]
        flat = values.reshape(-1)
        flat[: len(specials)] = specials[: flat.size]
        values[rng.random(shape) < missing] = np.nan
        if shape[0] > 2:
            values[1] = np.nan  # an all-missing row
        return values

    @pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 7), (40, 3), (3, 40)])
    def test_writes_byte_equal(self, tmp_path, shape):
        values = self.special(shape, seed=sum(shape))
        n, m = shape
        labels = dict(row_labels=(self.LABELS * n)[:n], col_labels=(self.LABELS * m)[:m])
        for kwargs in ({}, labels):
            for matrix in (values, MaskedMatrix.from_dense(values)):
                write_matrix_csv(tmp_path / "new.csv", matrix, **kwargs)
                oracle.write_matrix_csv_cells(tmp_path / "old.csv", matrix, **kwargs)
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_writes_byte_equal_across_blocks(self, tmp_path):
        # rows become Python floats a block at a time; a dense inf is missing
        values = self.special((9000 // 7 + 5, 7), seed=15)
        values[3, 2], values[-1, 0] = np.inf, -np.inf
        write_matrix_csv(tmp_path / "new.csv", values)
        oracle.write_matrix_csv_cells(tmp_path / "old.csv", values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_labels_are_not_missing_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[np.nan, 1.0]]), row_labels=["banana"],
                         col_labels=["nan", "NaN"])
        assert path.read_text() == "id,nan,NaN\nbanana,NA,1\n"

    @pytest.mark.parametrize("text", CSV_READS.values(), ids=CSV_READS.keys())
    def test_reads_equal(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        new, new_rows, new_cols = read_matrix_csv(path, return_labels=True)
        old, old_rows, old_cols = oracle.read_matrix_csv_cells(path, return_labels=True)
        assert np.array_equal(new.mask, old.mask)
        assert new.values[new.mask].tobytes() == old.values[old.mask].tobytes()
        assert (new_rows, new_cols) == (old_rows, old_cols)

    @pytest.mark.parametrize("text", CSV_ERRORS.values(), ids=CSV_ERRORS.keys())
    def test_errors_equal(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as old:
            oracle.read_matrix_csv_cells(path)
        with pytest.raises(DataError) as new:
            read_matrix_csv(path)
        assert str(new.value) == str(old.value)


def read_labelled(path):
    return read_matrix_csv(path, return_labels=True)


def read_either(read, path):
    """``read(path)``'s matrix and labels, or the text of its DataError; any
    warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path)
        except DataError as exc:
            return str(exc)


def assert_oracle_agrees(new, path):
    """The cell oracle reads ``path`` as the reader did (``new``, as
    :func:`read_either` gives it). The oracle leaves a line the csv module
    refuses (a field over its limit, or a NUL before Python 3.11) to the
    module's own error, which the reader must report."""
    try:
        old = read_either(lambda p: oracle.read_matrix_csv_cells(p, return_labels=True), path)
    except csv.Error as exc:
        assert isinstance(new, str) and new.endswith(f": {exc}")
        return
    assert_same_read(new, old)


def assert_same_read(new, old):
    if isinstance(old, str):
        assert new == old
        return
    (new, new_rows, new_cols), (old, old_rows, old_cols) = new, old
    assert np.array_equal(new.mask, old.mask)
    assert new.values[new.mask].tobytes() == old.values[old.mask].tobytes()
    assert (new_rows, new_cols) == (old_rows, old_cols)


class TestCsvFastPath:
    """The writer's spelling is parsed by numpy's C reader; every other file is
    read by the row reader, with the same result."""

    @staticmethod
    def refuse_rows(monkeypatch):
        def refused(path):
            raise AssertionError(f"{path} was read row by row")

        monkeypatch.setattr(matcore, "_read_rows", refused)

    @pytest.mark.parametrize("shape", [(1, 1), (9, 1), (1, 7), (2000, 150)])
    def test_writer_files_take_the_c_path(self, tmp_path, monkeypatch, shape):
        # 2000 x 150 is Twin-2K scale, with 10% missing
        values = TestCsvOracleParity.special(shape, seed=sum(shape),
                                             missing=0.1 if shape[0] > 1000 else 0.2)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values)
        self.refuse_rows(monkeypatch)
        assert_same_read(read_either(read_labelled, path),
                         oracle.read_matrix_csv_cells(path, return_labels=True))

    def test_labels_are_never_respelled(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[np.nan, 1.0], [2.0, np.nan], [np.nan, np.nan]]),
                         row_labels=["NA", "nan", "BANANA"], col_labels=["NA", "inf"])
        self.refuse_rows(monkeypatch)
        matrix, rows, cols = read_matrix_csv(path, return_labels=True)
        assert (rows, cols) == (["NA", "nan", "BANANA"], ["NA", "inf"])
        assert matrix.mask.tolist() == [[False, True], [True, False], [False, False]]

    OVERLONG = csv.field_size_limit() // 4 + 1

    @pytest.mark.parametrize("text", [
        *CSV_READS.values(), *CSV_ERRORS.values(),
        "id,a\nr0,1\n\nr1,2\n",
        "id,a\nr0,1\n \t \nr1,2\n",
        "\ufeffid,a\nr0,1\n",
        "id,a\n\ufeffr0,NA\n",
        "id,a,b\nr0,NAN,1\n",
        "id,a,b\nr0,NA,nan\n",
        "id,a,b\nr0,NA1,1\n",
        "id,a,b\nr0, NA ,1\n",
        "id,a,b\nr0,NA ,1\n",
        "id,a,b\nr0,-NA,1\n",
        "id,a,b\nr0,1_0,١\n",
        "id,a,b\nr0,1e999,1\n",
        "id,a,b\nr0,1,NA",
        "id,a\nr0,1\x00\n",
        "id," + ",".join(["c"] * OVERLONG) + "\nr0," + ",".join(["1.5"] * OVERLONG) + "\n",
        # each valid, and read wrongly without the check that hands it over
        "id,a\r\nr0,1\r\nr1,NA\r\n",
        "id,a\rr0,1\rr1,NA\r",
        'id,a\n"r0",1\n',
        'id,"a"\nr0,1\n',
        "id,a\nr\x000,1\n",
        "id,a\n" + "r" * (OVERLONG * 4) + ",1\n",
    ], ids=[*(f"reads_{k}" for k in CSV_READS), *(f"errors_{k}" for k in CSV_ERRORS),
            "blank_line", "whitespace_line", "bom", "bom_label", "NAN", "nan_beside_NA", "NA1",
            "padded_NA", "trailing_space_NA", "signed_NA", "underscore_arabic_digit",
            "overflow", "no_final_newline", "nul", "overlong_line", "crlf_only", "cr_only",
            "quoted_label", "quoted_header", "nul_label", "overlong_label"])
    def test_hand_over_reads_as_the_row_reader(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        new = read_either(read_labelled, path)
        assert_same_read(new, read_either(matcore._read_rows, path))
        assert_oracle_agrees(new, path)

    def test_ragged_row_beats_a_later_bad_byte(self, tmp_path):
        # the bad byte sits far past the text decoder's first chunks
        path = tmp_path / "m.csv"
        path.write_bytes(b"id,a,b\nr0,1,2\nr1,1\n" + b"r2,1,2\n" * 20_000 + b"r3,\xff,1\n")
        new = read_either(read_matrix_csv, path)
        assert new == f"{path}: row 2 has 2 cells, expected 3"
        assert new == read_either(matcore._read_rows, path)

    def test_random_cells_read_as_the_row_reader(self, tmp_path):
        tokens = ["1", "-0", "2.5e-3", "NA", "na", "", " NA", "NA ", "-NA", "+NA", "nan",
                  "-nan", "NaN", "inf", "-Infinity", "1e999", "1e-400", "1_0", " 7 ",
                  "\u00a03", "١", "NAN", "NA1", "#1", "0x1", "+.5", "1.", ".", "e5"]
        rng = np.random.default_rng(0)
        path = tmp_path / "m.csv"
        for _ in range(300):
            # mostly plain numbers and NA, so many files take the fast path
            cells = rng.choice(tokens, size=(3, 3), p=None if rng.random() < 0.3 else
                               [0.4, 0.2, 0.2, 0.2] + [0.0] * (len(tokens) - 4))
            lines = ["id,a,b,c"] + [f"r{i}," + ",".join(row) for i, row in enumerate(cells)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            new = read_either(read_labelled, path)
            assert_same_read(new, read_either(matcore._read_rows, path))
            assert_oracle_agrees(new, path)


class TestCsvFormatChecks:
    @pytest.mark.parametrize("text", ["id\nr0\nr1\n", "id\n", "\nr0\n"],
                             ids=["rows", "no_rows", "blank_header"])
    def test_no_data_column_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="the header names no data column") as err:
            read_matrix_csv(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_zero_column_write_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(DataError, match="at least one data column"):
            write_matrix_csv(path, np.zeros((3, 0)))
        assert not path.exists()

    @pytest.mark.parametrize("where", ["header", "row 2"])
    def test_overlong_cell_rejected_with_its_row(self, tmp_path, where):
        # the csv module reads no field longer than its limit
        limit = csv.field_size_limit()
        long = "1" * (limit + 1)
        path = tmp_path / "m.csv"
        text = f"id,{long}\nr0,1\n" if where == "header" else f"id,c0\nr0,1\nr1,{long}\n"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            read_matrix_csv(path)
        assert str(err.value) == f"{path}: {where}: field larger than field limit ({limit})"

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"id,c0\nr0,\xff\xfe1\n")
        with pytest.raises(DataError) as err:
            read_matrix_csv(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_utf8_whatever_the_locale(self, tmp_path):
        # a C locale without UTF-8 mode makes open()'s default encoding ASCII
        path = tmp_path / "m.csv"
        script = ("import sys; from twincal.matcore import read_matrix_csv, write_matrix_csv; "
                  "write_matrix_csv(sys.argv[1], [[1.0]], row_labels=['\\u00e9'], "
                  "col_labels=['\\u4e00']); "
                  "print(ascii(read_matrix_csv(sys.argv[1], return_labels=True)[1:]))")
        src = str(Path(twincal.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "(['\\xe9'], ['\\u4e00'])\n"
        assert path.read_bytes() == "id,\u4e00\n\u00e9,1\n".encode("utf-8")
