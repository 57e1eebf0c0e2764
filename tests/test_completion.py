import warnings

import numpy as np
import pytest
import scalar_oracles as oracle

import twincal.completion as completion
from twincal.completion import (
    CompletionConfig,
    CompletionMethod,
    StackedTask,
    _als_half_step,
    _als_sweeps,
    _mean_filled,
    _refill,
    als_impute,
    estimate_effective_rank,
    hard_impute,
    held_out_columns,
    impute_dense,
    soft_impute,
    stacked_complete,
    synthetic_prior_impute,
)
from twincal.matcore import ConvergenceWarning, DataError, MaskedMatrix


def low_rank_masked(n, m, rank, missing_frac, seed, return_truth=False):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
    mask = rng.random((n, m)) >= missing_frac
    # keep coverage in the test generator itself
    while mask.sum(0).min() == 0 or mask.sum(1).min() == 0:
        mask = rng.random((n, m)) >= missing_frac
    matrix = MaskedMatrix(np.where(mask, truth, np.nan), mask)
    if return_truth:
        return matrix, truth
    return matrix


def cfg(method, rank, **kw):
    return CompletionConfig(CompletionMethod(method), rank=rank, **kw)


def soft_reconstruction(m, config):
    """The shrunken low-rank model that soft_impute's refill kernel ends on."""
    start = _mean_filled(m.values, m.mask)
    _, recon, _ = _refill(
        m.values, m.mask, start, config.rank, config.lam, config.max_iters, config.tol
    )
    return recon


def als_half_step_loop(target, mask, basis, lam):
    """Reference oracle for ``_als_half_step``: one ridge solve per row."""
    rank = basis.shape[1]
    out = np.empty((target.shape[0], rank))
    eye = np.eye(rank)
    for i in range(target.shape[0]):
        obs = mask[i] != 0  # a bool or a 0/1 float mask
        sub = basis[obs]
        gram = sub.T @ sub + lam * eye
        rhs = sub.T @ target[i, obs]
        try:
            out[i] = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            raise DataError("singular normal equations in ALS; use lam > 0") from None
    return out


# Fixed before comparing: the Gram squares the filled matrix's condition
# number, so each iteration agrees with the thin SVD only to about
# eps * (sigma_1 / sigma_r)^2, and a refill that runs to its cap compounds
# that over every iteration. Measured differences stay below 1e-12 here.
REFILL_TOL = 1e-10


def assert_refill_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REFILL_TOL * max(1.0, np.max(np.abs(want)))


def rank_one_start(n, m, seed):
    """A rank-1 table with a zero column and holes, started from the truth:
    its Gram has min(n, m) - 1 eigenvalues at rounding level, some below 0."""
    rng = np.random.default_rng(seed)
    truth = np.outer(rng.normal(size=n), rng.normal(size=m))
    truth[:, 1] = 0.0
    mask = rng.random((n, m)) >= 0.2
    mask[:, 1] = True
    return np.where(mask, truth, np.nan), mask, truth


def same_bits(got, want):
    """Equal shape, bytes and memory layout (the layout steers later BLAS calls)."""
    return (got.shape == want.shape and got.tobytes() == want.tobytes()
            and got.flags.f_contiguous == want.flags.f_contiguous)


class TestRefillBuffers:
    """The refill kernel, which reuses its buffers, against its allocating body."""

    @pytest.mark.parametrize("n,m", [(30, 12), (12, 30)])
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("lam,max_iters,tol,converges", [
        (0.0, 500, 1e-9, True),
        (0.0, 6, 1e-15, False),            # stops at the cap
        (0.5, 500, 1e-9, True),
        (0.5, 6, 1e-15, False),
    ])
    def test_same_bits(self, n, m, transposed, lam, max_iters, tol, converges):
        matrix = low_rank_masked(n, m, 3, 0.3, seed=n + 2 * m)
        if transposed:                     # Fortran-ordered values and mask
            matrix = matrix.transpose()
        start = _mean_filled(matrix.values, matrix.mask)
        held = start.copy(order="K")
        got = _refill(matrix.values, matrix.mask, start, 3, lam, max_iters, tol)
        assert same_bits(start, held)      # the caller's start is only read
        want = oracle.gram_refill(matrix.values, matrix.mask, start, 3, lam, max_iters, tol)
        assert got[2] is want[2] is converges
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])

    def test_impute_dense_same_bits(self, monkeypatch):
        matrix = low_rank_masked(40, 15, 3, 0.3, seed=4)
        got, rank = impute_dense(matrix)
        monkeypatch.setattr(completion, "_refill", oracle.gram_refill)
        want, want_rank = impute_dense(matrix)
        assert rank == want_rank and same_bits(got, want)


class TestRefillOracle:
    """The Gram-eigendecomposition refill against the thin-SVD loop it replaced."""

    @staticmethod
    def counted(monkeypatch, name):
        """Record the shape of each matrix passed to ``np.linalg.<name>``:
        one call per refill iteration."""
        calls = []
        inner = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append(a.shape)
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
        return calls

    def run_both(self, monkeypatch, values, mask, start, rank, lam, max_iters, tol):
        eighs = self.counted(monkeypatch, "eigh")
        svds = self.counted(monkeypatch, "svd")
        got = _refill(values, mask, start, rank, lam, max_iters, tol)
        assert not svds
        want = oracle.svd_refill(values, mask, start, rank, lam, max_iters, tol)
        assert len(svds) == len(eighs)        # the same iteration count
        side = min(values.shape)              # the Gram of the smaller side
        assert set(eighs) == {(side, side)}
        assert got[2] is want[2]              # the same converged flag
        assert_refill_close(got[0], want[0])
        assert_refill_close(got[1], want[1])
        assert np.array_equal(got[0][mask], values[mask])
        return got[2], len(eighs)

    @pytest.mark.parametrize("n,m", [(30, 12), (12, 30), (16, 16)])
    @pytest.mark.parametrize("rank,lam,max_iters,tol,converges", [
        (3, 0.0, 500, 1e-9, True),
        (6, 0.0, 40, 1e-12, False),        # stops at the cap
        (3, 0.5, 500, 1e-9, True),
        ("full", 0.0, 50, 1e-9, True),
        ("full", 0.5, 500, 1e-9, True),
    ])
    def test_kernel_matches_svd_loop(self, monkeypatch, n, m, rank, lam,
                                     max_iters, tol, converges):
        matrix = low_rank_masked(n, m, 3, 0.3, seed=n + 2 * m)
        rank = min(n, m) if rank == "full" else rank
        start = _mean_filled(matrix.values, matrix.mask)
        converged, iters = self.run_both(monkeypatch, matrix.values, matrix.mask,
                                         start, rank, lam, max_iters, tol)
        assert converged is converges
        assert iters > 1

    @pytest.mark.parametrize("n,m", [(30, 12), (12, 30)])
    def test_soft_threshold_above_some_singular_values(self, monkeypatch, n, m):
        rng = np.random.default_rng(40)
        matrix = low_rank_masked(n, m, 4, 0.3, seed=41)
        values = np.where(matrix.mask, matrix.values + 0.3 * rng.normal(size=(n, m)), np.nan)
        start = _mean_filled(values, matrix.mask)
        sv = np.linalg.svd(start, compute_uv=False)
        lam = 0.5 * (sv[2] + sv[3])   # shrinks ranks 4..6 to nothing at the start
        self.run_both(monkeypatch, values, matrix.mask, start, 6, lam, 300, 1e-9)

    @pytest.mark.parametrize("n,m", [(20, 8), (8, 20)])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_rank_deficient_start(self, monkeypatch, n, m, lam):
        values, mask, start = rank_one_start(n, m, seed=42)
        x = start if n >= m else start.T
        assert np.linalg.eigvalsh(x.T @ x)[0] <= 0.0
        self.run_both(monkeypatch, values, mask, start, min(n, m), lam, 50, 1e-9)

    @pytest.mark.parametrize("n,m", [(30, 12), (12, 30)])
    @pytest.mark.parametrize("method,rank,lam,max_iters", [
        ("hsv", 3, 0.0, 2000),
        ("hsv", 5, 0.0, 5),        # warns at the cap
        ("ssv", 6, 2.0, 300),
    ])
    def test_public_solvers_match_and_warn_alike(self, monkeypatch, n, m, method,
                                                 rank, lam, max_iters):
        matrix = low_rank_masked(n, m, 3, 0.3, seed=43)
        config = cfg(method, rank, lam=lam, max_iters=max_iters, tol=1e-9)
        solver = hard_impute if method == "hsv" else soft_impute

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = solver(matrix, config)
            return out, sum(issubclass(w.category, ConvergenceWarning) for w in caught)

        kernel, kernel_warnings = run()
        monkeypatch.setattr(completion, "_refill", oracle.svd_refill)
        reference, reference_warnings = run()
        assert kernel_warnings == reference_warnings == (max_iters == 5)
        assert_refill_close(kernel, reference)

    @pytest.mark.parametrize("n,m", [(40, 15), (12, 30)])
    def test_synthetic_prior_matches(self, monkeypatch, n, m):
        rng = np.random.default_rng(44)
        human = low_rank_masked(n, m, 2, 0.25, seed=45)
        observed = np.where(human.mask, human.values, 0.0)
        twin_col = observed[:, 0] * 0.5 + rng.normal(size=n)
        twin = MaskedMatrix.from_dense(np.column_stack([observed, twin_col]))
        task = StackedTask(human, twin, target_col=m)
        config = cfg("sp", 2, max_iters=300, tol=1e-9)
        kernel = synthetic_prior_impute(task, config)
        monkeypatch.setattr(completion, "_refill", oracle.svd_refill)
        assert_refill_close(kernel, synthetic_prior_impute(task, config))

    @pytest.mark.parametrize("n,m", [(48, 16), (16, 48)])
    def test_rank_search_and_dense_impute_match(self, monkeypatch, n, m):
        rng = np.random.default_rng(46)
        tables = []
        for seed in range(3):
            truth = low_rank_masked(n, m, 3, 0.3, seed=47 + seed)
            noisy = truth.values + 0.2 * rng.normal(size=(n, m))
            tables.append(MaskedMatrix(np.where(truth.mask, noisy, np.nan), truth.mask))
        # impute_dense searches the rank (estimate_effective_rank), then refills
        kernel = [impute_dense(t, seed=5) for t in tables]
        monkeypatch.setattr(completion, "_refill", oracle.svd_refill)
        reference = [impute_dense(t, seed=5) for t in tables]
        assert [rank for _, rank in kernel] == [rank for _, rank in reference]
        assert {rank for _, rank in kernel} != {1}
        for (dense, _), (ref_dense, _) in zip(kernel, reference):
            assert_refill_close(dense, ref_dense)


class TestHardImpute:
    def test_fully_observed_is_identity_on_observed(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(10, 6))
        m = MaskedMatrix.from_dense(values)
        out = hard_impute(m, cfg("hsv", 3))
        assert np.array_equal(out, values)

    def test_rank_one_closed_form(self):
        # oracle: the unique rank-1 completion is u_i * v_j
        rng = np.random.default_rng(1)
        u = rng.uniform(0.5, 2.0, 10)
        v = rng.uniform(0.5, 2.0, 8)
        truth = np.outer(u, v)
        mask = np.ones((10, 8), dtype=bool)
        mask[3, 5] = False
        m = MaskedMatrix(np.where(mask, truth, np.nan), mask)
        out = hard_impute(m, cfg("hsv", 1, max_iters=1000, tol=1e-12))
        assert abs(out[3, 5] - u[3] * v[5]) < 1e-6

    def test_rank_two_random_mask(self):
        m, truth = low_rank_masked(10, 10, 2, 0.2, seed=2, return_truth=True)
        out = hard_impute(m, cfg("hsv", 2, max_iters=2000, tol=1e-12))
        hidden = ~m.mask
        rmse = np.sqrt(np.mean((out[hidden] - truth[hidden]) ** 2))
        assert rmse < 1e-4

    def test_observed_preserved_exactly(self):
        m = low_rank_masked(20, 15, 3, 0.3, seed=3)
        out = hard_impute(m, cfg("hsv", 3))
        assert np.array_equal(out[m.mask], m.values[m.mask])

    def test_nonconvergence_warns_and_returns(self):
        m = low_rank_masked(20, 15, 3, 0.3, seed=4)
        with pytest.warns(ConvergenceWarning):
            out = hard_impute(m, cfg("hsv", 3, max_iters=2, tol=1e-16))
        assert np.all(np.isfinite(out))

    def test_empty_row_rejected(self):
        values = np.array([[1.0, 2.0], [np.nan, np.nan]])
        with pytest.raises(DataError):
            hard_impute(MaskedMatrix.from_dense(values), cfg("hsv", 1))


class TestSoftImpute:
    def test_lambda_zero_full_rank_matches_hard(self):
        m = low_rank_masked(12, 9, 2, 0.2, seed=5)
        soft = soft_impute(m, cfg("ssv", 9, lam=0.0, max_iters=500, tol=1e-10))
        hard = hard_impute(m, cfg("hsv", 9, max_iters=500, tol=1e-10))
        assert np.max(np.abs(soft - hard)) < 1e-6

    def test_huge_lambda_zeroes_reconstruction(self):
        # standardized input: reconstruction collapses, missing cells -> 0
        m = low_rank_masked(12, 9, 2, 0.2, seed=6)
        std = MaskedMatrix.from_dense(oracle.standardize_masked(m.values)[0])
        sigma1 = np.linalg.svd(
            np.where(std.mask, std.values, 0.0), compute_uv=False
        )[0]
        config = cfg("ssv", 9, lam=10 * sigma1, max_iters=50)
        out = soft_impute(std, config)
        recon = soft_reconstruction(std, config)
        assert np.max(np.abs(out[~std.mask])) < 1e-12
        assert np.max(np.abs(recon)) == 0.0

    def test_rank_two_with_shrinkage(self):
        m, truth = low_rank_masked(10, 10, 2, 0.2, seed=2, return_truth=True)
        out = soft_impute(m, cfg("ssv", 2, lam=0.01, max_iters=2000, tol=1e-10))
        hidden = ~m.mask
        assert np.sqrt(np.mean((out[hidden] - truth[hidden]) ** 2)) < 1e-2

    def test_nuclear_norm_monotone_in_lambda(self):
        m = low_rank_masked(15, 12, 3, 0.25, seed=7)
        nucs = []
        for lam in [0.0, 0.5, 1.0, 2.0]:
            recon = soft_reconstruction(
                m, cfg("ssv", 12, lam=lam, max_iters=300, tol=1e-9)
            )
            nucs.append(np.linalg.svd(recon, compute_uv=False).sum())
        assert np.all(np.diff(nucs) <= 1e-8)


class TestAls:
    def test_rank_one_noiseless(self):
        rng = np.random.default_rng(8)
        truth = np.outer(rng.uniform(0.5, 2, 12), rng.uniform(0.5, 2, 9))
        mask = rng.random((12, 9)) >= 0.2
        m = MaskedMatrix(np.where(mask, truth, np.nan), mask)
        out = als_impute(m, cfg("als", 1, lam=1e-8, max_iters=500, tol=1e-10))
        assert np.max(np.abs(out[~mask] - truth[~mask])) < 1e-4

    def test_large_lambda_shrinks_to_zero(self):
        m = low_rank_masked(10, 8, 2, 0.2, seed=9)
        out = als_impute(m, cfg("als", 2, lam=1e8, max_iters=50, tol=1e-10))
        assert np.max(np.abs(out)) < 1e-3

    def test_objective_nonincreasing_per_half_step(self):
        m = low_rank_masked(15, 10, 3, 0.3, seed=10)
        values = np.where(m.mask, m.values, 0.0)
        objectives = []
        start = _mean_filled(m.values, m.mask)
        sweeps = _als_sweeps(m.values, m.mask, start, cfg("als", 3, lam=0.1))
        for count, (a, b) in enumerate(sweeps):
            objectives.append(oracle.als_objective(values, m.mask, a, b, 0.1))
            if count >= 40:
                break
        assert np.all(np.diff(objectives) <= 1e-9)

    def test_training_rmse_nonincreasing(self):
        m = low_rank_masked(15, 10, 2, 0.3, seed=11)
        rmses = []
        start = _mean_filled(m.values, m.mask)
        sweeps = _als_sweeps(m.values, m.mask, start, cfg("als", 2, lam=1e-6))
        for count, (a, b) in enumerate(sweeps):
            resid = np.where(m.mask, np.where(m.mask, m.values, 0) - a @ b.T, 0.0)
            rmses.append(np.sqrt((resid**2).sum() / m.mask.sum()))
            if count >= 30:
                break
        assert np.all(np.diff(rmses) <= 1e-9)

    def test_determinism_given_seed(self):
        # ALS consumes no seed: it starts from the SVD of the mean-filled matrix
        m = low_rank_masked(10, 8, 2, 0.2, seed=12)
        a = als_impute(m, cfg("als", 2, lam=0.1))
        b = als_impute(m, cfg("als", 2, lam=0.1))
        assert np.array_equal(a, b)


class TestBatchedAlsHalfStep:
    """The batched half-step against the per-row loop oracle."""

    # the batched Gram sums the same products in another order
    TOL = 1e-12

    def world(self, seed):
        rng = np.random.default_rng(seed)
        n, m, rank = 30, 12, 4
        mask = rng.random((n, m)) >= 0.4
        # rows observing fewer cells than the rank: ridge alone makes them solvable
        mask[:3] = False
        mask[0, 1] = True
        mask[1, [2, 5]] = True
        mask[2, [0, 3, 7]] = True
        values = np.where(mask, rng.normal(size=(n, m)), 0.0)
        return values, mask, rng.normal(size=(n, rank)), rng.normal(size=(m, rank))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_row_loop_in_both_orientations(self, seed):
        values, mask, a, b = self.world(seed)
        for target, obs, basis in [(values, mask, b), (values.T, mask.T, a)]:
            batched = _als_half_step(target, obs.astype(np.float64), basis, 0.3)
            oracle = als_half_step_loop(target, obs, basis, 0.3)
            assert batched.shape == oracle.shape
            assert np.all(np.abs(batched - oracle) <= self.TOL * np.maximum(1, np.abs(oracle)))

    def test_singular_system_raises_data_error(self):
        values, mask, _, b = self.world(0)
        mask[0] = False  # a row observing nothing has a zero normal matrix
        with pytest.raises(DataError, match="singular normal equations"):
            _als_half_step(np.where(mask, values, 0.0), mask.astype(np.float64), b, 0.0)
        with pytest.raises(DataError, match="singular normal equations"):
            als_half_step_loop(np.where(mask, values, 0.0), mask, b, 0.0)

    @pytest.mark.parametrize("rank,lam,max_iters,tol", [
        (3, 0.1, 200, 1e-5),    # converges
        (3, 0.1, 3, 1e-16),     # stops at the cap
        (2, 1e-3, 500, 1e-10),
        (4, 1.0, 10, 1e-5),
    ])
    def test_als_impute_matches_loop_and_warns_alike(self, monkeypatch, rank, lam,
                                                     max_iters, tol):
        m = low_rank_masked(20, 14, 3, 0.3, seed=30 + rank)
        config = cfg("als", rank, lam=lam, max_iters=max_iters, tol=tol)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = als_impute(m, config)
            return out, sum(issubclass(w.category, ConvergenceWarning) for w in caught)

        batched, batched_warnings = run()
        monkeypatch.setattr(completion, "_als_half_step", als_half_step_loop)
        oracle, oracle_warnings = run()
        assert batched_warnings == oracle_warnings
        # rounding differences compound over the sweeps, but stay near eps
        assert np.all(np.abs(batched - oracle) <= 1e-12 * np.maximum(1, np.abs(oracle)))


def stacked_world(n, m, rank, seed, twin_equals_human=True, mixing=None):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, rank))
    v = rng.normal(size=(m + 1, rank))
    human_full = u @ v[:m].T
    target = u @ v[m]
    if twin_equals_human:
        twin_vals = np.concatenate([human_full, target[:, None]], axis=1)
    else:
        vt = v @ mixing
        twin_vals = np.concatenate([(u @ vt[:m].T), (u @ vt[m])[:, None]], axis=1)
    human = MaskedMatrix.from_dense(human_full)
    twin = MaskedMatrix.from_dense(twin_vals)
    return StackedTask(human, twin, target_col=m), target


class TestSyntheticPrior:
    def test_consistent_pair_is_fixed_point(self):
        task, target = stacked_world(30, 12, 2, seed=13)
        out = synthetic_prior_impute(task, cfg("sp", 2, max_iters=300, tol=1e-10))
        assert np.max(np.abs(out - target)) < 1e-8

    def test_true_column_warm_start_beats_cold_start(self):
        # oracle: run the same refinement from a zero start and compare errors
        rng = np.random.default_rng(14)
        n, m, rank = 40, 15, 2
        u = rng.normal(size=(n, rank))
        v = rng.normal(size=(m + 1, rank))
        human_vals = u @ v[:m].T
        mask = rng.random((n, m)) >= 0.25
        human = MaskedMatrix(np.where(mask, human_vals, np.nan), mask)
        target = u @ v[m]
        twin_vals = np.concatenate([np.where(mask, human_vals, 0.0), target[:, None]], 1)
        twin = MaskedMatrix.from_dense(twin_vals)
        task = StackedTask(human, twin, target_col=m)
        c = cfg("sp", rank, max_iters=400, tol=1e-10)
        warm = synthetic_prior_impute(task, c)

        zero_twin = MaskedMatrix.from_dense(
            np.concatenate([np.where(mask, human_vals, 0.0), np.zeros((n, 1))], 1)
        )
        cold = synthetic_prior_impute(StackedTask(human, zero_twin, m), c)
        warm_err = np.linalg.norm(warm - target)
        cold_err = np.linalg.norm(cold - target)
        assert warm_err <= cold_err + 1e-12

    def test_biased_warm_start_improves(self):
        rng = np.random.default_rng(15)
        n, m = 40, 15
        u = rng.uniform(0.5, 1.5, n)
        v = rng.uniform(0.5, 1.5, m + 1)
        human_vals = np.outer(u, v[:m])
        mask = rng.random((n, m)) >= 0.2
        human = MaskedMatrix(np.where(mask, human_vals, np.nan), mask)
        target = u * v[m]
        warm_start = target + 0.5
        twin = MaskedMatrix.from_dense(
            np.concatenate([np.where(mask, human_vals, 0.0), warm_start[:, None]], 1)
        )
        refined = synthetic_prior_impute(
            StackedTask(human, twin, m), cfg("sp", 1, max_iters=500, tol=1e-12)
        )
        assert np.linalg.norm(refined - target) < np.linalg.norm(warm_start - target)


class TestStackedComplete:
    def test_twin_equals_human_recovers_target(self):
        task, target = stacked_world(40, 15, 1, seed=16)
        out = stacked_complete(task, cfg("hsv", 1, max_iters=1000, tol=1e-12))
        rel = np.linalg.norm(out - target) / np.linalg.norm(target)
        assert rel < 1e-4

    def test_orthogonal_latent_mixing_recovers(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        task, target = stacked_world(50, 20, 2, seed=18,
                                     twin_equals_human=False, mixing=q)
        out = stacked_complete(task, cfg("hsv", 2, max_iters=2000, tol=1e-12))
        rmse = np.sqrt(np.mean((out - target) ** 2))
        assert rmse < 1e-3

    def test_independent_twin_degrades_without_crashing(self):
        rng = np.random.default_rng(19)
        task, target = stacked_world(30, 12, 2, seed=20)
        noise_twin = MaskedMatrix.from_dense(rng.normal(size=(30, 13)))
        task = StackedTask(task.human, noise_twin, target_col=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            out = stacked_complete(task, cfg("hsv", 2, max_iters=100))
        assert np.all(np.isfinite(out))

    def test_sp_not_allowed(self):
        task, _ = stacked_world(10, 5, 1, seed=21)
        with pytest.raises(DataError):
            stacked_complete(task, cfg("sp", 1))

    def test_als_solver_route(self):
        task, target = stacked_world(40, 15, 2, seed=22)
        out = stacked_complete(task, cfg("als", 2, lam=1e-6, max_iters=500, tol=1e-9))
        assert np.linalg.norm(out - target) / np.linalg.norm(target) < 1e-3


class TestHeldOutColumnsRank:
    """The rank error names the matrix that bounds the rank."""

    @pytest.mark.parametrize("method,rank,problem", [
        # rank 5 fits the 8 x 10 stack but not sp's 4 x 10 human matrix
        ("hsv", 11, "min(8, 10) of the human and twin matrices stacked, which hsv"),
        ("sp", 5, "min(4, 10) of the human matrix, which sp"),
    ])
    def test_rank_error_names_the_completed_matrix(self, method, rank, problem):
        rng = np.random.default_rng(23)
        human, twin = (MaskedMatrix.from_dense(rng.normal(size=(4, 10))) for _ in range(2))
        with pytest.raises(DataError) as err:
            held_out_columns(human, twin, cfg(method, rank), twin.values, [0])
        assert str(err.value) == f"rank {rank} exceeds {problem} completes"


class TestOneTargetWarnings:
    """stacked_complete and synthetic_prior_impute run the held-out body for
    one target and warn once, at their caller, when it reaches its cap."""

    @pytest.mark.parametrize("method,lam", [("hsv", 0.0), ("ssv", 0.01),
                                            ("als", 1e-6), ("sp", 0.0)])
    @pytest.mark.parametrize("max_iters,tol,warned", [(2, 1e-16, 1), (2000, 1e-6, 0)])
    def test_warn_once_when_capped(self, method, lam, max_iters, tol, warned):
        task, _ = stacked_world(30, 12, 2, seed=13)
        solver = synthetic_prior_impute if method == "sp" else stacked_complete
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = solver(task, cfg(method, 2, lam=lam, max_iters=max_iters, tol=tol))
        assert out.shape == (30,) and np.all(np.isfinite(out))
        assert [w.category for w in caught] == [ConvergenceWarning] * warned
        assert all(w.filename == __file__ for w in caught)


class TestEffectiveRank:
    def test_exact_rank_three(self):
        m = low_rank_masked(50, 40, 3, 0.1, seed=23)
        assert estimate_effective_rank(m, seed=0) == 3

    def test_grid_clamped_to_the_smaller_side(self, monkeypatch):
        m = low_rank_masked(20, 2, 1, 0.1, seed=24)
        ranks = []
        solve = completion._solve

        def spy(values, mask, start, cfg):
            ranks.append(cfg.rank)
            return solve(values, mask, start, cfg)

        monkeypatch.setattr(completion, "_solve", spy)
        assert estimate_effective_rank(m, seed=0) == 1
        assert ranks == [1, 2]

    def test_noise_matrix_deterministic(self):
        rng = np.random.default_rng(25)
        m = MaskedMatrix.from_dense(rng.normal(size=(30, 20)))
        first = estimate_effective_rank(m, seed=7)
        second = estimate_effective_rank(m, seed=7)
        assert first == second

    def test_no_warning_when_refill_stops_at_its_cap(self, monkeypatch):
        m = low_rank_masked(30, 20, 3, 0.2, seed=29)
        converged = []
        solve = completion._solve

        def spy(*args):
            out = solve(*args)
            converged.append(out[1])
            return out

        monkeypatch.setattr(completion, "_solve", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank = estimate_effective_rank(m, seed=0)
        assert rank == 3
        # the refill at rank 4, one above the matrix's, runs to its cap, and
        # so do those at ranks 6 to 8
        assert converged == [True, True, True, False, True, False, False, False]

    def test_diagonal_only_matrix_has_no_covered_holdout(self):
        # every observed cell is the only one in its row: no holdout keeps coverage
        m = MaskedMatrix(np.diag(np.arange(1.0, 7.0)), np.eye(6, dtype=bool))
        with pytest.raises(DataError, match="holdout preserving row/column coverage"):
            estimate_effective_rank(m, seed=0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"max_iters": True}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": 0}, "max_iters"), ({"tol": float("nan")}, "tol"),
        ({"tol": True}, "tol"), ({"tol": 0.0}, "tol"),
    ])
    def test_bad_refill_settings_rejected(self, kwargs, name):
        # the rank search refills with a CompletionConfig's settings, which
        # reject these
        with pytest.raises(DataError, match=name):
            CompletionConfig(CompletionMethod.HARD_SVD, rank=2, **kwargs)


class TestConfigValidation:
    def test_bad_rank(self):
        with pytest.raises(DataError):
            CompletionConfig(CompletionMethod.HARD_SVD, rank=0)

    def test_bad_tol(self):
        with pytest.raises(DataError):
            CompletionConfig(CompletionMethod.HARD_SVD, rank=1, tol=0.0)

    def test_method_string_coerced(self):
        c = CompletionConfig("ssv", rank=2)
        assert c.method is CompletionMethod.SOFT_SVD

    def test_wrong_method_routed(self):
        m = low_rank_masked(10, 8, 2, 0.1, seed=28)
        with pytest.raises(DataError):
            hard_impute(m, cfg("ssv", 2))
