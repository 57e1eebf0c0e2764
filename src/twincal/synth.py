"""Seeded synthetic-world generators used as oracles by the test harness.

Two constructions: a continuous low-rank response world with controllable
human/twin latent alignment, and a discrete mixed-membership world with a
finite twin support whose human population is an exact reweighting of the
twin population. Both are pure functions of their parameters and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distcal import Categorical
from .matcore import DataError, MaskedMatrix, check_real, draw_covered_mask

__all__ = [
    "Alignment",
    "LatentWorld",
    "DiscreteWorld",
    "generate_latent_world",
    "generate_discrete_world",
    "tv_error_bound",
]

# the condition number of the linear_distortion mixing map
_CONDITION_NUMBER = 4.0
# the Dirichlet concentration of each question's per-type response profile;
# small values make the profiles nearly deterministic
_QUESTION_CONCENTRATION = 0.06
# the number of twin support atoms, one dominant latent type each
_SUPPORT_SIZE = 5
# the weight of each support atom's own latent type in its mixture
_ATOM_SHARPNESS = 0.9
# the geometric skew of the human mixture over the (uniform) twin support
_REWEIGHT_DECAY = 0.5


class Alignment(str, Enum):
    IDENTICAL = "identical"
    ROTATED_SUPERSET = "rotated_superset"
    LINEAR_DISTORTION = "linear_distortion"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class LatentWorld:
    """Ground truth of a low-rank response world.

    Human responses are inner products of user rows of ``user_factors`` with
    question rows of ``question_factors`` plus Gaussian noise; the twin side
    has its own factor pair whose relation to the human pair is set by
    ``alignment``, plus an optional per-user additive bias.
    ``target_embedding`` / ``twin_target_embedding`` describe the held-out
    question.
    """

    n_users: int
    n_questions: int
    dim: int
    twin_dim: int
    noise_sigma: float
    alignment: Alignment
    seed: int
    user_factors: np.ndarray          # n x d
    question_factors: np.ndarray      # m x d
    twin_user_factors: np.ndarray     # n x d'
    twin_question_factors: np.ndarray # m x d'
    target_embedding: np.ndarray      # d
    twin_target_embedding: np.ndarray # d'
    row_bias: np.ndarray | None = None
    mixing: np.ndarray | None = None  # d x d' map from twin to human coords

    def row_space_residual(self) -> float:
        """Residual of projecting the human question geometry onto the twin's.

        Stacks the (transposed) question factors with the target embedding on
        each side and measures how far the human rows fall outside the span
        of the twin rows; 0 means the inclusion condition for exact transfer
        holds exactly.
        """
        human = np.concatenate(
            [self.question_factors.T, self.target_embedding[:, None]], axis=1
        )
        twin = np.concatenate(
            [self.twin_question_factors.T, self.twin_target_embedding[:, None]],
            axis=1,
        )
        coef, *_ = np.linalg.lstsq(twin.T, human.T, rcond=None)
        return float(np.linalg.norm(human - coef.T @ twin))


def _coverage_mask(
    rng: np.random.Generator, shape: tuple[int, int], missing_frac: float
) -> np.ndarray:
    """IID missingness mask that keeps at least one observation per row/column."""
    if missing_frac == 0.0:
        return np.ones(shape, dtype=bool)
    return draw_covered_mask(
        lambda: rng.random(shape) >= missing_frac,
        "a missingness mask with full coverage",
    )


def generate_latent_world(
    n_users: int,
    n_questions: int,
    dim: int,
    *,
    twin_dim: int | None = None,
    noise_sigma: float = 0.0,
    alignment: Alignment | str = Alignment.IDENTICAL,
    missing_frac: float = 0.0,
    distortion_noise: float = 0.0,
    row_bias_scale: float = 0.0,
    seed: int = 0,
) -> tuple[LatentWorld, MaskedMatrix, MaskedMatrix, np.ndarray]:
    """Sample a low-rank world and return (world, human, twin, hidden target).

    The human matrix is n x m; the twin matrix is n x (m + 1) with the target
    question last and never masked. Factor entries have variance 1/sqrt(dim)
    so response variance stays O(1) regardless of the latent dimension.
    Alignments:

    - identical: twin factors equal the human factors.
    - rotated_superset: the twin question geometry (dimension twin_dim >= dim)
      spans the human geometry exactly; twin users are fresh.
    - linear_distortion: twin questions are an invertible linear mixing of
      the human ones plus optional embedding noise, same users, optional
      per-user response bias. The canonical "systematically biased but
      structurally aligned" twin.
    - independent: twin factors are unrelated to the human ones.
    """
    alignment = Alignment(alignment)
    for name, value in (("noise_sigma", noise_sigma), ("missing_frac", missing_frac),
                        ("distortion_noise", distortion_noise),
                        ("row_bias_scale", row_bias_scale)):
        check_real(name, value)
    if not 0.0 <= missing_frac < 0.5:
        raise DataError("missing_frac must lie in [0, 0.5)")
    if dim < 1 or n_users < 2 or n_questions < 2:
        raise DataError("need dim >= 1, n_users >= 2, n_questions >= 2")
    d2 = dim if twin_dim is None else int(twin_dim)
    if alignment is Alignment.ROTATED_SUPERSET and d2 < dim:
        raise DataError("rotated_superset requires twin_dim >= dim")
    if alignment in (Alignment.IDENTICAL, Alignment.LINEAR_DISTORTION):
        d2 = dim

    rng = np.random.default_rng(seed)
    scale = dim ** -0.25
    users = rng.normal(0.0, scale, (n_users, dim))
    questions = rng.normal(0.0, scale, (n_questions, dim))
    target = rng.normal(0.0, scale, dim)
    mixing = None
    row_bias = None

    if alignment is Alignment.IDENTICAL:
        twin_users = users
        twin_questions = questions
        twin_target = target
    elif alignment is Alignment.ROTATED_SUPERSET:
        t_scale = d2 ** -0.25
        twin_questions = rng.normal(0.0, t_scale, (n_questions, d2))
        twin_target = rng.normal(0.0, t_scale, d2)
        mixing = rng.normal(0.0, (dim * d2) ** -0.25, (dim, d2))
        questions = twin_questions @ mixing.T
        target = mixing @ twin_target
        twin_users = rng.normal(0.0, t_scale, (n_users, d2))
    elif alignment is Alignment.LINEAR_DISTORTION:
        q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spectrum = np.geomspace(1.0, _CONDITION_NUMBER, dim)
        spectrum /= np.sqrt(spectrum[0] * spectrum[-1])
        mixing = q1 @ np.diag(spectrum) @ q2.T
        twin_users = users
        noise_q = rng.normal(0.0, scale, (n_questions, dim))
        noise_t = rng.normal(0.0, scale, dim)
        twin_questions = questions @ mixing + distortion_noise * noise_q
        twin_target = mixing.T @ target + distortion_noise * noise_t
        if row_bias_scale > 0:
            row_bias = rng.normal(0.0, row_bias_scale, n_users)
    else:
        t_scale = d2 ** -0.25
        twin_users = rng.normal(0.0, t_scale, (n_users, d2))
        twin_questions = rng.normal(0.0, t_scale, (n_questions, d2))
        twin_target = rng.normal(0.0, t_scale, d2)

    human_values = users @ questions.T
    if noise_sigma > 0:
        human_values = human_values + rng.normal(0.0, noise_sigma, human_values.shape)
    target_col = users @ target
    if noise_sigma > 0:
        target_col = target_col + rng.normal(0.0, noise_sigma, n_users)

    twin_full = np.concatenate(
        [twin_users @ twin_questions.T, (twin_users @ twin_target)[:, None]], axis=1
    )
    if row_bias is not None:
        twin_full = twin_full + row_bias[:, None]
    if noise_sigma > 0:
        twin_full = twin_full + rng.normal(0.0, noise_sigma, twin_full.shape)

    human_mask = _coverage_mask(rng, human_values.shape, missing_frac)
    feat_mask = _coverage_mask(rng, (n_users, n_questions), missing_frac)
    twin_mask = np.concatenate(
        [feat_mask, np.ones((n_users, 1), dtype=bool)], axis=1
    )

    world = LatentWorld(
        n_users=n_users,
        n_questions=n_questions,
        dim=dim,
        twin_dim=d2,
        noise_sigma=noise_sigma,
        alignment=alignment,
        seed=seed,
        user_factors=users,
        question_factors=questions,
        twin_user_factors=twin_users,
        twin_question_factors=twin_questions,
        target_embedding=target,
        twin_target_embedding=twin_target,
        row_bias=row_bias,
        mixing=mixing,
    )
    human = MaskedMatrix(np.where(human_mask, human_values, np.nan), human_mask)
    twin = MaskedMatrix(np.where(twin_mask, twin_full, np.nan), twin_mask)
    return world, human, twin, target_col


# ---------------------------------------------------------------------------
# Discrete mixed-membership world for distributional calibration.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteWorld:
    """Categorical-response world with a finite twin support.

    Users are mixtures over latent types; each question carries one response
    distribution per type, so response probabilities are inner products of
    the user mixture with the question's type profiles (valid probabilities
    by construction). Twin users are drawn i.i.d. from ``twin_mixture`` over
    ``support_atoms``; the human population is the reweighting
    ``human_mixture`` of the same support, making the best-achievable
    reweighting gap exactly zero. The held-out question's type profiles are
    the ``target_coeffs`` convex combination of the training questions'.
    """

    n_twins: int
    n_questions: int
    n_categories: int
    seed: int
    support_atoms: np.ndarray         # S x d type mixtures (the twin support)
    question_profiles: np.ndarray     # (m + 1) x d x K, target last
    twin_mixture: np.ndarray          # S
    human_mixture: np.ndarray         # S (= the exact reweighting)
    twin_atoms: np.ndarray            # n ints into the support
    human_embeddings: np.ndarray      # n x d sampled human user mixtures
    target_coeffs: np.ndarray         # m, convex combination weights
    reweight_bound: float             # max human_mixture / twin_mixture

    def conditional(self, question: int) -> np.ndarray:
        """(S, K) response distribution of each support atom for a question."""
        return self.support_atoms @ self.question_profiles[question]

    def marginal(self, question: int) -> Categorical:
        """Analytic human response distribution for a question."""
        probs = self.human_mixture @ self.conditional(question)
        return Categorical(probs / probs.sum())


def _simplex_vector(name: str, value, size: int, length: str) -> np.ndarray:
    """``value`` as a float vector, after checking that it has ``size``
    entries, each nonnegative (NaN is not), summing to 1."""
    vec = np.asarray(value, dtype=np.float64)
    if vec.shape != (size,) or not np.all(vec >= 0) or abs(vec.sum() - 1) > 1e-10:
        raise DataError(f"{name} must be a length-{length} simplex vector")
    return vec


def generate_discrete_world(
    n_twins: int,
    n_questions: int,
    n_categories: int,
    *,
    seed: int = 0,
    target_coeffs: np.ndarray | None = None,
) -> tuple[DiscreteWorld, list[Categorical], np.ndarray, Categorical]:
    """Sample a discrete world; returns (world, train marginals, twin samples, target marginal).

    Twin samples are an (n_twins, n_questions + 1) integer matrix of codes in
    1..K with the held-out question last. Human marginals are computed
    analytically from the population mixture, not sampled. The support has
    5 atoms; twins draw them uniformly and humans with weights falling
    geometrically by half per atom.
    """
    if n_categories < 2 or n_questions < 2:
        raise DataError("need n_categories >= 2 and n_questions >= 2")
    rng = np.random.default_rng(seed)
    s = d = _SUPPORT_SIZE  # one dominant latent type per support atom

    atoms = _ATOM_SHARPNESS * np.eye(s) + (1.0 - _ATOM_SHARPNESS) * rng.dirichlet(
        np.ones(d), size=s
    )
    atoms /= atoms.sum(axis=1, keepdims=True)
    profiles = rng.dirichlet(
        np.full(n_categories, _QUESTION_CONCENTRATION), size=(n_questions + 1, d)
    )
    if target_coeffs is None:
        coeffs = np.full(n_questions, 1.0 / n_questions)
    else:
        coeffs = _simplex_vector("target_coeffs", target_coeffs, n_questions, "m")
    profiles[n_questions] = np.einsum("j,jdk->dk", coeffs, profiles[:n_questions])

    mu = np.full(s, 1.0 / s)
    nu = mu * _REWEIGHT_DECAY ** np.arange(s)
    nu /= nu.sum()
    bound = float(np.max(nu / mu))

    twin_atoms = rng.choice(s, size=n_twins, p=mu)
    human_embeddings = atoms[rng.choice(s, size=n_twins, p=nu)]

    conditionals = np.einsum("sd,jdk->jsk", atoms, profiles)  # (m+1, S, K)
    twin_cond = conditionals[:, twin_atoms, :]                # (m+1, n, K)
    cdf = np.cumsum(twin_cond, axis=2)
    u = rng.random((n_twins, n_questions + 1))
    samples = (u[:, :, None] > cdf.transpose(1, 0, 2)).sum(axis=2) + 1

    world = DiscreteWorld(
        n_twins=n_twins,
        n_questions=n_questions,
        n_categories=n_categories,
        seed=seed,
        support_atoms=atoms,
        question_profiles=profiles,
        twin_mixture=mu,
        human_mixture=nu,
        twin_atoms=twin_atoms,
        human_embeddings=human_embeddings,
        target_coeffs=coeffs,
        reweight_bound=bound,
    )
    marginals = [world.marginal(j) for j in range(n_questions)]
    target = world.marginal(n_questions)
    return world, marginals, samples.astype(np.int64), target


def tv_error_bound(world: DiscreteWorld, alpha: float = 0.05) -> float:
    """A-priori bound on the target-question total variation of a TV-fitted ensemble.

    The world's extrapolation factor (m times the largest target
    coefficient) times the finite-sample term
    sqrt(3) * A * sqrt((K + log(4/alpha)) / n). The best-achievable
    population reweighting gap adds nothing: the twin mixture is positive on
    the whole support, so every human mixture is an exact reweighting of it,
    with A = ``reweight_bound``. Holds with probability at least 1 - alpha
    over twin sampling.
    """
    if not 0.0 < alpha < 1.0:
        raise DataError("alpha must lie in (0, 1)")
    m_cinf = world.n_questions * float(np.max(world.target_coeffs))
    sampling = np.sqrt(3.0) * world.reweight_bound * np.sqrt(
        (world.n_categories + np.log(4.0 / alpha)) / world.n_twins
    )
    return float(m_cinf * sampling)
