"""Calibration toolkit for digital-twin response matrices.

Corrects systematic misalignment between simulated (twin) and human response
matrices: individual-level prediction for unseen questions and users,
distribution-level calibration via reweighted ensembles, subspace-alignment
diagnostics, and seeded synthetic worlds for verification.
"""

from .calibrate import (
    CalibrationTask,
    EvalReport,
    Orientation,
    PreparedPair,
    TransferDiagnostic,
    adaptive_transfer,
    calibrate_new_user,
    fit_and_transfer,
    loo_evaluate,
    prepare_pair,
    sweep_thresholds,
)
from .completion import (
    CompletionConfig,
    CompletionMethod,
    StackedTask,
    als_impute,
    estimate_effective_rank,
    hard_impute,
    soft_impute,
    stacked_complete,
    synthetic_prior_impute,
)
from .diagnostics import (
    AlignmentReport,
    SubspaceAxis,
    alignment_report,
    principal_angle_cosines,
    projection_frobenius,
    variance_explained,
)
from .distcal import (
    Categorical,
    Discrepancy,
    EnsembleVariant,
    EnsembleWeights,
    MirrorDescentConfig,
    cross_table,
    discrepancy,
    ensemble_distribution,
    fit_weights,
    split_questions,
    uniform_baseline,
    variance_ratio,
)
from .matcore import (
    ColumnStats,
    ConvergenceWarning,
    DataError,
    EmptyColumnError,
    MaskedMatrix,
    UndefinedCorrelationError,
    mean_correlation,
    pearson,
    read_matrix_csv,
    standardize_columns,
    write_matrix_csv,
)
from .profiles import PROFILES, method_config, profile_names
from .regress import (
    LinearModel,
    NnModel,
    RegressConfig,
    fit_columns,
    fit_elastic_net,
    fit_nn,
    fit_ridge,
    fit_si,
    fit_simplex,
)
from .synth import (
    Alignment,
    DiscreteWorld,
    LatentWorld,
    generate_discrete_world,
    generate_latent_world,
    tv_error_bound,
)

__version__ = "0.1.0"
