"""Shipped hyperparameter profiles for the benchmark dataset/task pairs.

Each profile maps every calibration method name to its default
hyperparameters for that dataset and prediction task; ``method_config``
materializes them as a :class:`RegressConfig` or :class:`CompletionConfig`.
"""

from __future__ import annotations

from dataclasses import fields

from .completion import CompletionConfig
from .matcore import DataError
from .regress import FAMILIES as REGRESSION_METHODS, RegressConfig

__all__ = ["PROFILES", "profile_names", "method_config", "REGRESSION_METHODS",
           "COMPLETION_METHODS"]

COMPLETION_METHODS = ("hsv", "ssv", "als", "sp")

PROFILES: dict[str, dict[str, dict]] = {
    "movielens.new_question": {
        "ridge": {"lam": 1000.0},
        "lasso": {"alpha": 0.01},
        "en": {"alpha": 0.1, "l1_ratio": 0.1},
        "sc": {"lam": 1e-8},
        "nn": {"hidden_sizes": (16,), "weight_decay": 0.1, "epochs": 200},
        "si": {"rank": 50, "lam": 100.0},
        "hsv": {"rank": 5},
        "ssv": {"rank": 15, "lam": 5.0},
        "als": {"rank": 15, "lam": 5.0},
        "sp": {"rank": 8},
    },
    "movielens.new_user": {
        "ridge": {"lam": 1000.0},
        "lasso": {"alpha": 0.1},
        "en": {"alpha": 1.0, "l1_ratio": 0.1},
        "sc": {"lam": 1.0},
        "nn": {"hidden_sizes": (8,), "weight_decay": 1.0, "epochs": 200},
        "si": {"rank": 10, "lam": 100.0},
        "hsv": {"rank": 2},
        "ssv": {"rank": 5, "lam": 20.0},
        "als": {"rank": 3, "lam": 5.0},
        "sp": {"rank": 2},
    },
    "twin2k.new_question": {
        "ridge": {"lam": 100.0},
        "lasso": {"alpha": 0.001},
        "en": {"alpha": 0.01, "l1_ratio": 0.3},
        "sc": {"lam": 1e-6},
        "nn": {"hidden_sizes": (8,), "weight_decay": 0.05, "epochs": 200},
        "si": {"rank": 20, "lam": 100.0},
        "hsv": {"rank": 5},
        "ssv": {"rank": 20, "lam": 20.0},
        "als": {"rank": 20, "lam": 20.0},
        "sp": {"rank": 8},
    },
    "twin2k.new_user": {
        "ridge": {"lam": 5000.0},
        "lasso": {"alpha": 1.0},
        "en": {"alpha": 1.0, "l1_ratio": 0.1},
        "sc": {"lam": 1e-6},
        "nn": {"hidden_sizes": (8, 8), "weight_decay": 0.001, "epochs": 200},
        "si": {"rank": 30, "lam": 100.0},
        "hsv": {"rank": 2},
        "ssv": {"rank": 10, "lam": 10.0},
        "als": {"rank": 15, "lam": 0.5},
        "sp": {"rank": 2},
    },
}


def profile_names() -> list[str]:
    return sorted(PROFILES)


def method_config(
    method: str,
    profile: str | None = None,
    *,
    overrides: dict | None = None,
    seed: int = 0,
):
    """Build the config for a method, with profile defaults and overrides.

    Regression methods yield a :class:`RegressConfig`, completion methods a
    :class:`CompletionConfig`. Explicit ``overrides`` win over the profile's
    stored values; a name the config does not have raises :class:`DataError`.
    ``seed`` reaches regression configs only (it seeds the network family).
    """
    params: dict = {}
    if profile is not None:
        if profile not in PROFILES:
            raise DataError(
                f"unknown profile {profile!r}; available: {profile_names()}"
            )
        if method not in PROFILES[profile]:
            raise DataError(f"profile {profile!r} has no method {method!r}")
        params.update(PROFILES[profile][method])
    if overrides:
        params.update(overrides)

    if method in REGRESSION_METHODS:
        cls, selector = RegressConfig, "family"
        params.setdefault("seed", seed)
    elif method in COMPLETION_METHODS:
        cls, selector = CompletionConfig, "method"
    else:
        raise DataError(
            f"unknown method {method!r}; expected one of "
            f"{REGRESSION_METHODS + COMPLETION_METHODS}"
        )
    unknown = sorted(set(params) - ({f.name for f in fields(cls)} - {selector}))
    if unknown:
        raise DataError(f"unknown parameters for method {method!r}: {unknown}")
    return cls(**{selector: method}, **params)
