"""Command-line surface: calibrate, distcal, diagnose, synth, eval-sweep.

Every subcommand reads an optional JSON config file, applies environment
overrides (``SYNDIGITS_*``) and then command-line flags (flags win), runs one
pipeline, and writes plot-ready CSV/JSON artifacts to the output directory.
All outputs are byte-deterministic given the same config and seed, and JSON
artifacts are strict JSON (non-finite numbers are written as null). Failures
print a machine-readable one-line error JSON to stdout and exit nonzero (2
for bad inputs, 1 otherwise).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .calibrate import Orientation, loo_evaluate, sweep_thresholds
from .diagnostics import SubspaceAxis, alignment_report
from .distcal import Categorical, MirrorDescentConfig, cross_table
from .matcore import DataError, MaskedMatrix, read_matrix_csv, write_matrix_csv
from .profiles import method_config, profile_names
from .synth import generate_discrete_world, generate_latent_world

ENV_PREFIX = "SYNDIGITS_"

class CliError(Exception):
    def __init__(self, message: str, *, exit_code: int = 2, path: str | None = None):
        super().__init__(message)
        self.exit_code = exit_code
        self.path = path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}", path=str(p))
    with open(p) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid JSON in config {p}: {exc}", path=str(p)) from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {p} must hold a JSON object", path=str(p))
    return cfg


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _to_bool(value) -> bool:
    """A JSON bool, or true/false/1/0/yes/no in any case."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[value.lower()]
    raise ValueError(value)


def _to_int(value) -> int:
    """An int, or a string holding one; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(value)
    return int(value)


_COERCERS = {
    "seed": _to_int,
    "tau": float,
    "fisher_z": _to_bool,
    "standardize": _to_bool,
}

# the config keys cmd_distcal reads under "mirror_descent"
_MIRROR_DESCENT_KEYS = {
    "eta0": float, "max_iters": _to_int, "tol": float, "epsilon_floor": float,
}


# the integer arguments of each synth world generator, with their defaults
_SYNTH_COUNTS = {
    "latent": (("n", 200), ("m", 50), ("dim", 5)),
    "discrete": (("n", 500), ("m", 40), ("n_categories", 5)),
}


def _coerced(key: str, value, coerce):
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid value for {key!r}: {value!r}") from exc


def _resolve(key: str, cli_value, config: dict, default=None):
    """Precedence: explicit CLI flag > environment variable > config > default."""
    env_value = os.environ.get(ENV_PREFIX + key.upper())
    if cli_value is not None:
        value = cli_value
    elif env_value is not None:
        value = env_value
    elif key in config:
        value = config[key]
    else:
        return default
    coerce = _COERCERS.get(key)
    if coerce is None or value is None:
        return value
    return _coerced(key, value, coerce)


def _config_int(config: dict, key: str) -> int | None:
    """An optional integer read from the config alone; null means unset."""
    value = config.get(key)
    return None if value is None else _coerced(key, value, _to_int)


def _require_matrix(path: str | None, role: str) -> MaskedMatrix:
    if path is None:
        raise CliError(f"missing required {role} matrix path")
    p = Path(path)
    if not p.exists():
        raise CliError(f"{role} matrix file not found: {p}", path=str(p))
    return read_matrix_csv(p)


def _out_dir(args, config: dict) -> Path:
    out = _resolve("out", args.out, config, default="twincal_out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finite_or_null(value, keep_inf: bool):
    """``value`` with NaN (and, unless ``keep_inf``, +-inf) floats as None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v, keep_inf) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v, keep_inf) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return value if keep_inf and not np.isnan(value) else None
    return value


def _write_json(path: Path, payload, *, keep_inf: bool = False) -> None:
    """Write strict JSON; ``keep_inf`` writes infinities as ``Infinity``."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload, keep_inf), fh, indent=2,
                  sort_keys=True, allow_nan=keep_inf)
        fh.write("\n")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _method_from_args(args, config: dict, seed: int):
    method = _resolve("method", args.method, config, default="ridge")
    profile = _resolve("profile", getattr(args, "profile", None), config)
    params = dict(config.get("params", {}))
    if "hidden_sizes" in params:
        params["hidden_sizes"] = tuple(params["hidden_sizes"])
    return method, method_config(method, profile, overrides=params, seed=seed)


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    orientation = Orientation(
        _resolve("orientation", args.orientation, config, default="new_question")
    )
    fisher_z = _resolve("fisher_z", args.fisher_z or None, config, default=False)
    tau = _resolve("tau", args.tau, config)
    human = _require_matrix(_resolve("human", args.human, config), "human")
    twin = _require_matrix(_resolve("twin", args.twin, config), "twin")
    _, method = _method_from_args(args, config, seed)
    out = _out_dir(args, config)

    report, predictions = loo_evaluate(
        human, twin, method, orientation,
        fisher_z=fisher_z,
        tau=tau,
        impute_rank=_config_int(config, "impute_rank"),
        standardize=_resolve("standardize", None, config, default=True),
        seed=seed,
        return_predictions=True,
    )
    if orientation is Orientation.NEW_USER:
        predictions = predictions.T
    _write_json(out / "report.json", report.to_json_dict())
    _write_csv(out / "per_target.csv", report.to_csv_rows())
    write_matrix_csv(out / "predictions.csv", predictions)
    return 0


def cmd_eval_sweep(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    orientation = Orientation(
        _resolve("orientation", args.orientation, config, default="new_question")
    )
    fisher_z = _resolve("fisher_z", args.fisher_z or None, config, default=False)
    human = _require_matrix(_resolve("human", args.human, config), "human")
    twin = _require_matrix(_resolve("twin", args.twin, config), "twin")
    _, method = _method_from_args(args, config, seed)
    key, taus = ("--taus", args.taus.split(",")) if args.taus else ("taus", config.get("taus"))
    if not isinstance(taus, list) or not taus:
        raise CliError("eval-sweep needs a nonempty tau grid ('taus' list or --taus)")
    taus = [_coerced(key, t, float) for t in taus]
    out = _out_dir(args, config)

    records = sweep_thresholds(
        human, twin, method, taus, orientation,
        fisher_z=fisher_z,
        impute_rank=_config_int(config, "impute_rank"),
        standardize=_resolve("standardize", None, config, default=True),
        seed=seed,
    )
    rows = [["tau", "mean", "se", "n_transferred", "skipped"]]
    for rec in records:
        rows.append([
            _fmt(rec["tau"]), _fmt(rec["mean"]), _fmt(rec["se"]),
            rec["n_transferred"], rec["skipped"],
        ])
    _write_csv(out / "sweep.csv", rows)
    # a tau grid point of inf is echoed as Infinity, which readers of the
    # sweep compare with the float grid they asked for
    _write_json(out / "sweep.json", records, keep_inf=True)
    return 0


def cmd_diagnose(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    orientation = _resolve("orientation", args.orientation, config)
    axis = _resolve("axis", getattr(args, "axis", None), config)
    if axis is None:
        axis = (
            SubspaceAxis.COLUMN_SPACE
            if orientation == Orientation.NEW_USER.value
            else SubspaceAxis.ROW_SPACE
        )
    human = _require_matrix(_resolve("human", args.human, config), "human")
    twin = _require_matrix(_resolve("twin", args.twin, config), "twin")
    out = _out_dir(args, config)

    report = alignment_report(
        human, twin, axis, seed,
        rank=_config_int(config, "rank"),
        impute_rank=_config_int(config, "impute_rank"),
    )
    _write_json(out / "alignment.json", report.to_json_dict())

    curve_h, curve_t = report.variance_curves()
    rows = [["k", "human", "twin"]]
    for k in range(max(len(curve_h), len(curve_t))):
        rows.append([
            k + 1,
            _fmt(curve_h[k]) if k < len(curve_h) else "",
            _fmt(curve_t[k]) if k < len(curve_t) else "",
        ])
    _write_csv(out / "variance_explained.csv", rows)
    return 0


def cmd_distcal(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    human = _require_matrix(_resolve("human", args.human, config), "human")
    twin = _require_matrix(_resolve("twin", args.twin, config), "twin")
    if not twin.is_fully_observed():
        raise CliError("twin category matrix must be fully observed")
    n_categories = _config_int(config, "n_categories")
    if n_categories is None:
        n_categories = int(np.nanmax(twin.values))
    md = config.get("mirror_descent", {})
    if not isinstance(md, dict):
        raise CliError("'mirror_descent' must be a JSON object")
    unknown = sorted(set(md) - set(_MIRROR_DESCENT_KEYS))
    if unknown:
        raise CliError(f"unknown mirror_descent keys: {unknown}; expected "
                       f"{sorted(_MIRROR_DESCENT_KEYS)}")
    md_cfg = MirrorDescentConfig(**{
        k: _coerced(k, v, _MIRROR_DESCENT_KEYS[k]) for k, v in md.items()
    })
    out = _out_dir(args, config)

    twin_codes = twin.values.astype(np.int64)
    if np.any(np.abs(twin.values - twin_codes) > 0):
        raise CliError("twin matrix must hold integer category codes")
    p_all = []
    for j in range(human.n_cols):
        observed, _ = human.column(j)
        if observed.size == 0:
            raise CliError(f"human column {j} has no observed responses")
        codes = observed.astype(np.int64)
        if np.any(observed != codes):
            raise CliError(f"human column {j} must hold integer category codes")
        p_all.append(Categorical.from_codes(codes, n_categories))

    table = cross_table(
        p_all, twin_codes, n_categories,
        cfg=md_cfg,
        test_frac=_coerced("test_frac", config.get("test_frac", 0.2), float),
        seed=seed,
    )
    _write_json(out / "cross_table.json", table)

    rows = [["train_objective", "variant", "test_metric", "mean", "se"]]
    for objective, variants in table["rows"].items():
        for variant, cell in variants.items():
            for metric, stats in cell["test_metrics"].items():
                rows.append([
                    objective, variant, metric,
                    _fmt(stats["mean"]), _fmt(stats["se"]),
                ])
    for metric, stats in table["baseline"].items():
        rows.append(["baseline", "uniform", metric, _fmt(stats["mean"]), _fmt(stats["se"])])
    _write_csv(out / "cross_table.csv", rows)
    return 0


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    params = dict(config.get("synth", {}))
    kind = params.pop("kind", args.kind or "latent")
    if kind not in _SYNTH_COUNTS:
        raise CliError(f"unknown synth kind {kind!r}; expected 'latent' or 'discrete'")
    counts = [_coerced(key, params.pop(key, default), _to_int)
              for key, default in _SYNTH_COUNTS[kind]]
    generate = generate_latent_world if kind == "latent" else generate_discrete_world
    out = _out_dir(args, config)
    try:
        world, *data = generate(*counts, seed=seed, **params)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid synth parameters: {exc}") from exc

    if kind == "latent":
        human, twin, target = data
        write_matrix_csv(out / "human.csv", human)
        write_matrix_csv(out / "twin.csv", twin)
        # the twin without its held-out target column, shaped for `calibrate`
        write_matrix_csv(
            out / "twin_features.csv",
            MaskedMatrix(twin.values[:, :-1], twin.mask[:, :-1]),
        )
        write_matrix_csv(out / "target.csv", target[:, None])
        sidecar = {
            "kind": "latent",
            "seed": seed,
            "n_users": world.n_users,
            "n_questions": world.n_questions,
            "dim": world.dim,
            "twin_dim": world.twin_dim,
            "alignment": world.alignment.value,
            "noise_sigma": world.noise_sigma,
            "user_factors": world.user_factors.tolist(),
            "question_factors": world.question_factors.tolist(),
            "twin_user_factors": world.twin_user_factors.tolist(),
            "twin_question_factors": world.twin_question_factors.tolist(),
            "target_embedding": world.target_embedding.tolist(),
            "twin_target_embedding": world.twin_target_embedding.tolist(),
            "row_bias": None if world.row_bias is None else world.row_bias.tolist(),
        }
    else:
        marginals, samples, target = data
        write_matrix_csv(out / "twin_samples.csv", samples.astype(float))
        all_marginals = np.stack([p.probs for p in marginals] + [target.probs])
        write_matrix_csv(
            out / "marginals.csv", all_marginals,
            row_labels=[f"q{j}" for j in range(world.n_questions)] + ["target"],
        )
        sidecar = {
            "kind": "discrete",
            "seed": seed,
            "n_twins": world.n_twins,
            "n_questions": world.n_questions,
            "n_categories": world.n_categories,
            "support_atoms": world.support_atoms.tolist(),
            "question_profiles": world.question_profiles.tolist(),
            "twin_mixture": world.twin_mixture.tolist(),
            "human_mixture": world.human_mixture.tolist(),
            "twin_atoms": world.twin_atoms.tolist(),
            "target_coeffs": world.target_coeffs.tolist(),
            "reweight_bound": world.reweight_bound,
            "exact_reweighting": world.exact_reweighting,
        }
    _write_json(out / "world.json", sidecar)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twincal",
        description="Calibrate digital-twin response matrices against human data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrices=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="output directory")
        if matrices:
            p.add_argument("--human", help="human matrix CSV")
            p.add_argument("--twin", help="twin matrix CSV")

    p = sub.add_parser("calibrate", help="leave-one-out calibration benchmark")
    common(p)
    p.add_argument("--method", help="ridge|lasso|en|nn|sc|si|hsv|ssv|als|sp")
    p.add_argument("--profile", help=f"hyperparameter profile: {profile_names()}")
    p.add_argument("--tau", type=float, help="adaptive-transfer threshold")
    p.add_argument("--fisher-z", dest="fisher_z", action="store_true",
                   help="average correlations in z-space")
    p.add_argument("--orientation", choices=[o.value for o in Orientation])
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval-sweep", help="adaptive-threshold sweep")
    common(p)
    p.add_argument("--method", help="regression method for the sweep")
    p.add_argument("--profile")
    p.add_argument("--taus", help="comma-separated tau grid")
    p.add_argument("--fisher-z", dest="fisher_z", action="store_true")
    p.add_argument("--orientation", choices=[o.value for o in Orientation])
    p.set_defaults(func=cmd_eval_sweep)

    p = sub.add_parser("diagnose", help="subspace alignment diagnostics")
    common(p)
    p.add_argument("--axis", choices=[a.value for a in SubspaceAxis])
    p.add_argument("--orientation", choices=[o.value for o in Orientation])
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("distcal", help="distribution-level calibration cross-table")
    common(p)
    p.set_defaults(func=cmd_distcal)

    p = sub.add_parser("synth", help="generate a synthetic world")
    common(p, matrices=False)
    p.add_argument("--kind", choices=["latent", "discrete"])
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        payload = {"error": str(exc)}
        if exc.path is not None:
            payload["path"] = exc.path
        print(json.dumps(payload, sort_keys=True))
        return exc.exit_code
    except (ValueError, KeyError, FloatingPointError) as exc:
        # DataError marks bad input; np.linalg.LinAlgError is a ValueError
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}, sort_keys=True))
        return 2 if isinstance(exc, DataError) else 1


if __name__ == "__main__":
    sys.exit(main())
