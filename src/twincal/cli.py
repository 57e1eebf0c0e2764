"""Command-line surface: calibrate, distcal, diagnose, synth, eval-sweep.

Every subcommand reads an optional JSON config file, applies environment
overrides (``SYNDIGITS_*``) and then command-line flags (flags win), runs one
pipeline, and writes plot-ready CSV/JSON artifacts to the output directory.
Each setting has one rule in ``_RULES``; a value it rejects exits 2 naming
the key, and null means unset. All outputs are byte-deterministic given the
same config and seed, and JSON artifacts are strict JSON (non-finite numbers
are written as null). Every failure, a usage error included, prints a
one-line error JSON with ``"error"`` and ``"kind"`` keys to stdout and exits
nonzero (2 for bad inputs, 1 otherwise).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from enum import Enum
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .calibrate import Orientation, loo_evaluate, sweep_thresholds
from .diagnostics import SubspaceAxis, alignment_report
from .distcal import Categorical, MirrorDescentConfig, cross_table
from .matcore import DataError, MaskedMatrix, read_matrix_csv, write_matrix_csv
from .profiles import method_config, profile_names
from .synth import generate_discrete_world, generate_latent_world

ENV_PREFIX = "SYNDIGITS_"

class CliError(DataError):
    """Bad command-line input; ``filename`` names the file at fault, if any,
    as on an :class:`OSError`."""

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.filename = path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}", path=str(p))
    with open(p, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid JSON in config {p}: {exc}", path=str(p)) from exc
        except UnicodeDecodeError as exc:
            raise CliError(f"{p}: not UTF-8 text ({exc.reason})", path=str(p)) from None
    if not isinstance(cfg, dict):
        raise CliError(f"config {p} must hold a JSON object", path=str(p))
    return cfg


# ---------------------------------------------------------------------------
# Settings: one rule per key. A rule returns the typed value or raises
# ValueError/TypeError; it never sees null, which means unset.
# ---------------------------------------------------------------------------

def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(value)
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(value)
    return value


def _integer(value) -> int:
    """An int, or a string holding one; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(value)
    return int(value)


def _seed(value) -> int:
    """An integer of at least 0, the seeds ``np.random.default_rng`` takes."""
    seed = _integer(value)
    if seed < 0:
        raise ValueError(value)
    return seed


def _number(value) -> float:
    """An int, a float or a string holding one; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(value)
    return float(value)


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _flag(value) -> bool:
    """A JSON bool, or true/false/1/0/yes/no in any case."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[value.lower()]
    raise ValueError(value)


_RULES = {
    **dict.fromkeys(("human", "twin", "out", "method", "profile", "kind"), _string),
    **dict.fromkeys(("mirror_descent", "synth"), _object),
    "seed": _seed,
    **dict.fromkeys(("impute_rank", "rank", "n_categories", "max_iters", "n", "m", "dim"),
                    _integer),
    **dict.fromkeys(("tau", "taus", "test_frac"), _number),
    **dict.fromkeys(("fisher_z", "standardize"), _flag),
    "orientation": Orientation,
    "axis": SubspaceAxis,
}

# the config keys cmd_distcal reads under "mirror_descent"
_MIRROR_DESCENT_KEYS = {f.name for f in dataclasses.fields(MirrorDescentConfig)}

# the integer arguments of each synth world generator, with their defaults
_SYNTH_COUNTS = {
    "latent": {"n": 200, "m": 50, "dim": 5},
    "discrete": {"n": 500, "m": 40, "n_categories": 5},
}


def _typed(key: str, value, name: str | None = None):
    """``value`` under ``key``'s rule; a rejected value exits 2 naming ``name``
    (by default ``key``)."""
    try:
        return _RULES[key](value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid value for {name or key!r}: {value!r}") from exc


def _config(config: dict, key: str, default=None):
    """``config[key]`` under its rule, or ``default`` if it is missing or null."""
    value = config.get(key)
    return default if value is None else _typed(key, value)


def _resolve(key: str, flag, config: dict, default=None):
    """Precedence: explicit CLI flag > environment variable > config > default."""
    if flag is None:
        flag = os.environ.get(ENV_PREFIX + key.upper())
    return _config(config, key, default) if flag is None else _typed(key, flag)


def _require_matrix(path: str | None, role: str) -> MaskedMatrix:
    if path is None:
        raise CliError(f"missing required {role} matrix path")
    p = Path(path)
    if not p.exists():
        raise CliError(f"{role} matrix file not found: {p}", path=str(p))
    return read_matrix_csv(p)


def _matrices(args, config: dict) -> tuple[MaskedMatrix, MaskedMatrix]:
    return (_require_matrix(_resolve("human", args.human, config), "human"),
            _require_matrix(_resolve("twin", args.twin, config), "twin"))


def _out_dir(args, config: dict) -> Path:
    """Make the output directory; ``args.made_dirs`` lists the directories
    made, deepest first, which :func:`main` removes if the command fails."""
    path = Path(_resolve("out", args.out, config, default="twincal_out"))
    args.made_dirs = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finite_or_null(value, keep_inf: bool):
    """``value`` with NaN (and, unless ``keep_inf``, +-inf) floats as None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v, keep_inf) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v, keep_inf) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return value if keep_inf and not math.isnan(value) else None
    return value


def _write_json(path: Path, payload, *, keep_inf: bool = False) -> None:
    """Write strict JSON; ``keep_inf`` writes infinities as ``Infinity``."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload, keep_inf), fh, indent=2,
                  sort_keys=True, allow_nan=keep_inf)
        fh.write("\n")


def _cell(value):
    """A float as ``%.17g`` (so ``nan`` and ``inf`` as such), None as an empty
    cell, anything else as ``csv.writer`` writes it."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else value


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header``, then each row with every cell under one rule."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _loo_inputs(args, config: dict):
    """The matrices, method and leave-one-out settings ``calibrate`` and
    ``eval-sweep`` share."""
    seed = _resolve("seed", args.seed, config, default=0)
    settings = dict(
        orientation=_resolve("orientation", args.orientation, config,
                             default=Orientation.NEW_QUESTION),
        fisher_z=_resolve("fisher_z", args.fisher_z or None, config, default=False),
        impute_rank=_config(config, "impute_rank"),
        standardize=_resolve("standardize", None, config, default=True),
        seed=seed,
    )
    human, twin = _matrices(args, config)
    params = config.get("params")
    if isinstance(params, dict):
        params = {k: v for k, v in params.items() if v is not None}
    method = method_config(_resolve("method", args.method, config, default="ridge"),
                           _resolve("profile", args.profile, config),
                           overrides=params, seed=seed)
    return human, twin, method, settings


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    tau = _resolve("tau", args.tau, config)
    human, twin, method, settings = _loo_inputs(args, config)
    out = _out_dir(args, config)

    report, predictions = loo_evaluate(human, twin, method, tau=tau,
                                       return_predictions=True, **settings)
    if settings["orientation"] is Orientation.NEW_USER:
        predictions = predictions.T
    _write_json(out / "report.json", report.to_json_dict())
    _write_csv(out / "per_target.csv",
               ["method", "target", "corr", "baseline_corr", "train_mse",
                "transferred", "skipped"],
               ([report.method_label, r.index, r.corr, r.baseline_corr, r.train_mse,
                 int(r.transferred), int(r.skipped)] for r in report.per_target))
    write_matrix_csv(out / "predictions.csv", predictions)
    return 0


def cmd_eval_sweep(args) -> int:
    config = _load_config(args.config)
    human, twin, method, settings = _loo_inputs(args, config)
    name, taus = ("--taus", args.taus.split(",")) if args.taus else ("taus", config.get("taus"))
    if not isinstance(taus, list) or not taus:
        raise CliError("eval-sweep needs a nonempty tau grid ('taus' list or --taus)")
    taus = [_typed("taus", t, name) for t in taus]
    out = _out_dir(args, config)

    records = sweep_thresholds(human, twin, method, taus, **settings)
    _write_csv(out / "sweep.csv", ["tau", "mean", "se", "n_transferred", "skipped"],
               (rec.values() for rec in records))
    # a tau grid point of inf is echoed as Infinity, which readers of the
    # sweep compare with the float grid they asked for
    _write_json(out / "sweep.json", records, keep_inf=True)
    return 0


def cmd_diagnose(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    orientation = _resolve("orientation", args.orientation, config)
    axis = _resolve("axis", args.axis, config, default=(
        SubspaceAxis.COLUMN_SPACE if orientation is Orientation.NEW_USER
        else SubspaceAxis.ROW_SPACE))
    human, twin = _matrices(args, config)
    rank, impute_rank = _config(config, "rank"), _config(config, "impute_rank")
    out = _out_dir(args, config)

    report = alignment_report(human, twin, axis, seed, rank=rank, impute_rank=impute_rank)
    _write_json(out / "alignment.json", report.to_json_dict())

    # a curve shorter than the other leaves its cells past its end empty
    _write_csv(out / "variance_explained.csv", ["k", "human", "twin"],
               ([k, *pair] for k, pair in
                enumerate(zip_longest(*report.variance_curves()), start=1)))
    return 0


def cmd_distcal(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    human, twin = _matrices(args, config)
    if not twin.is_fully_observed():
        raise CliError("twin category matrix must be fully observed")
    n_categories = _config(config, "n_categories")
    if n_categories is None:
        n_categories = int(np.nanmax(twin.values))
    md = _config(config, "mirror_descent", {})
    unknown = sorted(set(md) - _MIRROR_DESCENT_KEYS)
    if unknown:
        raise CliError(f"unknown mirror_descent keys: {unknown}; expected "
                       f"{sorted(_MIRROR_DESCENT_KEYS)}")
    md_cfg = MirrorDescentConfig(**{k: _config(md, k) for k, v in md.items() if v is not None})
    test_frac = _config(config, "test_frac", 0.2)
    out = _out_dir(args, config)

    p_all = []
    for j in range(human.n_cols):
        try:
            p_all.append(Categorical.from_codes(human.column(j)[0], n_categories))
        except DataError as exc:
            raise CliError(f"human column {j}: {exc}") from exc

    table = cross_table(p_all, twin.values, n_categories, cfg=md_cfg,
                        test_frac=test_frac, seed=seed)
    _write_json(out / "cross_table.json", table)

    cells = [(objective, variant, cell["test_metrics"])
             for objective, variants in table["rows"].items()
             for variant, cell in variants.items()]
    cells.append(("baseline", "uniform", table["baseline"]))
    _write_csv(out / "cross_table.csv",
               ["train_objective", "variant", "test_metric", "mean", "se"],
               ([objective, variant, metric, stats["mean"], stats["se"]]
                for objective, variant, metrics in cells
                for metric, stats in metrics.items()))
    return 0


def _json_field(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.value if isinstance(value, Enum) else value


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    seed = _resolve("seed", args.seed, config, default=0)
    synth = _config(config, "synth", {})
    kind = args.kind or _config(synth, "kind", "latent")
    if kind not in _SYNTH_COUNTS:
        raise CliError(f"unknown synth kind {kind!r}; expected 'latent' or 'discrete'")
    counts = [_config(synth, key, default) for key, default in _SYNTH_COUNTS[kind].items()]
    params = {k: v for k, v in synth.items()
              if k != "kind" and k not in _SYNTH_COUNTS[kind] and v is not None}
    generate = generate_latent_world if kind == "latent" else generate_discrete_world
    try:
        world, *data = generate(*counts, seed=seed, **params)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid synth parameters: {exc}") from exc
    out = _out_dir(args, config)  # made only once the parameters are accepted

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
    else:
        marginals, samples, target = data
        write_matrix_csv(out / "twin_samples.csv", samples.astype(float))
        all_marginals = np.stack([p.probs for p in marginals] + [target.probs])
        write_matrix_csv(
            out / "marginals.csv", all_marginals,
            row_labels=[f"q{j}" for j in range(world.n_questions)] + ["target"],
        )
    # the world's fields, less the twin-to-human map and the sampled humans
    sidecar = {f.name: _json_field(getattr(world, f.name)) for f in dataclasses.fields(world)
               if f.name not in ("mixing", "human_embeddings")}
    sidecar["kind"] = kind
    _write_json(out / "world.json", sidecar)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`CliError`, so they print the error JSON too."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twincal",
        description="Calibrate digital-twin response matrices against human data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    orientations = "|".join(o.value for o in Orientation)

    def command(name, help, func, matrices=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", help="random seed")
        p.add_argument("--out", help="output directory")
        if matrices:
            p.add_argument("--human", help="human matrix CSV")
            p.add_argument("--twin", help="twin matrix CSV")
        return p

    def loo_command(name, help, func):
        p = command(name, help, func)
        p.add_argument("--method", help="ridge|lasso|en|nn|sc|si|hsv|ssv|als|sp")
        p.add_argument("--profile", help=f"hyperparameter profile: {profile_names()}")
        p.add_argument("--fisher-z", dest="fisher_z", action="store_true",
                       help="average correlations in z-space")
        p.add_argument("--orientation", help=orientations)
        return p

    loo_command("calibrate", "leave-one-out calibration benchmark",
                cmd_calibrate).add_argument("--tau", help="adaptive-transfer threshold")
    loo_command("eval-sweep", "adaptive-threshold sweep",
                cmd_eval_sweep).add_argument("--taus", help="comma-separated tau grid")
    p = command("diagnose", "subspace alignment diagnostics", cmd_diagnose)
    p.add_argument("--axis", help="|".join(a.value for a in SubspaceAxis))
    p.add_argument("--orientation", help=orientations)
    command("distcal", "distribution-level calibration cross-table", cmd_distcal)
    command("synth", "generate a synthetic world", cmd_synth,
            matrices=False).add_argument("--kind", help="|".join(_SYNTH_COUNTS))
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as ``twincal: <Category>: <message>``: the source line a
    library caller sees means nothing to a command-line user."""
    print(f"twincal: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = None
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args = build_parser().parse_args(argv)
            return args.func(args)
    except (ValueError, KeyError, FloatingPointError, MemoryError, OSError) as exc:
        for path in getattr(args, "made_dirs", ()):
            try:
                path.rmdir()
            except OSError:  # not empty, so an output was written to it
                break
        # DataError (CliError too) and OSError (a path that cannot be read or
        # written) mark bad input; np.linalg.LinAlgError is a ValueError
        payload = {"error": str(exc), "kind": type(exc).__name__}
        if getattr(exc, "filename", None) is not None:
            payload["path"] = str(exc.filename)
        print(json.dumps(payload, sort_keys=True))
        return 2 if isinstance(exc, (DataError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
