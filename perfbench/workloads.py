"""The four seeded workloads: inputs, CLI invocations and output checks.

Each workload writes its inputs for one or more worlds (world ``i`` of run
seed ``s`` uses seed ``s * WORLD_STRIDE + i``) and runs a fixed list of CLI
invocations on each world. Checks read the artifacts with plain ``csv`` and
``json`` code, independent of ``twincal``'s own readers, and return scalar
fingerprints that are compared with ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORLD_STRIDE = 16

# Latent-world settings shared by the calibrate/diagnose workloads.
LATENT = dict(alignment="linear_distortion", noise_sigma=0.1,
              row_bias_scale=0.5, distortion_noise=0.05)

SWEEP_TAUS = "0,0.05,0.1,0.2,0.5,1,inf"

# A fingerprint scalar matches its reference when
# |value - reference| <= FINGERPRINT_TOL * max(1, |reference|).
FINGERPRINT_TOL = 1e-4

# Tolerance for recomputing a correlation the program reported.
RECOMPUTE_TOL = 1e-9

ARTIFACTS = {
    "calibrate": ("report.json", "per_target.csv", "predictions.csv"),
    "eval-sweep": ("sweep.csv", "sweep.json"),
    "diagnose": ("alignment.json", "variance_explained.csv"),
    "distcal": ("cross_table.json", "cross_table.csv"),
}


class CheckError(Exception):
    """An artifact is missing, malformed, or disagrees with its reference."""


@dataclass(frozen=True)
class Invocation:
    metric: str                 # metric stem, e.g. "calibrate.en" -> calibrate.en_s
    argv: tuple[str, ...]       # subcommand and its flags, before the input files

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    n_worlds: int
    make_inputs: Callable[[Path, int], None]
    invocations: tuple[Invocation, ...]


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _latent_inputs(n: int, m: int, missing: float, config: dict):
    def make(world_dir: Path, seed: int) -> None:
        from twincal.matcore import MaskedMatrix, write_matrix_csv
        from twincal.synth import generate_latent_world

        _, human, twin, _ = generate_latent_world(
            n, m, 5, missing_frac=missing, seed=seed, **LATENT
        )
        write_matrix_csv(world_dir / "human.csv", human)
        write_matrix_csv(world_dir / "twin.csv",
                         MaskedMatrix(twin.values[:, :m], twin.mask[:, :m]))
        _write_json(world_dir / "config.json", config)

    return make


def _discrete_inputs(n_twins: int, m: int, k: int, n_humans: int, config: dict):
    def make(world_dir: Path, seed: int) -> None:
        from twincal.matcore import write_matrix_csv
        from twincal.synth import generate_discrete_world

        _, marginals, samples, _ = generate_discrete_world(n_twins, m, k, seed=seed)
        rng = np.random.default_rng(seed)
        codes = np.stack(
            [rng.choice(k, size=n_humans, p=p.probs) + 1 for p in marginals], axis=1
        )
        write_matrix_csv(world_dir / "human.csv", codes.astype(float))
        write_matrix_csv(world_dir / "twin.csv", samples[:, :m].astype(float))
        _write_json(world_dir / "config.json", config)

    return make


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nq_regress",
            3,
            # At 48 columns most simplex fits run to their 5000-step cap, so the
            # simplex steps vary ~3% between worlds (2x at 24 columns).
            _latent_inputs(300, 48, 0.1,
                           {"profile": "movielens.new_question", "impute_rank": 5}),
            (
                Invocation("calibrate.en", ("calibrate", "--method", "en")),
                Invocation("calibrate.sc", ("calibrate", "--method", "sc")),
                Invocation("eval_sweep.ridge",
                           ("eval-sweep", "--method", "ridge", "--taus", SWEEP_TAUS)),
            ),
        ),
        Workload(
            "nu_complete",
            3,
            # Sweeps are capped at 10, which every ALS fit reaches, so ALS does
            # the same 40,320 row solves on every world (with a cap of 25 some
            # fits converge early and the solves vary 2x between worlds).
            # The rank search and the twin imputation are not capped. At 20x60
            # ssv's lam=20 shrinks some worlds to constant predictions.
            _latent_inputs(24, 72, 0.3,
                           {"profile": "movielens.new_user", "orientation": "new_user",
                            "params": {"max_iters": 10}}),
            tuple(
                Invocation(f"calibrate.{m}", ("calibrate", "--method", m))
                for m in ("hsv", "ssv", "sp", "als")
            ),
        ),
        Workload(
            "distcal_k5",
            8,
            # Mirror descent is capped at 300 steps per start, so an invocation
            # takes ~2.5 s (~9 s uncapped) and a 30 s run takes ~10 samples.
            # Most starts reach the cap, so the work varies ~2% between worlds.
            _discrete_inputs(250, 40, 5, 400,
                             {"n_categories": 5, "test_frac": 0.2,
                              "mirror_descent": {"max_iters": 300}}),
            (Invocation("distcal", ("distcal",)),),
        ),
        Workload(
            "t2k_scale",
            1,
            _latent_inputs(2000, 150, 0.1,
                           {"profile": "twin2k.new_question", "impute_rank": 5,
                            "rank": 5}),
            (
                Invocation("calibrate.ridge", ("calibrate", "--method", "ridge")),
                Invocation("diagnose", ("diagnose", "--axis", "column_space")),
            ),
        ),
    )
}


def world_seed(seed: int, index: int) -> int:
    return seed * WORLD_STRIDE + index


def cli_argv(inv: Invocation, world_dir: Path, out_dir: Path, seed: int) -> list[str]:
    return [
        *inv.argv,
        "--config", str(world_dir / "config.json"),
        "--human", str(world_dir / "human.csv"),
        "--twin", str(world_dir / "twin.csv"),
        "--seed", str(seed),
        "--out", str(out_dir),
    ]


# ---------------------------------------------------------------------------
# Output checks. Each returns the invocation's scalar fingerprint.
# ---------------------------------------------------------------------------

def read_csv_matrix(path: Path) -> np.ndarray:
    """Parse the interchange CSV (header row, label column, NA = missing)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckError(f"{path.name}: no data rows")
    width = len(rows[0]) - 1
    out = np.full((len(rows) - 1, width), np.nan)
    for i, row in enumerate(rows[1:]):
        if len(row) != width + 1:
            raise CheckError(f"{path.name}: row {i + 1} has {len(row)} cells")
        for j, cell in enumerate(row[1:]):
            if cell not in ("", "NA"):
                out[i, j] = float(cell)
    return out


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_calibrate(out: Path, world_dir: Path) -> dict:
    report = _load_json(out / "report.json")
    human = read_csv_matrix(world_dir / "human.csv")
    preds = read_csv_matrix(out / "predictions.csv")
    _require(preds.shape == human.shape,
             f"predictions shape {preds.shape} != human shape {human.shape}")
    _require(bool(np.all(np.isfinite(preds))), "non-finite predictions")
    config = _load_json(world_dir / "config.json")
    if config.get("orientation") == "new_user":
        human, preds = human.T, preds.T
    targets = report["per_target"]
    _require(len(targets) == human.shape[1], "per_target length != number of targets")
    with open(out / "per_target.csv", newline="") as fh:
        _require(sum(1 for _ in csv.reader(fh)) == len(targets) + 1,
                 "per_target.csv row count")
    corrs = []
    for j, rec in enumerate(targets):
        if rec["skipped"]:
            continue
        obs = ~np.isnan(human[:, j])
        corr = float(np.corrcoef(preds[obs, j], human[obs, j])[0, 1])
        _require(abs(corr - rec["corr"]) <= RECOMPUTE_TOL,
                 f"target {j}: corr {rec['corr']} != recomputed {corr}")
        corrs.append(corr)
    _require(bool(corrs), "every target skipped")
    _require(abs(float(np.mean(corrs)) - report["mean"]) <= RECOMPUTE_TOL,
             "report mean != mean of per-target correlations")
    return {"mean": report["mean"], "baseline_mean": report["baseline_mean"]}


def _check_sweep(out: Path, world_dir: Path) -> dict:
    records = _load_json(out / "sweep.json")
    taus = [float(t) for t in SWEEP_TAUS.split(",")]
    _require([r["tau"] for r in records] == taus, "sweep taus differ from the grid")
    transferred = [r["n_transferred"] for r in records]
    _require(transferred[0] == 0, "tau=0 transferred a target")
    _require(transferred == sorted(transferred), "n_transferred not monotone in tau")
    n_targets = read_csv_matrix(world_dir / "human.csv").shape[1]
    _require(transferred[-1] == n_targets, "tau=inf did not transfer every target")
    means = [r["mean"] for r in records]
    _require(all(math.isfinite(x) for x in means), "non-finite sweep mean")
    with open(out / "sweep.csv", newline="") as fh:
        _require(sum(1 for _ in csv.reader(fh)) == len(taus) + 1, "sweep.csv row count")
    return {"means": means}


def _check_diagnose(out: Path, world_dir: Path) -> dict:
    report = _load_json(out / "alignment.json")
    cos = np.array(report["cosines"])
    dist = np.array(report["proj_frobenius"])
    _require(cos.size == report["r_max"] == dist.size, "curve lengths != r_max")
    _require(bool(np.all((cos >= 0) & (cos <= 1))), "cosine outside [0, 1]")
    _require(bool(np.all(np.diff(cos) <= 1e-12)), "cosines not nonincreasing")
    k = np.arange(1, dist.size + 1)
    _require(bool(np.all(dist <= np.sqrt(2 * k) + 1e-9)), "projector distance > sqrt(2k)")
    curves = read_csv_matrix(out / "variance_explained.csv")
    for col in curves.T:
        col = col[~np.isnan(col)]
        _require(bool(np.all(np.diff(col) >= -1e-12)) and abs(col[-1] - 1) <= 1e-9,
                 "variance-explained curve not nondecreasing to 1")
    return {"rank": report["rank"], "cosines": cos.tolist(), "proj_frobenius": dist.tolist()}


def _check_distcal(out: Path, world_dir: Path) -> dict:
    table = _load_json(out / "cross_table.json")
    objectives = {}
    for objective, variants in table["rows"].items():
        for variant, cell in variants.items():
            w = np.array(cell["weights"]["w"])
            pi = np.array(cell["weights"]["pi"])
            _require(bool(w.min() >= 0 and pi.min() >= 0)
                     and abs(w.sum() + pi.sum() - 1) <= 1e-9,
                     f"{objective}/{variant}: weights off the simplex")
            _require(all(math.isfinite(m["mean"]) for m in cell["test_metrics"].values()),
                     f"{objective}/{variant}: non-finite test metric")
            objectives[f"{objective}/{variant}"] = cell["train_objective_value"]
    _require(len(objectives) == 21, f"expected 21 cross-table cells, got {len(objectives)}")
    with open(out / "cross_table.csv", newline="") as fh:
        _require(sum(1 for _ in csv.reader(fh)) == 1 + 21 * 7 + 7, "cross_table.csv row count")
    test_tv = table["rows"]["tv"]["personas_and_dummies"]["test_metrics"]["tv"]["mean"]
    return {"test_tv": test_tv, "train_objective": objectives}


CHECKS = {
    "calibrate": _check_calibrate,
    "eval-sweep": _check_sweep,
    "diagnose": _check_diagnose,
    "distcal": _check_distcal,
}


def check_outputs(inv: Invocation, out: Path, world_dir: Path) -> dict:
    for name in ARTIFACTS[inv.command]:
        _require((out / name).is_file(), f"missing artifact {name}")
    try:
        return CHECKS[inv.command](out, world_dir)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed {inv.command} artifact: {exc!r}") from None


def _scalars(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _scalars(value[key], f"{prefix}/{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _scalars(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def compare_fingerprint(found: dict, reference: dict) -> list[str]:
    """Names of the scalars that differ from the reference beyond tolerance."""
    ref = dict(_scalars(reference))
    got = dict(_scalars(found))
    bad = [k for k in ref if k not in got]
    for key, value in got.items():
        if key not in ref:
            bad.append(key)
            continue
        r = ref[key]
        if value is None or r is None:
            if value is not r:
                bad.append(key)
        elif abs(float(value) - float(r)) > FINGERPRINT_TOL * max(1.0, abs(float(r))):
            bad.append(key)
    return bad
