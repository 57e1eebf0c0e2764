"""Self-test of the benchmark on the tiny worlds of acceptance test 11.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import twincal  # noqa: E402
import twincal.cli  # noqa: E402,F401
from twincal.matcore import MaskedMatrix, write_matrix_csv  # noqa: E402
from twincal.synth import generate_discrete_world, generate_latent_world  # noqa: E402
from workloads import SWEEP_TAUS, Invocation, check_outputs, cli_argv  # noqa: E402

TINY = {
    "calibrate": Invocation("calibrate.ridge", ("calibrate", "--method", "ridge")),
    "eval-sweep": Invocation("eval_sweep.ridge",
                             ("eval-sweep", "--method", "ridge", "--taus", SWEEP_TAUS)),
    "diagnose": Invocation("diagnose", ("diagnose",)),
    "distcal": Invocation("distcal", ("distcal",)),
}


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    base = tmp_path_factory.mktemp("worlds")
    latent = base / "latent"
    latent.mkdir()
    _, human, twin, _ = generate_latent_world(
        40, 12, 3, seed=1100, alignment="linear_distortion",
        noise_sigma=0.1, row_bias_scale=0.3, missing_frac=0.1,
    )
    write_matrix_csv(latent / "human.csv", human)
    write_matrix_csv(latent / "twin.csv", MaskedMatrix(twin.values[:, :12], twin.mask[:, :12]))
    (latent / "config.json").write_text("{}\n")

    discrete = base / "discrete"
    discrete.mkdir()
    _, marginals, samples, _ = generate_discrete_world(60, 10, 4, seed=1101)
    rng = np.random.default_rng(0)
    codes = np.stack([rng.choice(4, size=50, p=p.probs) + 1 for p in marginals], 1)
    write_matrix_csv(discrete / "human.csv", codes.astype(float))
    write_matrix_csv(discrete / "twin.csv", samples[:, :10].astype(float))
    (discrete / "config.json").write_text(
        json.dumps({"n_categories": 4, "mirror_descent": {"max_iters": 80}}))
    return {"latent": latent, "discrete": discrete}


def _twincal_names():
    return {
        (mod_name, attr): value
        for mod_name, mod in sys.modules.items()
        if mod is not None and (mod_name == "twincal" or mod_name.startswith("twincal."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_restores_every_wrapped_name():
    before = _twincal_names()
    linalg = (np.linalg.svd, np.linalg.solve)
    with spans.Tracer():
        during = _twincal_names()
        assert twincal.calibrate.impute_dense is not before[("twincal.calibrate", "impute_dense")]
        assert np.linalg.svd is not linalg[0]
    changed = {key for key in before if during[key] is not before[key]}
    assert ("twincal.regress", "fit_ridge") in changed
    assert ("twincal.diagnostics", "estimate_effective_rank") in changed
    assert ("twincal.cli", "loo_evaluate") in changed
    assert _twincal_names() == before
    assert (np.linalg.svd, np.linalg.solve) == linalg


def test_self_time_is_total_minus_children(worlds, tmp_path):
    inv = TINY["calibrate"]
    argv = cli_argv(inv, worlds["latent"], tmp_path / "out", 3)
    with spans.Tracer() as tracer:
        with tracer.span("cli.main"):
            assert twincal.cli.main(argv) == 0
    summary = tracer.summary()
    child_by_parent: dict[str, float] = {}
    for edge in summary["edges"]:
        if edge["parent"] is not None:
            child_by_parent[edge["parent"]] = child_by_parent.get(edge["parent"], 0.0) + edge["s"]
    modules: dict[str, float] = {}
    for name, entry in summary["functions"].items():
        children = child_by_parent.get(name, 0.0)
        assert entry["self_s"] == pytest.approx(entry["s"] - children, abs=1e-9)
        assert entry["self_s"] >= -1e-9
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + entry["self_s"]
    assert summary["module_self_s"] == pytest.approx(modules, abs=1e-9)
    assert summary["functions"]["regress.fit_ridge"]["calls"] == 12
    assert summary["counters"]["calibrate.targets"] == 12
    assert summary["counters"]["regress.solve_calls"] == 12


def _run_child(inv, world, out, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = out.parent / f"{out.name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result), trace, "--",
           *cli_argv(inv, world, out, 3)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(result.read_text())


@pytest.mark.parametrize("command", sorted(TINY))
def test_traced_and_untraced_artifacts_are_byte_identical(worlds, tmp_path, command):
    inv = TINY[command]
    world = worlds["discrete" if command == "distcal" else "latent"]
    trees = []
    for trace in ("0", "1"):
        out = tmp_path / f"trace{trace}"
        report = _run_child(inv, world, out, trace)
        assert report["rc"] == 0 and report["peak_rss_kb"] > 0
        assert ("trace" in report) == (trace == "1")
        check_outputs(inv, out, world)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nq_regress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
