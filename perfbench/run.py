"""twincal benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload nq_regress --seed 3 --seconds 30 --trace 0

Each run writes one workload's inputs for its worlds (``--seed`` fixes
them), then cycles through the worlds, running every ``twincal`` subcommand
of the workload on the world, one child process each and one at a time,
until ``--seconds`` would be exceeded (at least one world). Every child
output is checked (exit code, artifacts parse, predictions finite and of
the right shape, correlations recomputed, fingerprints against
``reference.json`` where it has the seed and world, bytes identical across
repeats).

A sample is one world's invocation sequence. ``--trace 0``
reports the end-to-end metrics: ``setup_s`` (median of repeated input
generations), ``wall_s`` (median sample) and ``peak_rss_mb`` (highest VmHWM
of any child). Per-invocation wall times (median samples), ``cpu_s``,
``mean_corr``, ``test_tv`` and ``failed_frac`` are printed by name above the
result line on the workloads where they apply.

``--trace 1`` runs each world untraced, then traced. The traced children wrap
the public layer functions (see ``spans.py``); their artifacts must be byte
identical to the untraced ones. It reports the per-layer metrics of
BENCHMARK.json per world (medians over traced samples) and
``trace.overhead_s`` (median traced minus median untraced sample wall).

Completion's ConvergenceWarnings are not counted: ``impute_dense`` and the
LOO loop silence them inside the program, out of reach of a wrapper.

The last stdout line is the JSON result; a fuller record (environment,
artifact sha256, fingerprints, every sample) goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS, CheckError, check_outputs, cli_argv, compare_fingerprint, world_seed,
)

HERE = Path(__file__).resolve().parent
# setup_s is a median over at least SETUP_REPEATS generations and at least
# SETUP_MIN_S seconds of them, so millisecond setups are not one noisy sample
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
HARD_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, where the value comes from in a traced
# world). "fn:<f>:s|calls" reads a function's total time or call count,
# "self:<module>" a module's self time, "count:<key>" a counter.
PER_LAYER = {
    "matcore.read_matrix_csv.s": ("s", "fn:matcore.read_matrix_csv:s"),
    "matcore.read_matrix_csv.cells": ("count", "count:matcore.read_matrix_csv.cells"),
    "matcore.write_matrix_csv.s": ("s", "fn:matcore.write_matrix_csv:s"),
    "matcore.write_matrix_csv.cells": ("count", "count:matcore.write_matrix_csv.cells"),
    "matcore.pearson.calls": ("count", "fn:matcore.pearson:calls"),
    "matcore.self_s": ("s", "self:matcore"),
    "completion.estimate_effective_rank.s": ("s", "fn:completion.estimate_effective_rank:s"),
    "completion.estimate_effective_rank.calls": (
        "count", "fn:completion.estimate_effective_rank:calls"),
    "completion.impute_dense.s": ("s", "fn:completion.impute_dense:s"),
    "completion.hard_impute.calls": ("count", "fn:completion.hard_impute:calls"),
    "completion.stacked_complete.s": ("s", "fn:completion.stacked_complete:s"),
    "completion.als_impute.s": ("s", "fn:completion.als_impute:s"),
    "completion.synthetic_prior_impute.s": ("s", "fn:completion.synthetic_prior_impute:s"),
    "completion.svd_calls": ("count", "count:completion.svd_calls"),
    "completion.solve_calls": ("count", "count:completion.solve_calls"),
    "completion.self_s": ("s", "self:completion"),
    "regress.fit_elastic_net.s": ("s", "fn:regress.fit_elastic_net:s"),
    "regress.fit_elastic_net.calls": ("count", "fn:regress.fit_elastic_net:calls"),
    "regress.fit_elastic_net.not_converged": (
        "count", "count:regress.fit_elastic_net.not_converged"),
    "regress.fit_simplex.s": ("s", "fn:regress.fit_simplex:s"),
    "regress.fit_simplex.not_converged": ("count", "count:regress.fit_simplex.not_converged"),
    "regress.project_simplex.calls": ("count", "fn:regress.project_simplex:calls"),
    "regress.fit_ridge.s": ("s", "fn:regress.fit_ridge:s"),
    "regress.fit_ridge.calls": ("count", "fn:regress.fit_ridge:calls"),
    "regress.self_s": ("s", "self:regress"),
    "calibrate.self_s": ("s", "self:calibrate"),
    "calibrate.targets": ("count", "count:calibrate.targets"),
    "calibrate.targets_skipped": ("count", "count:calibrate.targets_skipped"),
    "diagnostics.projection_frobenius.s": ("s", "fn:diagnostics.projection_frobenius:s"),
    "diagnostics.projection_frobenius.calls": (
        "count", "fn:diagnostics.projection_frobenius:calls"),
    "diagnostics.svd_calls": ("count", "count:diagnostics.svd_calls"),
    "diagnostics.self_s": ("s", "self:diagnostics"),
    "distcal.fit_weights.calls": ("count", "fn:distcal.fit_weights:calls"),
    "distcal.objective_and_gradient.s": ("s", "fn:distcal.objective_and_gradient:s"),
    "distcal.objective_and_gradient.calls": (
        "count", "fn:distcal.objective_and_gradient:calls"),
    "distcal.evaluate_on_questions.s": ("s", "fn:distcal.evaluate_on_questions:s"),
    "distcal.self_s": ("s", "self:distcal"),
    "cli.self_s": ("s", "self:cli"),
    "synth.generate_latent_world.s": ("s", "setup:synth.generate_latent_world"),
    "synth.generate_discrete_world.s": ("s", "setup:synth.generate_discrete_world"),
    "trace.overhead_s": ("s", "overhead"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": commit,
    }


class Runner:
    """One benchmark run: inputs for one workload and seed, then its worlds."""

    def __init__(self, root: Path, workload, seed: int, reference: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.started = time.perf_counter()
        self.timed_out = False
        self.first_sha: dict[str, dict] = {}
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def world_dir(self, i: int) -> Path:
        return self.work / f"w{i}"

    def setup(self) -> list[float]:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            shutil.rmtree(self.work, ignore_errors=True)
            start = time.perf_counter()
            for i in range(self.workload.n_worlds):
                self.world_dir(i).mkdir(parents=True)
                self.workload.make_inputs(self.world_dir(i), world_seed(self.seed, i))
            times.append(time.perf_counter() - start)
        return times

    def _child(self, inv, i: int, out: Path, traced: bool) -> dict:
        result_path = out.parent / f"{out.name}.result.json"
        argv = cli_argv(inv, self.world_dir(i), out, world_seed(self.seed, i))
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               "1" if traced else "0", "--", *argv]
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.child_env,
                                  capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            raise CheckError("timed out") from None
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
            raise CheckError(f"exit code {proc.returncode}: {' '.join(tail)}")
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckError(f"no child report: {exc}") from None
        result["wall_s"] = wall
        return result

    def run_world(self, i: int, traced: bool) -> dict:
        """Every invocation on world ``i``, in order; outputs checked.

        ``sample`` is set when every invocation passed: the wall time of the
        invocation sequence, per invocation, and the highest child peak RSS.
        """
        r = {"world": i, "traced": traced, "sample": None, "attempted": 0,
             "failed": 0, "errors": [], "sha256": {}, "fingerprints": {}, "traces": []}
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_kb": 0, "invocation_s": {}}
        ref = self.reference.get(f"{self.workload.name}/{self.seed}")
        for inv in self.workload.invocations:
            if self.timed_out:
                return r
            key = f"w{i}/{inv.metric}"
            out = self.work / "out" / key
            shutil.rmtree(out, ignore_errors=True)
            out.parent.mkdir(parents=True, exist_ok=True)
            r["attempted"] += 1
            try:
                result = self._child(inv, i, out, traced)
                fingerprint = check_outputs(inv, out, self.world_dir(i))
                sha = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                       for f in sorted(out.iterdir())}
                if sha != self.first_sha.setdefault(key, sha):
                    raise CheckError("artifact bytes differ from the first run")
                if ref is not None and key in ref:
                    bad = compare_fingerprint(fingerprint, ref[key])
                    if bad:
                        raise CheckError(f"fingerprint off reference: {bad[:5]}")
            except CheckError as exc:
                r["failed"] += 1
                r["errors"].append(f"{key}: {exc}")
                continue
            r["sha256"][key] = sha
            r["fingerprints"][key] = fingerprint
            if traced:
                r["traces"].append(result["trace"])
            sample["wall_s"] += result["wall_s"]
            sample["cpu_s"] += result["cpu_s"]
            sample["peak_rss_kb"] = max(sample["peak_rss_kb"], result["peak_rss_kb"])
            sample["invocation_s"][inv.metric] = result["wall_s"]
        if not r["failed"]:
            r["sample"] = sample
        return r

    def run_worlds(self, seconds: float, traced: bool) -> list[dict]:
        """Cycle through the worlds until ``seconds`` would be exceeded.

        At least one world runs. With ``traced`` each world runs untraced and
        then traced.
        """
        done = []
        start = time.perf_counter()
        for k in itertools.count():
            t0 = time.perf_counter()
            i = k % self.workload.n_worlds
            done.append(self.run_world(i, False))
            if traced:
                done.append(self.run_world(i, True))
            step = time.perf_counter() - t0
            if self.timed_out or time.perf_counter() - start + step > seconds:
                return done


def layer_values(traces: list[dict]) -> dict:
    """One traced world's child summaries as per-layer metric values."""
    fn_calls, fn_s, self_s, counts = {}, {}, {}, {}
    for t in traces:
        for name, entry in t["functions"].items():
            fn_calls[name] = fn_calls.get(name, 0) + entry["calls"]
            fn_s[name] = fn_s.get(name, 0.0) + entry["s"]
        for module, value in t["module_self_s"].items():
            self_s[module] = self_s.get(module, 0.0) + value
        for key, value in t["counters"].items():
            counts[key] = counts.get(key, 0) + value
    values = {}
    for metric, (_unit, source) in PER_LAYER.items():
        kind, _, what = source.partition(":")
        if kind == "fn":
            name, field = what.rsplit(":", 1)
            values[metric] = (fn_s if field == "s" else fn_calls).get(name, 0)
        elif kind == "self":
            values[metric] = self_s.get(what, 0.0)
        elif kind == "count":
            values[metric] = counts.get(what, 0)
    return values


NAN = float("nan")


def median(values):
    return statistics.median(values) if values else NAN


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "twincal" / "cli.py").is_file():
        print(f"perfbench: no twincal sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    runner = Runner(root, workload, args.seed, reference)
    try:
        if args.trace:
            from spans import Tracer

            with Tracer({"synth": ("generate_latent_world", "generate_discrete_world")}) as tr:
                setup_times = runner.setup()
            synth = tr.summary()["functions"]
        else:
            setup_times = runner.setup()
        runs = runner.run_worlds(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    samples = [r["sample"] for r in plain if r["sample"]]

    printed = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([s["wall_s"] for s in samples]), "s"),
        "cpu_s": (median([s["cpu_s"] for s in samples]), "s"),
        "peak_rss_mb": (max([s["peak_rss_kb"] / 1024 for s in samples], default=NAN), "MB"),
    }
    for inv in workload.invocations:
        printed[f"{inv.metric}_s"] = (
            median([s["invocation_s"][inv.metric] for s in samples]), "s")
    fps = {key: fp for r in plain for key, fp in r["fingerprints"].items()}
    corrs = [fp["mean"] for fp in fps.values() if "baseline_mean" in fp]
    if corrs:
        printed["mean_corr"] = (sum(corrs) / len(corrs), "corr")
    tvs = [fp["test_tv"] for fp in fps.values() if "test_tv" in fp]
    if tvs:
        printed["test_tv"] = (sum(tvs) / len(tvs), "tv")
    printed["failed_frac"] = (failed / max(attempted, 1), "ratio")

    if args.trace:
        per_world = [layer_values(r["traces"]) for r in traced if r["sample"]]
        traced_wall = median([r["sample"]["wall_s"] for r in traced if r["sample"]])
        metrics = {}
        for name, (unit, source) in PER_LAYER.items():
            if source.startswith("setup:"):
                entry = synth.get(source[len("setup:"):], {"s": 0.0})
                value = entry["s"] / len(setup_times) / workload.n_worlds
            elif source == "overhead":
                value = traced_wall - printed["wall_s"][0]
            else:
                value = median([v[name] for v in per_world])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": printed[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}

    ref_state = ("matched" if f"{workload.name}/{args.seed}" in reference
                 else "no reference for this seed")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"samples={len(plain)}+{len(traced)} reference={ref_state}")
    for name, (value, unit) in printed.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    for err in errors[:20]:
        print(f"  FAILED {err}")

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(root, args.seed),
        "setup_s": setup_times,
        "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "traces"} for r in runs],
        "errors": errors,
    }
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
