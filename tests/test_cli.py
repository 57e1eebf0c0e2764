import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twincal

from twincal.calibrate import loo_evaluate
from twincal.cli import _RULES, _resolve, main
from twincal.diagnostics import alignment_report
from twincal.matcore import MaskedMatrix, read_matrix_csv, write_matrix_csv
from twincal.profiles import method_config
from twincal.synth import generate_discrete_world, generate_latent_world


def write_pair(tmp_path, seed=0, n=40, m=12, d=3, **world_kw):
    _, human, twin, _ = generate_latent_world(n, m, d, seed=seed, **world_kw)
    twin_features = MaskedMatrix(twin.values[:, :m], twin.mask[:, :m])
    hp = tmp_path / "human.csv"
    tp = tmp_path / "twin.csv"
    write_matrix_csv(hp, human)
    write_matrix_csv(tp, twin_features)
    return hp, tp


def read_bytes_tree(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestCalibrateCommand:
    def test_smoke_and_outputs(self, tmp_path, capsys):
        hp, tp = write_pair(tmp_path, alignment="identical")
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"lam": 1e-8}}))
        rc = main(["calibrate", "--config", str(cfg), "--human", str(hp),
                   "--twin", str(tp), "--method", "ridge", "--out", str(out),
                   "--seed", "1"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "ridge"
        assert report["mean"] > 0.999
        lines = (out / "per_target.csv").read_text().splitlines()
        assert lines[0] == "method,target,corr,baseline_corr,train_mse,transferred,skipped"
        assert len(lines) == 1 + 12
        preds = read_matrix_csv(out / "predictions.csv")
        assert preds.shape == (40, 12)

    def test_per_target_cells(self, tmp_path):
        # a constant human target has no correlation: its corr and
        # baseline_corr cells are empty and it is marked skipped
        _, human, twin, _ = generate_latent_world(40, 6, 2, seed=2)
        values = human.values.copy()
        values[:, 3] = 2.0
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, MaskedMatrix(values, human.mask))
        write_matrix_csv(tp, MaskedMatrix(twin.values[:, :6], twin.mask[:, :6]))
        out = tmp_path / "o"
        assert main(["calibrate", "--human", str(hp), "--twin", str(tp),
                     "--method", "ridge", "--out", str(out)]) == 0
        report = loo_evaluate(read_matrix_csv(hp), read_matrix_csv(tp),
                              method_config("ridge", None, seed=0))
        rows = [line.split(",") for line in
                (out / "per_target.csv").read_text().splitlines()[1:]]
        for row, r in zip(rows, report.per_target, strict=True):
            cells = ["" if v is None else "%.17g" % v
                     for v in (r.corr, r.baseline_corr, r.train_mse)]
            assert row == ["ridge", str(r.index), *cells, "1", str(int(r.skipped))]
        assert rows[3][2:4] == ["", ""] and rows[3][6] == "1"
        assert report.skipped_count == 1

    def test_missing_input_file_exit_2_with_path(self, tmp_path, capsys):
        rc = main(["calibrate", "--human", str(tmp_path / "nope.csv"),
                   "--twin", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert "nope.csv" in payload["path"]

    def test_profile_defaults_loaded(self):
        cfg = method_config("en", "movielens.new_question")
        assert cfg.alpha == 0.1
        assert cfg.l1_ratio == 0.1
        cfg = method_config("ridge", "twin2k.new_user")
        assert cfg.lam == 5000.0
        cfg = method_config("ssv", "movielens.new_question")
        assert cfg.rank == 15 and cfg.lam == 5.0

    def test_config_file_and_flag_precedence(self, tmp_path):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = {"human": str(hp), "twin": str(tp), "method": "ridge",
               "out": str(tmp_path / "cfg_out"), "seed": 3}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["calibrate", "--config", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "cfg_out" / "report.json").exists()
        # flag overrides the config's output directory
        rc = main(["calibrate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "flag_out")])
        assert rc == 0
        assert (tmp_path / "flag_out" / "report.json").exists()

    def test_env_override(self, tmp_path, monkeypatch):
        hp, tp = write_pair(tmp_path, alignment="identical")
        out = tmp_path / "env_out"
        monkeypatch.setenv("SYNDIGITS_OUT", str(out))
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--method", "ridge"])
        assert rc == 0
        assert (out / "report.json").exists()


class TestDeterminism:
    def test_calibrate_byte_identical(self, tmp_path):
        hp, tp = write_pair(tmp_path, seed=5, noise_sigma=0.1,
                            alignment="linear_distortion")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                       "--method", "en", "--out", str(out), "--seed", "7"])
            assert rc == 0
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]

    def test_synth_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["synth", "--kind", "latent", "--seed", "9",
                       "--out", str(out)])
            assert rc == 0
            outs.append(read_bytes_tree(out))
        assert outs[0] == outs[1]


class TestBlasThreads:
    """Same bytes at 1 and 2 OpenBLAS threads, each fixed at process start."""

    @staticmethod
    def run_at_threads(tmp_path, *argv):
        """The files ``twincal <argv>`` writes, and its stderr, at 1 and at 2
        OpenBLAS threads (one ``--out`` directory each)."""
        src = str(Path(twincal.__file__).resolve().parents[1])
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        outs, errs = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-m", "twincal.cli", *argv, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outs.append(read_bytes_tree(out))
            errs.append(done.stderr)
        return outs, errs

    @pytest.mark.parametrize("method,flags", [
        ("hsv", ("--orientation", "new_user", "--profile", "movielens.new_user")),
        ("ssv", ("--orientation", "new_user", "--profile", "movielens.new_user")),
        # no impute_rank: both inputs' imputation ranks are searched
        ("ridge", ("--profile", "movielens.new_question")),
        # the proximal-gradient loop, with and without momentum
        ("en", ("--profile", "movielens.new_question")),
        ("sc", ("--profile", "movielens.new_question")),
    ])
    def test_calibrate_bytes_equal(self, tmp_path, method, flags):
        hp, tp = write_pair(tmp_path, seed=11, n=80, m=24, d=3, noise_sigma=0.1,
                            alignment="linear_distortion", missing_frac=0.2)
        if method in ("hsv", "ssv"):
            # 80 stacked 48 x 80 refills, each capped at 10 iterations
            config = tmp_path / "capped.json"
            config.write_text(json.dumps({"params": {"max_iters": 10}}))
            flags += ("--config", str(config))
        outs, _ = self.run_at_threads(tmp_path, "calibrate", "--human", str(hp),
                                      "--twin", str(tp), "--method", method, *flags)
        report = json.loads(outs[0]["report.json"])
        assert report["method"] == method and report["skipped_count"] == 0
        assert outs[0] == outs[1]

    def test_distcal_bytes_equal(self, tmp_path):
        # 21 stacked mirror-descent runs, some stopping on a stall before the cap
        _, marginals, samples, _ = generate_discrete_world(60, 12, 5, seed=1)
        rng = np.random.default_rng(1)
        codes = np.stack([rng.choice(5, size=80, p=p.probs) + 1 for p in marginals], axis=1)
        hp, tp, config = tmp_path / "h.csv", tmp_path / "t.csv", tmp_path / "c.json"
        write_matrix_csv(hp, codes.astype(float))
        write_matrix_csv(tp, samples[:, :12].astype(float))
        config.write_text(json.dumps({"n_categories": 5, "mirror_descent": {"max_iters": 300}}))
        outs, errs = self.run_at_threads(tmp_path, "distcal", "--config", str(config),
                                         "--human", str(hp), "--twin", str(tp))
        assert errs == [b"", b""]
        table = json.loads(outs[0]["cross_table.json"])
        steps = [cell["steps"] for row in table["rows"].values() for cell in row.values()]
        assert min(steps) < 300 == max(steps)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("axis", ["row_space", "column_space"])
    def test_diagnose_bytes_equal(self, tmp_path, axis):
        # no rank or impute_rank: the human's imputation rank is searched and reused
        hp, tp = write_pair(tmp_path, seed=12, n=80, m=24, d=3, noise_sigma=0.1,
                            alignment="linear_distortion", missing_frac=0.2)
        outs, errs = self.run_at_threads(tmp_path, "diagnose", "--human", str(hp),
                                         "--twin", str(tp), "--axis", axis)
        assert errs == [b"", b""]
        assert json.loads(outs[0]["alignment.json"])["axis"] == axis
        assert outs[0] == outs[1]


class TestDiagnoseCommand:
    def test_self_alignment_zero_distance(self, tmp_path):
        hp, tp = write_pair(tmp_path, seed=6, noise_sigma=0.1)
        out = tmp_path / "diag"
        rc = main(["diagnose", "--human", str(hp), "--twin", str(hp),
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        payload = json.loads((out / "alignment.json").read_text())
        assert max(payload["proj_frobenius"]) < 1e-8
        assert payload["r_max"] == payload["rank"] + 2
        assert (out / "variance_explained.csv").exists()

    def test_shorter_human_curve_leaves_empty_cells(self, tmp_path):
        # column space of a 40 x 12 human against a 40 x 13 twin: the human
        # curve has 12 points, the twin's 13
        _, human, twin, _ = generate_latent_world(40, 12, 3, seed=6, noise_sigma=0.1)
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, twin)
        out = tmp_path / "diag"
        assert main(["diagnose", "--human", str(hp), "--twin", str(tp),
                     "--axis", "column_space", "--out", str(out)]) == 0
        curve_h, curve_t = alignment_report(
            read_matrix_csv(hp), read_matrix_csv(tp), "column_space").variance_curves()
        assert (len(curve_h), len(curve_t)) == (12, 13)
        want = ["k,human,twin"] + [
            f"{k},{'' if k > 12 else '%.17g' % curve_h[k - 1]},{'%.17g' % curve_t[k - 1]}"
            for k in range(1, 14)]
        assert (out / "variance_explained.csv").read_text().splitlines() == want

    def test_axis_from_orientation(self, tmp_path):
        hp, tp = write_pair(tmp_path, seed=7, noise_sigma=0.1)
        out = tmp_path / "diag2"
        rc = main(["diagnose", "--human", str(hp), "--twin", str(tp),
                   "--orientation", "new_user", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "alignment.json").read_text())
        assert payload["axis"] == "column_space"


class TestSynthCommand:
    def test_latent_files_round_trip(self, tmp_path):
        out = tmp_path / "w"
        rc = main(["synth", "--kind", "latent", "--seed", "1", "--out", str(out)])
        assert rc == 0
        human = read_matrix_csv(out / "human.csv")
        twin = read_matrix_csv(out / "twin.csv")
        features = read_matrix_csv(out / "twin_features.csv")
        assert twin.n_cols == human.n_cols + 1
        assert features.shape == human.shape
        assert np.array_equal(features.values[features.mask],
                              twin.values[:, :-1][features.mask])
        world = json.loads((out / "world.json").read_text())
        assert world["kind"] == "latent"
        assert len(world["user_factors"]) == human.n_rows

    def test_discrete_files(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["synth", "--kind", "discrete", "--seed", "2", "--out", str(out)])
        assert rc == 0
        samples = read_matrix_csv(out / "twin_samples.csv")
        marginals = read_matrix_csv(out / "marginals.csv")
        assert samples.is_fully_observed()
        assert marginals.n_rows == samples.n_cols  # m train + target
        sums = marginals.values.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_kind_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"kind": "latent", "n": 30, "m": 6}}))
        out = tmp_path / "w"
        rc = main(["synth", "--config", str(cfg), "--kind", "discrete", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "world.json").read_text())["kind"] == "discrete"
        assert read_matrix_csv(out / "twin_samples.csv").shape == (30, 7)

    def test_bad_kind_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"kind": "bogus"},
                                   "out": str(tmp_path / "x")}))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        assert "bogus" in json.loads(capsys.readouterr().out)["error"]

    def test_bad_params_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "synth": {"kind": "latent", "missing_frac": 0.9},
            "out": str(tmp_path / "x"),
        }))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        assert "missing_frac" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("params", [{"noise_sigma": True}, {"missing_frac": 0.9}],
                             ids=["bool_noise_sigma", "missing_frac"])
    def test_rejected_params_make_no_out_dir(self, tmp_path, capsys, params):
        out = tmp_path / "x"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": params, "out": str(out)}))
        assert main(["synth", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "CliError"
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("latent", "n", "x"), ("latent", "n", 30.7), ("latent", "m", True),
        ("latent", "dim", "2.5"), ("discrete", "m", 12.0),
        ("discrete", "n_categories", "four"),
    ])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, kind, key, value):
        out = tmp_path / "x"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"kind": kind, key: value}, "out": str(out)}))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": f"invalid value for {key!r}: {value!r}", "kind": "CliError"}
        assert not out.exists()

    @pytest.mark.parametrize("params,message", [
        ({"noise_sigma": True, "missing_frac": False},
         "noise_sigma must be a real number, got True"),
        ({"noise_sigma": "0.1"}, "noise_sigma must be a real number, got '0.1'"),
        ({"missing_frac": False}, "missing_frac must be a real number, got False"),
        ({"alignment": "linear_distortion", "distortion_noise": "0.2"},
         "distortion_noise must be a real number, got '0.2'"),
        ({"alignment": "linear_distortion", "row_bias_scale": [1]},
         "row_bias_scale must be a real number, got [1]"),
    ])
    def test_non_real_number_exit_2(self, tmp_path, capsys, params, message):
        out = tmp_path / "x"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n": 30, "m": 6, **params}, "out": str(out)}))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == json.dumps({"error": f"invalid synth parameters: {message}",
                                           "kind": "CliError"}) + "\n"
        assert captured.err == ""
        assert not (out / "world.json").exists()

    def test_integral_string_counts_accepted(self, tmp_path):
        out = tmp_path / "x"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"kind": "latent", "n": "30", "m": 6,
                                             "dim": "2"}, "out": str(out)}))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert read_matrix_csv(out / "human.csv").shape == (30, 6)


class TestDistcalCommand:
    def test_cross_table_outputs(self, tmp_path):
        world, marginals, samples, _ = generate_discrete_world(60, 10, 4, seed=3)
        rng = np.random.default_rng(0)
        human_codes = np.stack(
            [rng.choice(4, size=80, p=p.probs) + 1 for p in marginals], axis=1
        )
        hp = tmp_path / "h.csv"
        tp = tmp_path / "t.csv"
        write_matrix_csv(hp, human_codes.astype(float))
        write_matrix_csv(tp, samples[:, :10].astype(float))
        out = tmp_path / "dc"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "human": str(hp), "twin": str(tp), "out": str(out),
            "n_categories": 4, "mirror_descent": {"max_iters": 120},
        }))
        rc = main(["distcal", "--config", str(cfg), "--seed", "0"])
        assert rc == 0
        table = json.loads((out / "cross_table.json").read_text())
        assert set(table["rows"]) == {"tv", "chi2", "kl", "hellinger",
                                      "ks", "cdf_l1", "cdf_l2"}
        lines = (out / "cross_table.csv").read_text().strip().splitlines()
        # 7 objectives x 3 variants x 7 metrics + 7 baseline rows + header
        assert len(lines) == 7 * 3 * 7 + 7 + 1

    def test_baseline_matches_independent_evaluation(self, tmp_path):
        from twincal.distcal import (
            Categorical,
            discrepancy,
            ensemble_distribution,
            split_questions,
            uniform_baseline,
        )

        world, marginals, samples, _ = generate_discrete_world(50, 8, 3, seed=4)
        human_codes = np.stack(
            [np.random.default_rng(j).choice(3, size=60, p=p.probs) + 1
             for j, p in enumerate(marginals)], axis=1
        )
        hp = tmp_path / "h.csv"
        tp = tmp_path / "t.csv"
        write_matrix_csv(hp, human_codes.astype(float))
        write_matrix_csv(tp, samples[:, :8].astype(float))
        out = tmp_path / "dc2"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "human": str(hp), "twin": str(tp), "out": str(out),
            "n_categories": 3, "mirror_descent": {"max_iters": 60},
        }))
        assert main(["distcal", "--config", str(cfg), "--seed", "5"]) == 0
        table = json.loads((out / "cross_table.json").read_text())

        # recompute the baseline TV row independently
        p_all = [Categorical.from_codes(human_codes[:, j], 3) for j in range(8)]
        _, test_idx = split_questions(8, 0.2, seed=5)
        base = uniform_baseline(50, 3)
        tvs = [
            discrepancy("tv", p_all[j],
                        ensemble_distribution(base, samples[:, j], 3))
            for j in test_idx
        ]
        assert table["baseline"]["tv"]["mean"] == pytest.approx(
            float(np.mean(tvs)), abs=1e-12
        )


    def test_non_integer_human_code_exit_2(self, tmp_path, capsys):
        world, marginals, samples, _ = generate_discrete_world(20, 4, 3, seed=5)
        human = np.ones((30, 4))
        human[7, 2] = 2.5
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, samples[:, :4].astype(float))
        rc = main(["distcal", "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert "human column 2" in payload["error"]
        assert not (tmp_path / "o" / "cross_table.json").exists()

    def test_non_integer_twin_code_exit_2(self, tmp_path, capsys):
        # the twin's codes are checked once, by the library
        world, marginals, samples, _ = generate_discrete_world(20, 4, 3, seed=5)
        twin = samples[:, :4].astype(float)
        twin[3, 1] = 1.5
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, np.ones((30, 4)))
        write_matrix_csv(tp, twin)
        rc = main(["distcal", "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "twin category codes must be finite integers; row 3, column 1 holds 1.5",
            "kind": "DataError"}
        assert not (tmp_path / "o" / "cross_table.json").exists()

    def test_out_of_range_human_code_names_the_column(self, tmp_path, capsys):
        world, marginals, samples, _ = generate_discrete_world(20, 4, 3, seed=5)
        human = np.ones((30, 4))
        human[7, 1] = 7.0
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, samples[:, :4].astype(float))
        rc = main(["distcal", "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "human column 1: category codes must lie in 1..3, got range [1, 7]",
            "kind": "CliError"}
        assert not (tmp_path / "o" / "cross_table.json").exists()


class TestEvalSweepCommand:
    def test_sweep_csv(self, tmp_path):
        hp, tp = write_pair(tmp_path, seed=8, noise_sigma=0.1,
                            alignment="identical")
        out = tmp_path / "sw"
        rc = main(["eval-sweep", "--human", str(hp), "--twin", str(tp),
                   "--method", "ridge", "--taus", "0,0.5,inf",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,mean,se,n_transferred,skipped"
        assert len(lines) == 4
        # the inf row, cell by cell, from the ungated-at-inf report
        report = loo_evaluate(read_matrix_csv(hp), read_matrix_csv(tp),
                              method_config("ridge", None, seed=0), tau=float("inf"))
        assert lines[3] == (f"inf,{'%.17g' % report.mean},{'%.17g' % report.se},"
                            f"{sum(r.transferred for r in report.per_target)},"
                            f"{report.skipped_count}")


class TestOrientationAndGatingFlags:
    def test_new_user_with_tau_and_fisher_z(self, tmp_path):
        _, human, twin, _ = generate_latent_world(
            20, 30, 3, seed=21, alignment="identical", noise_sigma=0.05
        )
        twin_features = MaskedMatrix(twin.values[:, :30], twin.mask[:, :30])
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, twin_features)
        out = tmp_path / "nu"
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--method", "ridge", "--orientation", "new_user",
                   "--tau", "0.5", "--fisher-z", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["orientation"] == "new_user"
        assert report["fisher_z"] is True
        assert len(report["per_target"]) == 20  # one per user
        # predictions come back in the input orientation
        preds = read_matrix_csv(out / "predictions.csv")
        assert preds.shape == (20, 30)

    @pytest.mark.parametrize("command,flags", [("calibrate", []),
                                               ("eval-sweep", ["--taus", "0,inf"])])
    def test_new_user_shape_error_in_the_files_layout(self, tmp_path, capsys, command, flags):
        # the twin file still carries the held-out column: 60 x 12 against
        # 60 x 13, which the error states as the files hold them
        _, human, twin, _ = generate_latent_world(60, 12, 3, seed=1)
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, human)
        write_matrix_csv(tp, twin)
        rc = main([command, "--human", str(hp), "--twin", str(tp), "--method", "ridge",
                   "--orientation", "new_user", *flags, "--out", str(tmp_path / "o")])
        assert rc == 2
        line, = capsys.readouterr().out.splitlines()
        payload = json.loads(line)
        assert payload["kind"] == "DataError"
        assert "got (60, 12) and (60, 13);" in payload["error"]

    def test_new_user_completion_method(self, tmp_path):
        _, human, twin, _ = generate_latent_world(
            24, 16, 2, seed=22, alignment="identical"
        )
        twin_features = MaskedMatrix(twin.values[:, :16], twin.mask[:, :16])
        from twincal.calibrate import loo_evaluate
        from twincal.completion import CompletionConfig

        report = loo_evaluate(human, twin_features,
                              CompletionConfig("hsv", rank=2), "new_user")
        assert report.mean > 0.99


class TestFailedCommandOutDir:
    """A command the engine rejects after ``--out`` was made removes the
    directories it made; one that existed before is kept."""

    @staticmethod
    def blank_row_pair(tmp_path):
        # 60 x 12 with 10% missing, human row 4 blanked
        hp, tp = write_pair(tmp_path, seed=1, n=60, m=12, alignment="linear_distortion",
                            noise_sigma=0.1, row_bias_scale=0.5, missing_frac=0.1)
        human = read_matrix_csv(hp)
        mask = human.mask.copy()
        mask[4] = False
        write_matrix_csv(hp, MaskedMatrix(human.values, mask))
        return ["--human", str(hp), "--twin", str(tp)]

    @pytest.mark.parametrize("argv,error", [
        (["calibrate", "--orientation", "new_user", "--method", "ridge"],
         "row 4 has no observed entries"),
        (["calibrate", "--orientation", "new_user", "--method", "sp",
          "--profile", "movielens.new_user"], "column 4 has no observed entries"),
        (["diagnose", "--orientation", "new_user"], "row 4 has no observed entries"),
        (["calibrate", "--method", "ridge", "--tau", "nan"], "tau must be nonnegative"),
    ], ids=["ridge_new_user", "sp_new_user", "diagnose_new_user", "nan_tau"])
    @pytest.mark.parametrize("out", ["o", "a/b/c"])
    def test_new_out_dir_is_removed(self, tmp_path, capsys, argv, error, out):
        inputs = self.blank_row_pair(tmp_path)
        assert main([*argv, *inputs, "--out", str(tmp_path / out)]) == 2
        assert error in json.loads(capsys.readouterr().out)["error"]
        assert not (tmp_path / out.split("/")[0]).exists()

    def test_existing_out_dir_is_kept(self, tmp_path, capsys):
        inputs = self.blank_row_pair(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        assert main(["calibrate", "--method", "ridge", "--tau", "nan", *inputs,
                     "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())


class TestFailureModes:
    def test_ragged_csv_exit_2(self, tmp_path, capsys):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(",c0,c1\nr0,1,2\nr1,3\n")
        rc = main(["calibrate", "--human", str(ragged), "--twin", str(ragged),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["kind"] == "DataError"
        assert "row 2 has 2 cells, expected 3" in payload["error"]

    @pytest.mark.parametrize("error", [FloatingPointError, np.linalg.LinAlgError])
    def test_solver_failure_is_error_json_exit_1(self, tmp_path, capsys, monkeypatch, error):
        import twincal.regress

        def failing_fit(x, y, cfg, exclude=None):
            raise error("diverged")

        monkeypatch.setattr(twincal.regress, "_nn_parameters", failing_fit)
        hp, tp = write_pair(tmp_path, alignment="identical")
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--method", "nn", "--out", str(tmp_path / "o")])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "diverged", "kind": error.__name__}
        assert "Traceback" not in captured.err

    def test_out_of_memory_is_error_json_exit_1(self, tmp_path, capsys, monkeypatch):
        # stands in for numpy failing to allocate a huge world; nothing large is made
        def failing_generate(*args, **kwargs):
            raise MemoryError("Unable to allocate 37.3 TiB")

        monkeypatch.setattr(twincal.cli, "generate_latent_world", failing_generate)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n": 1_000_000_000_000, "m": 5, "dim": 2}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert self._one_error_line(capsys) == {"error": "Unable to allocate 37.3 TiB",
                                                "kind": "MemoryError"}

    def test_completion_rank_error_names_the_stack(self, tmp_path, capsys):
        # the movielens.new_question ssv rank (15) exceeds the 12 questions
        hp, tp = write_pair(tmp_path, n=60, m=12)
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp), "--method", "ssv",
                   "--profile", "movielens.new_question", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert self._one_error_line(capsys) == {
            "error": "rank 15 exceeds min(120, 12) of the human and twin matrices "
                     "stacked, which ssv completes",
            "kind": "DataError"}

    # the warning must stay a warning to be printed, also under -W error
    @pytest.mark.filterwarnings("default::twincal.matcore.ConvergenceWarning")
    def test_warnings_print_without_a_source_line(self, tmp_path, capsys, monkeypatch):
        import twincal.regress

        monkeypatch.setattr(twincal.regress, "_SIMPLEX_MAX_ITERS", 3)  # every fit is capped
        hp, tp = write_pair(tmp_path)
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp), "--method", "sc",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        # every line has this form: no "path:line:" prefix, no source line
        assert lines and set(lines) == {
            "twincal: ConvergenceWarning: simplex fit did not converge within 3 steps"}

    def _one_error_line(self, capsys):
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        assert "Traceback" not in captured.err
        return json.loads(lines[0])

    def test_malformed_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        hp, tp = write_pair(tmp_path, alignment="identical")
        monkeypatch.setenv("SYNDIGITS_SEED", "abc")
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert "'seed'" in payload["error"] and "'abc'" in payload["error"]

    def test_unknown_method_params_exit_2(self, tmp_path, capsys):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"bogus": 1, "lam": 1.0, "zzz": 2}}))
        rc = main(["calibrate", "--config", str(cfg), "--human", str(hp),
                   "--twin", str(tp), "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload["kind"] == "DataError"
        assert "['bogus', 'zzz']" in payload["error"]

    def test_negative_tau_exit_2(self, tmp_path, capsys):
        hp, tp = write_pair(tmp_path, alignment="identical")
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--method", "ridge", "--tau", "-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload["kind"] == "DataError" and "tau" in payload["error"]

    def test_non_numeric_taus_exit_2(self, tmp_path, capsys):
        hp, tp = write_pair(tmp_path, alignment="identical")
        rc = main(["eval-sweep", "--human", str(hp), "--twin", str(tp),
                   "--taus", "0,abc", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert self._one_error_line(capsys) == {"error": "invalid value for '--taus': 'abc'",
                                                "kind": "CliError"}

    @pytest.mark.parametrize("taus,error", [
        ([0, "abc"], "invalid value for 'taus': 'abc'"),
        ([0.1, None], "invalid value for 'taus': None"),
        (5, "eval-sweep needs a nonempty tau grid ('taus' list or --taus)"),
        ("0,1", "eval-sweep needs a nonempty tau grid ('taus' list or --taus)"),
    ])
    def test_bad_config_taus_exit_2(self, tmp_path, capsys, taus, error):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"taus": taus}))
        rc = main(["eval-sweep", "--config", str(cfg), "--human", str(hp),
                   "--twin", str(tp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert self._one_error_line(capsys) == {"error": error, "kind": "CliError"}

    def test_zero_variance_diagnose_exit_2(self, tmp_path, capsys):
        hp = tmp_path / "zero.csv"
        write_matrix_csv(hp, np.zeros((20, 6)))
        rc = main(["diagnose", "--human", str(hp), "--twin", str(hp),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload == {"error": "matrix has zero variance after demeaning",
                           "kind": "DataError"}

    def test_all_skipped_report_is_strict_json(self, tmp_path):
        # a constant human matrix leaves every correlation undefined, so the
        # aggregate means are NaN; they must be written as null, not NaN
        _, _, twin, _ = generate_latent_world(30, 6, 2, seed=23)
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, np.full((30, 6), 3.0))
        write_matrix_csv(tp, MaskedMatrix(twin.values[:, :6], twin.mask[:, :6]))
        out = tmp_path / "o"
        rc = main(["calibrate", "--human", str(hp), "--twin", str(tp),
                   "--method", "ridge", "--out", str(out)])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["skipped_count"] == 6
        assert report["mean"] is None and report["se"] is None
        assert report["baseline_mean"] is None and report["pct_improvement"] is None

    @pytest.mark.parametrize("source,key,value", [
        ("env", "standardize", "ture"),
        ("env", "fisher_z", "maybe"),
        ("config", "standardize", 1),
        ("config", "seed", 2.7),
        ("config", "seed", True),
    ])
    def test_bad_seed_or_flag_value_exit_2(self, tmp_path, capsys, monkeypatch,
                                           source, key, value):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value} if source == "config" else {}))
        if source == "env":
            monkeypatch.setenv("SYNDIGITS_" + key.upper(), value)
        rc = main(["calibrate", "--config", str(cfg), "--human", str(hp),
                   "--twin", str(tp), "--method", "ridge", "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert repr(key) in payload["error"] and repr(value) in payload["error"]

    def test_accepted_seed_and_flag_spellings(self):
        for raw, want in [("TRUE", True), ("Yes", True), ("1", True), (True, True),
                          ("false", False), ("NO", False), ("0", False), (False, False)]:
            assert _resolve("standardize", None, {"standardize": raw}) is want
        assert _resolve("seed", None, {"seed": "7"}) == 7
        assert _resolve("seed", None, {"seed": 7}) == 7

    @pytest.mark.parametrize("cell,detail", [("abc", "not a number: 'abc'"),
                                             ("inf", "non-finite value inf")])
    def test_bad_csv_cell_names_its_place_exit_2(self, tmp_path, capsys, cell, detail):
        bad = tmp_path / "bad.csv"
        bad.write_text(f",c0,c1\nr0,1,2\nr1,3,{cell}\n")
        rc = main(["calibrate", "--human", str(bad), "--twin", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload["kind"] == "DataError"
        assert payload["error"] == f"{bad}: row 2, column 'c1': {detail}"

    @pytest.mark.parametrize("command", ["calibrate", "eval-sweep", "diagnose", "distcal"])
    @pytest.mark.parametrize("content,detail", [
        (b"id\nr0\nr1\n", "the header names no data column"),
        (b"id,c0\nr0,\xff\xfe1\n", "not UTF-8 text (invalid start byte)"),
    ], ids=["no_data_column", "not_utf8"])
    def test_unreadable_matrix_file_exit_2(self, tmp_path, capsys, command, content, detail):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        flags = ["--taus", "0,inf"] if command == "eval-sweep" else []
        rc = main([command, "--human", str(bad), "--twin", str(bad),
                   "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": f"{bad}: {detail}", "kind": "DataError"}
        assert captured.err == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "calibrate", "eval-sweep", "diagnose",
                                         "distcal"])
    def test_non_utf8_config_exit_2(self, tmp_path, capsys, command):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        files = [] if command == "synth" else ["--human", str(hp), "--twin", str(tp)]
        flags = ["--taus", "0,inf"] if command == "eval-sweep" else []
        rc = main([command, "--config", str(cfg), *files, "--out", str(tmp_path / "o"),
                   *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": f"{cfg}: not UTF-8 text (invalid start byte)", "kind": "CliError",
            "path": str(cfg),
        }
        assert captured.err == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,config,flags", [
        ("calibrate", {"impute_rank": "abc"}, ["--method", "ridge"]),
        ("calibrate", {"impute_rank": 2.5}, ["--method", "ridge"]),
        ("calibrate", {"impute_rank": True}, ["--method", "ridge"]),
        ("eval-sweep", {"impute_rank": 2.5}, ["--method", "ridge", "--taus", "0,inf"]),
        ("diagnose", {"rank": 2.5}, []),
        ("diagnose", {"impute_rank": "abc"}, []),
    ])
    def test_non_integer_config_rank_exit_2(self, tmp_path, capsys, command, config, flags):
        hp, tp = write_pair(tmp_path, alignment="identical", missing_frac=0.1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main([command, "--config", str(cfg), "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        payload = self._one_error_line(capsys)
        (key, value), = config.items()
        assert payload["error"] == f"invalid value for {key!r}: {value!r}"

    @pytest.mark.parametrize("method,rank", [("hsv", 2.5), ("hsv", True), ("hsv", "2"),
                                             ("si", 2.5), ("si", True)])
    def test_non_integer_params_rank_exit_2(self, tmp_path, capsys, method, rank):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"rank": rank}}))
        rc = main(["calibrate", "--config", str(cfg), "--human", str(hp), "--twin", str(tp),
                   "--method", method, "--orientation", "new_user",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload == {"error": f"rank must be an integer, got {rank!r}",
                           "kind": "DataError"}

    @pytest.mark.parametrize("method,params,key", [
        ("hsv", None, "rank"),                 # no params.rank and no --profile
        ("ridge", {"lam": "abc"}, "lam"),
        ("ridge", {"lam": True}, "lam"),
        ("hsv", {"rank": 2, "tol": "x"}, "tol"),
        ("hsv", {"rank": 2, "max_iters": 2.5}, "max_iters"),
        ("nn", {"hidden_sizes": 5}, "hidden_sizes"),
        ("ridge", [1, 2], "params"),
        ("nn", {"batch_size": 0}, "batch_size"),
        ("nn", {"epochs": 0}, "epochs"),
        ("nn", {"patience": 2.5}, "patience"),
        ("nn", {"learning_rate": 0}, "learning_rate"),
    ])
    def test_bad_method_params_exit_2(self, tmp_path, capsys, method, params, key):
        hp, tp = write_pair(tmp_path, alignment="identical")
        config = {"method": method}
        if params is not None:
            config["params"] = params
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        rc = main(["calibrate", "--config", str(cfg), "--human", str(hp), "--twin", str(tp),
                   "--out", str(out)])
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert payload["kind"] == "DataError" and key in payload["error"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command,source,key,value", [
        ("calibrate", "config", "orientation", "sideways"),
        ("calibrate", "env", "orientation", "sideways"),
        ("eval-sweep", "config", "orientation", "sideways"),
        ("eval-sweep", "env", "orientation", "sideways"),
        ("diagnose", "config", "orientation", "sideways"),
        ("diagnose", "config", "axis", "diag"),
        ("diagnose", "env", "axis", "diag"),
    ])
    def test_bad_orientation_or_axis_exit_2(self, tmp_path, capsys, monkeypatch,
                                            command, source, key, value):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value} if source == "config" else {}))
        if source == "env":
            monkeypatch.setenv("SYNDIGITS_" + key.upper(), value)
        flags = ["--taus", "0,inf"] if command == "eval-sweep" else []
        rc = main([command, "--config", str(cfg), "--human", str(hp), "--twin", str(tp),
                   "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        assert self._one_error_line(capsys) == {
            "error": f"invalid value for {key!r}: {value!r}", "kind": "CliError"}

    @pytest.mark.parametrize("argv,error", [
        (["synth", "--kind", "bogus"],
         "unknown synth kind 'bogus'; expected 'latent' or 'discrete'"),
        (["diagnose", "--axis", "diag"], "invalid value for 'axis': 'diag'"),
        (["calibrate", "--orientation", "sideways"],
         "invalid value for 'orientation': 'sideways'"),
        (["calibrate", "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
        (["calibrate", "--seed"], "argument --seed: expected one argument"),
    ])
    def test_bad_flag_is_error_json_exit_2(self, tmp_path, capsys, argv, error):
        out = tmp_path / "o"
        rc = main([*argv[:1], "--out", str(out), *argv[1:]])
        assert rc == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": error, "kind": "CliError"}
        assert captured.err == ""
        assert not out.exists()

    def test_missing_config_names_kind_and_path_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "nope.json"
        rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert self._one_error_line(capsys) == {
            "error": f"config file not found: {cfg}", "kind": "CliError", "path": str(cfg)}

    @pytest.mark.parametrize("case", ["human_is_a_directory", "config_is_a_directory",
                                      "out_is_a_file"])
    def test_unusable_path_is_error_json_exit_2(self, tmp_path, capsys, case):
        hp, tp = write_pair(tmp_path)
        out = tmp_path / "o"
        argv, kind, path = {
            "human_is_a_directory": (["calibrate", "--human", str(tmp_path), "--twin", str(tp),
                                      "--out", str(out)], "IsADirectoryError", tmp_path),
            "config_is_a_directory": (["calibrate", "--config", str(tmp_path), "--human",
                                       str(hp), "--twin", str(tp), "--out", str(out)],
                                      "IsADirectoryError", tmp_path),
            "out_is_a_file": (["synth", "--out", str(hp)], "FileExistsError", hp),
        }[case]
        held = hp.read_bytes()
        rc = main(argv)
        assert rc == 2
        payload = self._one_error_line(capsys)
        assert (payload["kind"], payload["path"]) == (kind, str(path))
        assert str(path) in payload["error"]
        assert not out.exists() and hp.read_bytes() == held

    @pytest.mark.parametrize("rank", [-3, 0])
    def test_diagnose_rank_below_one_exit_2(self, tmp_path, capsys, rank):
        hp, tp = write_pair(tmp_path, alignment="identical")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank": rank}))
        out = tmp_path / "o"
        rc = main(["diagnose", "--config", str(cfg), "--human", str(hp), "--twin", str(tp),
                   "--out", str(out)])
        assert rc == 2
        assert self._one_error_line(capsys) == {
            "error": f"rank must be at least 1, got {rank}", "kind": "DataError"}
        assert not (out / "alignment.json").exists()


class TestDistcalConfigValues:
    def run(self, tmp_path, config):
        _, _, samples, _ = generate_discrete_world(20, 4, 3, seed=5)
        hp, tp = tmp_path / "h.csv", tmp_path / "t.csv"
        write_matrix_csv(hp, np.ones((30, 4)))
        write_matrix_csv(tp, samples[:, :4].astype(float))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        return main(["distcal", "--config", str(cfg), "--human", str(hp),
                     "--twin", str(tp), "--out", str(tmp_path / "o")])

    def error(self, capsys):
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        line, = captured.out.strip().splitlines()
        return json.loads(line)["error"]

    def test_unknown_mirror_descent_keys_exit_2(self, tmp_path, capsys):
        rc = self.run(tmp_path, {"mirror_descent": {
            "decay_power": 5.0, "stall_patience": -3, "max_iters": 5}})
        assert rc == 2
        assert "['decay_power', 'stall_patience']" in self.error(capsys)
        assert not (tmp_path / "o" / "cross_table.json").exists()

    def test_mirror_descent_not_an_object_exit_2(self, tmp_path, capsys):
        assert self.run(tmp_path, {"mirror_descent": [1, 2]}) == 2
        assert "'mirror_descent'" in self.error(capsys)

    @pytest.mark.parametrize("key", ["eta0", "max_iters", "tol", "epsilon_floor"])
    def test_non_numeric_mirror_descent_value_exit_2(self, tmp_path, capsys, key):
        # max_iters is the one setting; eta0, tol and epsilon_floor are
        # constants, so the keys are unknown
        assert self.run(tmp_path, {"mirror_descent": {key: "x"}}) == 2
        assert self.error(capsys) == (
            "invalid value for 'max_iters': 'x'" if key == "max_iters" else
            f"unknown mirror_descent keys: [{key!r}]; expected ['max_iters']")

    @pytest.mark.parametrize("key,value", [("test_frac", "x"), ("n_categories", "x"),
                                           ("n_categories", 2.5)])
    def test_non_numeric_top_level_value_exit_2(self, tmp_path, capsys, key, value):
        assert self.run(tmp_path, {key: value}) == 2
        assert self.error(capsys) == f"invalid value for {key!r}: {value!r}"

    def test_accepted_values_run(self, tmp_path):
        rc = self.run(tmp_path, {"n_categories": "3", "test_frac": "0.25",
                                 "mirror_descent": {"max_iters": "5"}})
        assert rc == 0


# one wrong-typed config value for each key of the CLI's rule table:
# (command, key or "parent.key", value)
WRONG_TYPES = [
    ("calibrate", "human", 5),
    ("calibrate", "twin", ["t.csv"]),
    ("calibrate", "out", 5),
    ("calibrate", "method", 5),
    ("calibrate", "profile", ["a"]),
    ("synth", "synth.kind", ["latent"]),
    ("distcal", "mirror_descent", [1, 2]),
    ("synth", "synth", [1, 2]),
    ("calibrate", "seed", -1),
    ("calibrate", "impute_rank", 2.5),
    ("diagnose", "rank", True),
    ("distcal", "n_categories", "3.0"),
    ("distcal", "mirror_descent.max_iters", True),
    ("synth", "synth.n", 30.7),
    ("synth", "synth.m", "x"),
    ("synth", "synth.dim", False),
    ("calibrate", "tau", True),
    ("eval-sweep", "taus", [0, True]),
    ("distcal", "test_frac", False),
    ("calibrate", "fisher_z", 1),
    ("eval-sweep", "standardize", "maybe"),
    ("eval-sweep", "orientation", True),
    ("diagnose", "axis", 1),
]


class TestSettingRules:
    def run(self, where, monkeypatch, command, config, flags=()):
        """Run ``command`` in the new directory ``where`` with ``config``; flags
        give the inputs and ``o`` as the output directory unless the config
        does. Returns the exit code and the names of the entries it made."""
        where.mkdir()
        monkeypatch.chdir(where)
        if command == "distcal":
            _, _, samples, _ = generate_discrete_world(20, 4, 3, seed=5)
            write_matrix_csv(where / "human.csv", np.ones((30, 4)))
            write_matrix_csv(where / "twin.csv", samples[:, :4].astype(float))
        elif command != "synth":
            write_pair(where, seed=2, noise_sigma=0.1, alignment="linear_distortion")
        given = ["out"] if command == "synth" else ["human", "twin", "out"]
        argv = [command, "--config", "c.json", *flags]
        argv += [f"--{k}={'o' if k == 'out' else k + '.csv'}" for k in given if k not in config]
        (where / "c.json").write_text(json.dumps(config))
        before = {p.name for p in where.iterdir()}
        rc = main(argv)
        return rc, {p.name for p in where.iterdir()} - before

    @pytest.mark.parametrize("command,path,value", WRONG_TYPES)
    def test_wrong_type_exit_2(self, tmp_path, capsys, monkeypatch, command, path, value):
        parent, _, key = path.rpartition(".")
        config = {parent: {key: value}} if parent else {key: value}
        rc, made = self.run(tmp_path / "run", monkeypatch, command, config)
        assert rc == 2
        captured = capsys.readouterr()
        shown = value[-1] if key == "taus" else value
        assert captured.out == json.dumps({"error": f"invalid value for {key!r}: {shown!r}",
                                           "kind": "CliError"}) + "\n"
        assert captured.err == ""
        assert made == set()

    def test_every_rule_key_has_a_case(self):
        assert {path.rpartition(".")[2] for _, path, _ in WRONG_TYPES} == set(_RULES)

    @pytest.mark.parametrize("command", ["calibrate", "eval-sweep"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, monkeypatch, command):
        rc, made = self.run(tmp_path / "run", monkeypatch, command, {"taus": [0, 1]},
                            ["--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ('{"error": "invalid value for \'seed\': \'-1\'", '
                                '"kind": "CliError"}\n')
        assert captured.err == "" and made == set()

    def test_null_standardize_is_unset(self, tmp_path, monkeypatch):
        outs = {}
        for name, config in [("unset", {}), ("null", {"standardize": None}),
                             ("off", {"standardize": False})]:
            rc, _ = self.run(tmp_path / name, monkeypatch, "calibrate", config)
            assert rc == 0
            outs[name] = read_bytes_tree(tmp_path / name / "o")
        assert outs["null"] == outs["unset"] != outs["off"]

    def test_null_param_takes_the_profile_value(self, tmp_path, monkeypatch):
        outs = {}
        for name, lam in [("null", None), ("profile", 1000.0), ("default", 1.0)]:
            rc, _ = self.run(tmp_path / name, monkeypatch, "calibrate",
                             {"params": {"lam": lam}},
                             ["--method", "ridge", "--profile", "movielens.new_question"])
            assert rc == 0
            outs[name] = read_bytes_tree(tmp_path / name / "o")
        assert outs["null"] == outs["profile"] != outs["default"]

    @pytest.mark.parametrize("eta0", [float("nan"), "nan"])
    def test_nan_eta0_exit_2(self, tmp_path, capsys, monkeypatch, eta0):
        # the step size is a constant: the key is unknown, whatever its value
        rc, made = self.run(tmp_path / "run", monkeypatch, "distcal",
                            {"mirror_descent": {"eta0": eta0}})
        assert rc == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": "unknown mirror_descent keys: ['eta0']; expected ['max_iters']",
            "kind": "CliError"}
        assert captured.err == "" and made == set()
