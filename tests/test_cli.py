import dataclasses
import json
import math
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from sphgp import checkpoint as CP
from sphgp import cli, synthetic
from sphgp import data_io as D
from sphgp import kernels as K
from sphgp import vargp as V
from sphgp.config import (
    ConfigError,
    RunConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)

from conftest import ExpDecay

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_custom(self):
        cfg = RunConfig(
            kernel="ntk:depth=4", phase_limit=17, iterations=12, data_csv="d.csv",
            schema="s.schema", test_fraction=0.25,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_phase_limit_full_keyword(self):
        cfg = parse_config("phase_limit = full\n")
        assert cfg.phase_limit is None
        assert "phase_limit = full" in serialize_config(cfg)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("mystery = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("iterations = soon\n")

    def test_validation_beta(self):
        with pytest.raises(ConfigError, match="beta0"):
            parse_config("beta0 = -1.0\n")

    @pytest.mark.parametrize(
        "line",
        [
            "lambda0 = 0.0",
            "lambda0 = -1.0",
            "quad_order = -1",
            "max_bad_fraction = -0.1",
            "max_bad_fraction = 1.5",
            "lr_variational = -0.02",
            "lr_variational = 0.0",
            "lr_variational = 1.5",
            "lr_variational = nan",
            "lr_hyper = nan",
            "beta0 = inf",
            "variance0 = inf",
            "noise0 = inf",
            "lambda0 = inf",
            "bias = inf",
        ],
    )
    def test_bad_value_fails_at_config_time(self, line):
        with pytest.raises(ConfigError, match=line.split(" = ")[0]):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "spec, canonical",
        [
            ("poly_decay:beta=1.5", "poly_decay:beta=1.5,lambda0=1.0"),
            (" poly_decay : lambda0 = 2 , beta = 1 ", "poly_decay:beta=1.0,lambda0=2.0"),
            ("composed_relu:depth=2", "composed_relu:depth=2"),
            ("ntk:depth=4", "ntk:depth=4"),
        ],
    )
    def test_kernel_spec_is_canonical(self, spec, canonical):
        cfg = parse_config(f"kernel = {spec}\n")
        assert cfg.kernel == canonical == K.canonical_kernel(spec)
        assert cfg == RunConfig(kernel=canonical)
        assert f"kernel = {canonical}\n" in serialize_config(cfg)

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("kernel = poly_decay\n", "poly_decay:beta=1.0,lambda0=1.0"),
            ("kernel = ntk\n", "ntk:depth=3"),
            ("kernel = composed_relu\ndepth = 2\nbeta0 = 3.0\nlambda0 = 2.0\n",
             "composed_relu:depth=2"),
            ("beta0 = 2\nlambda0 = 0.5\ndepth = 9\n", "poly_decay:beta=2.0,lambda0=0.5"),
        ],
    )
    def test_old_kernel_keys_become_the_spec(self, text, spec):
        # older configs name a bare kind; the keys it does not take are dropped
        assert parse_config(text).kernel == spec

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kernel = matern:nu=2.5\n", "unknown kernel 'matern'"),
            ("kernel = matern\n", "unknown kernel 'matern'"),
            ("kernel = poly_decay:beta=1,depth=2\n", "takes beta, lambda0, not 'depth'"),
            ("kernel = poly_decay:beta=1,beta=2\n", "takes beta once"),
            ("kernel = poly_decay:lambda0=2\n", "needs its beta"),
            ("kernel = poly_decay:\n", "needs its beta"),
            ("kernel = ntk:\n", "needs its depth"),
            ("kernel = ntk:depth=1.5\n", "invalid literal for int"),
            ("kernel = ntk:depth=0\n", "depth must be >= 1"),
            ("kernel = poly_decay:beta=0\n", "beta must be finite and > 0"),
            ("kernel = poly_decay:beta=1,lambda0=nan\n", "lambda0 must be finite and > 0"),
            ("kernel = poly_decay:beta=1\nbeta0 = 2\n", "is a spec, so beta0 must be in it"),
        ],
    )
    def test_bad_kernel_spec_fails_at_config_time(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_comment_lines(self):
        text = "# a run\n  # indented\nseed = 3\n\n"
        assert parse_config(text) == RunConfig(seed=3)

    @pytest.mark.parametrize(
        "line", ["data_csv = /data/run#1.csv", "seed = 3  # trailing", "kernel = ntk:depth=2#"]
    )
    def test_hash_inside_a_line_is_an_error(self, line):
        # a value used to be cut at its first '#': data_csv loaded as /data/run
        with pytest.raises(ConfigError, match=re.escape(repr(line))):
            parse_config(f"# comment\n{line}\n")

    def test_hash_ignores_out_root(self):
        a = RunConfig(out_root="runs")
        b = RunConfig(out_root="elsewhere")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(RunConfig(seed=9))


@pytest.fixture(scope="module")
def regression_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_reg")
    synthetic.write_regression_csv(tmp / "reg.csv", 300, 3, seed=5)
    (tmp / "reg.schema").write_text(synthetic.regression_schema(3))
    cfg = RunConfig(
        kernel="poly_decay:beta=1.5",
        max_frequency=3,
        phase_limit=4,
        iterations=40,
        batch_size=120,
        data_csv=str(tmp / "reg.csv"),
        schema=str(tmp / "reg.schema"),
        out_root=str(tmp / "runs"),
    )
    (tmp / "run.cfg").write_text(serialize_config(cfg))
    rc = cli.main(["train", "--config", str(tmp / "run.cfg")])
    assert rc == 0
    run_dir = tmp / "runs" / config_hash(cfg)
    return tmp, cfg, run_dir


@pytest.fixture(scope="module")
def classification_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_cls")
    synthetic.write_classification_csv(tmp / "cls.csv", 200, 3, seed=6)
    (tmp / "cls.schema").write_text(synthetic.classification_schema(3))
    cfg = RunConfig(
        kernel="poly_decay:beta=1.5",
        max_frequency=3,
        phase_limit=4,
        iterations=5,
        batch_size=100,
        data_csv=str(tmp / "cls.csv"),
        schema=str(tmp / "cls.schema"),
        out_root=str(tmp / "runs"),
    )
    (tmp / "run.cfg").write_text(serialize_config(cfg))
    rc = cli.main(["train", "--config", str(tmp / "run.cfg")])
    assert rc == 0
    run_dir = tmp / "runs" / config_hash(cfg)
    return tmp, cfg, run_dir


@pytest.fixture(scope="module")
def composed_relu_run(tmp_path_factory):
    # a spectrum without a family: nothing of it trains but the variance
    tmp = tmp_path_factory.mktemp("cli_relu")
    synthetic.write_regression_csv(tmp / "reg.csv", 200, 3, seed=8)
    (tmp / "reg.schema").write_text(synthetic.regression_schema(3))
    cfg = RunConfig(
        kernel="composed_relu:depth=2",
        max_frequency=3,
        phase_limit=4,
        iterations=10,
        batch_size=80,
        data_csv=str(tmp / "reg.csv"),
        schema=str(tmp / "reg.schema"),
        out_root=str(tmp / "runs"),
    )
    (tmp / "run.cfg").write_text(serialize_config(cfg))
    rc = cli.main(["train", "--config", str(tmp / "run.cfg")])
    assert rc == 0
    run_dir = tmp / "runs" / config_hash(cfg)
    return tmp, cfg, run_dir


def assert_finite_numbers(metrics):
    # a consumer of metrics.json may apply math.isfinite to every value,
    # which raises on a string or null
    bad = {k: v for k, v in metrics.items() if type(v) not in (int, float) or not math.isfinite(v)}
    assert not bad, bad


class TestTrain:
    def test_exit_zero_and_artifacts(self, regression_run):
        _, _, run_dir = regression_run
        assert (run_dir / "checkpoint.npz").exists()
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "config.cfg").exists()
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,elbo,wallclock_s"
        assert len(trace) > 1

    def test_effective_config_echo_parses(self, regression_run):
        _, cfg, run_dir = regression_run
        assert parse_config((run_dir / "config.cfg").read_text()) == cfg

    def test_rerun_reproduces_metrics(self, regression_run):
        tmp, cfg, run_dir = regression_run
        before = (run_dir / "metrics.json").read_bytes()
        rc = cli.main(["train", "--config", str(tmp / "run.cfg")])
        assert rc == 0
        assert (run_dir / "metrics.json").read_bytes() == before

    def test_invalid_config_fails_before_compute(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("beta0 = -2.0\n")
        rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg")])
        captured = capsys.readouterr()
        assert rc == 1
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert not (tmp_path / "runs").exists()

    def test_bad_kernel_config_fails_before_reading_data(self, tmp_path, capsys):
        (tmp_path / "reg.schema").write_text(synthetic.regression_schema(3))
        cfg = RunConfig(
            kernel="composed_relu:depth=3", max_frequency=5, quad_order=5,
            data_csv=str(tmp_path / "absent.csv"), schema=str(tmp_path / "reg.schema"),
            out_root=str(tmp_path / "runs"),
        )
        (tmp_path / "run.cfg").write_text(serialize_config(cfg))
        rc = cli.main(["train", "--config", str(tmp_path / "run.cfg")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert "quad_order" in record["message"]
        assert not (tmp_path / "runs").exists()

    def test_quad_order_too_low_for_the_dimension_fails_before_reading_data(
        self, tmp_path, capsys
    ):
        # d = 78 needs 92 nodes at lmax 14; 80 clears the old floor, lmax + 16
        (tmp_path / "reg.schema").write_text(synthetic.regression_schema(77))
        cfg = RunConfig(
            kernel="composed_relu:depth=2", max_frequency=14, quad_order=80,
            data_csv=str(tmp_path / "absent.csv"), schema=str(tmp_path / "reg.schema"),
            out_root=str(tmp_path / "runs"),
        )
        (tmp_path / "run.cfg").write_text(serialize_config(cfg))
        rc = cli.main(["train", "--config", str(tmp_path / "run.cfg")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert "quad_order must be >= " in record["message"] and "= 92" in record["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "kernel, message",
        [
            ("matern:nu=2.5", "unknown kernel 'matern'"),
            ("poly_decay:beta=1,nu=2.5", "not 'nu'"),
            ("poly_decay:lambda0=2", "needs its beta"),
            ("ntk:", "needs its depth"),
        ],
    )
    def test_bad_kernel_fails_at_config_load(self, kernel, message, tmp_path, capsys, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(V, "build_inducing_model", no_basis)
        (tmp_path / "run.cfg").write_text(
            f"kernel = {kernel}\ndata_csv = absent.csv\nschema = absent.schema\n"
            f"out_root = {tmp_path / 'runs'}\n"
        )
        rc = cli.main(["train", "--config", str(tmp_path / "run.cfg")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not (tmp_path / "runs").exists()

    def test_family_without_a_config_key_trains(self, tmp_path, monkeypatch):
        # a family row is all a config needs to name it: nothing in config.py
        # or cli.py knows the parameter's name
        monkeypatch.setitem(K.KINDS, "exp_decay", K.Kind("rate", float, family=ExpDecay))
        synthetic.write_regression_csv(tmp_path / "reg.csv", 120, 3, seed=4)
        (tmp_path / "reg.schema").write_text(synthetic.regression_schema(3))
        (tmp_path / "run.cfg").write_text(
            "kernel = exp_decay:rate=0.5\nmax_frequency = 3\nphase_limit = 4\n"
            f"iterations = 5\nbatch_size = 60\ndata_csv = {tmp_path / 'reg.csv'}\n"
            f"schema = {tmp_path / 'reg.schema'}\nout_root = {tmp_path / 'runs'}\n"
        )
        assert cli.main(["train", "--config", str(tmp_path / "run.cfg")]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert "kernel = exp_decay:rate=0.5\n" in (run_dir / "config.cfg").read_text()
        spectrum = CP.load_checkpoint(run_dir / "checkpoint.npz").model.spectrum
        assert spectrum.family == ExpDecay() and spectrum.theta != 0.5

    def test_initial_beta_outside_its_bounds_fails_before_the_run(self, tmp_path, capsys):
        # fit keeps beta within the family's bounds, so a start beyond them is an error
        synthetic.write_regression_csv(tmp_path / "reg.csv", 60, 3, seed=5)
        (tmp_path / "reg.schema").write_text(synthetic.regression_schema(3))
        cfg = RunConfig(
            kernel="poly_decay:beta=20.0", max_frequency=3, iterations=1,
            data_csv=str(tmp_path / "reg.csv"), schema=str(tmp_path / "reg.schema"),
            out_root=str(tmp_path / "runs"),
        )
        (tmp_path / "run.cfg").write_text(serialize_config(cfg))
        rc = cli.main(["train", "--config", str(tmp_path / "run.cfg")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert "beta" in record["message"] and "20" in record["message"]
        assert not (tmp_path / "runs").exists()

    def test_metrics_keys_regression(self, regression_run):
        _, _, run_dir = regression_run
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert {"rmse", "mean_nll"} <= set(metrics)
        assert "auc" not in metrics
        assert_finite_numbers(metrics)

    def test_metrics_keys_binary(self, classification_run):
        _, _, run_dir = classification_run
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert {"auc", "mean_nll"} <= set(metrics)
        assert "rmse" not in metrics
        assert_finite_numbers(metrics)


class TestEval:
    def test_eval_writes_metrics_and_predictions(self, regression_run, tmp_path):
        tmp, _, run_dir = regression_run
        out = tmp_path / "evalout"
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp / "reg.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"rmse", "mean_nll"}
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "index,target,pred_mean,pred_var"

    def test_binary_eval_writes_probabilities(self, classification_run, tmp_path):
        tmp, cfg, run_dir = classification_run
        out = tmp_path / "evalout"
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", cfg.data_csv,
            "--out", str(out),
        ])
        assert rc == 0
        ckpt = CP.load_checkpoint(run_dir / "checkpoint.npz")
        dataset = D.load_csv(cfg.data_csv, D.parse_schema(ckpt.schema_text))
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "index,target,prob"
        assert len(lines) == 1 + dataset.num_rows
        prob = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        sphere = D.project_to_sphere(ckpt.input_scaler.transform(dataset.inputs), ckpt.bias)
        expected = V.evaluate(
            ckpt.model, ckpt.state, sphere.coords, dataset.targets, ckpt.likelihood
        )
        assert json.loads((out / "metrics.json").read_text()) == expected

    @pytest.mark.parametrize("run", ["regression_run", "classification_run"])
    def test_eval_predicts_every_row_once(self, run, request, tmp_path, monkeypatch):
        _, cfg, run_dir = request.getfixturevalue(run)
        rows_per_call = []
        predict = V.predict

        def counting(model, state, X, *args, **kwargs):
            rows_per_call.append(len(X))
            return predict(model, state, X, *args, **kwargs)

        monkeypatch.setattr(V, "predict", counting)
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", cfg.data_csv,
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        n_rows = len((tmp_path / "out" / "predictions.csv").read_text().splitlines()) - 1
        assert rows_per_call == [n_rows]

    @pytest.mark.parametrize("run", ["regression_run", "classification_run"])
    def test_eval_keeps_no_raw_inputs_during_predict(self, run, request, tmp_path, monkeypatch):
        _, cfg, run_dir = request.getfixturevalue(run)
        loaded = []
        load_csv, predict = D.load_csv, V.predict

        def recording_load(*args, **kwargs):
            dataset = load_csv(*args, **kwargs)
            loaded.append((weakref.ref(dataset), weakref.ref(dataset.inputs)))
            return dataset

        def checking_predict(*args, **kwargs):
            assert [(d(), x()) for d, x in loaded] == [(None, None)]
            return predict(*args, **kwargs)

        monkeypatch.setattr(D, "load_csv", recording_load)
        monkeypatch.setattr(V, "predict", checking_predict)
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", cfg.data_csv,
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0 and len(loaded) == 1

    @pytest.mark.parametrize("run", ["regression_run", "classification_run", "composed_relu_run"])
    def test_eval_of_the_held_out_rows_reproduces_train_metrics(self, run, request, tmp_path):
        # train scores its held-out rows in memory; eval scores them through
        # the saved checkpoint, so the two agree only if save and load lose nothing
        _, cfg, run_dir = request.getfixturevalue(run)
        schema = D.load_schema(cfg.schema)
        _, test = D.split(D.load_csv(cfg.data_csv, schema), cfg.test_fraction, cfg.split_seed)
        with open(tmp_path / "test.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join((*schema.features, schema.target)) + "\n")
            for x, y in zip(test.inputs.tolist(), test.targets.tolist()):
                fh.write(",".join(map(repr, (*x, y))) + "\n")
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp_path / "test.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        trained = json.loads((run_dir / "metrics.json").read_text())
        for key in ("n_train", "n_test", "dropped_rows"):
            trained.pop(key)
        assert json.loads((tmp_path / "out" / "metrics.json").read_text()) == trained

    def test_composed_relu_checkpoint_has_no_family(self, composed_relu_run, tmp_path):
        tmp, cfg, run_dir = composed_relu_run
        with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as data:
            assert {k for k in data.files if k.startswith("spectrum_")} == {
                "spectrum_dim", "spectrum_eigenvalues",
            }
            assert np.isnan(data["state_log_theta"])
        ckpt = CP.load_checkpoint(run_dir / "checkpoint.npz")
        assert ckpt.model.spectrum.family is None and ckpt.state.log_theta is None
        assert ckpt.model.spectrum.variance == ckpt.state.variance
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp / "reg.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert set(json.loads((tmp_path / "out" / "metrics.json").read_text())) == {
            "rmse", "mean_nll",
        }

    def test_checkpoint_keeps_no_start_theta(self, regression_run):
        # theta trains, so after training no key may hold its start (beta = 1.5)
        _, cfg, run_dir = regression_run
        beta = K.parse_kernel(cfg.kernel)[1]["beta"]
        start = (beta, np.log(beta))
        with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        loaded = CP.load_checkpoint(run_dir / "checkpoint.npz")
        assert loaded.model.spectrum.theta == loaded.state.theta != beta
        for key, value in arrays.items():
            if value.dtype.kind == "U":
                assert key == "config_text" or f"{beta:g}" not in str(value), key
            else:
                assert not np.isin(start, value).any(), key

    def test_tampered_direction_rows_are_a_load_error(self, regression_run, tmp_path, capsys):
        tmp, _, run_dir = regression_run
        with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        key = f"basis_V_{int(arrays['basis_frequencies'][-1])}"
        arrays[key] = (1.0 + 1e-6) * arrays[key]
        np.savez(tmp_path / "tampered.npz", **arrays)
        rc = cli.main([
            "eval",
            "--checkpoint", str(tmp_path / "tampered.npz"),
            "--data", str(tmp / "reg.csv"),
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert key in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("state_mean", np.nan),
            ("state_cov_factor", np.inf),
            ("state_cov_factor", 0.0),
            ("state_log_variance", -np.inf),
            ("state_log_noise", np.inf),
        ],
    )
    def test_non_finite_state_is_a_load_error(self, regression_run, tmp_path, capsys, key, value):
        # without the check a NaN mean scores nan on every row and an inf
        # factor entry scores a constant, both with exit code 0; entry 0 of
        # the factor is its first diagonal entry, which must be positive
        tmp, _, run_dir = regression_run
        with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        tampered = arrays[key].copy()
        tampered.reshape(-1)[0] = value
        arrays[key] = tampered
        np.savez(tmp_path / "tampered.npz", **arrays)
        rc = cli.main([
            "eval",
            "--checkpoint", str(tmp_path / "tampered.npz"),
            "--data", str(tmp / "reg.csv"),
            "--out", str(tmp_path / "out"),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert key in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["state_mean", "state_cov_factor"])
    def test_state_that_does_not_fit_the_basis_is_a_load_error(
        self, regression_run, tmp_path, capsys, key
    ):
        _, _, run_dir = regression_run
        with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[key] = arrays[key][:-1]
        np.savez(tmp_path / "tampered.npz", **arrays)
        rc = cli.main([
            "eval",
            "--checkpoint", str(tmp_path / "tampered.npz"),
            "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out"),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert key in record["message"]
        assert not (tmp_path / "out").exists()

    def test_relative_schema_resolves_under_data_dir(
        self, classification_run, tmp_path, monkeypatch
    ):
        tmp, _, run_dir = classification_run
        monkeypatch.setenv("SPHGP_DATA_DIR", str(tmp))
        monkeypatch.chdir(tmp_path)
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", "cls.csv",
            "--schema", "cls.schema",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "predictions.csv").exists()

    def test_task_mismatch_is_typed_error(self, regression_run, tmp_path, capsys):
        tmp, _, run_dir = regression_run
        (tmp_path / "bin.schema").write_text(
            "target=y\nfeatures=x1,x2,x3\ntask=binary\n"
        )
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp / "reg.csv"),
            "--schema", str(tmp_path / "bin.schema"),
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "DataError"
        assert "task" in record["message"]

    def test_dimension_mismatch_reports_both(self, regression_run, tmp_path, capsys):
        tmp, _, run_dir = regression_run
        synthetic.write_regression_csv(tmp_path / "wide.csv", 30, 5, seed=1)
        (tmp_path / "wide.schema").write_text(synthetic.regression_schema(5))
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp_path / "wide.csv"),
            "--schema", str(tmp_path / "wide.schema"),
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert "6" in record["message"] and "4" in record["message"]

    def test_dimension_mismatch_fails_before_reading_data(
        self, regression_run, tmp_path, capsys
    ):
        _, _, run_dir = regression_run
        (tmp_path / "wide.schema").write_text(synthetic.regression_schema(5))
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp_path / "absent.csv"),
            "--schema", str(tmp_path / "wide.schema"),
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "DataError"
        assert "dimension 6" in record["message"] and "expects 4" in record["message"]

    @pytest.mark.parametrize("features", ["x3,x2,x1", "x1,x2,x4"])
    def test_other_feature_columns_fail_before_reading_data(
        self, regression_run, tmp_path, capsys, features
    ):
        # the input scaler is per column: reordered or renamed columns of the
        # same width would be scaled by another column's statistics
        _, _, run_dir = regression_run
        (tmp_path / "other.schema").write_text(
            f"target=y\nfeatures={features}\ntask=regression\n"
        )
        rc = cli.main([
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp_path / "absent.csv"),
            "--schema", str(tmp_path / "other.schema"),
            "--out", str(tmp_path / "out"),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "DataError"
        assert features in record["message"] and "x1,x2,x3" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_binary_train_and_eval_leave_scipy_stats_unimported(self, tmp_path):
        import subprocess
        import sys

        synthetic.write_classification_csv(tmp_path / "cls.csv", 120, 3, seed=7)
        (tmp_path / "cls.schema").write_text(synthetic.classification_schema(3))
        cfg = RunConfig(
            max_frequency=2, iterations=2, batch_size=50,
            data_csv=str(tmp_path / "cls.csv"), schema=str(tmp_path / "cls.schema"),
            out_root=str(tmp_path / "runs"),
        )
        (tmp_path / "run.cfg").write_text(serialize_config(cfg))
        run_dir = tmp_path / "runs" / config_hash(cfg)
        script = (
            "import sys\n"
            "from sphgp import cli\n"
            f"assert cli.main(['train', '--config', {str(tmp_path / 'run.cfg')!r}]) == 0\n"
            f"assert cli.main(['eval', '--checkpoint', {str(run_dir / 'checkpoint.npz')!r},"
            f" '--data', {cfg.data_csv!r}, '--out', {str(tmp_path / 'eval')!r}]) == 0\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert "auc" in json.loads((run_dir / "metrics.json").read_text())
        assert done.stdout.strip().splitlines()[-1] == "False"


class TestEigvals:
    def test_poly_rows(self, tmp_path):
        rc = cli.main([
            "eigvals", "--kernel", "poly_decay:beta=1", "--dim", "3",
            "--max-frequency", "10", "--out", str(tmp_path),
        ])
        assert rc == 0
        files = list(tmp_path.glob("*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert len(lines) == 11  # header plus frequencies 1..10

    def test_depth_ordering_of_ntk(self, tmp_path):
        rc = cli.main([
            "eigvals",
            "--kernel", "ntk:depth=2",
            "--kernel", "ntk:depth=5",
            "--dim", "3", "--max-frequency", "10", "--out", str(tmp_path),
        ])
        assert rc == 0

        def last_rel(name):
            path = next(tmp_path.glob(f"*{name}*d3.csv"))
            return float(path.read_text().splitlines()[-1].split(",")[1])

        assert last_rel("depth5") > last_rel("depth2")

    def test_composed_high_dim_suppression(self, tmp_path):
        rc = cli.main([
            "eigvals", "--kernel", "composed_relu:depth=2", "--dim", "10",
            "--max-frequency", "10", "--out", str(tmp_path),
        ])
        assert rc == 0
        path = next(tmp_path.glob("*.csv"))
        assert float(path.read_text().splitlines()[-1].split(",")[1]) <= 1e-3

    def test_imports_no_scipy(self, tmp_path):
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from sphgp import cli\n"
            "assert cli.main(['eigvals', '--kernel', 'poly_decay:beta=1.5',"
            " '--kernel', 'composed_relu:depth=2', '--kernel', 'ntk:depth=2',"
            f" '--dim', '5', '--max-frequency', '8', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert len(list(tmp_path.glob("*.csv"))) == 3
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_parameter_of_another_kind_is_rejected(self, tmp_path, capsys):
        rc = cli.main([
            "eigvals", "--kernel", "composed_relu:beta=2", "--kernel", "poly_decay:depth=7",
            "--dim", "5", "--max-frequency", "6", "--out", str(tmp_path),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert json.loads(lines[-1])["error"] == "ValueError"
        assert "beta" in json.loads(lines[-1])["message"]
        assert not list(tmp_path.glob("*.csv"))
        # every spec is checked before any file is written
        for specs in (
            ["poly_decay:depth=7"], ["poly_decay:beta=1,depth=2"], ["ntk:depth=2", "ntk:beta=1"]
        ):
            out = tmp_path / "out"
            argv = ["eigvals", "--dim", "5", "--max-frequency", "6", "--out", str(out)]
            for spec in specs:
                argv += ["--kernel", spec]
            assert cli.main(argv) == 1, specs
            assert not out.exists()

    @pytest.mark.parametrize("spec", ["poly_decay:beta=1,beta=2", "ntk:depth=2,depth=2"])
    def test_repeated_parameter_is_rejected(self, spec, tmp_path, capsys):
        rc = cli.main([
            "eigvals", "--kernel", spec, "--dim", "5", "--max-frequency", "6",
            "--out", str(tmp_path / "out"),
        ])
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1
        assert record["error"] == "ValueError" and "once" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_family_fields_are_spec_fields(self, tmp_path):
        rc = cli.main([
            "eigvals", "--kernel", "poly_decay:beta=1,lambda0=2", "--dim", "5",
            "--max-frequency", "6", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert len(list(tmp_path.glob("*.csv"))) == 1
        spectrum = K.parse_spectrum("poly_decay:beta=1,lambda0=2", 5, 6)
        assert spectrum.eigenvalues[0] == 2.0 and spectrum.family.lambda0 == 2.0

    @pytest.mark.parametrize("spec", ["ntk", "composed_relu:", "poly_decay:lambda0=2"])
    def test_parameter_is_required(self, spec, tmp_path, capsys):
        # there is one default, the config's, so a spec without its parameter fails
        rc = cli.main([
            "eigvals", "--kernel", spec, "--dim", "5", "--max-frequency", "6",
            "--out", str(tmp_path / "out"),
        ])
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1
        assert record["error"] == "ValueError" and "needs its" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_files_are_named_by_the_canonical_spec(self, tmp_path, capsys):
        rc = cli.main([
            "eigvals", "--kernel", "poly_decay: beta=1.5, lambda0=1.0", "--kernel", "ntk:depth=2",
            "--dim", "3", "--max-frequency", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        names = ["eigvals_poly_decay_beta1.5_lambda01.0_d3.csv", "eigvals_ntk_depth2_d3.csv"]
        written = json.loads(capsys.readouterr().out)["written"]
        assert [Path(path).name for path in written] == names
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize(
        "specs", [["poly_decay:beta=1.5", "poly_decay:beta=1.5, lambda0=1.0"], ["ntk:depth=2"] * 2]
    )
    def test_one_spectrum_given_twice_is_rejected(self, specs, tmp_path, capsys):
        argv = ["eigvals", "--dim", "5", "--max-frequency", "6", "--out", str(tmp_path / "out")]
        for spec in specs:
            argv += ["--kernel", spec]
        assert cli.main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert record["message"].endswith(f"are both {K.canonical_kernel(specs[0])}")
        assert not (tmp_path / "out").exists()

    def test_unknown_kernel(self, tmp_path, capsys):
        rc = cli.main([
            "eigvals", "--kernel", "matern:nu=2.5", "--dim", "3",
            "--max-frequency", "5", "--out", str(tmp_path),
        ])
        assert rc == 1


class TestGradcheckCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert cli.main(["gradcheck", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["gradcheck", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "ok" in first

    def test_corruption_exits_nonzero(self, capsys):
        assert cli.main(["gradcheck", "--seed", "3", "--corrupt", "cov_factor"]) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--checkpoint", "c.npz", "--data", "d.csv", "--out", "o"],
            ["eigvals", "--kernel", "poly", "--dim", "3", "--max-frequency", "2", "--out", "o"],
        ],
        ids=["eval", "eigvals"],
    )
    def test_seed_is_rejected_where_unused(self, argv, capsys):
        cli.build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv + ["--seed", "1"])
        assert "--seed" in capsys.readouterr().err

    def test_gradcheck_keeps_seed_and_parallel(self, capsys):
        args = cli.build_parser().parse_args(["gradcheck", "--parallel"])
        assert args.parallel is True
        assert args.seed == 0
        args = cli.build_parser().parse_args(["gradcheck", "--seed", "4"])
        assert args.parallel is False
        assert args.seed == 4
        # single-threaded is the default, so there is no flag that asks for it
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["gradcheck", "--deterministic"])
        assert "--deterministic" in capsys.readouterr().err


class TestShippedConfig:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_loads_and_round_trips(self, name):
        cfg = load_config(CONFIG_DIR / name)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_byte_order_mark_gives_the_same_config(self, name, tmp_path):
        # a BOM before a first comment line used to read as a '#' inside a line
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / name).read_bytes())
        cfg = load_config(CONFIG_DIR / name)
        assert load_config(path) == cfg
        assert config_hash(load_config(path)) == config_hash(cfg)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_builds_its_model_from_the_schema_alone(self, name):
        # the schema fixes d: its feature columns plus the bias coordinate;
        # no CSV is read (d = 78 and 91 have harmonic counts above 2**53)
        from sphgp.special_math import num_harmonics

        cfg = load_config(CONFIG_DIR / name)
        schema = D.load_schema(CONFIG_DIR.parent / cfg.schema)
        dim = len(schema.features) + 1
        assert D.project_to_sphere(np.ones((1, len(schema.features))), cfg.bias).dim == dim
        spectrum = K.config_spectrum(cfg, dim)
        model = V.build_inducing_model(spectrum, phase_limit=cfg.phase_limit, seed=cfg.seed)
        counts = [num_harmonics(ell, dim) for ell in range(1, cfg.max_frequency + 1)]
        if cfg.phase_limit is not None:
            counts = [min(cfg.phase_limit, n) for n in counts]
        assert model.basis.dim == dim
        assert model.num_features == 1 + sum(counts)
        assert np.isfinite(K.mercer_diag_value(spectrum))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_reads_as_when_every_hash_started_a_comment(self, name):
        text = (CONFIG_DIR / name).read_text()
        cut = "".join(line.split("#", 1)[0] + "\n" for line in text.splitlines())
        assert parse_config(text) == parse_config(cut)
        assert config_hash(parse_config(text)) == config_hash(parse_config(cut))
        schema = (CONFIG_DIR.parent / parse_config(text).schema).read_text()
        cut = "".join(line.split("#", 1)[0] + "\n" for line in schema.splitlines())
        assert D.parse_schema(schema) == D.parse_schema(cut)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_old_kernel_keys_give_the_same_config(self, name):
        # the spec form and the older form (a bare kind plus beta0, lambda0,
        # depth) are one config, so they share a hash and a run directory
        text = (CONFIG_DIR / name).read_text()
        cfg = parse_config(text)
        kind, values = K.parse_kernel(cfg.kernel)
        old_names = {"beta": "beta0", "lambda0": "lambda0", "depth": "depth"}
        old_lines = "".join(f"{old_names[k]} = {v!r}\n" for k, v in values.items())
        old_text = re.sub(r"^kernel = .*\n", f"kernel = {kind}\n{old_lines}", text, flags=re.M)
        assert old_text != text
        assert parse_config(old_text) == cfg
        assert config_hash(parse_config(old_text)) == config_hash(cfg)

    def test_shipped_synthetic_config_trains(self, tmp_path, monkeypatch):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        cfg_path = repo / "configs" / "synthetic_regression.cfg"
        monkeypatch.setenv("SPHGP_DATA_DIR", str(repo))
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        runs = list(tmp_path.iterdir())
        assert len(runs) == 1
        trace = (runs[0] / "trace.csv").read_text().splitlines()
        assert len(trace) > 1
