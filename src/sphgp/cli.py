"""Command-line surface: ``sphgp train | eval | eigvals | gradcheck``.

Every command reads only its arguments, the config file, and the declared
environment variable ``SPHGP_DATA_DIR`` (dataset root). Failures exit
nonzero after printing a one-line JSON error record to stderr.
By default every command pins the numeric libraries to one thread and is
bit-reproducible; ``--parallel``, the one thread switch, lifts that and
relaxes bit-reproducibility to tolerance-reproducibility.

``train`` builds its model from the schema's input dimension before it
reads the CSV, and makes the run directory only once the data has loaded,
so a bad kernel config or data file fails in seconds and leaves nothing
behind. ``eval`` checks the schema's task and feature columns against the
checkpoint before it reads the CSV, then scores every row once: one
``vargp.predict`` call gives the predictive mean and variance of all rows,
and both ``metrics.json`` and ``predictions.csv`` are derived from those arrays.
``predictions.csv`` is written with one ``%``-format call per row: the index
as ``%d`` and every value as ``%.10g``, which gives the same bytes as
``format(x, ".10g")``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads():
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")


def _resolve_data_path(path: str) -> Path:
    p = Path(path)
    if p.is_absolute():
        return p
    root = os.environ.get("SPHGP_DATA_DIR")
    if root and (Path(root) / p).exists():
        return Path(root) / p
    return p


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    from . import checkpoint as CP
    from . import data_io as D
    from . import kernels as K
    from . import vargp as V
    from .config import config_hash, load_config, serialize_config

    cfg = load_config(args.config)
    if args.seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    schema = D.load_schema(_resolve_data_path(cfg.schema))
    spectrum = K.config_spectrum(cfg, len(schema.features) + 1)
    model = V.build_inducing_model(spectrum, phase_limit=cfg.phase_limit, seed=cfg.seed)
    dataset = D.load_csv(
        _resolve_data_path(cfg.data_csv), schema, max_bad_fraction=cfg.max_bad_fraction
    )
    train, test = D.split(dataset, cfg.test_fraction, cfg.split_seed)
    sphere_train = D.project_to_sphere(train.standardized_inputs(), cfg.bias)
    sphere_test = D.project_to_sphere(test.standardized_inputs(), cfg.bias)
    if schema.task == "regression":
        likelihood = V.GaussianLikelihood(noise_variance=cfg.noise0)
        y_train = train.standardized_targets()
    else:
        likelihood = V.BernoulliLikelihood(link=cfg.link)
        y_train = train.targets
    fit_cfg = V.FitConfig(
        iterations=cfg.iterations,
        batch_size=min(cfg.batch_size, train.num_rows),
        lr_variational=cfg.lr_variational,
        lr_hyper=cfg.lr_hyper,
        seed=cfg.seed,
        log_every=cfg.log_every,
    )
    out_root = Path(args.out) if args.out else Path(cfg.out_root)
    run_dir = out_root / config_hash(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    result = V.fit(model, sphere_train.coords, y_train, likelihood, fit_cfg)

    scaler_pair = None
    if train.target_scaler is not None:
        scaler_pair = (float(train.target_scaler.mean), float(train.target_scaler.std))
    metrics = V.evaluate(
        result.model, result.state, sphere_test.coords, test.targets, likelihood,
        target_scaler=scaler_pair,
    )
    metrics["n_train"] = train.num_rows
    metrics["n_test"] = test.num_rows
    metrics["dropped_rows"] = dataset.dropped_rows

    effective = serialize_config(cfg)
    (run_dir / "config.cfg").write_text(effective, encoding="utf-8")
    with open(run_dir / "trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,elbo,wallclock_s\n")
        for it, value, wall in result.trace:
            fh.write(f"{it},{value:.17g},{wall:.6f}\n")
    _write_json(run_dir / "metrics.json", metrics)
    CP.save_checkpoint(
        run_dir / "checkpoint.npz",
        CP.Checkpoint(
            model=result.model,
            state=result.state,
            likelihood=likelihood,
            task=schema.task,
            bias=cfg.bias,
            input_scaler=train.input_scaler,
            target_scaler=train.target_scaler,
            config_text=effective,
            config_hash=config_hash(cfg),
            schema_text=D.serialize_schema(schema),
        ),
    )
    print(json.dumps({"run_dir": str(run_dir), **{k: metrics[k] for k in sorted(metrics)}}))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    from . import checkpoint as CP
    from . import data_io as D
    from . import vargp as V

    ckpt = CP.load_checkpoint(args.checkpoint)
    trained = D.parse_schema(ckpt.schema_text)
    schema = D.load_schema(_resolve_data_path(args.schema)) if args.schema else trained
    if (schema.task, schema.features) != (ckpt.task, trained.features):
        raise D.DataError(
            f"data of task {schema.task!r} with features {','.join(schema.features)} projects "
            f"to dimension {len(schema.features) + 1}, but the checkpoint expects "
            f"{ckpt.model.basis.dim}: task {ckpt.task!r} and the features "
            f"{','.join(trained.features)} its input scaler was fitted to"
        )
    dataset = D.load_csv(_resolve_data_path(args.data), schema)
    targets = dataset.targets
    coords = D.project_to_sphere(ckpt.input_scaler.transform(dataset.inputs), ckpt.bias).coords
    del dataset  # predict runs without the raw inputs
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mu, var = V.predict(ckpt.model, ckpt.state, coords)
    if ckpt.task == "regression":
        scaler_pair = (float(ckpt.target_scaler.mean), float(ckpt.target_scaler.std))
        metrics = V.heldout_metrics(
            targets, mu, var, ckpt.likelihood,
            noise_variance=ckpt.state.noise_variance, target_scaler=scaler_pair,
        )
        mu = mu * scaler_pair[1] + scaler_pair[0]
        var = var * scaler_pair[1] ** 2
        columns = ("index", "target", "pred_mean", "pred_var")
        row_format = "%d,%.10g,%.10g,%.10g\n"
        rows = zip(range(targets.size), targets.tolist(), mu.tolist(), var.tolist())
    else:
        metrics = V.heldout_metrics(targets, mu, var, ckpt.likelihood)
        prob = V.class_probability(mu, var, ckpt.likelihood)
        columns = ("index", "target", "prob")
        row_format = "%d,%.10g,%.10g\n"
        rows = zip(range(targets.size), targets.tolist(), prob.tolist())
    _write_json(out_dir / "metrics.json", metrics)
    with open(out_dir / "predictions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % row for row in rows)
    print(json.dumps({k: metrics[k] for k in sorted(metrics)}))
    return 0


# ---------------------------------------------------------------------------
# eigvals
# ---------------------------------------------------------------------------

def cmd_eigvals(args) -> int:
    from . import kernels as K

    specs = [K.canonical_kernel(text) for text in args.kernel]
    for i, spec in enumerate(specs):
        if spec in specs[:i]:
            first = args.kernel[specs.index(spec)]
            raise ValueError(f"--kernel {first!r} and {args.kernel[i]!r} are both {spec}")
    spectra = [
        K.parse_spectrum(spec, args.dim, args.max_frequency, args.quad_order) for spec in specs
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec, spectrum in zip(specs, spectra):
        label = spec.replace(":", "_").replace("=", "").replace(",", "_")
        path = out_dir / f"eigvals_{label}_d{args.dim}.csv"
        K.export_spectrum(spectrum, path)
        written.append(str(path))
    print(json.dumps({"written": written}))
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import kernels as K
    from . import vargp as V
    from .gradcheck import check_gradients, worst_rows

    rng = np.random.default_rng(args.seed)
    dim, lmax = 4, 3
    spectrum = K.poly_decay_spectrum(1.3, dim, lmax, variance=1.1)
    model = V.build_inducing_model(spectrum, phase_limit=2, seed=args.seed)
    likelihood = V.GaussianLikelihood(noise_variance=0.1)
    state = V.init_state(model, likelihood)
    m = model.num_features
    state.mean = 0.3 * rng.standard_normal(m)
    state.L = np.tril(0.1 * rng.standard_normal((m, m)))
    np.fill_diagonal(state.L, np.exp(0.2 * rng.standard_normal(m) - 0.4))
    X = rng.standard_normal((16, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = rng.standard_normal(16)

    rows = check_gradients(
        model, state, X, y, likelihood, n_total=48, corrupt=args.corrupt
    )
    header = f"{'parameter':<18} {'analytic':>14} {'finite_diff':>14} {'rel_err':>10}  status"
    print(header)
    print("-" * len(header))
    for block, row in worst_rows(rows).items():
        status = "ok" if row.ok else "FAIL"
        print(
            f"{row.parameter:<18} {row.analytic:>14.6g} {row.finite_diff:>14.6g} "
            f"{row.rel_err:>10.2e}  {status}"
        )
    failures = [r for r in rows if not r.ok]
    print(f"{len(rows) - len(failures)}/{len(rows)} gradient coordinates passed")
    if failures:
        print(f"first failure: {failures[0].parameter}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphgp",
        description="Sparse GPs with spherical-harmonic inducing features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="output root (default from config)")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--schema", default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_eig = sub.add_parser("eigvals", help="export relative eigenvalue decay CSVs")
    p_eig.add_argument(
        "--kernel", action="append", required=True,
        help="kernel spec <kind>:<param>=<value>[,<field>=<value>...], the parameter required "
        "and the fields the family's, e.g. poly_decay:beta=1.5,lambda0=1.0 | "
        "composed_relu:depth=3 | ntk:depth=2 (repeatable)",
    )
    p_eig.add_argument("--dim", type=int, required=True)
    p_eig.add_argument("--max-frequency", type=int, required=True)
    p_eig.add_argument("--quad-order", type=int, default=0)
    p_eig.add_argument("--out", required=True)
    p_eig.set_defaults(func=cmd_eigvals)

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients on a synthetic problem")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p_gc.set_defaults(func=cmd_gradcheck)

    for p in (p_train, p_eval, p_eig, p_gc):
        p.add_argument(
            "--parallel", action="store_true",
            help="allow threaded numerics; reproducible only to tolerance",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.parallel:
        _pin_threads()
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
