"""End-to-end and per-layer benchmark of the ``sphgp`` command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the repository holding this file.
Each workload is a closed loop with one client: one ``sphgp`` command in
flight at a time, each in a fresh single-threaded child process
(``perfbench/child.py``) that calls ``sphgp.cli.main``. Inputs come from
``--seed`` and are built before timing starts.

``--trace 0`` times untraced commands for ``--seconds`` and reports the
end-to-end metrics listed in ``BENCHMARK.json``. ``--trace 1`` alternates
untraced and traced commands and reports the per-layer metrics, including
the tracing overhead. Both run the correctness gate (see README.md). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the run
environment and every command, goes to
``.bench_build/perfbench/results/``. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import measure as MS  # noqa: E402
import workloads as WL  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))

MIN_COMMANDS = 2  # whole commands per --trace 0 run
MIN_SETUPS = 5  # set-up samples per run; set-up-only children make up the rest
RUN_LIMIT_S = 150.0  # no command starts after this much of a run has passed
DGEMM_REPEATS = 3
REQUIRED = ("src/sphgp/cli.py", "configs/synthetic_regression.cfg", "data/synthetic_small.csv")


class GateError(Exception):
    """A command's outputs failed a correctness check."""


def _finite_json(path: Path) -> dict:
    values = json.loads(path.read_text(encoding="utf-8"))
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise GateError(f"{path.name}: non-finite {bad}")
    return values


class Run:
    """One workload at one seed: inputs, commands, gate and measurements."""

    def __init__(self, workload, seed: int, seconds: float, started: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = started + RUN_LIMIT_S
        self.workdir = BUILD / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.commands = []  # one dict per child process
        self.problems = []
        self.shape = None
        self.env = dict(os.environ, SPHGP_DATA_DIR=str(ROOT), **THREAD_ENV)

    # -- child processes --------------------------------------------------

    def launch(self, mode: str, cli_args: list) -> dict:
        k = len(self.commands)
        record = self.workdir / f"record{k}.json"
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(record), "--", *cli_args],
            cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline + 10 - spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        end = time.monotonic()
        cmd = {
            "mode": mode, "args": cli_args, "spawn": spawn, "end": end,
            "exit_code": proc.returncode, "stderr": err.strip()[-2000:],
            "record": json.loads(record.read_text()) if record.exists() else {},
        }
        self.commands.append(cmd)
        if cmd["record"].get("shape"):
            self.shape = cmd["record"]["shape"]
        if proc.returncode != 0:
            raise GateError(f"{' '.join(cli_args[:1])} exited {proc.returncode}: {cmd['stderr']}")
        return cmd

    def checked(self, fn, *args):
        """Run ``fn``; a failed check is recorded and returns ``None``.

        Missing or malformed output files after a zero exit code count as
        failed checks too.
        """
        try:
            return fn(*args)
        except (GateError, OSError, StopIteration, ValueError, KeyError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None

    # -- the workload's commands ------------------------------------------

    def train(self, mode: str) -> dict:
        out = self.workdir / f"out{len(self.commands)}"
        cmd = self.launch(mode, ["train", "--config", str(self.inputs.config), "--out", str(out)])
        if mode == "setup":
            return cmd
        run_dir = next(out.iterdir())
        cmd["metrics_text"] = (run_dir / "metrics.json").read_text(encoding="utf-8")
        metrics = _finite_json(run_dir / "metrics.json")
        self._check_quality(metrics)
        rows = [line.split(",") for line in (run_dir / "trace.csv").read_text().splitlines()[1:]]
        elbos = [float(r[1]) for r in rows]
        walls = [float(r[2]) for r in rows]
        if not all(map(math.isfinite, elbos)):
            raise GateError("trace.csv: non-finite training ELBO")
        cmd["elbo_text"] = [r[1] for r in rows]
        cmd["iter_s"] = MS.iteration_times(walls)
        cmd["checkpoint_bytes"] = (run_dir / "checkpoint.npz").stat().st_size
        reached = MS.time_to_target(elbos, walls, self.w.elbo_target, WL.ELBO_WINDOW)
        if reached is None:
            raise GateError(
                f"training ELBO never reached {self.w.elbo_target:g} "
                f"(last {elbos[-1]:.6g} after {len(elbos)} iterations)"
            )
        cmd["iters_to_elbo"], cmd["time_to_elbo_s"] = reached
        return cmd

    def eval(self, mode: str) -> dict:
        out = self.workdir / f"out{len(self.commands)}"
        cmd = self.launch(mode, [
            "eval", "--checkpoint", str(self.checkpoint), "--data",
            str(self.inputs.eval_csv), "--out", str(out),
        ])
        if mode == "setup":
            return cmd
        cmd["metrics_text"] = (out / "metrics.json").read_text(encoding="utf-8")
        self._check_quality(_finite_json(out / "metrics.json"))
        self._check_predictions(out / "predictions.csv")
        cmd["checkpoint_bytes"] = self.checkpoint.stat().st_size
        return cmd

    def _check_quality(self, metrics: dict):
        value = metrics[self.w.quality]
        lo, hi = self.w.band
        if not lo <= value <= hi:
            raise GateError(f"held-out {self.w.quality} {value:.6g} outside [{lo}, {hi}]")

    def _check_predictions(self, path: Path):
        import numpy as np

        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if table.shape[0] != self.w.eval_rows:
            raise GateError(
                f"predictions.csv has {table.shape[0]} rows for {self.w.eval_rows} inputs"
            )
        if not np.all(np.isfinite(table)):
            raise GateError("predictions.csv: non-finite values")
        if "prob" in header:
            p = table[:, header.index("prob")]
            if np.any((p < 0) | (p > 1)):
                raise GateError("predictions.csv: probability outside [0, 1]")
        if "pred_var" in header and np.any(table[:, header.index("pred_var")] < 0):
            raise GateError("predictions.csv: negative predictive variance")

    # -- the run ----------------------------------------------------------

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = WL.prepare(self.w, self.seed, self.workdir)
        self.command = self.train if self.w.command == "train" else self.eval
        self.launch("plain", ["gradcheck", "--seed", str(self.seed)])
        if self.w.command == "eval":
            out = self.workdir / "model"
            self.launch("plain", ["train", "--config", str(self.inputs.config), "--out", str(out)])
            self.checkpoint = next(out.iterdir()) / "checkpoint.npz"

    def loop(self, body, minimum: int):
        """Call ``body`` until --seconds are spent, and at least ``minimum`` times."""
        start = time.monotonic()
        took = []
        while len(took) < minimum or (
            time.monotonic() - start + statistics.median(took) <= self.seconds
        ):
            if time.monotonic() > self.deadline:
                self.problems.append("run time limit reached")
                break
            t0 = time.monotonic()
            if self.checked(body) is None:
                break
            took.append(time.monotonic() - t0)

    def measure_end_to_end(self):
        self.loop(lambda: self.command("plain"), MIN_COMMANDS)
        self._top_up_setups()

    def measure_layers(self):
        def pair():
            plain = self.command("plain")
            traced = self.command("traced")
            if traced["metrics_text"] != plain["metrics_text"] or (
                traced.get("elbo_text") != plain.get("elbo_text")
            ):
                raise GateError("traced command's outputs differ from the untraced one's")
            return traced

        self.loop(pair, 1)

    def _top_up_setups(self):
        while (
            not self.problems and len(self.setups()) < MIN_SETUPS
            and time.monotonic() < self.deadline
        ):
            if self.checked(self.command, "setup") is None:
                break

    def timed(self, mode):
        return [c for c in self.commands if c["mode"] == mode and "metrics_text" in c]

    def setups(self):
        key = "fit_enter" if self.w.command == "train" else "predict_enter"
        return [
            c["record"][key] - c["spawn"]
            for c in self.commands
            if c["mode"] in ("plain", "setup") and key in c["record"]
            and c["args"][0] == self.w.command
        ]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    cmds = run.timed("plain")
    n = run.shape["N"]
    if run.w.command == "train":
        rows_per_s = n / statistics.median(s for c in cmds for s in c["iter_s"])
    else:
        rows_per_s = statistics.median(
            n / (c["end"] - c["record"]["predict_enter"]) for c in cmds
        )
    return {
        "setup_s": statistics.median(run.setups()),
        "wall_s": statistics.median(c["end"] - c["spawn"] for c in cmds),
        "rows_per_s": rows_per_s,
        "peak_rss_mb": statistics.median(c["record"]["peak_rss_kb"] / 1024 for c in cmds),
    }


def training_summary(run: Run) -> dict:
    """Per-iteration and time-to-ELBO figures of the untraced train commands."""
    cmds = run.timed("plain")
    if run.w.command != "train":
        return {}
    samples = [s for c in cmds for s in c["iter_s"]]
    tail = MS.tail_percentile(samples)
    return {
        "train_iter_s": statistics.median(samples),
        "train_iter_s_tail": tail[1] if tail else None,
        "train_iter_tail_pct": tail[0] if tail else None,
        "train_iter_samples": len(samples),
        "time_to_elbo_s": statistics.median(c["time_to_elbo_s"] for c in cmds),
        "iters_to_elbo": statistics.median(c["iters_to_elbo"] for c in cmds),
    }


def layers_of(cmd: dict) -> dict:
    """Per-layer figures of one traced command."""
    rec = cmd["record"]
    spans = rec["spans"]
    own = MS.self_times(spans)

    def pick(name, under=None):
        return [
            i for i, s in enumerate(spans)
            if s["name"] == name and (under is None or MS.has_ancestor(spans, i, under))
        ]

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in pick(name))

    def self_total(name):
        return sum(own[i] for i in pick(name))

    recurrence = pick("backend.gegenbauer_last", ("harmonics.features", "vargp.elbo_gradients"))
    iterations = len(cmd.get("iter_s", ()))
    return {
        "data_io.load_csv_s": total("data_io.load_csv"),
        "harmonics.build_basis_s": total("harmonics.build_basis"),
        "harmonics.features_s": self_total("harmonics.features"),
        "harmonics.features_calls": len(pick("harmonics.features")),
        "backend.gegenbauer_last_s": sum(
            spans[i]["end"] - spans[i]["start"] for i in recurrence
        ),
        "backend.gegenbauer_last_calls": len(recurrence),
        "vargp.elbo_gradients_s": self_total("vargp.elbo_gradients"),
        "vargp.phase_gradients_s": rec.get("phase_gradients_s", 0.0),
        "vargp.fit_self_s_per_iter": self_total("vargp.fit") / iterations if iterations else 0.0,
        "vargp.iters_to_elbo": cmd.get("iters_to_elbo", 0),
        "vargp.predict_s": total("vargp.predict"),
        "vargp.predict_calls": len(pick("vargp.predict")),
        "vargp.predict_peak_mb": rec["predict_peak_bytes"] / 2**20,
        "vargp.evaluate_s": total("vargp.evaluate"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes": cmd["checkpoint_bytes"],
        "cli.self_s": MS.cli_self(rec["main_exit"] - cmd["spawn"], spans),
    }


def per_layer(run: Run, gflops: float) -> dict:
    traced = [layers_of(c) for c in run.timed("traced")]
    out = {k: statistics.median(t[k] for t in traced) for k in traced[0]}

    def command_wall(mode):
        return statistics.median(c["record"]["main_exit"] - c["spawn"] for c in run.timed(mode))

    train = training_summary(run)
    out.update({
        "vargp.fit_iter_s": train.get("train_iter_s", 0.0),
        "vargp.time_to_elbo_s": train.get("time_to_elbo_s", 0.0),
        "bench.dgemm_gflops": gflops,
        "bench.trace_overhead_s": command_wall("traced") - command_wall("plain"),
    })
    return out


def dgemm_gflops(shape) -> float:
    """Single-thread dgemm rate at the workload's (N, M, M), median of repeats."""
    import numpy as np

    n, m = shape["N"], shape["M"]
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, m)), rng.standard_normal((m, m))
    times = []
    for _ in range(DGEMM_REPEATS):
        start = time.monotonic()
        a @ b
        times.append(time.monotonic() - start)
    return 2.0 * n * m * m / statistics.median(times) / 1e9


def environment(seed: int, shape, gflops) -> dict:
    import numpy as np
    from sphgp import backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": backend.active_backend(),
        "commit": commit,
        "seed": seed,
        "bench.dgemm_gflops": gflops,
        "shape": shape,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    run = Run(workload, seed, seconds, started)
    metrics, gflops = {}, None
    try:
        run.checked(run.prepare)
        if not run.problems:
            (run.measure_layers if trace else run.measure_end_to_end)()
        if not run.problems:
            gflops = dgemm_gflops(run.shape)
            metrics = per_layer(run, gflops) if trace else end_to_end(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    plain = run.timed("plain")
    result = {
        "workload": workload.name,
        "correct": not run.problems,
        "attempted": max(1, len(run.commands)),
        "failed": len(run.problems),
        "problems": run.problems,
        "metrics": metrics,
        "training": training_summary(run) if plain and not run.problems else {},
        "quality": json.loads(plain[0]["metrics_text"]) if plain else None,
        "environment": environment(seed, run.shape, gflops),
        "commands": [
            {k: v for k, v in c.items() if k != "record"}
            | {"record": {k: v for k, v in c["record"].items() if k != "spans"}}
            for c in run.commands
        ],
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}_seed{seed}_trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if trace and run.timed("traced"):
        (results / f"{stem}_spans.json").write_text(
            json.dumps(run.timed("traced")[-1]["record"]["spans"]), encoding="utf-8"
        )
    return result


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_table(results: list, trace: bool):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    extra = [] if trace else ["train_iter_s", "train_iter_s_tail", "time_to_elbo_s"]
    cols = [f"{n} [{u}]" for n, u in units.items()] + [f"{n} [s]" for n in extra]
    rows = []
    for r in results:
        row = [_fmt(r["metrics"].get(n)) for n in units]
        row += [_fmt(r["training"].get(n)) for n in extra]
        rows.append((r["workload"], row))
    if trace:  # many metrics: one line per metric, one column per workload
        print(f"{'metric':<34}" + "".join(f"{w:>14}" for w, _ in rows))
        for i, col in enumerate(cols):
            print(f"{col:<34}" + "".join(f"{row[i]:>14}" for _, row in rows))
    else:
        widths = [max(len(c), 10) for c in cols]
        print(f"{'workload':<12}" + " ".join(f"{c:>{w}}" for c, w in zip(cols, widths)))
        for name, row in rows:
            print(f"{name:<12}" + " ".join(f"{v:>{w}}" for v, w in zip(row, widths)))
    for r in results:
        t = r["training"]
        if t.get("train_iter_tail_pct") is not None:
            print(f"{r['workload']}: tail is p{t['train_iter_tail_pct']:g} "
                  f"of {t['train_iter_samples']} iteration samples")
        elif t:
            print(f"{r['workload']}: {t['train_iter_samples']} iteration samples, "
                  "too few for a tail percentile")
        for problem in r["problems"]:
            print(f"{r['workload']}: FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WL.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing: {missing}", file=sys.stderr)
        return 2
    names = list(WL.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(WL.WORKLOADS[n], args.seed, args.seconds, bool(args.trace), time.monotonic())
        for n in names
    ]
    print_table(results, bool(args.trace))
    for r in results:
        print(json.dumps({"workload": r["workload"], "environment": r["environment"]}))
    correct = all(r["correct"] for r in results)
    metrics = {}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, unit in units.items():
            if name in r["metrics"]:
                metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
