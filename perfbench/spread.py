"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 0-9

Runs ``perfbench/run.py`` once per seed, with ``run_seconds`` from
``BENCHMARK.json`` and tracing off, and prints for each end-to-end metric
the median, the distance between the first and third quartile as a share
of the median, and the metric's bound. A spread should stay below a third
of its bound (``setup_s`` is exempt) before the benchmark is trusted to
tell a change from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure as MS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args(argv)
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    steady = True
    for m in SPEC["end_to_end"]:
        spread = MS.quartile_spread(values[m["name"]])
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<14} median {statistics.median(values[m['name']]):<12.5g} "
              f"spread {spread:.4f}  bound {m['bound']}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
