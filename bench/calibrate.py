"""Calibration: N complete runs per workload -> median, quartiles, spread.

    python3 bench/calibrate.py [--runs 10] [--first-seed 1] [--workload W ...]

Each run is a fresh process with its own seed, exactly as the driver
runs the benchmark.  The table it prints is the one in ``README.md``;
the bounds in ``BENCHMARK.json`` are read off it (a spread is
``(Q3 - Q1) / median`` by ``statistics.quantiles(values, n=4)``).  Every
run's figures are kept in ``bench/out/calibration.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    import numpy

    print(f"machine: nproc={os.cpu_count()}, Python "
          f"{platform.python_version()}, numpy {numpy.__version__}; "
          f"{args.runs} runs of {spec['run_seconds']} s per workload, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    every_run = {}
    for workload in args.workload or names:
        runs = every_run[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            runs.append(result["metrics"])
        for name, bound in bounds.items():
            stats = quartile_spread([run[name]["value"] for run in runs])
            print(f"| {workload} | {name} | {runs[0][name]['unit']} "
                  f"| {stats['median']:.4g} | {stats['q1']:.4g} "
                  f"| {stats['q3']:.4g} | {stats['spread']:.3f} "
                  f"| {bound} |", flush=True)
    (ROOT / "bench" / "out" / "calibration.json").write_text(
        json.dumps({"first_seed": args.first_seed, "runs": every_run}) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
