"""The one command.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from the seed, drives public entry points of
``src/repro``, prints every metric by name with its unit, verifies the
outputs, writes ``bench/out/<workload>.json`` (``--trace 1``:
``<workload>.trace.json`` plus the spans in ``trace_<workload>.jsonl``)
and prints the result object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, from
a run with no tracing at all; ``--trace 1`` is a separate run that
reports the per-layer metrics.  The driver wants every per-layer metric
in the last line of every traced run, so the layers a workload never
enters read 0 *there*; the printed list and the output file hold only
what was measured, and the file names the rest under ``not_measured``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

# One BLAS thread per process, set before numpy loads.  Harness plus two
# workers on two cores with OpenBLAS's default pool (a spinning thread
# per core in every process) oversubscribes the box: the gateway then
# falls into a ~100 ms stall mode on up to half its requests and no
# latency figure repeats.  One thread per serving process is also the
# deployment shape for N replicas a box.
for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOADS = ("serve_direct", "serve_swap", "gateway", "train")


def _measure(workload: str, seed: int, seconds: float) -> dict:
    from bench import gateway, serve, train

    if workload == "serve_direct":
        return serve.run_direct(seed, seconds)
    if workload == "serve_swap":
        return serve.run_swap(seed, seconds, OUT)
    if workload == "gateway":
        return gateway.run(seed, seconds)
    return train.run(seed, seconds)


def _trace(workload: str, seed: int, seconds: float) -> dict:
    from bench import gateway, report, serve, train
    from bench.trace import SpanRecorder

    recorder = SpanRecorder()
    if workload == "serve_direct":
        result = serve.trace_direct(seed, seconds, recorder)
        result["problems"] += report.waterfall_problems(result["metrics"])
        result["correct"] = not result["problems"]
        print(report.waterfall(result["metrics"]))
    elif workload == "serve_swap":
        result = serve.trace_swap(seed, seconds, OUT, recorder)
    elif workload == "gateway":
        result = gateway.trace(seed, seconds, recorder)
        print(report.hop_peel(result["metrics"]))
    else:
        result = train.trace(seed, seconds, recorder)
    result["extras"]["spans"] = recorder.flush(OUT / f"trace_{workload}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)

    if args.trace:
        result = _trace(args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
        metrics = {m["name"]: (0.0, m["unit"]) for m in declared}
        metrics.update(result["metrics"])
    else:
        result = _measure(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
        metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(emitted.items()) ^ set(expected.items()))}"
        )

    measured = set(result["metrics"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        if name in measured:
            print(f"  {name:<34}{value:14.4f} {unit}")
    print(f"  ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}")
    for key, value in result["extras"].items():
        print(f"  {key}: {value}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")

    def as_json(names) -> dict:
        return {name: {"value": float(metrics[name][0]),
                       "unit": metrics[name][1]} for name in names}

    verdict = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
    }
    suffix = ".trace.json" if args.trace else ".json"
    (OUT / f"{args.workload}{suffix}").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **verdict,
        "metrics": as_json(result["metrics"]),
        "not_measured": sorted(set(metrics) - measured),
        "problems": result["problems"], "extras": result["extras"],
    }, indent=2) + "\n")
    print(json.dumps({**verdict, "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
