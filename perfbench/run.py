"""sqzmirror benchmark: time-to-figure on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 35 --trace 0

Workloads: trajectories, r_sweeps, param_sweeps (see inputs.py and
baseline.json for why each exists). The launcher pins BLAS thread pools to
one thread and runs the workload in one fresh worker process (worker.py)
that drives ``sqzmirror.cli.main`` back to back, checks every output and
times set-up in further fresh interpreters.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` its per-layer metrics, from traced passes. End-to-end times
are scaled to a reference machine speed by calibrations timed in the same
run (calibrate.py); the line before the metrics gives the kernel's median
time and the unscaled (median) set-up and pass times. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
It exits non-zero, printing no result, when the package source is missing
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

TIME_LIMIT_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("SQZ_OUTPUT_DIR", None)
    return env


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "sqzmirror" / "__init__.py").is_file():
        print("src/sqzmirror not found: run from the repository root", file=sys.stderr)
        return 2
    units = _declared_units(args.trace)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # own session, so a timeout also stops the worker's set-up probes
    with subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"benchmark failed: no result within {TIME_LIMIT_S} s", file=sys.stderr)
            return 1
    try:
        if proc.returncode != 0:
            raise ValueError(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().split("\n")[-1])
    except ValueError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    for name, unit in units.items():
        print(f"  {name:45s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':45s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
