"""One benchmark workload in a fresh process: set-up, timed passes, checks.

Started by run.py (BLAS threads pinned to 1, ``PYTHONPATH=src``). A single
caller issues the workload's ``sqzmirror run`` invocations back to back
through ``sqzmirror.cli.main`` (closed loop, one client), repeating whole
passes until ``--seconds`` have elapsed, and checks every output. Right
after each invocation it times the calibration kernel (calibrate.py) and
reports times scaled to the reference machine speed. With ``--trace 1``
traced passes alternate with untraced ones. It prints one JSON object as its
last line.

Set-up is timed in fresh interpreters (this script with ``--setup-only``:
importing sqzmirror, writing the workload's configs and finishing the first
``derive``), started between passes so that their median reflects the
machine's speed over the whole run, and each is followed by the import
calibration (calibrate.import_time). The worker waits for each one.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402

WORK_ROOT = Path(".perfbench_out")
SETUP_PROBES = 9


def setup(workload: str, seed: int, work: Path) -> list[inputs.Invocation]:
    """Import sqzmirror, write the workload's configs, finish the first derive."""
    import sqzmirror
    from sqzmirror.params import baseline_params, derive

    src = (Path.cwd() / "src").resolve()
    if src not in Path(sqzmirror.__file__).resolve().parents:
        raise SystemExit(f"sqzmirror imported from {sqzmirror.__file__}, not {src}")
    shutil.rmtree(work, ignore_errors=True)
    invocations = inputs.build_workload(workload, seed, work)
    derive(baseline_params())
    return invocations


def run_pass(invocations, reference, tally: dict) -> None:
    """Run every invocation once, then check its outputs (checks untimed)."""
    from sqzmirror import cli

    latencies, kernel_times, results = [], [], []
    for inv in invocations:
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(inv.argv))
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        kernel_times.append(calibrate.timed())
        results.append((code, stdout.getvalue()))
    for inv, (code, out) in zip(invocations, results):
        written = [Path(line) for line in out.split("\n") if line]
        check = verify.check_run(inv.label, inv.models, written, reference)
        if code != 0:
            check.problems.append(f"exit {code}")
        tally["attempted"] += 1
        if check.ok:
            tally["rows"] += check.rows
        else:
            tally["failed"] += 1
            tally["problems"].append(f"{inv.label}: {check.problems[0]}")
        if not inv.models:
            tally["ref_max_rel_dev"] = max(tally["ref_max_rel_dev"], check.max_rel_dev)
    tally["latencies"].append(latencies)
    tally["kernel"].append(kernel_times)


def _new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "rows": 0, "ref_max_rel_dev": 0.0,
            "latencies": [], "kernel": [], "problems": []}


def scaled_runs(tally: dict) -> list[float]:
    """Each run's time at reference speed, in workload order.

    On a shared virtual machine the CPU speed can change by up to 2x for
    stretches of seconds to minutes (seen on a 2-vCPU Xeon VM). Each
    invocation is divided by the kernel call made right after it, which sees
    the same stretch, and a run's value is the median of these ratios over
    the passes, times calibrate.REFERENCE_S.
    """
    ratios = [[lat / k for lat, k in zip(lats, ks)]
              for lats, ks in zip(tally["latencies"], tally["kernel"])]
    return [statistics.median(r) * calibrate.REFERENCE_S for r in zip(*ratios)]


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter running this script --setup-only,
    unscaled and at reference speed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    setup_s = json.loads(proc.stdout)["setup_s"]
    return setup_s, setup_s * calibrate.IMPORT_REFERENCE_S / calibrate.import_time()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = WORK_ROOT / (args.workload + ("_setup" if args.setup_only else ""))
    invocations = setup(args.workload, args.seed, work)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = verify.load_reference()
    plain, traced = _new_tally(), _new_tally()
    per_pass, setups = [], []
    probes = 0 if args.trace else SETUP_PROBES
    start = time.perf_counter()
    while not plain["latencies"] or time.perf_counter() - start < args.seconds:
        due = (time.perf_counter() - start) / args.seconds * (probes - 1)
        while len(setups) < min(probes, int(due) + 1):
            setups.append(probe_setup(args.workload, args.seed))
        run_pass(invocations, reference, plain)
        if args.trace:
            # traced and untraced passes alternate, so both see the same machine
            with tracer.Tracer() as trace:
                run_pass(invocations, reference, traced)
            per_pass.append(tracer.layer_metrics(trace.spans))
            leftover = tracer.wrapped_bindings()
            if leftover:
                raise SystemExit(f"tracing wrappers left in place: {leftover}")

    while len(setups) < probes:
        setups.append(probe_setup(args.workload, args.seed))
    runs = scaled_runs(plain)
    passes = len(plain["latencies"])
    kernel_s = statistics.median(k for ks in plain["kernel"] for k in ks)
    if args.trace:
        metrics = tracer.median_metrics(per_pass)
        metrics["scenarios.ref_max_rel_dev"] = max(
            plain["ref_max_rel_dev"], traced["ref_max_rel_dev"])
        metrics["trace.overhead_frac"] = sum(scaled_runs(traced)) / sum(runs) - 1.0
        samples = {"untraced_passes": passes, "traced_passes": len(per_pass),
                   "kernel_s": kernel_s}
    else:
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "pass_s": sum(runs),
            "rows_per_s": plain["rows"] / passes / sum(runs),
            "run_s_p50": statistics.median(runs),
            "run_s_p90": statistics.quantiles(runs, n=10, method="inclusive")[8],
            "ok_frac": 1.0 - plain["failed"] / plain["attempted"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_interpreters": len(setups), "passes": passes,
                   "runs_per_pass": len(invocations), "kernel_s": kernel_s,
                   "unscaled_setup_s": statistics.median(raw for raw, _ in setups),
                   "unscaled_pass_s": sum(statistics.median(t)
                                          for t in zip(*plain["latencies"]))}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    for problem in (plain["problems"] + traced["problems"])[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
