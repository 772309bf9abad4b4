"""Time each stage of the steady-state build chain, one call at a time.

    python tests/stage_times.py                        # this tree's src
    python tests/stage_times.py --against OTHER_TREE   # alternate with OTHER_TREE/src

For every stage it prints the minimum over N calls in microseconds and the
minor page faults per call (resource.getrusage); the stages take turns,
ten calls at a time. The stages are the chain
derive -> model builder -> compile_generator -> reservoir_parts /
steady_parts -> frame_variances at one point, as compare_adiabatic runs
it, compile_generator of 1, 25 and 101 points times the three reservoir
injections (reduced and full), the sizes of a point, a fig4 curve and
fig2d, and compare_adiabatics over fig4a's 25 points (in a tree without
it, one compare_adiabatic per point, as fig4 ran there). With --against, each round runs this script once per tree,
one subprocess at a time, alternating which tree goes first; it prints
each stage's median over the rounds for both trees and their ratio
(this tree / the other). The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def stages() -> list[tuple[str, object]]:
    """(name, zero-argument callable) of every stage, from the sqzmirror on sys.path."""
    from dataclasses import replace

    import numpy as np

    from sqzmirror import dynamics, full, gaussian, generator, params, reduced

    point = params.baseline_params(gamma_m_hz=6.2e4, temperature_k=1e-3)
    one = params.derive(params.stack_points([point]))
    N, M = np.array(generator.RESERVOIR_INJECTIONS).T.reshape(2, 3, 1)

    def injected(n):
        """The injection coefficients of n points along fig2d's temperatures."""
        points = [point.with_(temperature=t) for t in np.linspace(0.0, 5e-3, n)]
        return replace(params.derive(params.stack_points(points)), N=N, M=M)

    reduced_eqs = generator.compile_injections(generator.reduced_generator, one)
    full_eqs = generator.compile_injections(generator.full_generator, one)
    parts = dynamics.reservoir_parts(full_eqs)
    V = full.mirror_block(dynamics.reservoir_steady([x[0] for x in parts], one.N[0],
                                                    one.M[0], 1.0))
    one_injected = injected(1)
    table = [
        ("derive, one point", lambda: params.derive(params.stack_points([point]))),
        ("reduced_generator, one point", lambda: generator.reduced_generator(one_injected)),
        ("full_generator, one point", lambda: generator.full_generator(one_injected)),
    ]
    for n in (1, 25, 101):
        coeffs = injected(n)
        for model in (generator.reduced_generator, generator.full_generator):
            spec = model(coeffs)
            table.append((f"compile_generator {model.__name__[:-10]} {n}x3",
                          lambda spec=spec: generator.compile_generator(spec)))
    table += [
        ("compile_injections reduced, one point",
         lambda: generator.compile_injections(generator.reduced_generator, one)),
        ("compile_injections full, one point",
         lambda: generator.compile_injections(generator.full_generator, one)),
        ("build_system", lambda: reduced.build_system(point)),
        ("steady_full", lambda: full.steady_full(point)),
        ("reservoir_parts reduced, one point", lambda: dynamics.reservoir_parts(reduced_eqs)),
        ("reservoir_parts full, one point", lambda: dynamics.reservoir_parts(full_eqs)),
        ("frame_variances, 2 matrices", lambda: gaussian.frame_variances(np.stack([V, V]))),
        ("compare_adiabatic", lambda: full.compare_adiabatic(point)),
    ]
    kappa_hz = params.BASELINE_HZ["kappa_hz"]
    fig4a = [params.baseline_params(gamma_m_hz=x * kappa_hz)
             for x in np.geomspace(1.5e-5, 1.0, 25)]
    compare_adiabatics = getattr(full, "compare_adiabatics", lambda points, phase: [
        full.compare_adiabatic(p, phase) for p in points])
    table.append(("compare_adiabatics, 25 fig4a points",
                  lambda: compare_adiabatics(fig4a, 1.0)))
    return table


def measure(calls: int) -> dict[str, list[float]]:
    """{stage: [min us per call, minor faults per call]} of this process.

    The stages take turns, ten calls at a time, so that a change in the
    host's speed during the run reaches every stage alike.
    """
    table = stages()
    best = {name: float("inf") for name, _ in table}
    faults = dict.fromkeys(best, 0)
    for _, fn in table:
        fn()  # warm caches and lazy set-up
    for _ in range(max(calls // 10, 1)):
        for name, fn in table:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(10):
                start = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - start)
            faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    rounds = 10 * max(calls // 10, 1)
    return {name: [best[name] * 1e6, faults[name] / rounds] for name in best}


def run_tree(tree: Path, calls: int) -> dict[str, list[float]]:
    """measure() in a fresh interpreter that imports tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    proc = subprocess.run([sys.executable, __file__, "--json", "--calls", str(calls)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another tree, timed in turn")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(measure(args.calls)))
        return 0
    if args.against is None:
        rows = run_tree(ROOT, args.calls)
        print(f"{'stage':40s} {'min us':>10s} {'faults':>8s}")
        for name, (us, faults) in rows.items():
            print(f"{name:40s} {us:10.1f} {faults:8.1f}")
        return 0
    trees = (ROOT, args.against.resolve())
    runs: tuple[list, list] = ([], [])
    for k in range(args.rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(run_tree(trees[side], args.calls))
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr, flush=True)
    print(f"medians of {args.rounds} rounds; this = {trees[0]}, other = {trees[1]}")
    print(f"{'stage':40s} {'this us':>9s} {'other us':>9s} {'ratio':>7s} "
          f"{'this flt':>9s} {'other flt':>9s}")
    for name in runs[0][0]:
        (us, flt), (us_o, flt_o) = ([statistics.median(r[name][i] for r in side)
                                     for i in (0, 1)] for side in runs)
        print(f"{name:40s} {us:9.1f} {us_o:9.1f} {us / us_o:7.3f} {flt:9.1f} {flt_o:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
