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
fig2d, compare_adiabatics over fig4a's and fig4b's 25 points (in a tree
without it, one compare_adiabatic per point, as fig4 ran there), the
layers of steady_full's and build_system's one-point chains over fig4a's
points ("chain ...": derive, the model builder, compile_generator,
require_shared_drift and the tail, each from the inputs the layer before
made), the two chains' calls over the same points, and for each chain a
glue line, its calls' time minus the sum of its layers' times (what
running the layers one after another costs over timing each in a loop),
scenarios._sweep_points at fig4a's 25 gamma_m_hz values and fig2d's 101
temperatures (one checked PhysicalParams per value), the rows of a custom
r sweep of reduced3 and reduced10 at 51 values of r (in a tree without
scenarios._sweep_rows, one _model_rows per model), optimal_squeezings
over fig3b's 25 powers, the one-curve trajectory builds full.evolve_full
at figS2's point and reduced.evolve_full10 at the custom scenario's (each
on its scenario's grid), the custom scenario's reduced10 and
reduced_analytic curves together (scenarios._trajectory_curves, as a
custom run with those two models makes them), scenarios._scenario_fig2b as
a whole, the RK4 doubling ladder of fig2a's grid (dynamics._span_powers
of its step, at the spans of its samples), the observables of
fig2a's trajectory family (lifted covariances (4, 802, 4, 4)):
quadrature_observables of all of it, observables_and_nu_minus of 1, 25
and 303 of its matrices, and frame_variances of 50 as (25, 2), and
write_csv of fig2a's four curves, of one of them (802 x 7) and of a 25-row
sweep curve with an error column (into a temporary directory). With --against,
each round runs this script once per tree, one subprocess at a time,
alternating which tree goes first; it prints
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

    from sqzmirror import dynamics, full, gaussian, generator, params, reduced, scenarios

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
    fig4b = [params.baseline_params(gamma_m_hz=kappa_hz, power_w=P)
             for P in np.geomspace(0.1e-6, 32e-6, 25)]
    compare_adiabatics = getattr(full, "compare_adiabatics", lambda points, phase: [
        full.compare_adiabatic(p, phase) for p in points])
    table.append(("compare_adiabatics, 25 fig4a points",
                  lambda: compare_adiabatics(fig4a, 1.0)))
    table.append(("compare_adiabatics, 25 fig4b points",
                  lambda: compare_adiabatics(fig4b, 1.0)))
    table += chain_split(fig4a)
    fig4a_cfg, fig2d_cfg = (scenarios.ScenarioConfig(scenario=f) for f in ("fig4a", "fig2d"))
    gamma_m_hz = [x * kappa_hz for x in np.geomspace(1.5e-5, 1.0, 25)]
    temperatures = np.linspace(0.0, 5e-3, 101)
    table.append(("_sweep_points, fig4a's 25 gamma_m_hz",
                  lambda: scenarios._sweep_points(fig4a_cfg, "gamma_m_hz", gamma_m_hz)))
    table.append(("_sweep_points, fig2d's 101 temperatures",
                  lambda: scenarios._sweep_points(fig2d_cfg, "temperature_k", temperatures)))
    cfg = scenarios.ScenarioConfig(scenario="custom",
                                   params_hz={"gamma_m_hz": 6.2e4, "temperature_k": 1e-3})
    r_values = np.linspace(0.0, 2.5, 51)
    sweep_rows = getattr(scenarios, "_sweep_rows", lambda models, points, values, phase: {
        model: scenarios._model_rows(model, points, values, phase) for model in models})
    table.append(("r sweep rows, reduced3 + reduced10 x 51",
                  lambda: sweep_rows(["reduced3", "reduced10"],
                                     scenarios._sweep_points(cfg, "r", r_values), r_values, 1.0)))
    fig3b = [params.baseline_params(power_w=P) for P in np.geomspace(0.01e-6, 4e-6, 25)]
    table.append(("optimal_squeezings, 25 fig3b powers",
                  lambda: reduced.optimal_squeezings(fig3b, 1.0)))
    return table + trajectory_stages() + observable_stages() + csv_stages()


def trajectory_stages() -> list[tuple[str, object]]:
    """The one-curve trajectory builds that compile their model: full.evolve_full
    at figS2's point and reduced.evolve_full10 at the custom scenario's, each
    on its scenario's grid; the custom scenario's reduced10 and
    reduced_analytic curves as one run makes them; fig2b whole; and the RK4
    ladder of fig2a's grid."""
    import numpy as np

    from sqzmirror import dynamics, full, params, reduced, scenarios

    figS2 = params.baseline_params(temperature_k=2.5e-3,
                                   gamma_m_hz=1.5e-3 * params.BASELINE_HZ["kappa_hz"])
    custom = params.baseline_params()
    figS2_grid, custom_grid = (scenarios.trajectory_grid(p, scenarios.default_t_end(p, x), 800)
                               for p, x in ((figS2, 5.0), (custom, 10.0)))
    custom_cfg = scenarios.ScenarioConfig(scenario="custom")
    models = ("reduced10", "reduced_analytic")
    fig2b_cfg = scenarios.ScenarioConfig(scenario="fig2b")
    # fig2a's family: its step's affine map, and the spans between its samples
    N, M = params.reservoir_correlations(np.array([0.0, 0.5, 1.0, 2.0]))
    step = dynamics._rk4_step_span(reduced.build_system(custom).ode(N, M), custom_grid.h)
    spans = np.diff(custom_grid.sample_indices())
    return [("evolve_full, figS2's point", lambda: full.evolve_full(figS2, figS2_grid)),
            ("evolve_full10, a custom point",
             lambda: reduced.evolve_full10(custom, custom_grid)),
            ("custom reduced10 + reduced_analytic",
             lambda: scenarios._trajectory_curves(custom_cfg, models, custom, [custom.r],
                                                  [f"custom_{m}" for m in models])),
            ("_scenario_fig2b", lambda: scenarios._scenario_fig2b(fig2b_cfg)),
            ("_span_powers, fig2a's grid",
             lambda: dynamics._span_powers(step, int(spans[0]), int(spans[-1])))]


def csv_stages() -> list[tuple[str, object]]:
    """scenarios.write_csv of fig2a's four curves (802 x 7 each), as the tree
    makes them, of one of them, and of a 25-row sweep curve whose 13th row
    holds an error."""
    import tempfile
    from pathlib import Path

    import numpy as np

    from sqzmirror import scenarios

    out = tempfile.TemporaryDirectory()
    curves = scenarios._scenario_fig2a(scenarios.ScenarioConfig(scenario="fig2a"))
    header = ("power_w", "E_N", "dP2_minus", "dQ2_minus", "theta", "error")
    rows = [(p, 0.1 * k, 0.4 + k / 7, 2.5 + k / 3, -0.01 * k, "")
            for k, p in enumerate(np.geomspace(0.01e-6, 4e-6, 25).tolist())]
    rows[12] = (rows[12][0], *[np.nan] * 4, "StabilityError: drift not Hurwitz; max Re 1.2e3")

    def fig2a(out=out):  # each stage holds the directory until it is gone
        for name, columns, curve in curves:
            scenarios.write_csv(Path(out.name, f"{name}.csv"), columns, curve)

    def one(out=out):
        name, columns, curve = curves[1]
        scenarios.write_csv(Path(out.name, f"{name}.csv"), columns, curve)

    def sweep(out=out):
        scenarios.write_csv(Path(out.name, "sweep.csv"), header, rows)

    return [("write_csv, fig2a's 4 curves of 802 rows", fig2a),
            ("write_csv, one 802 x 7 curve", one),
            ("write_csv, 25-row sweep with an error", sweep)]


def observable_stages() -> list[tuple[str, object]]:
    """The gaussian observables of fig2a's trajectory family: all of it, and
    evenly spaced matrices of it."""
    import numpy as np

    from sqzmirror import gaussian, params, reduced, scenarios

    point = params.baseline_params()
    grid = scenarios.trajectory_grid(point, scenarios.default_t_end(point, 10.0), 800)
    family = np.array([t.covariances for t in reduced.evolve_r(point, (0.0, 0.5, 1.0, 2.0), grid)])
    flat = family.reshape(-1, 4, 4)

    def spaced(n):
        return flat[np.linspace(0, len(flat) - 1, n).astype(int)]

    table = [(f"quadrature_observables, {family.shape[0]}x{family.shape[1]}",
              lambda: gaussian.quadrature_observables(family)),
             ("observables_and_nu_minus, 1 matrix",
              lambda V=flat[len(flat) // 2]: gaussian.observables_and_nu_minus(V))]
    for n in (25, 303):
        table.append((f"observables_and_nu_minus, {n} matrices",
                      lambda V=spaced(n): gaussian.observables_and_nu_minus(V)))
    table.append(("frame_variances, 25x2 matrices",
                  lambda V=spaced(50).reshape(25, 2, 4, 4): gaussian.frame_variances(V)))
    return table


def chain_split(points) -> list[tuple[str, object]]:
    """The layers of steady_full's and build_system's one-point chains, each
    over every point of points, from the inputs the layer before made:
    derive of a one-point stack, the model builder at the three reservoir
    injections, compile_generator, require_shared_drift, and the tail
    (reservoir_parts and reservoir_steady, or project_system and point 0);
    and the chains' calls themselves over the same points."""
    from dataclasses import replace

    import numpy as np

    from sqzmirror import dynamics, full, generator, params, reduced

    N, M = np.array(generator.RESERVOIR_INJECTIONS).T.reshape(2, 3, 1)
    coeffs = [params.derive(params.stack_points([p])) for p in points]
    injected = [replace(c, N=N, M=M) for c in coeffs]
    table = [("chain derive, 25 fig4a points",
              lambda: [params.derive(params.stack_points([p])) for p in points])]
    for name, model in (("full6", generator.full_generator),
                        ("reduced3", generator.reduced_generator)):
        specs = [model(c) for c in injected]
        eqs = [generator.compile_generator(spec) for spec in specs]
        if name == "full6":
            def tail(eqs=eqs):
                for c, e in zip(coeffs, eqs):
                    parts = dynamics.reservoir_parts(e)
                    dynamics.reservoir_steady([x[0] for x in parts], c.N[0], c.M[0], 1.0)
        else:
            def tail(eqs=eqs):
                for c, e in zip(coeffs, eqs):
                    reduced.project_system(c, e).point(0)
        call = full.steady_full if name == "full6" else reduced.build_system
        table += [
            (f"chain {name} calls", lambda call=call: [call(p) for p in points]),
            (f"chain {name} builder", lambda model=model: [model(c) for c in injected]),
            (f"chain {name} compile",
             lambda specs=specs: [generator.compile_generator(spec) for spec in specs]),
            (f"chain {name} shared-drift check",
             lambda eqs=eqs: [generator.require_shared_drift(e.drift) for e in eqs]),
            (f"chain {name} tail", tail),
        ]
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
    rows = {name: [best[name] * 1e6, faults[name] / rounds] for name in best}
    for chain in ("full6", "reduced3"):  # each chain's calls less chain_split's layers
        layers = [rows["chain derive, 25 fig4a points"]] + [
            rows[f"chain {chain} {x}"] for x in ("builder", "compile", "shared-drift check", "tail")]
        rows[f"chain {chain} glue (calls - layers)"] = [
            rows[f"chain {chain} calls"][i] - sum(x[i] for x in layers) for i in (0, 1)]
    return rows


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
