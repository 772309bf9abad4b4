"""CLI and scenario runner: files, formats, determinism, exit codes."""

import csv
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import FAILING_POINTS_HZ, random_point_hz
from sqzmirror import cli, full, generator, reduced, scenarios
from sqzmirror.dynamics import moment_ode
from sqzmirror.generator import MomentEquations, compile_generator, full_generator
from sqzmirror.params import derive, stack_points
from sqzmirror.cli import main
from sqzmirror.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    parse_config_file,
    run,
    write_manifest,
)
from sqzmirror.errors import ConfigError, SimulationError
from sqzmirror.params import baseline_params


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def column(path, name):
    return np.array(
        [float(row[name]) for row in read_csv(path) if row[name] != ""]
    )


def test_run_fig2c_files_and_grid(tmp_path):
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    en = tmp_path / "fig2c_EN.csv"
    dp = tmp_path / "fig2c_dP2.csv"
    assert en.is_file() and dp.is_file()
    r = column(en, "r")
    assert len(r) == 101
    assert r[0] == 0.0 and r[-1] == pytest.approx(2.5)
    assert np.allclose(np.diff(r), 0.025)
    # entangled region coincides with the squeezing region at T = 0
    e_n = column(en, "E_N")
    dp2 = column(dp, "dP2_minus")
    assert np.array_equal(e_n > 0.0, dp2 < 0.5)


def test_run_fig2a_vacuum_reservoir_curve(tmp_path):
    assert main(["run", "fig2a", "--out", str(tmp_path)]) == 0
    e_n = column(tmp_path / "fig2a_r0.csv", "E_N")
    assert np.all(e_n == 0.0)
    e_n1 = column(tmp_path / "fig2a_r1.csv", "E_N")
    assert e_n1.max() > 0.5


def test_custom_models_agree(tmp_path):
    code = main([
        "run", "custom", "--model", "reduced3", "--model", "reduced_analytic",
        "--model", "reduced10", "--out", str(tmp_path),
    ])
    assert code == 0
    a = column(tmp_path / "custom_reduced3.csv", "E_N")
    b = column(tmp_path / "custom_reduced_analytic.csv", "E_N")
    c = column(tmp_path / "custom_reduced10.csv", "E_N")
    assert np.abs(a - b).max() <= 1e-6
    assert np.abs(a - c).max() <= 1e-8


def test_custom_sweep_full_model(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom",
        models=["full6"],
        sweep=("r", [0.0, 1.0]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    rows = read_csv(tmp_path / "custom_sweep_full6.csv")
    assert len(rows) == 2
    assert float(rows[0]["E_N"]) == 0.0
    assert float(rows[1]["E_N"]) > 0.5


def test_fig2c_and_custom_sweep_print_one_number_per_point(tmp_path):
    """fig2c and a custom reduced3 sweep over its r grid print the same cells."""
    assert main(["run", "fig2c", "--out", str(tmp_path / "fig")]) == 0
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    run(ScenarioConfig(scenario="custom", sweep=("r", r_values.tolist()),
                       output_dir=str(tmp_path / "sweep")))
    en = read_csv(tmp_path / "fig" / "fig2c_EN.csv")
    dp = read_csv(tmp_path / "fig" / "fig2c_dP2.csv")
    sweep = read_csv(tmp_path / "sweep" / "custom_sweep_reduced3.csv")
    assert len(sweep) == len(en) == len(dp) == 101
    for e, d, s in zip(en, dp, sweep):
        assert (s["r"], s["E_N"], s["dP2_minus"]) == (e["r"], e["E_N"], d["dP2_minus"])


def test_trajectory_columns_and_monotone_time(tmp_path):
    assert main(["run", "custom", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "custom_reduced3.csv")
    assert list(rows[0]) == [
        "t_s", "E_N", "dP2_minus", "dQ2_minus", "theta", "n_phonon_1", "n_phonon_2",
    ]
    t = column(tmp_path / "custom_reduced3.csv", "t_s")
    assert np.all(np.diff(t) > 0)
    for name in rows[0]:
        vals = column(tmp_path / "custom_reduced3.csv", name)
        assert np.all(np.isfinite(vals))


def family_gap_bound(grid, m, V, drift_gap=0.0):
    """How far an r family's curve may sit from the same curve run alone.

    Both sum the same products in another order (K drive columns against
    one): a state depends on about 2 log2(stride) ladder and composition
    levels, 2 log2(n_samples) scan levels and a few RK4 operator products,
    each a sum of m products, so it may move by m * levels * eps * max|V|.
    A family that integrates with its first member's drift where the curve
    compiled its own moves, to first order, by up to t_end * drift_gap *
    max|V| more (drift_gap the infinity norm of the difference of the vech
    operators, for a flow that does not grow). Never below one ulp.
    """
    levels = (2 * grid.sample_stride.bit_length()
              + 2 * (grid.n_steps // grid.sample_stride).bit_length() + 4)
    eps = np.finfo(float).eps
    return max(m * levels * eps + (grid.t1 - grid.t0) * drift_gap, eps) * np.abs(V).max()


def vech_drift(drift):
    zero = np.zeros_like(drift)
    return moment_ode(MomentEquations(drift, zero, zero, 0.0)).drift


def test_figure_families_equal_their_one_curve_runs():
    """Each fig2a and figS1 curve, integrated as an r family, is its model's
    one-curve run within family_gap_bound, and the CSV rows are the family's
    columns, bit for bit."""
    fig2a = ScenarioConfig(scenario="fig2a")
    p = scenarios._params(fig2a)
    grid = scenarios.trajectory_grid(p, scenarios.default_t_end(p, 10.0), 800)
    r = (0.0, 0.5, 1.0, 2.0)
    family = reduced.evolve_r(p, r, grid)
    for (name, _, rows), x, traj in zip(scenarios._scenario_fig2a(fig2a), r, family):
        one = reduced.evolve(p.with_(r=x), grid)
        assert np.array_equal(traj.times, one.times)
        gap = np.abs(traj.covariances - one.covariances).max()
        assert gap <= family_gap_bound(grid, 3, one.covariances), name
        o = traj.observables
        columns = np.stack((traj.times, o.E_N, o.dP2_minus, o.dQ2_minus, o.theta, *o.phonon),
                           axis=1)
        assert np.array_equal(rows.view(np.int64), columns.view(np.int64))

    p = baseline_params(temperature_k=2.5e-3, gamma_m_hz=1.5e-3 * 6.2e6)
    grid = scenarios.trajectory_grid(p, scenarios.default_t_end(p, 5.0), 800)
    r = (0.0, 1.0, 2.0)
    members = compile_generator(full_generator(derive(stack_points([p.with_(r=x) for x in r]))))
    families = zip(r, full.evolve_full_r(p, r, grid), reduced.evolve_r(p, r, grid))
    for x, traj_f, traj_r in families:
        own = compile_generator(full_generator(derive(stack_points([p.with_(r=x)])))).drift[0]
        drift_gap = np.abs(vech_drift(own - members.drift[0])).sum(axis=1).max()
        one = full.evolve_full(p.with_(r=x), grid)
        gap = np.abs(traj_f.covariances - one.covariances).max()
        assert gap <= family_gap_bound(grid, 21, one.covariances, drift_gap)
        one = reduced.evolve(p.with_(r=x), grid)
        gap = np.abs(traj_r.covariances - one.covariances).max()
        assert gap <= family_gap_bound(grid, 3, one.covariances)


def test_figure_families_are_one_build(tmp_path, builds):
    run(ScenarioConfig(scenario="fig2a", output_dir=str(tmp_path)))
    assert builds["build_system"] == 1
    builds.clear()
    run(ScenarioConfig(scenario="figS1", output_dir=str(tmp_path)))
    # reduced3's build compiles its injections once, full6's points once
    assert (builds["build_system"], builds["compile"]) == (1, 2)


def error_of(f, *args):
    with pytest.raises(SimulationError) as err:
        f(*args)
    return type(err.value), str(err.value), getattr(err.value, "last_valid_time", None)


def test_failing_family_raises_its_first_curves_own_error(tmp_path):
    """Blue-detuned fig2a diverges at every r, on this grid at a sample of
    its own, the largest r first. The figure raises what its first curve
    (r = 0) raises alone, not the family's first divergence."""
    cfg = ScenarioConfig(scenario="fig2a", params_hz={"delta_hz": -32.1e6},
                         t_end_s=2.5e-6, n_samples=50, output_dir=str(tmp_path))
    p = scenarios._params(cfg)
    grid = scenarios.trajectory_grid(p, cfg.t_end_s, cfg.n_samples)
    alone = error_of(reduced.evolve, p.with_(r=0.0), grid)
    assert error_of(run, cfg) == alone
    assert error_of(reduced.evolve_r, p, (0.0, 0.5, 1.0, 2.0), grid) != alone


@pytest.mark.parametrize("bad", [-1.0, 1e3, np.nan])
def test_family_with_a_bad_r_raises_that_curves_error(tmp_path, bad):
    """A bad r fails its own curves of both models with the error PhysicalParams
    raises for it, in figure order after the good curves before it."""
    cfg = ScenarioConfig(scenario="figS1", output_dir=str(tmp_path))
    models, r = ("full6", "reduced3"), (0.5, bad, 1.0)
    names = [f"c{k}_{model}" for k in range(len(r)) for model in models]
    err = error_of(scenarios._trajectory_curves, cfg, models, baseline_params(), r, names)
    with pytest.raises(SimulationError) as alone:
        baseline_params(r=bad)
    assert err == (type(alone.value), str(alone.value), None)
    assert err == error_of(scenarios._trajectory_curves, cfg, models[1:], baseline_params(),
                           (bad,), names[:1])


def test_sweep_rows_in_input_order(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom",
        sweep=("r", [1.0, 0.0, 0.5]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    r = column(tmp_path / "custom_sweep_reduced3.csv", "r")
    assert list(r) == [1.0, 0.0, 0.5]


def test_sweep_records_per_point_failure(tmp_path):
    # blue detuning makes the reduced drift non-Hurwitz at this point only
    cfg = ScenarioConfig(
        scenario="custom",
        sweep=("delta_hz", [32.1e6, -32.1e6, 16.05e6]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    rows = read_csv(tmp_path / "custom_sweep_reduced3.csv")
    assert len(rows) == 3
    assert rows[0]["error"] == ""
    assert "StabilityError" in rows[1]["error"]
    assert rows[1]["E_N"] == "nan"
    assert rows[2]["error"] == ""


def test_failing_r_sweep_writes_every_row(tmp_path):
    """A non-Hurwitz drift fails the whole r curve; every point keeps its row."""
    cfg = tmp_path / "blue.cfg"
    cfg.write_text("[scenario]\nname = custom\nmodel = reduced3, reduced10\n\n"
                   "[params]\ndelta_hz = -32.1e6\n\n"
                   "[sweep]\nname = r\nvalues = 0.0, 0.5, 1.0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # the drift's own eigenvalues, so the text differs between the models
    errors = {
        "reduced3": "StabilityError: drift is not Hurwitz: eigenvalue "
                    "1.940865e+07+0.000000e+00j has non-negative real part",
        "reduced10": "StabilityError: drift is not Hurwitz: eigenvalue "
                     "9.704323e+06+2.023930e+08j has non-negative real part",
    }
    for model, error in errors.items():
        rows = read_csv(tmp_path / "out" / f"custom_sweep_{model}.csv")
        assert [float(row["r"]) for row in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            assert row["error"] == error
            assert [row[c] for c in ("E_N", "dP2_minus", "dQ2_minus", "theta")] == [
                "nan"] * 4


def test_negative_r_fails_its_own_row(tmp_path):
    """One build per r curve still refuses r < 0 point by point, with the
    text PhysicalParams gives; the other points keep their values."""
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("[scenario]\nname = custom\n"
                   "model = reduced3, reduced10, reduced_analytic, full6\n\n"
                   "[sweep]\nname = r\nvalues = -0.5, 0.0, 0.5\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for model in ("reduced3", "reduced10", "reduced_analytic", "full6"):
        rows = read_csv(tmp_path / "out" / f"custom_sweep_{model}.csv")
        assert [row["error"] for row in rows] == [
            "ParameterError: gamma_m; power; temperature; r must be >= 0", "", ""]
        assert rows[0]["E_N"] == "nan"
        assert all(np.isfinite(float(row["dP2_minus"])) for row in rows[1:])


def test_overflowing_r_fails_its_own_row(tmp_path, recwarn):
    """An r whose N = sinh^2 r overflows is refused in its own row, with no
    numpy warning; the other row is the one a sweep over it alone prints."""
    for name, values in (("both", "0.5, 400.0"), ("alone", "0.5")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("[scenario]\nname = custom\nmodel = reduced3, full6\n\n"
                       f"[sweep]\nname = r\nvalues = {values}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
    for model in ("reduced3", "full6"):
        both, alone = (
            (tmp_path / name / f"custom_sweep_{model}.csv").read_text().splitlines()
            for name in ("both", "alone"))
        assert both[:2] == alone
        assert both[2] == ("4.000000000000e+02,nan,nan,nan,nan,"
                           "ParameterError: r = 400.0 overflows N = sinh^2 r")
    assert not recwarn.list


def test_large_r_fails_as_lost_precision_in_every_model(tmp_path):
    """Steady covariance entries grow as e^{2r}/4; from r = 12 they round
    coarser than PHYSICALITY_TOL. Every model then refuses the row with the
    same PhysicalityError and keeps finite values up to r = 10."""
    cfg = tmp_path / "large_r.cfg"
    cfg.write_text("[scenario]\nname = custom\n"
                   "model = reduced3, reduced10, reduced_analytic, full6\n\n"
                   "[sweep]\nname = r\nvalues = 3, 5, 8, 10, 12, 15\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    cells = ("E_N", "dP2_minus", "dQ2_minus", "theta")
    dp2 = {}
    for model in ("reduced3", "reduced10", "reduced_analytic", "full6"):
        rows = read_csv(tmp_path / "out" / f"custom_sweep_{model}.csv")
        assert [row["error"] for row in rows[:4]] == [""] * 4, model
        assert all(np.isfinite(float(row[c])) for row in rows[:4] for c in cells)
        dp2[model] = [float(row["dP2_minus"]) for row in rows[:4]]
        for row in rows[4:]:
            assert row["error"].startswith(
                "PhysicalityError: covariance entries up to "), (model, row["r"])
            assert row["error"].endswith(
                "precision lost beyond the physicality tolerance 1e-06")
            assert [row[c] for c in cells] == ["nan"] * 4
    assert np.allclose(dp2["reduced3"], dp2["reduced10"], rtol=1e-9)
    assert dp2["reduced3"] == dp2["reduced_analytic"]


def test_r_sweep_criterion_failure_fails_its_own_row(tmp_path, monkeypatch):
    """A criterion cross-check that fails at one r fails that row only.

    The failure is injected where the covariance of r = 0.5 is evaluated,
    in a stack or alone."""
    criterion = reduced.criterion
    V_half = reduced.steady_state(baseline_params().with_(r=0.5))[0]

    def failing_at_half(V, nbar0):
        if (V == V_half).all(axis=(-2, -1)).any():
            raise SimulationError("criterion/log-negativity disagreement")
        return criterion(V, nbar0)

    monkeypatch.setattr(reduced, "criterion", failing_at_half)
    run(ScenarioConfig(scenario="custom", models=["reduced3"],
                       sweep=("r", [0.0, 0.5, 1.0]), output_dir=str(tmp_path)))
    rows = read_csv(tmp_path / "custom_sweep_reduced3.csv")
    assert [row["error"] for row in rows] == [
        "", "SimulationError: criterion/log-negativity disagreement", ""]
    assert [row["E_N"] == "nan" for row in rows] == [False, True, False]


def test_r_sweep_row_fails_with_its_single_call_text(tmp_path, monkeypatch):
    """A row that fails inside a stack gets the text its covariance raises
    alone, not the stack's "at entry k" text. A negative band makes
    criterion refuse the unentangled r = 0 only."""
    monkeypatch.setattr(reduced, "CRITERION_BAND", -0.05)
    with pytest.raises(SimulationError) as alone:
        reduced.steady_state(baseline_params(r=0.0))
    assert "at entry" not in str(alone.value)
    run(ScenarioConfig(scenario="custom", models=["reduced3"],
                       sweep=("r", [0.5, 0.0, 1.0]), output_dir=str(tmp_path)))
    rows = read_csv(tmp_path / "custom_sweep_reduced3.csv")
    assert [row["error"] for row in rows] == ["", scenarios._err_text(alone.value), ""]


def test_r_sweep_compiles_once_per_curve(tmp_path, builds):
    """A sweep builds each generator once per curve, along any axis: one
    spec whose members are the curve's distinct points times the three
    reservoir injections, compiled once for every model that reads it
    (reduced3 and reduced10 share reduced_generator's). An r curve has one
    distinct point; a power sweep of three values is one spec of nine
    members per generator."""
    models = ["reduced3", "reduced10", "full6"]
    run(ScenarioConfig(scenario="custom", models=models,
                       sweep=("r", [0.0, 0.5, 1.0, 1.5, 2.0]),
                       output_dir=str(tmp_path / "r")))
    assert builds == {"model": 2, "compile": 2, "members": 6}
    builds.clear()
    run(ScenarioConfig(scenario="custom", models=["reduced10", "full6"],
                       sweep=("power_w", [1e-6, 2e-6, 3e-6]),
                       output_dir=str(tmp_path / "power")))
    assert builds == {"model": 2, "compile": 2, "members": 18}


def test_fig2d_is_one_build(tmp_path, builds):
    """fig2d's 101 temperatures are the members of one reduced_generator
    spec: one model call and one compile of 101 x 3 members."""
    run(ScenarioConfig(scenario="fig2d", output_dir=str(tmp_path)))
    assert builds == {"model": 1, "compile": 1, "members": 303}


def test_fig3a_is_one_build(tmp_path, builds):
    """fig3a's three power curves are one build of their three points, and
    write what three one-curve _steady_reports write, byte for byte."""
    cfg = ScenarioConfig(scenario="fig3a", output_dir=str(tmp_path / "fig"))
    run(cfg)
    assert builds == {"model": 1, "compile": 1, "members": 9}
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    for p_uw in (0.01, 0.1, 2.0):
        name = f"fig3a_dP2_P{p_uw:g}uW.csv"
        (rep,) = scenarios._steady_reports(cfg, "r", r_values, [{"power_w": p_uw * 1e-6}])
        scenarios.write_csv(tmp_path / name, ("r", "dP2_minus"),
                            list(zip(r_values, rep.dP2_minus.tolist())))
        assert (tmp_path / "fig" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("delta_hz", [-32.1e6, -1e5])
def test_failing_fig3a_raises_its_first_failing_curves_error(tmp_path, delta_hz):
    """Blue-detuned by 32.1 MHz every power fails its build, each with its
    own eigenvalue, and fig3a raises the first curve's; by 0.1 MHz only the
    2 uW curve fails, and fig3a raises that."""
    cfg = ScenarioConfig(scenario="fig3a", params_hz={"delta_hz": delta_hz},
                         output_dir=str(tmp_path))
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    errors = []
    for p_uw in (0.01, 0.1, 2.0):
        try:
            scenarios._steady_reports(cfg, "r", r_values, [{"power_w": p_uw * 1e-6}])
        except SimulationError as exc:
            errors.append((type(exc), str(exc), None))
    assert len(set(errors)) == (3 if delta_hz == -32.1e6 else 1)
    assert error_of(run, cfg) == errors[0]


def test_delta_sweep_is_one_build_per_model(tmp_path, builds):
    """Points that differ in the detuning share one build too: delta is
    per member, down to each member's sideband frequency. The four models
    read two compiles, one per generator."""
    models = ["reduced3", "reduced10", "reduced_analytic", "full6"]
    run(ScenarioConfig(scenario="custom", models=models,
                       sweep=("delta_hz", [25e6, 32.1e6, 40e6]),
                       output_dir=str(tmp_path)))
    assert builds == {"model": 2, "compile": 2, "members": 18}
    for model in models:
        rows = read_csv(tmp_path / f"custom_sweep_{model}.csv")
        assert [row["error"] for row in rows] == ["", "", ""], model


def test_sweep_near_zero_temperature_writes_every_row(tmp_path):
    """Temperatures of a few uK put hbar w / kB T beyond the float range of
    exp: the occupation is 0 there, with no overflow warning, and every
    model writes every row."""
    models = ["reduced3", "reduced10", "reduced_analytic", "full6"]
    run(ScenarioConfig(scenario="custom", models=models,
                       sweep=("temperature_k", [0.0, 1e-6, 1e-3]),
                       output_dir=str(tmp_path)))
    for model in models:
        rows = read_csv(tmp_path / f"custom_sweep_{model}.csv")
        assert [row["error"] for row in rows] == ["", "", ""], model
        assert rows[0]["E_N"] == rows[1]["E_N"] != rows[2]["E_N"], model


# per axis: values whose rows hold numbers, failing values with the start of
# their error text, and values left unchecked (r = 12, 15 and 355.5 lose
# precision; at 355.5, N = sinh^2 r is still finite)
STACK_CASES = {
    "r": ([0.0, 0.5, 1.3], {-0.5: "ParameterError", 400.0: "ParameterError"},
          [12.0, 15.0, 355.5]),
    "power_w": ([1e-8, 5e-7, 3e-6], {-1e-6: "ParameterError"}, []),
    "delta_hz": ([32.1e6, 25e6], {-32.1e6: "StabilityError"}, []),
    "temperature_k": ([0.0, 1e-3, 4e-3], {-1e-3: "ParameterError"}, []),
}


# an r sweep's id is its phase alone, any other axis's "axis-phase"
@pytest.mark.parametrize("axis, phase", [
    pytest.param(axis, phase, id=phase if axis == "r" else f"{axis}-{phase}")
    for axis in STACK_CASES for phase in ("+1", "-1", "average")])
def test_r_sweep_rows_equal_one_value_sweeps(tmp_path, rng, axis, phase):
    """Each line of a stacked sweep, of every model and along every axis,
    equals the line of a sweep over its value alone, in a random order of
    good and failing values: r < 0, r = 12 and 15 (lost precision), r = 400
    (N overflows), a negative power or temperature and a blue detuning
    (non-Hurwitz drift)."""
    good, failing, unchecked = STACK_CASES[axis]
    values = rng.permutation([*good, *failing, *unchecked]).tolist()
    models = ["reduced3", "reduced10", "reduced_analytic", "full6"]
    params_hz = random_point_hz(rng)

    def sweep(out, vals):
        run(ScenarioConfig(scenario="custom", models=models, phase=phase,
                           params_hz=params_hz, sweep=(axis, vals),
                           output_dir=str(tmp_path / out)))
        return {m: (tmp_path / out / f"custom_sweep_{m}.csv").read_text().splitlines()
                for m in models}

    stacked = sweep("all", values)
    for k, val in enumerate(values):
        alone = sweep(f"v{k}", [val])
        for model in models:
            assert stacked[model][0] == alone[model][0]
            assert stacked[model][k + 1] == alone[model][1], (model, val)
    for model in models:
        errors = dict(zip(values, (line.split(",")[-1] for line in stacked[model][1:])))
        assert [errors[v] for v in good] == [""] * len(good), model
        for val, start in failing.items():
            assert errors[val].startswith(start), (model, val)


def counted_compiles(monkeypatch):
    """Counts of compile_injections calls, by generator, from the modules
    that make them."""
    counts = Counter()
    compile_injections = generator.compile_injections

    def counting(model, coeffs):
        counts[model.__name__] += 1
        return compile_injections(model, coeffs)

    for module in (reduced, full):
        monkeypatch.setattr(module, "compile_injections", counting)
    return counts


@pytest.mark.parametrize("axis, base", [
    pytest.param(axis, base, id=f"{axis}-{base}")
    for axis in STACK_CASES for base in ("red", "blue")])
def test_sweep_of_every_model_writes_each_models_csv(tmp_path, monkeypatch, rng, axis, base):
    """A custom sweep of all four models writes, for each model, the CSV a
    run of that model alone writes: values, error texts and their order.
    Good and failing values are mixed, FAILING_POINTS_HZ's among them where
    they lie on the axis, and the blue-detuned base (FAILING_POINTS_HZ[0])
    fails every build it is not swept away from. Each run compiles each
    generator it reads once: reduced_generator for reduced3,
    reduced_analytic and reduced10, full_generator for full6."""
    good, failing, unchecked = STACK_CASES[axis]
    failing = {*failing, *(bad[axis] for bad in FAILING_POINTS_HZ if axis in bad)}
    values = rng.permutation([*good, *failing, *unchecked]).tolist()
    params_hz = {**random_point_hz(rng), **(FAILING_POINTS_HZ[0] if base == "blue" else {})}
    compiles = counted_compiles(monkeypatch)

    def sweep(models):
        compiles.clear()
        out = tmp_path / "-".join(models)
        run(ScenarioConfig(scenario="custom", models=models, params_hz=params_hz,
                           sweep=(axis, values), output_dir=str(out)))
        return {m: (out / f"custom_sweep_{m}.csv").read_bytes() for m in models}, compiles

    together, counts = sweep(list(scenarios.MODELS))
    assert counts == {"reduced_generator": 1, "full_generator": 1}
    for model in scenarios.MODELS:
        alone, counts = sweep([model])
        assert alone[model] == together[model], model
        assert counts == {"full_generator" if model == "full6" else "reduced_generator": 1}


def test_fig3b_searches_in_lockstep(tmp_path, monkeypatch):
    """fig3b's 25 optimum searches share their reads, not one per power: 8
    Brent evaluations (the first point and 7 steps) of frame_variances over
    the powers still searching and 3 fixed-point steps of rotation_angle
    over the powers not yet converged. One criterion call then checks every
    covariance they read, and the 25 optima."""
    calls = {"criterion": [], "frame_variances": [], "rotation_angle": []}

    def counting(name):
        fn = getattr(reduced, name)

        def wrapper(V, *args):
            calls[name].append(len(V))
            return fn(V, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reduced, name, counting(name))
    run(ScenarioConfig(scenario="fig3b", output_dir=str(tmp_path)))
    assert len(calls["frame_variances"]) == 8
    assert calls["frame_variances"][0] == 25
    assert len(calls["rotation_angle"]) == 3 and calls["rotation_angle"][0] == 25
    read = sum(calls["frame_variances"]) + sum(calls["rotation_angle"])
    assert calls["criterion"] == [read + 25]


def test_r_sweep_is_one_observables_call_per_curve(tmp_path, monkeypatch):
    """A custom r sweep, or power sweep, with no failing row reads its
    observables from one stacked call per model, in total: reduced3's rows
    take the observables its criterion check read (observables_and_nu_minus,
    which also gives the criterion's uncertainty-bound check)."""
    calls = []

    def counting(observables):
        def wrapper(V):
            calls.append(np.shape(V))
            return observables(V)
        return wrapper

    for module in (scenarios, reduced):
        for name in ("quadrature_observables", "observables_and_nu_minus"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    run(ScenarioConfig(scenario="custom", models=["reduced3", "reduced10", "full6"],
                       sweep=("r", [0.0, 0.5, 1.0, 1.5, 2.0]),
                       output_dir=str(tmp_path / "r")))
    assert calls == [(5, 4, 4)] * 3
    calls.clear()
    run(ScenarioConfig(scenario="custom", models=["reduced3", "reduced10", "full6"],
                       sweep=("power_w", [1e-8, 1e-7, 5e-7, 1e-6, 3e-6]),
                       output_dir=str(tmp_path / "power")))
    assert calls == [(5, 4, 4)] * 3


def test_empty_sweep_rejected(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom", sweep=("r", []), output_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError):
        run(cfg)


def test_unknown_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "nosuch", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_set_key_exit_code(tmp_path):
    assert main(["run", "fig2c", "--set", "bogus=1", "--out", str(tmp_path)]) == 2


def test_second_main_sees_no_list_of_the_first(tmp_path, monkeypatch):
    """The argument parser is built once per process: a second main without
    --set or --model runs with neither list of the first call."""
    configs = []
    monkeypatch.setattr(cli, "run", lambda cfg: configs.append(cfg) or [])
    assert main(["run", "custom", "--set", "power_w=2e-6", "--model", "full6",
                 "--out", str(tmp_path)]) == 0
    assert main(["run", "custom", "--out", str(tmp_path)]) == 0
    assert main(["run", "custom", "--model", "reduced10", "--out", str(tmp_path)]) == 0
    assert [(cfg.params_hz, cfg.models) for cfg in configs] == [
        ({"power_w": 2e-6}, ["full6"]), ({}, []), ({}, ["reduced10"])]


def test_non_numeric_set_value_exit_code(tmp_path):
    assert main(["run", "fig2c", "--set", "r=abc", "--out", str(tmp_path)]) == 2


BAD_INPUTS = [
    # (config file text, or None to run fig4a; --set overrides; field named)
    (None, ["n_samples=nan"], "n_samples"),
    (None, ["n_samples=2.7"], "n_samples"),
    (None, ["t_end_s=-1"], "scenario.t_end_s"),
    (None, ["t_end_s=nan"], "scenario.t_end_s"),
    (None, ["power_w=inf"], "params.power_w"),
    (None, ["r=nan"], "params.r"),
    (None, ["power_w=-1"], "power"),
    (None, ["omega_c_hz=1"], "params"),
    ("[scenario]\nname = custom\nn_sample = 5\n", [], "scenario.n_sample"),
    ("[scenario]\nname = custom\njobs = 1\n", [], "scenario.jobs"),
    ("[scenario]\nname = custom\nn_samples = 2.7\n", [], "scenario.n_samples"),
    ("[scenario]\nname = custom\nt_end_s = 0\n", [], "scenario.t_end_s"),
    ("[params]\nr = nan\n", [], "params.r"),
    ("[params]\nr = 1%\n", [], "params.r"),
    ("[params]\ngamma_m_hz = 0\n", [], "scenario.t_end_s"),
    ("[sweep]\nname = r\nvalus = 0.5\n", [], "sweep.valus"),
    ("[scenario]\nname = custom\n\n[outptu]\n", [], "[outptu]"),
    ("[scenario]\nname = fig4a\n\n[sweep]\nname = r\nvalues = 0.5\n", [], "sweep"),
    ("[scenario]\nname = fig4a\nmodel = full6\n", [], "scenario.model"),
    # trajectory grids whose step count is not finite or overflows int64 indices
    ("[scenario]\nname = fig2a\n", ["t_end_s=1e300"], "scenario.t_end_s"),
    ("[scenario]\nname = fig2a\n", ["gamma_m_hz=1e-300"], "scenario.t_end_s"),
    ("[scenario]\nname = fig2a\n", ["t_end_s=1e12"], "scenario.t_end_s"),
    ("[scenario]\nname = fig2a\n", ["n_samples=1e30"], "scenario.t_end_s"),
]


@pytest.mark.parametrize(
    "cfg_text, overrides, field", BAD_INPUTS,
    ids=[o[0] if o else t.strip().split("\n")[-1] for t, o, _ in BAD_INPUTS],
)
def test_bad_input_is_config_error_naming_field(
    tmp_path, capsys, cfg_text, overrides, field
):
    target = "fig4a"
    if cfg_text is not None:
        target = tmp_path / "bad.cfg"
        target.write_text(cfg_text)
    argv = ["run", str(target), "--out", str(tmp_path / "out")]
    for pair in overrides:
        argv += ["--set", pair]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "out").exists()


def test_jobs_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig2c", "--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_shipped_configs_parse_and_equal_their_manifests(tmp_path):
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    figures = [p for p in paths if p.stem in SCENARIOS]
    assert len(paths) == 11 and len(figures) == 10
    for path in paths:
        parse_config_file(path).validate()
    for path in figures:
        manifest = tmp_path / path.name
        write_manifest(ScenarioConfig(scenario=path.stem), manifest)
        assert manifest.read_bytes() == path.read_bytes(), path.name


def test_unknown_model_exit_code(tmp_path):
    assert main(["run", "custom", "--model", "nosuch", "--out", str(tmp_path)]) == 2


def test_instability_exit_code(tmp_path, capsys):
    code = main([
        "run", "custom", "--set", "delta_hz=-32.1e6", "--out", str(tmp_path),
    ])
    assert code == 3
    assert "instability" in capsys.readouterr().err


def test_reruns_byte_identical(tmp_path):
    names = ("fig2c_EN.csv", "fig2c_dP2.csv", "fig2c_manifest.cfg")
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    for n in names:
        assert (tmp_path / n).read_bytes() == first[n]


def test_manifest_replay_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([
        "run", "fig2c", "--set", "r=0.7", "--set", "power_w=2e-6",
        "--out", str(out1),
    ]) == 0
    manifest = out1 / "fig2c_manifest.cfg"
    assert manifest.is_file()
    cfg = parse_config_file(manifest)
    assert cfg.params_hz["power_w"] == 2e-6
    assert main(["run", str(manifest), "--out", str(out2)]) == 0
    for name in ("fig2c_EN.csv", "fig2c_dP2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_with_percent_replays_byte_identical(tmp_path):
    """A "%" in a value is an ordinary character: a manifest whose output
    directory holds one replays to the same bytes, manifest included."""
    out = tmp_path / "a%b"
    assert main(["run", "fig2c", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert f"dir = {out}\n" in first["fig2c_manifest.cfg"].decode()
    assert main(["run", str(out / "fig2c_manifest.cfg")]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_manifest_with_non_ascii_dir_replays_byte_identical(tmp_path):
    """A manifest is written as UTF-8, as config files are read: a run into
    a directory named with a non-ASCII character writes its manifest (it
    exited 4 with a 0-byte manifest when manifests were ASCII), and the
    manifest replays to the same bytes, manifest included."""
    out = tmp_path / "out\u00fc"
    assert main(["run", "fig2c", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert f"dir = {out}\n".encode() in first["fig2c_manifest.cfg"]
    assert main(["run", str(out / "fig2c_manifest.cfg")]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_undecodable_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[scenario]\nname = fig2c\n# \xff\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "not UTF-8" in err and str(bad) in err
    assert not (tmp_path / "out").exists()


def test_out_is_the_one_output_setting(tmp_path, monkeypatch):
    """--out, else the config file's [output] dir, is where a run writes and
    what its manifest records; no environment variable moves it (an
    SQZ_OUTPUT_DIR once did, and the manifest then named a directory the run
    had not written)."""
    monkeypatch.setenv("SQZ_OUTPUT_DIR", str(tmp_path / "env_dir"))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"[scenario]\nname = fig2c\n\n[output]\ndir = {tmp_path / 'cfg_dir'}\n")
    for argv, out in ((["--out", str(tmp_path / "cli_dir")], "cli_dir"), ([], "cfg_dir")):
        assert main(["run", str(cfg_file), *argv]) == 0
        manifest = (tmp_path / out / "fig2c_manifest.cfg").read_text()
        assert f"dir = {tmp_path / out}\n" in manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg_dir", "cli_dir", "run.cfg"]


def test_config_file_validation_names_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = fig2c\n\n[params]\nbogus_hz = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(bad)
    assert "params.bogus_hz" in str(err.value)


def test_config_file_run_validates_once(tmp_path, monkeypatch):
    """parse_config_file checks the structure; run validates, once."""
    calls = []
    validate = ScenarioConfig.validate
    monkeypatch.setattr(ScenarioConfig, "validate",
                        lambda cfg: calls.append(cfg) or validate(cfg))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[scenario]\nname = fig2c\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_config_file_is_validated_after_overrides(tmp_path):
    """A config value that fails validation is replaced by --set before it is
    validated: the effective config runs."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[scenario]\nname = fig2c\nn_samples = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--set", "n_samples=50", "--out", str(out)]) == 0
    assert "n_samples = 50\n" in (out / "fig2c_manifest.cfg").read_text()
    assert main(["run", str(cfg_file), "--out", str(out)]) == 2


def test_config_file_full_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[scenario]\nname = custom\nmodel = reduced3\nphase = -1\n"
        "n_samples = 50\nt_end_s = 2e-6\n\n"
        "[params]\nr = 0.3\n\n"
        "[sweep]\nname = temperature_k\nvalues = 0.0, 1e-3, 2e-3\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    cfg = parse_config_file(cfg_file)
    assert cfg.phase == "-1"
    assert cfg.sweep == ("temperature_k", [0.0, 1e-3, 2e-3])
    run(cfg)
    t_k = column(tmp_path / "out" / "custom_sweep_reduced3.csv", "temperature_k")
    assert list(t_k) == [0.0, 1e-3, 2e-3]


def test_csv_bytes_with_an_error_row(tmp_path):
    """Numbers as %.12e (numpy and Python floats, ints, -0.0, nan); the
    error column's text as it is."""
    path = tmp_path / "curve.csv"
    scenarios.write_csv(path, ("r", "E_N", "error"), [
        (np.float64(0.025), 1 / 3, ""),
        (2, -0.0, ""),
        (-0.5, np.nan, "ParameterError: gamma_m; power; temperature; r must be >= 0"),
    ])
    assert path.read_bytes() == (
        b"r,E_N,error\n"
        b"2.500000000000e-02,3.333333333333e-01,\n"
        b"2.000000000000e+00,-0.000000000000e+00,\n"
        b"-5.000000000000e-01,nan,"
        b"ParameterError: gamma_m; power; temperature; r must be >= 0\n"
    )


def test_csv_float_format_precision(tmp_path):
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig2c_EN.csv") as f:
        f.readline()
        first = f.readline().strip().split(",")
    # scientific notation with >= 10 significant digits
    for cell in first:
        mantissa = cell.split("e")[0]
        assert "e" in cell
        assert len(mantissa.replace("-", "").replace(".", "")) >= 10
