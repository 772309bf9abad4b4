"""Reduced two-mirror model: closure, steady states, criterion, optimum."""

import numpy as np
import pytest

import inputs
from _oracles import optimal_squeezings_loop, partial_transpose
from _periodic import at_phase, at_time
from conftest import FAILING_POINTS_HZ, random_point, random_point_hz
from sqzmirror.dynamics import (
    TimeGrid,
    linear_steady,
    minimize_scalar,
    moment_ode,
    periodic_steady_state,
    require_hurwitz,
    steady_at_phase,
)
from sqzmirror.errors import (
    DegenerateAngleWarning,
    ParameterError,
    PhysicalityError,
    PhysicalityWarning,
    SimulationError,
    StabilityError,
)
from sqzmirror.full import compare_adiabatic, mirror_block, steady_full
from sqzmirror.gaussian import (
    quadrature_observables,
    rotate_local,
    rotation_angle,
    symplectic_eigenvalues,
    symplectic_form,
)
from sqzmirror.generator import compile_generator, full_generator, reduced_generator
from sqzmirror.params import baseline_params, derive, reservoir_correlations
from sqzmirror import gaussian, reduced
from sqzmirror.reduced import (
    ReducedSystem,
    build_system,
    criterion,
    evolve,
    evolve_analytic,
    evolve_full10,
    lift_covariance,
    optimal_squeezing,
    optimal_squeezings,
    squeezing_formula,
    steady_curve,
    steady_points,
    steady_state,
)
from sqzmirror.scenarios import ScenarioConfig, _sweep_points, _sweep_rows

# frozen regressions (phase +1 resolvent steady state at the baseline, r = 1)
BASELINE_EN_STEADY = 1.023152226440142
BASELINE_DP2_STEADY = 0.12105172533272751
# 1/[2(2 nbar + 1)] at nbar(2*pi*32.1 MHz, 2.5 mK)
THRESHOLD_2P5_MK = 0.14935899904440703

SLOW_RATE = 1.97e7  # |Re| of the slowest reduced-drift eigenvalue at baseline


def fine_grid(params, t_end, n_samples=50, resolution=0.004):
    n = int(np.ceil(t_end * 2 * params.omega_m / resolution))
    return TimeGrid(0.0, t_end, n, sample_stride=max(n // n_samples, 1))


def test_build_system_decoupled_mirrors():
    p = baseline_params(eta0_hz=0.0, temperature_k=1e-3)
    s = build_system(p)
    g0, w0 = p.gamma_m, p.omega_m
    expected = np.array(
        [[-2 * g0, 0, 2 * w0], [0, -2 * g0, -2 * w0], [-w0, w0, -2 * g0]]
    )
    assert np.allclose(s.m3, expected, rtol=1e-12, atol=1e-9)
    phi = derive(p).phi
    assert np.allclose(s.b0, [phi, phi, 0.0], rtol=1e-12, atol=1e-12)
    assert np.allclose(s.b1, 0.0, atol=1e-9)
    assert np.allclose(s.b2, 0.0, atol=1e-9)


def test_build_system_drive_decomposition_entries(baseline):
    """b-vectors against the coefficient combinations they must equal."""
    p = baseline
    c = derive(p)
    s = build_system(p)
    zr, zi = c.zeta_minus.real, c.zeta_minus.imag
    zp = c.zeta_plus
    assert s.b0[0] == pytest.approx(c.phi, rel=1e-12)
    assert s.b0[1] == pytest.approx(c.phi + zp.real - c.phi * zr / p.gamma_m, rel=1e-10)
    assert s.b0[2] == pytest.approx(
        (p.gamma_m * zp.imag - c.phi * zi) / (2 * p.gamma_m), rel=1e-10
    )
    assert np.allclose(s.b1, [0.0, 2 * zp.real, zp.imag], rtol=1e-10)
    assert s.b2[1] == pytest.approx(c.zeta_bar_plus, rel=1e-10)
    assert s.b2[2] == pytest.approx(0.5j * c.zeta_bar_minus, rel=1e-10)
    assert s.b2[0] == pytest.approx(0.0, abs=1e-9)


def test_drive_decomposition_matches_direct_form(baseline, rng):
    """b0 + N b1 + M(b2 e^{2i delta t} + c.c.) vs the direct xi(t) evaluation."""
    p = baseline
    c = derive(p)
    s = build_system(p)
    zr, zi = c.zeta_minus.real, c.zeta_minus.imag
    for t in rng.uniform(0.0, 2 * np.pi / p.delta, 20):
        xi = complex(at_phase(c.xi_combined(), np.exp(2j * p.delta * t)))
        direct = np.array(
            [
                c.phi,
                c.phi + 2 * xi.real - c.phi * zr / p.gamma_m,
                xi.imag - c.phi * zi / (2 * p.gamma_m),
            ]
        )
        ode = s.ode(c.N, c.M)
        dec = at_time(ode.drive_static, ode.drive_harmonic, ode.omega, t)
        assert np.abs(dec - direct).max() <= 1e-10 * np.abs(direct).max()


def test_vacuum_reservoir_drive_is_static():
    s = build_system(baseline_params(r=0.0))
    assert reservoir_correlations(0.0) == (0.0, 0.0)
    ode = s.ode(*reservoir_correlations(0.0))
    assert np.allclose(at_time(ode.drive_static, ode.drive_harmonic, ode.omega, 0.0),
                       at_time(ode.drive_static, ode.drive_harmonic, ode.omega, 1.23e-9),
                       rtol=1e-14)


def test_evolve_decoupled_fixed_point():
    p = baseline_params(eta0_hz=0.0, temperature_k=2.5e-3)
    grid = fine_grid(p, 2e-6, n_samples=10, resolution=0.05)
    traj = evolve(p, grid)
    nbar = derive(p).nbar0
    expected = lift_covariance([nbar + 0.5, nbar + 0.5, 0.0], nbar)
    for V in traj.covariances:
        assert np.abs(V - expected).max() < 1e-10
    v3 = np.array([[0.7, 0.6, 0.1], [nbar + 0.5, nbar + 0.5, -0.2]])
    assert np.array_equal(lift_covariance(v3, nbar),
                          [lift_covariance(v, nbar) for v in v3])


def test_evolve_vacuum_reservoir_no_stationary_entanglement():
    """r = 0 stimulates no entanglement beyond a ~20 ns backaction transient.

    On any plot-scale grid (samples spaced >> 1/|zeta|) the E_N column is
    identically zero; the steady state sits above the squeezing threshold.
    """
    p = baseline_params(r=0.0)
    t_end = 10.0 / p.gamma_m
    n = int(np.ceil(t_end * 2 * p.omega_m / 0.05))
    traj = evolve(p, TimeGrid(0.0, t_end, n, sample_stride=n // 200))
    assert np.all(traj.observables.E_N == 0.0)
    _, report = steady_state(p)
    assert report.dP2_minus >= 0.5
    assert report.E_N == 0.0


def test_evolve_baseline_plateau_regression(baseline):
    """E_N rises to the frozen plateau with a residual 2*Delta oscillation."""
    slow_time = 20.0 / SLOW_RATE
    grid = fine_grid(baseline, slow_time, n_samples=60, resolution=0.01)
    traj = evolve(baseline, grid)
    en = traj.observables.E_N
    assert en[0] == 0.0
    late = en[-12:]
    assert late.min() > 0.9  # saturated near the plateau
    _, report = steady_state(baseline, phase=1.0)
    assert report.E_N == pytest.approx(BASELINE_EN_STEADY, rel=1e-9)
    assert report.dP2_minus == pytest.approx(BASELINE_DP2_STEADY, rel=1e-9)
    # oscillation band straddles the phase +1 value
    assert late.max() > report.E_N > 0.95 * late.min()


def test_evolve_full10_symmetry_relations(baseline):
    grid = fine_grid(baseline, 8.0 / SLOW_RATE, n_samples=100, resolution=0.02)
    nbar = derive(baseline).nbar0
    traj = evolve_full10(baseline, grid)
    for V in traj.covariances:
        assert abs(V[0, 0] - V[2, 2]) < 1e-9
        assert abs(V[1, 1] - V[3, 3]) < 1e-9
        assert abs(V[0, 1] - V[2, 3]) < 1e-9
        assert abs(V[0, 3] - V[1, 2]) < 1e-9
        assert abs(V[0, 3] + V[0, 1]) < 1e-9
        assert abs(V[0, 0] + V[0, 2] - (nbar + 0.5)) < 1e-9
        assert abs(V[1, 1] + V[1, 3] - (nbar + 0.5)) < 1e-9


def test_evolve_full10_matches_three_variable_closure(baseline):
    grid = fine_grid(baseline, 8.0 / SLOW_RATE, n_samples=50, resolution=0.02)
    tr3 = evolve(baseline, grid)
    tr10 = evolve_full10(baseline, grid)
    for V3, V10 in zip(tr3.covariances, tr10.covariances):
        assert np.abs(V3 - V10).max() < 1e-8


def test_analytic_solution_matches_rk4(baseline):
    grid = fine_grid(baseline, 10.0 / SLOW_RATE, n_samples=50, resolution=0.004)
    tr_rk = evolve(baseline, grid)
    tr_an = evolve_analytic(baseline, grid)
    assert np.allclose(tr_rk.times, tr_an.times)
    for Va, Vb in zip(tr_rk.covariances, tr_an.covariances):
        assert np.abs(Va - Vb).max() <= 1e-6 * np.abs(Vb).max()


def test_random_draws_agree_across_vector_forms(rng):
    """At random points of the benchmark's figure ranges: the 3-variable
    steady state equals the half-vectorized 10-moment one at every phase,
    both are physical, and the reduced10 and full6 dc covariances satisfy
    their Lyapunov equations."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    for _ in range(20):
        p = baseline_params(
            power_w=log_uniform(*inputs.POWER_W),
            temperature_k=rng.uniform(*inputs.TEMPERATURE_K),
            r=rng.uniform(*inputs.R_RANGE),
            gamma_m_hz=inputs.KAPPA_HZ * log_uniform(*inputs.GAMMA_OVER_KAPPA),
        )
        c = derive(p)
        eqs10 = compile_generator(reduced_generator(c))
        eqs6 = compile_generator(full_generator(c))
        steady10 = periodic_steady_state(eqs10)
        for phase in (1.0, -1.0, "average"):
            V3 = steady_state(p, phase)[0]
            V10 = steady_at_phase(*steady10, phase)
            assert np.abs(V3 - V10).max() <= 1e-9 * np.abs(V10).max()
            assert symplectic_eigenvalues(V10)[0] >= 0.5 - 1e-6
        for eqs in (eqs10, eqs6):
            A, D0 = eqs.drift, eqs.diffusion_static
            V_dc, _ = periodic_steady_state(eqs)
            resid = A @ V_dc + V_dc @ A.T + D0
            assert np.abs(resid).max() <= 1e-10 * np.abs(D0).max()


# c of every derived bound: one eps of backward error for each of the two
# solves a comparison sets against each other; stated once
C_BOUND = 2.0
EPS = np.finfo(float).eps


def solved_at_point(model, p, phase):
    """One model's steady covariance, compiled and solved at this point alone,
    and the bound on how far another solve of the point may lie from it.

    The bound is the first-order perturbation bound of a linear solve
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, ch. 7): c eps kappa ||V||, with ||V|| the largest entry of the
    model's whole covariance and kappa the 2-norm condition number of the
    solved operator (m3, or the vech Lyapunov operator of moment_ode), the
    larger of its static and its 2 delta sideband solve.
    """
    if model == "reduced3":
        system = build_system(p)
        L, w = system.m3, 2.0 * system.delta
        ode = system.ode(*reservoir_correlations(p.r))
        V = lift_covariance(steady_at_phase(*linear_steady(ode), phase), system.nbar0)
    else:
        model_fn = reduced_generator if model == "reduced10" else full_generator
        eqs = compile_generator(model_fn(derive(p)))
        ode = moment_ode(eqs)
        L, w = ode.drift, ode.omega
        V = steady_at_phase(*periodic_steady_state(eqs), phase)
    kappa = max(np.linalg.cond(L), np.linalg.cond(L - 1j * w * np.eye(len(L))))
    bound = C_BOUND * EPS * kappa * np.abs(V).max()
    return (mirror_block(V) if model == "full6" else V), bound


def observable_bounds(V, dV):
    """First-order bounds on how far what quadrature_observables reads from a
    two-mirror covariance V moves when its entries move by at most dV.

    theta = atan2(y, x) with x = V00 - V11, y = 2 V01 moves by
    (|dx| + |dy|) / hypot(x, y) <= 4 dV / hypot(x, y). Each rotated-frame
    variance sums entries of V with weights of absolute sum <= 4, plus its
    theta derivative times that move (u' = sin(theta)/2 (a - b) -
    cos(theta)/2 r, in the terms of gaussian._rotated_variances). E_N =
    -log2(2 nu~) moves by d nu~ / (nu~ ln 2), and by Bauer-Fike the
    eigenvalues +-i nu~ of U V~ move by at most cond(X) ||dV~||_2 <=
    cond(X) 4 dV, X the eigenvectors of U V~.
    """
    x, y = V[0, 0] - V[1, 1], 2.0 * V[0, 1]
    theta = np.arctan2(y, x)
    d_theta = 4.0 * dV / np.hypot(x, y)
    a, b, r = V[::2, ::2], V[1::2, 1::2], V[::2, 1::2] + V[1::2, ::2]
    du = 0.5 * np.sin(theta) * (a - b) - 0.5 * np.cos(theta) * r
    d_var = 4.0 * dV + abs(0.5 * (du[0, 0] + du[1, 1]) - du[0, 1]) * d_theta
    ev, X = np.linalg.eig(symplectic_form(2) @ partial_transpose(V))
    d_e_n = np.linalg.cond(X) * 4.0 * dV / (np.abs(ev).min() * np.log(2.0))
    return {"theta": d_theta, "dP2_minus": d_var, "dQ2_minus": d_var, "E_N": d_e_n}


def assert_within(value, ref, bound, what=None):
    assert np.abs(np.asarray(value) - ref).max() <= bound, what


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_r_curve_equals_per_point_solve(rng, phase):
    """x0 + N x1 + M x2(z) from one build equals a compile and solve per
    point, within the derived bounds of solved_at_point and
    observable_bounds: along an r curve, at the single-point entry points
    (steady_full, steady_state, compare_adiabatic) and in a custom
    power-sweep row."""
    for _ in range(6):
        hz = random_point_hz(rng)
        p = baseline_params(**hz)
        r_values = rng.uniform(*inputs.R_RANGE, size=3)
        refs = {}
        for model in ("reduced3", "reduced10", "full6"):
            V, _, failures = steady_points([model], [p] * len(r_values), r_values,
                                           phase)[model]
            assert failures == {}
            for r, V_r in zip(r_values, V):
                refs[model, r] = solved_at_point(model, p.with_(r=r), phase)
                assert_within(V_r, *refs[model, r], model)
        for r in r_values:
            p_r = p.with_(r=r)
            (ref3, bound3), (ref6, bound6) = refs["reduced3", r], refs["full6", r]
            assert_within(mirror_block(steady_full(p_r, phase)), ref6, bound6)
            assert_within(steady_state(p_r, phase)[0], ref3, bound3)
            comp = compare_adiabatic(p_r, phase)
            assert_within(comp.steady_dp2_full, quadrature_observables(ref6).dP2_minus,
                          observable_bounds(ref6, bound6)["dP2_minus"])
            assert_within(comp.steady_dp2_reduced, quadrature_observables(ref3).dP2_minus,
                          observable_bounds(ref3, bound3)["dP2_minus"])
            cfg = ScenarioConfig(scenario="custom", params_hz={**hz, "r": r})
            for model in ("reduced10", "full6"):
                values = [hz["power_w"]]
                points = _sweep_points(cfg, "power_w", values)
                row = _sweep_rows([model], points, values, phase)[model][0]
                ref, bound = refs[model, r]
                obs, tol = quadrature_observables(ref), observable_bounds(ref, bound)
                assert row[-1] == ""
                for name, value in zip(("E_N", "dP2_minus", "dQ2_minus", "theta"), row[1:-1]):
                    assert_within(value, getattr(obs, name), tol[name], (model, name))


def axis_values(rng, axis, n):
    """n random values of one sweep axis inside the benchmark's ranges (a
    red detuning near the mirror frequency for delta_hz)."""
    if axis == "delta_hz":
        return rng.uniform(25e6, 40e6, size=n).tolist()
    return [random_point_hz(rng)[axis] for _ in range(n)]


@pytest.mark.parametrize("axis", ["power_w", "gamma_m_hz", "temperature_k", "delta_hz"])
def test_stacked_points_equal_one_point_builds(rng, axis):
    """A stack of random points along one axis, with failing points mixed in,
    gives each point what it gives alone: every surviving covariance is
    bit-equal to its one-point steady_points call and within the derived
    bound of a compile and solve at that point alone (solved_at_point), and
    every failing point carries its one-point error. optimal_squeezings over
    the points equals one optimal_squeezing per point, cell for cell."""
    base = random_point_hz(rng)
    points_hz = [{**base, axis: v} for v in axis_values(rng, axis, 5)]
    points_hz += [{**base, **bad} for bad in FAILING_POINTS_HZ]
    points_hz = [points_hz[k] for k in rng.permutation(len(points_hz))]
    builds = []
    for hz in points_hz:
        try:
            builds.append(baseline_params(**hz))
        except SimulationError as exc:
            builds.append(exc)
    r = rng.uniform(*inputs.R_RANGE, size=len(builds))
    phase = [1.0, -1.0, "average"][int(rng.integers(3))]
    for model in ("reduced3", "reduced10", "reduced_analytic", "full6"):
        V, nbar0, failures = steady_points([model], builds, r, phase)[model]
        assert len(failures) == len(FAILING_POINTS_HZ), model
        for k, b in enumerate(builds):
            V_1, nbar0_1, failures_1 = steady_points([model], [b], r[k:k + 1], phase)[model]
            if failures_1:
                assert type(failures[k]) is type(failures_1[0])
                assert str(failures[k]) == str(failures_1[0])
                continue
            assert np.array_equal(V[k], V_1[0]) and nbar0[k] == nbar0_1[0], (model, k)
            ref, bound = solved_at_point(model.replace("_analytic", "3"), b.with_(r=r[k]),
                                         phase)
            assert_within(V[k], ref, bound, (model, k))
    points = [b for b in builds if not isinstance(b, SimulationError)]
    for p, result in zip(points, optimal_squeezings(points, phase)):
        try:
            one = optimal_squeezing(p, phase)
        except SimulationError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert optimum_cells(result) == optimum_cells(one)


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_optimal_squeezing_matches_per_point_objective(rng, phase):
    """The closed-form objective finds the optimum of the per-point one."""
    for _ in range(2):
        p = random_point(rng)
        opt = optimal_squeezing(p, phase)

        def objective(r):
            return quadrature_observables(solved_at_point("reduced3", p.with_(r=r),
                                                          phase)[0]).dP2_minus

        assert abs(minimize_scalar(objective, (0.0, 3.0), tol=1e-4).x
                   - opt.r_numeric) <= 1e-4


def optimum_cells(opt):
    return opt.r_numeric, opt.r_formula, opt.dP2_minus, opt.E_N, opt.formula_note


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_optimal_squeezings_equal_one_point_calls(rng, monkeypatch, phase):
    """The lockstep searches give every point the optimum, or the exact
    error, of its one-point call. Among random points one is blue-detuned
    (it fails at its build); criterion refuses one covariance that a second
    point's search evaluates partway through, and every covariance of a
    third point past the one it evaluates k-th."""
    points = [random_point(rng) for _ in range(6)]
    once, past = (points[k] for k in rng.choice(6, size=2, replace=False))
    points.insert(int(rng.integers(0, 7)), baseline_params(delta_hz=-32.1e6))
    criterion_ = reduced.criterion

    def v11_evaluated(p):
        """V11 of every covariance p's search evaluates, in order."""
        seen = []

        def recording(V, nbar0):
            seen.extend(np.ravel(V[..., 0, 0]).tolist())
            return criterion_(V, nbar0)

        monkeypatch.setattr(reduced, "criterion", recording)
        optimal_squeezing(p, phase)
        return derive(p).nbar0, seen

    (nbar_once, seen_once), (nbar_past, seen_past) = map(v11_evaluated, (once, past))
    v11_once, v11_past = (seen[int(rng.integers(3, len(seen)))] for seen in (seen_once, seen_past))
    # each fails at its first refused covariance, and stops there
    expected = {id(once): f"refused V11 = {v11_once!r}",
                id(past): f"refused V11 = {next(v for v in seen_past if v >= v11_past)!r}"}

    def refusing(V, nbar0):
        v11 = V[..., 0, 0]
        bad = (((nbar0 == nbar_once) & (v11 == v11_once))
               | ((nbar0 == nbar_past) & (v11 >= v11_past)))
        if bad.any():
            raise SimulationError(f"refused V11 = {float(v11[bad].flat[0])!r}")
        return criterion_(V, nbar0)

    monkeypatch.setattr(reduced, "criterion", refusing)
    results = optimal_squeezings(points, phase)
    assert len(results) == len(points)
    kinds = []
    for p, result in zip(points, results):
        try:
            one = optimal_squeezing(p, phase)
        except SimulationError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            assert str(exc) == expected.get(id(p), str(exc))
            kinds.append(type(exc).__name__)
            continue
        assert optimum_cells(result) == optimum_cells(one)
        kinds.append("ok")
    assert sorted(kinds) == ["SimulationError"] * 2 + ["StabilityError"] + ["ok"] * 4


def test_point_whose_build_fails_is_built_once(builds):
    """optimal_squeezing at a non-Hurwitz point builds it once, and raises
    the error its build's Hurwitz check raises alone."""
    p = baseline_params(delta_hz=-32.1e6)
    with pytest.raises(StabilityError) as raised:
        optimal_squeezing(p)
    assert (builds["model"], builds["compile"]) == (1, 1)
    with pytest.raises(StabilityError) as alone:
        build_system(p).steady_parts()
    assert str(raised.value) == str(alone.value)


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_failed_build_starts_its_lane_as_done(monkeypatch, phase):
    """A point whose build fails does not search: fig3b's 25 powers plus one
    blue-detuned point take as many Brent steps and make as many stacked
    criterion calls as the powers alone, and every other lane's cells are
    bit-equal."""
    powers = [baseline_params(power_w=P) for P in np.geomspace(0.01e-6, 4e-6, 25)]
    criterion_, minimize_scalar_ = reduced.criterion, reduced.minimize_scalar

    def counted(points):
        """optimal_squeezings at the points, the Brent steps it took and
        whether each criterion call read a stack."""
        steps, stacked = [], []

        def counting_criterion(V, nbar0):
            stacked.append(np.ndim(V) == 3)
            return criterion_(V, nbar0)

        def counting_minimize(f, bracket, tol):
            return minimize_scalar_(lambda x: steps.append(x) or f(x), bracket, tol)

        monkeypatch.setattr(reduced, "criterion", counting_criterion)
        monkeypatch.setattr(reduced, "minimize_scalar", counting_minimize)
        return optimal_squeezings(points, phase), len(steps), stacked

    alone, steps_alone, stacked_alone = counted(powers)
    mixed, steps_mixed, stacked_mixed = counted(
        powers[:9] + [baseline_params(delta_hz=-32.1e6)] + powers[9:])
    assert steps_mixed == steps_alone
    assert all(stacked_alone) and all(stacked_mixed)
    assert len(stacked_mixed) == len(stacked_alone)
    assert isinstance(mixed.pop(9), StabilityError)
    assert [optimum_cells(o) for o in mixed] == [optimum_cells(o) for o in alone]


@pytest.mark.parametrize("refusal", ["criterion", "read"])
@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_optimal_squeezings_equal_the_per_step_criterion_oracle(rng, monkeypatch, phase,
                                                                 refusal):
    """optimal_squeezings, which checks every covariance by one criterion
    call after the search, equals _oracles.optimal_squeezings_loop, which
    calls criterion at every step, cell for cell and error for error. Two
    lanes meet a refused covariance past their first evaluation, and a
    blue-detuned point fails its build. criterion refuses it, or the read
    does: gaussian._rotated_variances, which frame_variances, and criterion
    through its observables, both call. After the one stacked check of
    every covariance fails, only the evaluations that hold a refused
    covariance are checked entry by entry."""
    points = [random_point(rng) for _ in range(6)]
    points.insert(int(rng.integers(0, 7)), baseline_params(delta_hz=-32.1e6))
    criterion_, rotated_variances_ = reduced.criterion, gaussian._rotated_variances
    seen = {}  # nbar0 -> V11 of every covariance its lane evaluates, in order

    def recording(V, nbar0):
        for nbar0_k, v11 in zip(np.ravel(nbar0).tolist(), np.ravel(V[..., 0, 0]).tolist()):
            seen.setdefault(nbar0_k, []).append(v11)
        return criterion_(V, nbar0)

    monkeypatch.setattr(reduced, "criterion", recording)
    optimal_squeezings_loop(points, phase)
    lanes = rng.choice(sorted(seen), size=2, replace=False)
    refused = [seen[lane][int(rng.integers(1, len(seen[lane])))] for lane in lanes]

    def refuse(V):
        bad = np.isin(V[..., 0, 0], refused)
        if bad.any():
            raise PhysicalityError(f"refused V11 = {float(V[..., 0, 0][bad].flat[0])!r}")

    stacks, singles = [], []

    def refusing_criterion(V, nbar0):
        refused_here = bool(np.isin(V[..., 0, 0], refused).any())
        (stacks if np.ndim(V) == 3 else singles).append((len(V), refused_here))
        refuse(V)
        return criterion_(V, nbar0)

    def refusing_read(V, theta):
        refuse(V)
        return rotated_variances_(V, theta)

    monkeypatch.setattr(reduced, "criterion", criterion_)
    if refusal == "criterion":
        monkeypatch.setattr(reduced, "criterion", refusing_criterion)
    else:
        monkeypatch.setattr(gaussian, "_rotated_variances", refusing_read)
    results = optimal_squeezings(points, phase)
    if refusal == "criterion":
        assert stacks[0][1] and len(singles) == sum(n for n, bad in stacks[1:] if bad)
    expected = optimal_squeezings_loop(points, phase)
    kinds = []
    for result, one in zip(results, expected, strict=True):
        if isinstance(one, SimulationError):
            assert type(result) is type(one) and str(result) == str(one)
            kinds.append(type(one).__name__)
        else:
            assert optimum_cells(result) == optimum_cells(one)
            kinds.append("ok")
    assert sorted(kinds) == ["PhysicalityError"] * 2 + ["StabilityError"] + ["ok"] * 4


def test_failing_read_ends_its_lane_at_once(monkeypatch):
    """A lane whose read fails mid-search stops there: fig3b's 25 powers,
    with frame_variances refusing the 6th power's covariance at the second
    Brent evaluation, take as many Brent steps as the powers alone (8, where
    a lane stepping on NaN values to its own tolerance took 23), and every
    other lane's cells are bit-equal."""
    powers = [baseline_params(power_w=P) for P in np.geomspace(0.01e-6, 4e-6, 25)]
    frame_variances_, minimize_scalar_ = reduced.frame_variances, reduced.minimize_scalar
    refused, stacked = [], []

    def refusing(V):
        if V.ndim == 3:
            stacked.append(len(V))
            if len(stacked) == 2:
                refused.append(V[5, 0, 0])
        if np.isin(V[..., 0, 0], refused).any():
            raise SimulationError("refused")
        return frame_variances_(V)

    def counted(points):
        steps = []

        def counting_minimize(f, bracket, tol):
            return minimize_scalar_(lambda x: steps.append(x) or f(x), bracket, tol)

        monkeypatch.setattr(reduced, "minimize_scalar", counting_minimize)
        return optimal_squeezings(points, 1.0), len(steps)

    alone, steps_alone = counted(powers)
    monkeypatch.setattr(reduced, "frame_variances", refusing)
    failing, steps_failing = counted(powers)
    assert stacked[1] == 25 and steps_failing == steps_alone == 8
    assert str(failing.pop(5)) == "refused"
    del alone[5]
    assert [optimum_cells(o) for o in failing] == [optimum_cells(o) for o in alone]


def test_r_curve_is_one_build(baseline, builds):
    """A whole r curve is one build_system, and an optimum search one
    reduced.build_steady_parts of its point alone: each one reduced_generator
    call and one compile of its three injections; and each point equals
    steady_state's."""
    r_values = np.linspace(0.0, 2.5, 11)
    V, report = steady_curve(baseline, -1.0)(r_values)
    assert builds == {"build_system": 1, "build_systems": 1, "model": 1, "compile": 1,
                      "members": 3}
    optimal_squeezing(baseline)
    assert builds == {"build_system": 1, "build_systems": 1, "model": 2, "compile": 2,
                      "members": 6}
    for k, r in enumerate(r_values):
        V_k, report_k = steady_state(baseline.with_(r=r), -1.0)
        assert np.array_equal(V[k], V_k)
        assert report.dP2_minus[k] == report_k.dP2_minus
        assert report.E_N[k] == report_k.E_N
    assert builds["model"] == builds["compile"] == 13
    assert builds["build_system"] == builds["build_systems"] == 12


def test_r_curve_refuses_negative_r(baseline):
    """curve(r) makes the range check steady_state would, for every entry."""
    curve = steady_curve(baseline)
    for r in (-0.5, np.array([0.5, -0.5])):
        with pytest.raises(ParameterError, match="r must be >= 0"):
            curve(r)


def test_steady_state_decoupled(baseline):
    p = baseline_params(eta0_hz=0.0, temperature_k=2.5e-3)
    V, report = steady_state(p)
    nbar = derive(p).nbar0
    assert np.allclose(V, lift_covariance([nbar + 0.5, nbar + 0.5, 0.0], nbar), rtol=1e-12)
    assert report.E_N == 0.0
    assert not report.entangled


def test_steady_state_refuses_blue_detuning():
    with pytest.raises(StabilityError):
        steady_state(baseline_params(delta_hz=-32.1e6))


def test_evolve_analytic_detects_divergence():
    from sqzmirror.dynamics import DIVERGENCE_LIMIT
    from sqzmirror.errors import DivergenceError

    p = baseline_params(delta_hz=-32.1e6)  # unstable drift
    grid = fine_grid(p, 10.0 / p.gamma_m, n_samples=10, resolution=0.05)
    with pytest.raises(DivergenceError):
        evolve_analytic(p, grid)
    # on a grid that crosses the limit mid-way: the first bad sample is reported
    grid = fine_grid(p, 2.85e-6, n_samples=20, resolution=0.05)
    times = grid.t0 + grid.sample_indices() * grid.h
    v3 = build_system(p).dynamical_solution(times, *reservoir_correlations(p.r))
    first_bad = int(np.argmax(np.abs(v3).max(axis=1) > DIVERGENCE_LIMIT))
    assert first_bad > 1
    with pytest.raises(DivergenceError, match=f"t = {times[first_bad]:.6e}") as err:
        evolve_analytic(p, grid)
    assert err.value.last_valid_time == times[first_bad - 1]


def test_steady_state_matches_late_time_evolution(baseline):
    """Agreement with evolve() at an even-Z reservoir-phase time."""
    p = baseline
    t_raw = 18.0 / SLOW_RATE
    Z = int(np.ceil(t_raw * 2 * p.delta / np.pi / 2.0)) * 2
    tZ = Z * np.pi / (2 * p.delta)
    grid = fine_grid(p, tZ, n_samples=4, resolution=0.004)
    traj = evolve(p, grid)
    V_ref, _ = steady_state(p, phase=1.0)
    V_end = traj.covariances[-1]
    assert np.abs(V_end - V_ref).max() <= 1e-6 * np.abs(V_ref).max()


def test_steady_observables_periodic(baseline):
    """Two consecutive even-Z times give the same state to 1e-8."""
    p = baseline
    Z = int(np.ceil((18.0 / SLOW_RATE) * 2 * p.delta / np.pi / 2.0)) * 2
    t1 = Z * np.pi / (2 * p.delta)
    t2 = (Z + 2) * np.pi / (2 * p.delta)
    covs = []
    for t_end in (t1, t2):
        n = int(np.ceil(t_end * 2 * p.omega_m / 0.003))
        traj = evolve(p, TimeGrid(0.0, t_end, n, sample_stride=n))
        covs.append(traj.covariances[-1])
    assert np.abs(covs[0] - covs[1]).max() <= 1e-8 * np.abs(covs[0]).max()


def test_steady_state_accepts_angle_phase(baseline):
    """A real angle phi behaves like the complex phase e^{i phi}."""
    V_angle, _ = steady_state(baseline, phase=np.pi / 3)
    V_cplx, _ = steady_state(baseline, phase=np.exp(1j * np.pi / 3))
    assert np.allclose(V_angle, V_cplx, rtol=1e-12)
    V_pi, _ = steady_state(baseline, phase=float(np.pi))
    V_minus, _ = steady_state(baseline, phase=-1.0)
    assert np.allclose(V_pi, V_minus, rtol=1e-9)


def test_steady_state_phase_average_is_dc_covariance(baseline):
    """phase="average" returns the time-averaged (dc) covariance.

    The sideband contributions at +1 and -1 cancel pairwise, so the dc
    3-vector is the mean of the two phase extremes; its rotating squeezing
    washes out, leaving a much larger relative-momentum variance.
    """
    V_plus, rep_plus = steady_state(baseline, phase=1.0)
    V_minus, rep_minus = steady_state(baseline, phase=-1.0)
    V_avg, rep_avg = steady_state(baseline, phase="average")
    assert np.allclose(V_avg, 0.5 * (V_plus + V_minus), rtol=1e-12)
    assert rep_avg.dP2_minus > max(rep_plus.dP2_minus, rep_minus.dP2_minus)


def test_rotated_frame_identity(baseline):
    """V11 - V22 in the rotated frame equals 2|<a1 a1>| >= 0."""
    grid = fine_grid(baseline, 5.0 / SLOW_RATE, n_samples=25, resolution=0.02)
    traj = evolve(baseline, grid)
    with pytest.warns(DegenerateAngleWarning):  # the thermal state at t = 0
        assert rotation_angle(traj.covariances[0]) == 0.0
    for V in traj.covariances[1:]:
        theta = rotation_angle(V)
        Vbar = rotate_local(V, theta)
        mod = np.hypot(V[0, 0] - V[1, 1], 2 * V[0, 1]) / 2.0
        assert Vbar[0, 0] - Vbar[1, 1] == pytest.approx(2 * mod, abs=1e-12)
        assert Vbar[0, 0] - Vbar[1, 1] >= 0.0


def test_criterion_direct_values():
    # dP2_minus = 2*V22 - 1/2 = 0.4 below the zero-temperature threshold 0.5
    rep = criterion(lift_covariance([0.8, 0.45, 0.0], 0.0), nbar0=0.0)
    assert rep.threshold == 0.5
    assert rep.dP2_minus == pytest.approx(0.4, rel=1e-12)
    assert rep.entangled
    assert rep.E_N > 0.0


def test_criterion_boundary_not_entangled():
    # dP2_minus exactly at the threshold counts as separable (strict <)
    rep = criterion(lift_covariance([0.5, 0.5, 0.0], 0.0), nbar0=0.0)
    assert rep.dP2_minus == pytest.approx(0.5, rel=1e-12)
    assert not rep.entangled
    assert rep.E_N == 0.0


def test_criterion_warns_on_unphysical_state():
    # minus-mode variances (0.9, 0.1): symplectic eigenvalue 0.3 < 1/2
    with pytest.warns(PhysicalityWarning):
        rep = criterion(lift_covariance([0.7, 0.3, 0.0], 0.0), nbar0=0.0)
    assert rep.dP2_minus == pytest.approx(0.1, rel=1e-12)
    assert rep.entangled


def test_criterion_threshold_regression():
    from sqzmirror.params import thermal_occupation

    nbar = thermal_occupation(2 * np.pi * 32.1e6, 2.5e-3)
    threshold = 1.0 / (2.0 * (2.0 * nbar + 1.0))
    assert threshold == pytest.approx(THRESHOLD_2P5_MK, rel=1e-12)
    rep = criterion(lift_covariance([nbar + 0.5, nbar + 0.5, 0.0], nbar), nbar)
    assert rep.threshold == pytest.approx(THRESHOLD_2P5_MK, rel=1e-12)


def test_criterion_stack_matches_single_calls():
    """A stack with per-entry nbar0 gives each entry's single-call report."""
    Vs, nbars = [], []
    for r, T in ((0.0, 0.0), (0.3, 0.0), (1.0, 2.5e-3), (2.2, 5e-3)):
        p = baseline_params(r=r, temperature_k=T)
        Vs.append(steady_state(p)[0])
        nbars.append(derive(p).nbar0)
    stacked = criterion(np.stack(Vs), np.array(nbars))
    assert stacked.entangled.tolist() == [False, True, True, False]
    for k, (V, nbar) in enumerate(zip(Vs, nbars)):
        single = criterion(V, nbar)
        assert stacked.dP2_minus[k] == single.dP2_minus
        assert stacked.E_N[k] == single.E_N
        assert stacked.threshold[k] == single.threshold
        assert stacked.entangled[k] == single.entangled


def test_criterion_stack_names_first_failing_entry():
    # E_N > 0, yet dP2_minus = 0.4 is above the threshold 1/6 of nbar0 = 1
    V = lift_covariance([0.8, 0.45, 0.0], 0.0)
    with pytest.raises(SimulationError, match="disagreement at entry 1: dP2=0.4"):
        criterion(np.stack([V, V, V]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(SimulationError, match="disagreement: dP2=0.4"):
        criterion(V, 1.0)


def test_criterion_stack_warns_once():
    good = lift_covariance([0.8, 0.45, 0.0], 0.0)
    bad = lift_covariance([0.7, 0.3, 0.0], 0.0)
    with pytest.warns(PhysicalityWarning) as record:
        rep = criterion(np.stack([bad, good, bad]), 0.0)
    assert len(record) == 1
    assert rep.entangled.tolist() == [True, True, True]


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_criterion_reads_any_frame(phase):
    """criterion reads a covariance in any local frame, as the observables do."""
    for r, T in ((0.3, 0.0), (1.0, 0.0), (2.2, 0.0), (1.0, 2.5e-3), (0.5, 5e-3)):
        p = baseline_params(r=r, temperature_k=T)
        nbar = derive(p).nbar0
        V, _ = steady_state(p, phase)
        assert V[0, 1] != 0.0  # not in the rotated frame
        rep = criterion(V, nbar)
        obs = quadrature_observables(V)
        assert rep.E_N == obs.E_N
        assert rep.dP2_minus == obs.dP2_minus
        for theta in (obs.theta, 0.7, -2.0):
            rot = criterion(rotate_local(V, theta), nbar)
            assert rot.dP2_minus == pytest.approx(rep.dP2_minus, rel=1e-12, abs=0)
            assert rot.entangled == rep.entangled


def test_criterion_equivalence_with_negativity(baseline):
    for r in (0.0, 0.3, 1.0, 2.2):
        _, rep = steady_state(baseline.with_(r=r))
        assert rep.entangled == (rep.E_N > 0.0)
        assert rep.entangled == (rep.dP2_minus < rep.threshold)


def test_nu_tilde_analytic_relation(baseline):
    """nu1 = sqrt[(nbar+1/2) dP2-], nu2 = sqrt[(nbar+1/2) dQ2-]."""
    for r in (0.5, 1.0, 1.8):
        V, _ = steady_state(baseline.with_(r=r))
        obs = quadrature_observables(V)
        c = derive(baseline).nbar0 + 0.5
        assert obs.nu_tilde[0] == pytest.approx(
            np.sqrt(c * obs.dP2_minus), rel=1e-9
        )
        assert obs.nu_tilde[1] == pytest.approx(
            np.sqrt(c * obs.dQ2_minus), rel=1e-9
        )
        assert obs.nu_tilde[0] <= obs.nu_tilde[1]


def test_detuning_matching_is_optimal(baseline):
    """Steady entanglement peaks when the reservoir detuning matches omega_m."""
    def steady_en(ratio):
        _, rep = steady_state(baseline_params(delta_hz=ratio * 32.1e6))
        return rep.E_N

    assert steady_en(1.0) >= steady_en(0.5)
    assert steady_en(1.0) >= steady_en(1.5)


def test_optimal_squeezing_u_shape_and_power_trend(baseline):
    r_opts = []
    for p_uw in (0.01, 0.1, 2.0):
        p = baseline_params(power_w=p_uw * 1e-6)
        opt = optimal_squeezing(p)
        r_opts.append(opt.r_numeric)
        # U shape: interior minimum beats both edges
        left = steady_state(p.with_(r=0.0))[1].dP2_minus
        right = steady_state(p.with_(r=3.0))[1].dP2_minus
        assert opt.dP2_minus < left
        assert opt.dP2_minus < right
        assert 0.05 < opt.r_numeric < 2.95
    assert r_opts[0] > r_opts[1] > r_opts[2]


def test_optimal_squeezing_formula_agreement(baseline):
    for p_uw in (0.1, 1.0, 4.0):
        opt = optimal_squeezing(baseline_params(power_w=p_uw * 1e-6))
        assert opt.r_formula is not None
        assert abs(opt.r_formula - opt.r_numeric) < 0.02


def test_optimal_squeezing_phase_averaged(baseline):
    """Phase-averaged variance is monotone in r: boundary optimum, no formula."""
    opt = optimal_squeezing(baseline, phase="average")
    assert opt.r_formula is None
    assert opt.r_numeric < 1e-3
    assert opt.dP2_minus > 0.5
    assert "phase-averaged" in opt.formula_note


def test_squeezing_formula_domain_guard():
    sys_ = ReducedSystem(
        m3=-np.eye(3),
        b0=np.zeros(3),
        b1=np.array([0.0, 1.0, 0.0]),
        b2=np.array([0.0, 5.0 + 0.0j, 0.0]),
        delta=1.0,
        nbar0=0.0,
    )
    assert squeezing_formula(sys_.steady_parts(), theta=0.0, phase=1.0) is None
    small = ReducedSystem(
        m3=sys_.m3, b0=sys_.b0, b1=sys_.b1,
        b2=np.array([0.0, 0.5 + 0.0j, 0.0]),
        delta=1.0, nbar0=0.0,
    )
    require_hurwitz(small.m3)
    val = squeezing_formula(small.steady_parts(), theta=0.0, phase=1.0)
    assert val is not None
