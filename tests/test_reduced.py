"""Reduced two-mirror model: closure, steady states, criterion, optimum."""

import numpy as np
import pytest

import inputs
from sqzmirror.dynamics import (
    TimeGrid,
    periodic_steady_state,
    require_hurwitz,
    steady_at_phase,
)
from sqzmirror.errors import DegenerateAngleWarning, PhysicalityWarning, StabilityError
from sqzmirror.gaussian import (
    quadrature_observables,
    rotate_local,
    rotation_angle,
    symplectic_eigenvalues,
)
from sqzmirror.generator import compile_generator, full_generator, reduced_generator
from sqzmirror.params import baseline_params, derive
from sqzmirror.reduced import (
    ReducedSystem,
    build_system,
    criterion,
    evolve,
    evolve_analytic,
    evolve_full10,
    lift_covariance,
    optimal_squeezing,
    squeezing_formula,
    steady_state,
)

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
        xi = complex(c.xi_combined().at_time(t, 2 * p.delta))
        direct = np.array(
            [
                c.phi,
                c.phi + 2 * xi.real - c.phi * zr / p.gamma_m,
                xi.imag - c.phi * zi / (2 * p.gamma_m),
            ]
        )
        dec = s.ode().drive(t)
        assert np.abs(dec - direct).max() <= 1e-10 * np.abs(direct).max()


def test_vacuum_reservoir_drive_is_static():
    s = build_system(baseline_params(r=0.0))
    assert s.N == 0.0 and s.M == 0.0
    assert np.allclose(s.ode().drive(0.0), s.ode().drive(1.23e-9), rtol=1e-14)


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
    v3 = build_system(p).dynamical_solution(times)
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
        N=0.0,
        M=0.0,
    )
    assert squeezing_formula(sys_, theta=0.0) is None
    small = ReducedSystem(
        m3=sys_.m3, b0=sys_.b0, b1=sys_.b1,
        b2=np.array([0.0, 0.5 + 0.0j, 0.0]),
        delta=1.0, nbar0=0.0, N=0.0, M=0.0,
    )
    require_hurwitz(small.m3)
    val = squeezing_formula(small, theta=0.0)
    assert val is not None
