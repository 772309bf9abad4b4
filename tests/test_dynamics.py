"""Integrator, resolvent steady states, matrix exponential, golden section."""

import numpy as np
import pytest

from sqzmirror.dynamics import (
    LinearHarmonicODE,
    TimeGrid,
    _unvech,
    _vech,
    expm_action,
    integrate,
    integrate_linear,
    minimize_scalar,
    moment_ode,
    normalize_phase,
    periodic_steady_state,
    steady_at_phase,
    Trajectory,
)
from sqzmirror.errors import (
    DimensionError,
    DivergenceError,
    StabilityError,
    StepSizeError,
)
from sqzmirror.gaussian import vacuum
from sqzmirror.generator import (
    GeneratorSpec,
    MomentEquations,
    annihilation_vector,
    compile_generator,
    full_generator,
    reduced_generator,
)
from sqzmirror.params import derive


def rotation_eqs(omega):
    a = annihilation_vector(1, 0)
    from sqzmirror.generator import hermitian_form

    return compile_generator(GeneratorSpec(1, hermitian_form(omega / 2, np.conj(a), a)))


def thermal_eqs(gamma, nbar):
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(gamma * (nbar + 1), a, np.conj(a))
    if nbar:
        spec.add_dissipator(gamma * nbar, np.conj(a), a)
    return compile_generator(spec)


def test_pure_rotation_over_100_periods():
    omega = 1.0
    eqs = rotation_eqs(omega)
    V0 = np.array([[1.3, 0.2], [0.2, 0.4]])
    t_end = 100 * 2 * np.pi / omega
    n = 400_000
    traj = integrate(eqs, V0, TimeGrid(0.0, t_end, n, sample_stride=n // 25))
    for t, V in zip(traj.times, traj.covariances):
        c, s = np.cos(omega * t), np.sin(omega * t)
        R = np.array([[c, s], [-s, c]])
        assert np.abs(V - R @ V0 @ R.T).max() < 1e-8


def test_thermal_relaxation_monotone_trace():
    eqs = thermal_eqs(0.8, 2.0)
    grid = TimeGrid(0.0, 6.0, 4000, sample_stride=100)
    traj = integrate(eqs, vacuum(1), grid)
    traces = np.trace(traj.covariances, axis1=1, axis2=2)
    assert np.all(np.diff(traces) > 0)
    assert traces[-1] == pytest.approx(2 * 2.5, rel=1e-4)


def test_affine_span_equals_literal_rk4(rng):
    """The composed affine stepping is the textbook RK4 loop, bit for bit
    up to float reassociation."""
    A = rng.normal(scale=0.4, size=(3, 3)) - 0.6 * np.eye(3)
    b0 = rng.normal(size=3)
    b2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    omega = 2.7
    ode = LinearHarmonicODE(A, b0, b2, omega)
    n, t_end = 200, 1.5
    grid = TimeGrid(0.0, t_end, n, sample_stride=1)
    x0 = rng.normal(size=3)
    _, xs = integrate_linear(ode, x0, grid)

    h = t_end / n
    x = x0.copy()
    literal = [x.copy()]
    for k in range(n):
        t = k * h

        def f(tt, xx):
            return A @ xx + b0 + 2.0 * np.real(b2 * np.exp(1j * omega * tt))

        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        literal.append(x.copy())
    assert np.abs(xs - np.array(literal)).max() < 1e-11


def test_sample_stride_does_not_change_values(rng):
    A = rng.normal(scale=0.3, size=(2, 2)) - 0.4 * np.eye(2)
    ode = LinearHarmonicODE(A, np.array([0.1, 0.0]),
                            np.array([0.02 + 0.03j, 0.0]), 1.9)
    x0 = np.array([1.0, -0.5])
    t1, x1 = integrate_linear(ode, x0, TimeGrid(0.0, 2.0, 400, sample_stride=1))
    t2, x2 = integrate_linear(ode, x0, TimeGrid(0.0, 2.0, 400, sample_stride=80))
    common = np.isin(np.round(t1, 12), np.round(t2, 12))
    assert np.abs(x1[common] - x2).max() < 1e-11


def test_rk4_convergence_order():
    """Halving h cuts the end-time error ~16x (Richardson reference)."""
    A = np.array([[-0.3, 2.0], [-2.0, -0.1]])
    ode = lambda n: integrate_linear(
        LinearHarmonicODE(A, np.array([0.4, 0.0]), np.array([0.1 + 0.05j, 0.0]), 3.0),
        np.array([1.0, 0.0]),
        TimeGrid(0.0, 5.0, n, sample_stride=n),
    )[1][-1]
    ref = ode(64_000)
    err_h = np.abs(ode(1000) - ref).max()
    err_h2 = np.abs(ode(2000) - ref).max()
    assert 12.0 < err_h / err_h2 < 20.0


def test_integrate_value_against_exact_rotation_solution():
    """One-mode rotation has closed form; checks sampling bookkeeping."""
    eqs = rotation_eqs(2.0)
    V0 = np.array([[0.9, 0.0], [0.0, 0.5]])
    grid = TimeGrid(0.0, 3.0, 60_000, sample_stride=12_345)  # ragged last block
    traj = integrate(eqs, V0, grid)
    assert traj.times[-1] == pytest.approx(3.0)
    c, s = np.cos(2.0 * 3.0), np.sin(2.0 * 3.0)
    R = np.array([[c, s], [-s, c]])
    assert np.abs(traj.covariances[-1] - R @ V0 @ R.T).max() < 1e-10


def test_expm_action_basic():
    assert np.allclose(expm_action(np.zeros((3, 3)), 1.0), np.eye(3))
    A = np.diag([-0.5, -2.0])
    assert np.allclose(expm_action(A, 2.0), np.diag(np.exp([-1.0, -4.0])), rtol=1e-12)


def test_expm_action_roundtrip(rng):
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        A *= 5.0 / max(np.abs(np.linalg.eigvals(A)))
        E = expm_action(A, 1.0) @ expm_action(A, -1.0)
        assert np.abs(E - np.eye(3)).max() < 1e-10


def test_expm_action_defective_matrix_fallback():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])  # Jordan block, not diagonalizable
    assert np.allclose(expm_action(A, 2.0), np.array([[1.0, 2.0], [0.0, 1.0]]))
    ts = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(expm_action(A, ts), [[[1.0, t], [0.0, 1.0]] for t in ts])


def test_expm_action_over_times_equals_each_time(rng):
    A = rng.normal(size=(3, 3))
    ts = np.linspace(-1.0, 2.0, 7)
    stacked = expm_action(A, ts)
    assert stacked.shape == (7, 3, 3)
    for t, E in zip(ts, stacked):
        assert np.array_equal(E, expm_action(A, t))


def test_moment_ode_is_the_lyapunov_map_on_vech(rng):
    """drift @ vech(V) = vech(A V + V A^T) for random A and symmetric V."""
    for n in (2, 4, 6):
        A = rng.normal(size=(n, n))
        W = rng.normal(size=(n, n))
        V = W + W.T
        zero = np.zeros((n, n))
        ode = moment_ode(MomentEquations(A, zero, zero.astype(complex), 0.0))
        assert ode.drift.shape == (n * (n + 1) // 2,) * 2
        assert np.array_equal(_unvech(_vech(V)), V)
        ref = _vech(A @ V + V @ A.T)
        assert np.abs(ode.drift @ _vech(V) - ref).max() <= 1e-12 * np.abs(ref).max()
    stack = _unvech(rng.normal(size=(5, 21)))
    assert stack.shape == (5, 6, 6)
    assert np.array_equal(stack, stack.transpose(0, 2, 1))


def test_moment_ode_unknowns_per_model(baseline):
    """reduced10 has 10 independent moments and full6 has 21."""
    c = derive(baseline)
    assert moment_ode(compile_generator(reduced_generator(c))).drift.shape == (10, 10)
    assert moment_ode(compile_generator(full_generator(c))).drift.shape == (21, 21)


def test_numpy_real_phase_is_an_angle():
    assert normalize_phase(np.float32(2.0)) == normalize_phase(2.0)
    assert normalize_phase(np.int64(2)) == normalize_phase(2)
    assert normalize_phase(np.float64(-1.0)) == -1.0


def test_periodic_steady_state_static_diffusion():
    eqs = thermal_eqs(1.1, 0.7)
    V_dc, V_2 = periodic_steady_state(eqs)
    assert np.allclose(V_2, 0.0)
    assert np.allclose(V_dc, 1.2 * np.eye(2), rtol=1e-12)
    resid = eqs.drift @ V_dc + V_dc @ eqs.drift.T + eqs.diffusion_static
    assert np.abs(resid).max() < 1e-12


def test_periodic_steady_state_matches_long_time_integration(baseline):
    eqs = compile_generator(reduced_generator(derive(baseline)))
    V_dc, V_2 = periodic_steady_state(eqs)
    slow = abs(np.linalg.eigvals(eqs.drift).real.max())
    t_end = 20.0 / slow
    # commensurate sampling: land on a reservoir-phase multiple
    t_end = np.ceil(t_end * 2 * baseline.delta / np.pi) * np.pi / (2 * baseline.delta)
    n = int(np.ceil(t_end * 2 * baseline.omega_m / 0.02))
    traj = integrate(eqs, (derive(baseline).nbar0 + 0.5) * np.eye(4),
                     TimeGrid(0.0, t_end, n, sample_stride=n))
    V_ref = steady_at_phase(V_dc, V_2, np.exp(2j * baseline.delta * t_end))
    rel = np.abs(traj.covariances[-1] - V_ref).max() / np.abs(V_ref).max()
    assert rel < 1e-6


def test_periodic_steady_state_rejects_unstable():
    eqs = rotation_eqs(1.0)  # drift eigenvalues on the imaginary axis
    with pytest.raises(StabilityError):
        periodic_steady_state(eqs)


def test_step_size_guard():
    eqs = thermal_eqs(1.0, 0.0)
    with pytest.raises(StepSizeError):
        integrate(eqs, vacuum(1), TimeGrid(0.0, 100.0, 10))


def test_divergence_detection():
    ode = LinearHarmonicODE(
        np.array([[2.0]]), np.zeros(1), np.zeros(1, dtype=complex), 0.0
    )
    with pytest.raises(DivergenceError) as err:
        integrate_linear(ode, np.array([1.0]), TimeGrid(0.0, 20.0, 2000, 100))
    assert err.value.last_valid_time is not None


def test_trajectory_invariants():
    with pytest.raises(DimensionError):
        Trajectory(times=np.array([0.0, 1.0]), covariances=np.zeros((3, 2, 2)))
    with pytest.raises(DimensionError):
        Trajectory(times=np.array([0.0, 0.0]), covariances=np.zeros((2, 2, 2)))


def test_minimize_scalar_quadratic():
    res = minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0), tol=1e-8)
    assert res.x == pytest.approx(2.0, abs=1e-6)
    assert not res.boundary


def test_minimize_scalar_cosh_closed_form():
    c1, c2 = -0.7, 1.9
    res = minimize_scalar(
        lambda x: c2 * np.cosh(2 * x) + c1 * np.sinh(2 * x), (0.0, 3.0), tol=1e-8
    )
    assert res.x == pytest.approx(0.5 * np.arctanh(-c1 / c2), abs=1e-6)


def test_minimize_scalar_monotone_boundary_flag():
    res = minimize_scalar(np.exp, (0.0, 2.0), tol=1e-6)
    assert res.boundary
    assert res.x == pytest.approx(0.0, abs=1e-4)
