"""Integrator, resolvent steady states, matrix exponential, Brent's minimizer."""

import numpy as np
import pytest

import inputs
from _oracles import integrate_loop, scan_loop
from conftest import random_point
from sqzmirror.dynamics import (
    LinearHarmonicODE,
    TimeGrid,
    _affine_scan,
    _diverged,
    _rk4_step_span,
    _span_powers,
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
from sqzmirror.full import initial_covariance
from sqzmirror.gaussian import thermal, vacuum
from sqzmirror.generator import (
    GeneratorSpec,
    MomentEquations,
    annihilation_vector,
    compile_generator,
    full_generator,
    reduced_generator,
)
from sqzmirror.params import derive
from sqzmirror.reduced import build_system
from sqzmirror.scenarios import trajectory_grid


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
    times, covs = integrate(eqs, V0, TimeGrid(0.0, t_end, n, sample_stride=n // 25))
    for t, V in zip(times, covs):
        c, s = np.cos(omega * t), np.sin(omega * t)
        R = np.array([[c, s], [-s, c]])
        assert np.abs(V - R @ V0 @ R.T).max() < 1e-8


def test_thermal_relaxation_monotone_trace():
    eqs = thermal_eqs(0.8, 2.0)
    grid = TimeGrid(0.0, 6.0, 4000, sample_stride=100)
    _, covs = integrate(eqs, vacuum(1), grid)
    traces = np.trace(covs, axis1=1, axis2=2)
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
    times, covs = integrate(eqs, V0, grid)
    assert times[-1] == pytest.approx(3.0)
    c, s = np.cos(2.0 * 3.0), np.sin(2.0 * 3.0)
    R = np.array([[c, s], [-s, c]])
    assert np.abs(covs[-1] - R @ V0 @ R.T).max() < 1e-10


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
    _, covs = integrate(eqs, (derive(baseline).nbar0 + 0.5) * np.eye(4),
                        TimeGrid(0.0, t_end, n, sample_stride=n))
    V_ref = steady_at_phase(V_dc, V_2, np.exp(2j * baseline.delta * t_end))
    rel = np.abs(covs[-1] - V_ref).max() / np.abs(V_ref).max()
    assert rel < 1e-6


def test_periodic_steady_state_rejects_unstable():
    eqs = rotation_eqs(1.0)  # drift eigenvalues on the imaginary axis
    with pytest.raises(StabilityError):
        periodic_steady_state(eqs)


def test_step_size_guard():
    eqs = thermal_eqs(1.0, 0.0)
    with pytest.raises(StepSizeError):
        integrate(eqs, vacuum(1), TimeGrid(0.0, 100.0, 10))


def assert_columns_close(xs, ref, rtol=1e-12):
    """Every entry within rtol of its column's largest value in ref."""
    assert xs.shape == ref.shape
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(xs - ref) <= rtol * scale), np.abs(xs - ref).max(axis=0) / scale


def model_odes(p):
    """(ode, x0) of reduced3, reduced10 and full6 at the parameters p."""
    system = build_system(p)
    c = derive(p)
    return [
        (system.ode(c.N, c.M), system.initial_state()),
        (moment_ode(compile_generator(reduced_generator(c))), _vech(thermal(c.nbar0, 2))),
        (moment_ode(compile_generator(full_generator(c))), _vech(initial_covariance(p))),
    ]


def test_scan_matches_sequential_loop_on_random_draws(rng):
    """Random points of the benchmark's figure ranges, each model, on the
    plot grid of a random span and sample count (often a ragged last span)."""
    ragged = 0
    for _ in range(4):
        p = random_point(rng).with_(r=rng.uniform(*inputs.R_RANGE))
        grid = trajectory_grid(p, rng.uniform(0.05, 1.0) * 10.0 / p.gamma_m,
                               int(rng.integers(2, 300)))
        ragged += grid.n_steps % grid.sample_stride != 0
        for ode, x0 in model_odes(p):
            times, xs = integrate_linear(ode, x0, grid)
            ref_times, ref = integrate_loop(ode, x0, grid)
            assert np.array_equal(times, ref_times)
            assert_columns_close(xs, ref)
    assert ragged


def random_ode(rng, dim=3):
    A = rng.normal(scale=0.4, size=(dim, dim)) - 0.6 * np.eye(dim)
    b2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return LinearHarmonicODE(A, rng.normal(size=dim), b2, 2.7)


@pytest.mark.parametrize("grid", [
    TimeGrid(0.0, 1.5, 300, sample_stride=1),
    TimeGrid(0.0, 1.5, 1000, sample_stride=7),  # ragged last span of 6 steps
    TimeGrid(0.0, 1.5, 50, sample_stride=50),  # one span
    TimeGrid(0.0, 1.5, 50, sample_stride=80),  # one ragged span
    TimeGrid(0.3, 0.35, 1, sample_stride=1),  # one step
], ids=["stride1", "ragged", "one-span", "one-ragged-span", "one-step"])
def test_scan_matches_sequential_loop_on_edge_grids(rng, grid):
    ode = random_ode(rng)
    x0 = rng.normal(size=3)
    times, xs = integrate_linear(ode, x0, grid)
    ref_times, ref = integrate_loop(ode, x0, grid)
    assert np.array_equal(times, ref_times)
    assert_columns_close(xs, ref)
    assert np.array_equal(xs[0], x0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 800])
@pytest.mark.parametrize("K", [1, 3])
def test_scan_matches_loop_for_any_length_and_columns(rng, n, K):
    """The up- and down-sweeps leave every row a full prefix, at lengths
    that are and are not powers of two, with K columns along a leading axis."""
    P = np.linalg.qr(rng.normal(size=(4, 4)))[0] * 0.99 + 0.01 * rng.normal(size=(4, 4))
    x, f = rng.normal(size=(K, 4)), rng.normal(size=(K, n, 4))
    ref = scan_loop(P, x, f)
    _affine_scan(P, x, f)
    assert np.abs(f - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)


def test_drive_columns_are_the_loop_of_each_column(rng):
    """Drives with K columns (m, K), one x0 or one per column: each column's
    states are its own loop's, on a grid with a ragged last span."""
    ode = random_ode(rng)
    columns = LinearHarmonicODE(ode.drift, rng.normal(size=(3, 4)),
                                rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)), 2.7)
    grid = TimeGrid(0.0, 1.5, 1000, sample_stride=7)
    for x0 in (rng.normal(size=3), rng.normal(size=(3, 4))):
        times, xs = integrate_linear(columns, x0, grid)
        assert xs.shape == (4, len(times), 3)
        for k in range(4):
            one = LinearHarmonicODE(ode.drift, columns.drive_static[:, k],
                                    columns.drive_harmonic[:, k], 2.7)
            _, ref = integrate_loop(one, x0 if x0.ndim == 1 else x0[:, k], grid)
            assert_columns_close(xs[k], ref)


def divergence_of(f, *args):
    with pytest.raises(DivergenceError) as err:
        f(*args)
    return str(err.value), err.value.last_valid_time


def test_divergence_detection():
    ode = LinearHarmonicODE(
        np.array([[2.0]]), np.zeros(1), np.zeros(1, dtype=complex), 0.0
    )
    args = (ode, np.array([1.0]), TimeGrid(0.0, 20.0, 2000, 100))
    message, last_valid = divergence_of(integrate_linear, *args)
    assert last_valid is not None
    assert (message, last_valid) == divergence_of(integrate_loop, *args)


def diagonal_ode(rates):
    """Decoupled modes x_i' = rate_i x_i, no drive."""
    dim = len(rates)
    return LinearHarmonicODE(np.diag(rates), np.zeros(dim), np.zeros(dim, complex), 0.0)


def test_scan_overflow_before_the_first_bad_sample_matches_loop():
    """A mode growing e^3 per sample from exactly zero stays zero in the
    loop, but its power P^256 overflows and 0 * inf poisons the scan from
    sample 512 on (the up-sweep's row 511 is the first to use P^256); the
    real blow-up (the mode at rate 0.05) comes at t ~ 553. The error names
    the loop's sample, and a stable second mode keeps every state equal to
    the loop's."""
    grid = TimeGrid(0.0, 800.0, 80_000, sample_stride=100)
    x0 = np.array([0.0, 1.0])
    ode = diagonal_ode([3.0, 0.05])
    block = _span_powers(_rk4_step_span(ode, grid.h), grid.sample_stride)[0]
    one_scan = np.zeros((800, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        _affine_scan(block.P, x0, one_scan)
    first_bad_of_one_scan = 1 + int(_diverged(one_scan).argmax())
    message, last_valid = divergence_of(integrate_linear, ode, x0, grid)
    assert (message, last_valid) == divergence_of(integrate_loop, ode, x0, grid)
    assert first_bad_of_one_scan == 512 < last_valid
    assert message == "integration diverged at t = 5.530000e+02"

    ode = diagonal_ode([3.0, -0.05])
    _, xs = integrate_linear(ode, x0, grid)
    _, ref = integrate_loop(ode, x0, grid)
    assert np.all(xs[:, 0] == 0.0)
    assert_columns_close(xs, ref)


def test_trajectory_invariants():
    # the sample checks refuse before any observable is read
    with pytest.raises(DimensionError):
        Trajectory(times=np.array([0.0, 1.0]), covariances=np.zeros((3, 2, 2)),
                   observables=None)
    with pytest.raises(DimensionError):
        Trajectory(times=np.array([0.0, 0.0]), covariances=np.zeros((2, 2, 2)),
                   observables=None)


def test_minimize_scalar_quadratic():
    res = minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0), tol=1e-8)
    assert res.x == pytest.approx(2.0, abs=1e-6)
    assert not res.boundary


def test_minimize_scalar_cosh_closed_form():
    """Within tol of artanh's minimizer at each tol. At 1e-8 this is near the
    floor that rounding sets for any search of this form: f'' = 4f, so values
    within eps*f of the minimum span about sqrt(eps/2) = 1.05e-8 (these
    constants land 6.2e-9 away)."""
    c1, c2 = -0.7, 1.9
    for tol in (1e-4, 1e-6, 1e-8):
        res = minimize_scalar(
            lambda x: c2 * np.cosh(2 * x) + c1 * np.sinh(2 * x), (0.0, 3.0), tol=tol
        )
        assert abs(res.x - 0.5 * np.arctanh(-c1 / c2)) <= tol


def test_minimize_scalar_interior_minimum_in_twelve_evaluations(rng):
    """Quadratics and cosh/sinh forms with an interior minimum on [0, 3] take
    at most 12 evaluations at tol 1e-4 (golden section takes 24 on any f)."""
    for _ in range(20):
        x0, s = rng.uniform(0.05, 2.5), rng.uniform(0.1, 10.0)
        c2 = rng.uniform(0.5, 2.0)
        c1 = -c2 * np.tanh(2 * x0)
        for fn in (lambda x: s * (x - x0) ** 2,
                   lambda x: c2 * np.cosh(2 * x) + c1 * np.sinh(2 * x)):
            evals = []
            res = minimize_scalar(lambda x: evals.append(x) or fn(x), (0.0, 3.0), 1e-4)
            assert len(evals) <= 12
            assert abs(res.x - x0) <= 1e-4


def test_minimize_scalar_monotone_boundary_flag():
    res = minimize_scalar(np.exp, (0.0, 2.0), tol=1e-6)
    assert res.boundary
    assert res.x == pytest.approx(0.0, abs=1e-4)


def random_lane_functions(rng, n):
    """n scalar functions on [0, 3]: quadratics, cosh/sinh forms with an
    interior or an edge minimum, and monotone ones."""
    fns = []
    for kind in rng.integers(0, 3, size=n):
        if kind == 0:
            x0, s = rng.uniform(-1.0, 4.0), rng.uniform(0.1, 10.0)
            fns.append(lambda x, x0=x0, s=s: s * (x - x0) ** 2)
        elif kind == 1:
            c2, c1 = rng.uniform(0.5, 2.0), rng.uniform(-2.5, 0.5)
            fns.append(lambda x, c1=c1, c2=c2: c2 * np.cosh(2 * x) + c1 * np.sinh(2 * x))
        else:
            s = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
            fns.append(lambda x, s=s: np.exp(s * x))
    return fns


@pytest.mark.parametrize("shared", [True, False])
def test_minimize_scalar_lanes_equal_one_lane_runs(rng, shared):
    """Each lane's x and boundary are bit-equal to a search over it alone,
    with a shared bracket and with one bracket per lane."""
    for _ in range(5):
        n = int(rng.integers(1, 30))
        fns = random_lane_functions(rng, n)
        if shared:
            a, b = np.zeros(n), np.full(n, 3.0)
        else:
            a = rng.uniform(-1.0, 1.0, size=n)
            b = a + rng.uniform(0.5, 4.0, size=n)
        tol = float(rng.choice([1e-4, 1e-6, 1e-8]))
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.array([fn(x_k) for fn, x_k in zip(fns, x)])

        res = minimize_scalar(f, (a, b), tol)
        assert res.x.shape == res.boundary.shape == (n,)
        for k, fn in enumerate(fns):
            one = minimize_scalar(fn, (float(a[k]), float(b[k])), tol)
            assert (res.x[k], bool(res.boundary[k])) == (one.x, one.boundary)
            # the lane saw exactly the points of its own search, then NaN
            points = [x[k] for x in seen]
            evals = []
            minimize_scalar(lambda x: evals.append(x) or fn(x),
                            (float(a[k]), float(b[k])), tol)
            assert points[:len(evals)] == evals
            assert np.isnan(points[len(evals):]).all()


def test_minimize_scalar_lane_of_nan_values_terminates(rng):
    """A lane whose values turn NaN from its k-th point on (a failed point)
    stops at that point: it is evaluated k + 1 times, its x is the best of
    its first k points (the first point when k = 0), and every lane, that
    one included, is bit-equal to its search alone."""
    for _ in range(5):
        n = int(rng.integers(2, 12))
        fns = random_lane_functions(rng, n)
        bad, k_nan = int(rng.integers(0, n)), int(rng.integers(0, 6))

        def failing(fn, calls):
            def g(x):
                calls.append(x)
                return np.nan if len(calls) > k_nan else fn(x)
            return g

        seen = []
        lane_fns = [failing(fn, seen) if k == bad else fn for k, fn in enumerate(fns)]

        def f(x):
            return np.array([fn(x_k) if not np.isnan(x_k) else np.nan
                             for fn, x_k in zip(lane_fns, x)])

        res = minimize_scalar(f, (np.zeros(n), np.full(n, 3.0)), 1e-4)
        assert len(seen) == k_nan + 1
        values = [fns[bad](x) for x in seen[:k_nan]]
        assert res.x[bad] == (seen[int(np.argmin(values))] if k_nan else seen[0])
        for k, fn in enumerate(fns):
            one = minimize_scalar(failing(fn, []) if k == bad else fn, (0.0, 3.0), 1e-4)
            assert (res.x[k], bool(res.boundary[k])) == (one.x, one.boundary)


def test_minimize_scalar_refuses_an_empty_bracket_in_any_lane():
    with pytest.raises(DimensionError):
        minimize_scalar(lambda x: x, (np.zeros(3), np.array([1.0, 0.0, 1.0])), 1e-4)
