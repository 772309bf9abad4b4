"""Three-mode model: cooling, purity, symmetry, adiabatic-elimination checks."""

import numpy as np
import pytest

import inputs
from _oracles import compare_adiabatic_loop, symplectic_spectrum
from conftest import FAILING_POINTS_HZ, random_point_hz
from sqzmirror.dynamics import (
    TimeGrid,
    normalize_phase,
    periodic_steady_state,
    reservoir_parts,
    reservoir_steady,
    steady_at_phase,
)
from sqzmirror.errors import SimulationError
from sqzmirror.full import (
    compare_adiabatic,
    compare_adiabatics,
    evolve_full,
    initial_covariance,
    mirror_block,
    steady_full,
)
from sqzmirror import full, scenarios
from sqzmirror.gaussian import frame_variances, quadrature_observables
from sqzmirror.generator import compile_generator, compile_injections, full_generator
from sqzmirror.params import baseline_params, derive, stack_points
from sqzmirror.reduced import (
    ReducedSystem,
    build_system,
    build_systems,
    evolve as evolve_reduced,
    steady_points,
    steady_state,
)

KAPPA_HZ = 6.2e6


def short_grid(params, t_end, n_samples=60):
    fastest = max(params.omega_m, abs(params.delta), params.kappa)
    n = int(np.ceil(t_end * fastest / 0.02))
    return TimeGrid(0.0, t_end, n, sample_stride=max(n // n_samples, 1))


def test_decoupled_mirrors_stay_thermal():
    p = baseline_params(eta0_hz=0.0, temperature_k=2.5e-3)
    nbar = derive(p).nbar0
    grid = short_grid(p, 20.0 / p.kappa)
    traj = evolve_full(p, grid)
    for V in traj.covariances:
        assert np.abs(mirror_block(V) - (nbar + 0.5) * np.eye(4)).max() < 1e-10


def test_single_mirror_cooling():
    """Red detuning with a vacuum reservoir cools the coupled mirror."""
    p = baseline_params(r=0.0, temperature_k=2.5e-3)
    nbar = derive(p).nbar0
    spec = full_generator(derive(p))
    # the cavity-mirror 2 blocks of the Hamiltonian hold that mirror's coupling
    spec.hamiltonian[:2, 4:] = spec.hamiltonian[4:, :2] = 0.0
    eqs = compile_generator(spec)
    # mirror 2 decouples from the cavity
    assert np.abs(eqs.drift[:2, 4:]).max() == np.abs(eqs.drift[4:, :2]).max() == 0.0
    V = steady_at_phase(*periodic_steady_state(eqs), 1.0)
    cooled, spectator = quadrature_observables(mirror_block(V)).phonon
    assert cooled < 0.5 * nbar
    assert spectator == pytest.approx(nbar, rel=1e-9)


def test_cavity_purity_with_squeezed_reservoir():
    """eta0 = 0, r > 0: cavity marginal becomes pure after ~10 cavity lifetimes."""
    p = baseline_params(eta0_hz=0.0, r=1.0)
    grid = short_grid(p, 12.0 / p.kappa)
    traj = evolve_full(p, grid)
    late = [V for t, V in zip(traj.times, traj.covariances) if t > 10.0 / p.kappa]
    assert late
    for V in late:
        nu = symplectic_spectrum(V[:2, :2])
        assert nu[0] == pytest.approx(0.5, abs=1e-6)


def test_mirror_block_symmetry_relations(baseline):
    grid = short_grid(baseline, 30.0 / baseline.kappa, n_samples=40)
    traj = evolve_full(baseline, grid)
    for V6 in traj.covariances:
        V = mirror_block(V6)
        assert abs(V[0, 0] - V[2, 2]) < 1e-9
        assert abs(V[1, 1] - V[3, 3]) < 1e-9
        assert abs(V[0, 1] - V[2, 3]) < 1e-9
        assert abs(V[0, 3] - V[1, 2]) < 1e-9
    # the observables columns are those of the mirror blocks, sample by sample
    blocks = mirror_block(traj.covariances)
    assert np.array_equal(blocks[7], mirror_block(traj.covariances[7]))
    assert np.array_equal(traj.observables.dP2_minus,
                          [quadrature_observables(V).dP2_minus for V in blocks])


def test_full_model_confirms_steady_entanglement(baseline):
    V = steady_full(baseline, phase=1.0)
    obs = quadrature_observables(mirror_block(V))
    assert obs.E_N > 0.5
    _, rep = steady_state(baseline, phase=1.0)
    assert obs.E_N == pytest.approx(rep.E_N, rel=0.15)


def test_full_steady_physical(baseline):
    for phase in (1.0, -1.0, np.exp(0.8j)):
        V = steady_full(baseline, phase=phase)
        assert symplectic_spectrum(V)[0] >= 0.5 - 1e-6


def test_adiabatic_agreement_in_valid_regime():
    p = baseline_params(gamma_m_hz=1.5e-4 * KAPPA_HZ)
    comp = compare_adiabatic(p)
    assert comp.steady_rel_deviation < 0.05


def test_adiabatic_breakdown_at_equal_rates():
    p = baseline_params(gamma_m_hz=KAPPA_HZ, power_w=16e-6)
    comp = compare_adiabatic(p)
    assert comp.steady_rel_deviation > 0.20


def test_compare_adiabatic_time_series(baseline):
    p = baseline_params(gamma_m_hz=1.5e-3 * KAPPA_HZ, temperature_k=2.5e-3)
    grid = short_grid(p, 1.0 / p.gamma_m, n_samples=50)
    tr_f = evolve_full(p, grid)
    tr_r = evolve_reduced(p, grid)
    assert np.array_equal(tr_f.times, tr_r.times)
    # the reduced model tracks the full one after the cavity transient
    late = tr_f.times > 10.0 / p.kappa
    dp2_f, dp2_r = tr_f.observables.dP2_minus, tr_r.observables.dP2_minus
    assert np.abs(dp2_f[late] - dp2_r[late]).max() < 0.05


def test_phonon_dynamics_overlay():
    """Mean phonon number: elimination tracks the full model for r in 0..2."""
    for r in (0.0, 1.0, 2.0):
        p = baseline_params(
            gamma_m_hz=1.5e-3 * KAPPA_HZ, temperature_k=2.5e-3, r=r
        )
        grid = short_grid(p, 2.0 / p.gamma_m, n_samples=40)
        tr_f = evolve_full(p, grid)
        tr_r = evolve_reduced(p, grid)
        ph_f = tr_f.observables.phonon[0]
        ph_r = tr_r.observables.phonon[0]
        late = tr_f.times > 10.0 / p.kappa
        scale = max(ph_f.max(), 1.0)
        assert np.abs(ph_f[late] - ph_r[late]).max() < 0.1 * scale


def test_antiphase_quadrature_oscillation(baseline):
    """dP2- and dQ2- oscillate in antiphase at 2*Delta on the steady orbit."""
    from sqzmirror.generator import compile_generator, full_generator, reduced_generator
    from sqzmirror.dynamics import periodic_steady_state, steady_at_phase
    from sqzmirror.gaussian import rotate_local, rotation_angle

    eqs_f = compile_generator(full_generator(derive(baseline)))
    eqs_r = compile_generator(reduced_generator(derive(baseline)))
    phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, 60, endpoint=False))
    for eqs, block in ((eqs_f, mirror_block), (eqs_r, lambda V: V)):
        V_dc, V_2 = periodic_steady_state(eqs)
        dp2, dq2 = [], []
        for z in phases:
            V = block(steady_at_phase(V_dc, V_2, z))
            Vbar = rotate_local(V, rotation_angle(V))
            dq2.append(Vbar[0, 0] - Vbar[0, 2])
            dp2.append(Vbar[1, 1] - Vbar[1, 3])
        dp2 = np.array(dp2) - np.mean(dp2)
        dq2 = np.array(dq2) - np.mean(dq2)
        corr = np.dot(dp2, dq2) / np.sqrt(np.dot(dp2, dp2) * np.dot(dq2, dq2))
        assert corr < -0.9


def test_steady_phonon_increases_with_squeezing():
    """Stronger reservoir squeezing pumps more photons, heating the mirrors."""
    phonons = []
    for r in (0.0, 1.0, 2.0):
        p = baseline_params(
            r=r, temperature_k=2.5e-3, gamma_m_hz=1.5e-3 * KAPPA_HZ
        )
        V = steady_full(p, phase=1.0)
        phonons.append(quadrature_observables(mirror_block(V)).phonon[0])
    assert phonons[0] < phonons[1] < phonons[2]


def test_initial_covariance_layout(baseline):
    nbar = derive(baseline_params(temperature_k=2.5e-3)).nbar0
    V0 = initial_covariance(nbar)
    assert np.allclose(V0[:2, :2], 0.5 * np.eye(2))
    assert np.allclose(V0[2:, 2:], (nbar + 0.5) * np.eye(4))


PHASES = (1.0, -1.0, "average", np.pi / 3, np.exp(1j * np.pi / 3), 2.0, 0.0)


@pytest.mark.parametrize("phase", PHASES, ids=repr)
def test_phase_has_one_meaning_in_every_model(phase):
    """A reservoir phase means the same point of the orbit in both models.

    The full model reads it through the same normalizer as the reduced one:
    a real number other than +/-1 is an angle, "average" is the dc part
    x0 + N x1, which equals the dc part of a compile and solve at the point.
    """
    p = baseline_params(gamma_m_hz=1e3)
    V = steady_full(p, phase)
    assert np.allclose(V, steady_full(p, normalize_phase(phase)), rtol=1e-12, atol=0)
    assert symplectic_spectrum(V)[0] >= 0.5 - 1e-6
    if isinstance(phase, str):
        c = derive(p)
        x0, x1, _ = reservoir_parts(compile_injections(full_generator, c))
        assert np.array_equal(V, x0 + c.N * x1)
        V_dc, _ = periodic_steady_state(compile_generator(full_generator(c)))
        assert np.abs(V - V_dc).max() <= 1e-12 * np.abs(V_dc).max()
    _, report = steady_state(p, phase)
    comp = compare_adiabatic(p, phase=phase)
    assert comp.steady_dp2_reduced == pytest.approx(report.dP2_minus, rel=1e-12)
    # at gamma_m << kappa the eliminated model tracks the full one closely
    assert comp.steady_rel_deviation < 0.1


@pytest.mark.parametrize("figure, name, column", [("fig4a", "gamma_m_hz", 1),
                                                   ("fig4b", "power_w", 0)])
def test_fig4_rows_equal_their_stacked_sweep(figure, name, column):
    """fig4's rows come from full.compare_adiabatics, whose builds stay per
    point (a traced fig4a makes 25 full.steady_full calls) while its
    reduced3 solve and its variance read are one each. The same points as
    one sweep, _sweep_points, then reduced.steady_points of full6 and of reduced3
    (one stacked build each) and one frame_variances over the 50
    covariances, give the rows' three value columns exactly: stacking the
    builds too would not change a digit."""
    cfg = scenarios.ScenarioConfig(scenario=figure)
    ((_, _, rows),) = getattr(scenarios, f"_scenario_{figure}")(cfg)
    if figure == "fig4b":  # at gamma_m = kappa
        cfg.params_hz["gamma_m_hz"] = scenarios.resolved_params_hz(cfg)["kappa_hz"]
    builds, r = scenarios._sweep_points(cfg, name, [row[column] for row in rows])
    covariances = []
    for model in ("full6", "reduced3"):
        V, _, failures = steady_points([model], builds, r,
                                       scenarios.PHASES[cfg.phase])[model]
        assert not failures
        covariances.append(V)
    dp2 = frame_variances(np.concatenate(covariances))[1]
    dp2_f, dp2_r = dp2[:25], dp2[25:]
    stacked = np.stack([dp2_f, dp2_r, abs(dp2_f - dp2_r) / abs(dp2_f)], axis=1)
    assert np.array_equal(np.array([row[column + 1:column + 4] for row in rows]), stacked)


@pytest.mark.parametrize("figure, params_hz, n_failing", [
    ("fig4b", {"delta_hz": -32.1e6}, 3),
    ("fig4a", {"delta_hz": -32.1e6, "power_w": 32e-6}, 25),
], ids=["fig4b", "fig4a"])
def test_failing_fig4_rows_equal_per_point_chains(tmp_path, monkeypatch, figure, params_hz,
                                                  n_failing):
    """Blue-detuned fig4 runs, where some or all full6 drifts are not
    Hurwitz, write the CSV that one compare_adiabatic_loop per point writes:
    every value and every error text, row by row."""
    def per_point(builds, phase):
        results = []
        for p in builds:
            try:
                results.append(p if isinstance(p, SimulationError)
                               else compare_adiabatic_loop(p, phase))
            except SimulationError as exc:
                results.append(exc)
        return results

    def csv(out):
        cfg = scenarios.ScenarioConfig(scenario=figure, params_hz=dict(params_hz),
                                       output_dir=str(tmp_path / out))
        (path, _) = scenarios.run(cfg)
        return path.read_text()

    stacked = csv("stacked")
    monkeypatch.setattr(full, "compare_adiabatics", per_point)
    assert stacked == csv("per_point")
    assert stacked.count("StabilityError: drift is not Hurwitz") == n_failing


def test_fig4a_builds_per_point_and_solves_once(monkeypatch):
    """A fig4a run makes one steady_full per point, then one build_system
    per point, 25 distinct points each (what the benchmark's trace pins),
    then one stacked reduced3 steady_parts and one frame_variances over the
    25 pairs of covariances. compare_adiabatic of one point equals its row."""
    calls = {name: [] for name in ("steady_full", "build_system", "frame_variances",
                                   "steady_parts")}
    order = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            order.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("steady_full", "build_system", "frame_variances"):
        monkeypatch.setattr(full, name, counted(name, getattr(full, name)))
    monkeypatch.setattr(ReducedSystem, "steady_parts",
                        counted("steady_parts", ReducedSystem.steady_parts))
    ((_, _, rows),) = scenarios._scenario_fig4a(scenarios.ScenarioConfig(scenario="fig4a"))
    assert order == ["steady_full"] * 25 + ["build_system"] * 25 + ["steady_parts",
                                                                   "frame_variances"]
    points = calls["steady_full"]
    assert len(set(points)) == 25
    assert calls["build_system"] == points
    (system,) = calls["steady_parts"]
    assert system.m3.shape == (25, 3, 3)
    (V,) = calls["frame_variances"]
    assert V.shape == (25, 2, 4, 4)
    comp = compare_adiabatic(points[7])
    assert (comp.steady_dp2_full, comp.steady_dp2_reduced,
            comp.steady_rel_deviation) == rows[7][2:5]


def assert_same_error(call, expected: SimulationError):
    with pytest.raises(SimulationError) as raised:
        call()
    assert type(raised.value) is type(expected) and str(raised.value) == str(expected)


@pytest.mark.parametrize("phase", [1.0, -1.0, "average"])
def test_one_point_chains_equal_their_stacked_rows(rng, phase):
    """steady_full, build_system and compare_adiabatic at random points, with
    the FAILING_POINTS_HZ that PhysicalParams accepts mixed in, each equal
    row k of their stacked chain bit for bit: reservoir_steady over
    reservoir_parts(compile_injections(full_generator, derive(stack_points)))
    and build_systems(points).point(k); compare_adiabatics(points)[k] too. A
    failing point raises the error, type and text, that the stacked chain
    raises with it inserted among the others. The random temperatures are
    never 0, so a fixed point at T = 0 (the occupation's division by zero)
    joins them."""
    points_hz = [random_point_hz(rng) for _ in range(6)]
    points_hz += [{**random_point_hz(rng), **bad} for bad in FAILING_POINTS_HZ]
    points = []
    for k in rng.permutation(len(points_hz)):
        try:
            points.append(baseline_params(**points_hz[k], r=rng.uniform(*inputs.R_RANGE)))
        except SimulationError:
            pass  # PhysicalParams refuses it: there is no one-point call
    points.append(baseline_params(temperature_k=0.0, r=1.0))
    full6, reduced3 = {}, {}
    for p in points:
        for chain, call in ((full6, lambda: steady_full(p, phase)),
                            (reduced3, lambda: build_system(p))):
            try:
                chain[p] = call()
            except SimulationError as exc:
                chain[p] = exc
    failing = [p for p in points if isinstance(full6[p], SimulationError)]
    assert len(failing) >= 2  # a non-Hurwitz drift and a refused laser frequency

    def stacked_full(stack):
        coeffs = derive(stack_points(stack))
        parts = reservoir_parts(compile_injections(full_generator, coeffs))
        return reservoir_steady(parts, coeffs.N[:, None, None], coeffs.M[:, None, None], phase)

    good = [p for p in points if p not in failing]
    V = stacked_full(good)
    for k, p in enumerate(good):
        assert np.array_equal(full6[p], V[k]), k
    for p in failing:
        at = int(rng.integers(len(good) + 1))
        assert_same_error(lambda: stacked_full(good[:at] + [p] + good[at:]), full6[p])

    built = [p for p in points if not isinstance(reduced3[p], SimulationError)]
    systems = build_systems(built)
    for k, p in enumerate(built):
        for name, field in vars(systems.point(k)).items():
            assert np.array_equal(getattr(reduced3[p], name), field), (k, name)
    for p in points:
        if p not in built:
            assert_same_error(lambda: build_systems(built + [p]), reduced3[p])

    refused = SimulationError("refused parameters")  # a build of _sweep_points
    comps = compare_adiabatics(points + [refused], phase)
    assert comps.pop() is refused
    for p, comp in zip(points, comps):
        if isinstance(comp, SimulationError):
            assert_same_error(lambda: compare_adiabatic(p, phase), comp)
        else:
            assert compare_adiabatic(p, phase) == comp
