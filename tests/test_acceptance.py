"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else.

Relative comparisons use the max-entry scale of the reference object.
"""

import time

import numpy as np
import pytest

import verify
from _fock import integrate_fock_thermal
from _periodic import at_phase, at_time
from sqzmirror.dynamics import TimeGrid, integrate
from sqzmirror.full import compare_adiabatic, mirror_block, steady_full
from sqzmirror.gaussian import (
    quadrature_observables,
    symplectic_eigenvalues,
    vacuum,
)
from sqzmirror.generator import (
    GeneratorSpec,
    annihilation_vector,
    compile_generator,
)
from sqzmirror.params import baseline_params, derive
from sqzmirror.reduced import (
    build_system,
    evolve,
    evolve_analytic,
    evolve_full10,
    optimal_squeezing,
    steady_state,
)
from sqzmirror.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    run as run_scenario,
    trajectory_grid,
    default_t_end,
)

KAPPA_HZ = 6.2e6
SLOW_RATE = 1.97e7  # |Re| of the slowest reduced-drift eigenvalue at baseline


def report(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Run every scenario once; keep the output dir and first-run bytes."""
    out = tmp_path_factory.mktemp("shipped")
    names = [s for s in SCENARIOS if s != "custom"]
    files = {}
    for name in names:
        for path in run_scenario(ScenarioConfig(scenario=name, output_dir=str(out))):
            files[path.name] = path.read_bytes()
    return out, files, names


def test_criterion_equivalence_grid():
    """1: sign(E_N) vs the squeezing threshold over a 20x20 (r, T) grid."""
    failures = []
    t0 = time.time()
    band = 1e-9
    for r in np.linspace(0.0, 2.0, 20):
        for T in np.linspace(0.0, 5e-3, 20):
            params = baseline_params(r=r, temperature_k=T)
            _, rep = steady_state(params, phase=1.0)
            if rep.threshold - band < rep.dP2_minus < rep.threshold + band:
                continue  # boundary band excluded
            if (rep.E_N > 0.0) != (rep.dP2_minus < rep.threshold):
                failures.append(f"disagreement at r={r:.3f}, T={T:.4f}")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"grid took {elapsed:.1f}s (>= 10s)")
    report(1, "entanglement criterion equivalence on 20x20 (r, T) grid", failures)


def test_closure_validation(baseline):
    """2: 10-variable integration obeys the symmetry closure."""
    failures = []
    nbar = derive(baseline).nbar0
    t_end = 8.0 / SLOW_RATE
    n = int(np.ceil(t_end * 2 * baseline.omega_m / 0.02))
    grid = TimeGrid(0.0, t_end, n, sample_stride=n // 100)
    tr10 = evolve_full10(baseline, grid)
    if len(tr10.times) < 100:
        failures.append("fewer than 100 samples")
    for k, V in enumerate(tr10.covariances):
        residues = [
            abs(V[0, 0] - V[2, 2]),
            abs(V[1, 1] - V[3, 3]),
            abs(V[0, 1] - V[2, 3]),
            abs(V[0, 3] - V[1, 2]),
            abs(V[0, 3] + V[0, 1]),
            abs(V[0, 0] + V[0, 2] - (nbar + 0.5)),
        ]
        if max(residues) > 1e-9:
            failures.append(f"symmetry residue {max(residues):.2e} at sample {k}")
            break
    tr3 = evolve(baseline, grid)
    worst = max(
        np.abs(a - b).max() for a, b in zip(tr3.covariances, tr10.covariances)
    )
    if worst > 1e-8:
        failures.append(f"3-variable closure deviates by {worst:.2e}")
    report(2, "10-variable dynamics satisfies the 3-variable closure", failures)


def _random_params(rng):
    omega_m_hz = rng.uniform(10e6, 60e6)
    return baseline_params(
        omega_m_hz=omega_m_hz,
        kappa_hz=rng.uniform(1e6, 12e6),
        delta_hz=rng.uniform(0.5, 1.5) * omega_m_hz,
        gamma_m_hz=rng.uniform(1e2, 1e4),
        eta0_hz=rng.uniform(5.0, 80.0),
        power_w=rng.uniform(0.05e-6, 6e-6),
        r=rng.uniform(0.0, 2.0),
        temperature_k=rng.uniform(0.0, 4e-3),
    )


def test_compiler_vs_printed_matrices():
    """3: compiled closure reproduces the printed drift and drive forms."""
    failures = []
    rng = np.random.default_rng(2024)
    for k in range(5):
        p = _random_params(rng)
        c = derive(p)
        s = build_system(p)
        g0, w0 = p.gamma_m, p.omega_m
        zr, zi = c.zeta_minus.real, c.zeta_minus.imag
        m3_printed = np.array(
            [
                [-2 * g0, 0.0, 2 * w0],
                [0.0, 2 * (2 * zr - g0), 2 * (2 * zi - w0)],
                [2 * zi - w0, w0, 2 * (zr - g0)],
            ]
        )
        scale = np.abs(m3_printed).max()
        if np.abs(s.m3 - m3_printed).max() > 1e-10 * scale:
            failures.append(f"drift mismatch at point {k}")
        for t in rng.uniform(0.0, 2 * np.pi / p.delta, 20):
            xi = complex(at_phase(c.xi_combined(), np.exp(2j * p.delta * t)))
            printed = np.array(
                [
                    c.phi,
                    c.phi + 2 * xi.real - c.phi * zr / g0,
                    xi.imag - c.phi * zi / (2 * g0),
                ]
            )
            ode = s.ode()
            drive = at_time(ode.drive_static, ode.drive_harmonic, ode.omega, t)
            if np.abs(drive - printed).max() > 1e-10 * np.abs(printed).max():
                failures.append(f"drive mismatch at point {k}, t={t:.2e}")
                break
    report(3, "compiled drift/drive match the printed 3-variable forms", failures)


def test_analytic_vs_numeric(baseline):
    """4: closed-form dynamical and steady solutions vs RK4 integration."""
    failures = []
    t_tr = 10.0 / SLOW_RATE
    n = int(np.ceil(t_tr * 2 * baseline.omega_m / 0.004))
    grid = TimeGrid(0.0, t_tr, n, sample_stride=max(n // 50, 1))
    tr_rk = evolve(baseline, grid)
    tr_an = evolve_analytic(baseline, grid)
    if len(tr_rk.times) < 50:
        failures.append("fewer than 50 comparison times")
    worst = max(
        np.abs(a - b).max() / np.abs(b).max()
        for a, b in zip(tr_rk.covariances, tr_an.covariances)
    )
    if worst > 1e-6:
        failures.append(f"dynamical solution deviates by {worst:.2e}")

    # long-time limit: 10 mirror damping times, commensurate with pi/(2 Delta)
    t_end = 10.0 / baseline.gamma_m
    Z = int(np.ceil(t_end * 2 * baseline.delta / np.pi / 2.0)) * 2
    t_end = Z * np.pi / (2 * baseline.delta)
    n = int(np.ceil(t_end * 2 * baseline.omega_m / 0.004))
    traj = evolve(baseline, TimeGrid(0.0, t_end, n, sample_stride=n))
    V_ref, _ = steady_state(baseline, phase=1.0)
    rel = np.abs(traj.covariances[-1] - V_ref).max() / np.abs(V_ref).max()
    if rel > 1e-6:
        failures.append(f"steady solution deviates by {rel:.2e}")
    report(4, "analytic solutions match RK4 integration", failures)


def _read_columns(path):
    text = path.read_text().strip().splitlines()
    header = text[0].split(",")
    data = {h: [] for h in header}
    for line in text[1:]:
        for h, cell in zip(header, line.split(",")):
            data[h].append(float(cell) if cell not in ("", "nan") else np.nan)
    return {h: np.array(v) for h, v in data.items()}


def test_figure_shapes(shipped):
    """5: qualitative reproduction of the shipped figure scenarios."""
    out, _, _ = shipped
    failures = []

    en0 = _read_columns(out / "fig2a_r0.csv")["E_N"]
    if not np.all(en0 == 0.0):
        failures.append("fig2a: vacuum-reservoir E_N not identically zero")

    steady = _read_columns(out / "fig2b_steady.csv")
    e_by_ratio = dict(zip(steady["delta_over_omega_m"], steady["E_N"]))
    if not (e_by_ratio[1.0] >= e_by_ratio[0.5] and e_by_ratio[1.0] >= e_by_ratio[1.5]):
        failures.append("fig2b: detuning matching not optimal")

    en = _read_columns(out / "fig2c_EN.csv")["E_N"]
    dp = _read_columns(out / "fig2c_dP2.csv")["dP2_minus"]
    if not np.array_equal(en > 0.0, dp < 0.5):
        failures.append("fig2c: entangled region != squeezed region")

    d2d = _read_columns(out / "fig2d_EN.csv")
    if not np.any((d2d["T_K"] >= 1e-3) & (d2d["E_N"] > 0.0)):
        failures.append("fig2d: no entanglement at T >= 1 mK")

    argmins = []
    for tag in ("0.01", "0.1", "2"):
        cols = _read_columns(out / f"fig3a_dP2_P{tag}uW.csv")
        vals, rs = cols["dP2_minus"], cols["r"]
        k = int(np.argmin(vals))
        if not 0 < k < len(vals) - 1:
            failures.append(f"fig3a P={tag}uW: minimum not interior")
            continue
        eps = 1e-12
        if not (np.all(np.diff(vals[: k + 1]) <= eps)
                and np.all(np.diff(vals[k:]) >= -eps)):
            failures.append(f"fig3a P={tag}uW: variance not U-shaped")
        argmins.append(rs[k])
    if len(argmins) == 3 and not (argmins[0] > argmins[1] > argmins[2]):
        failures.append(f"fig3a: r_opt not decreasing in P: {argmins}")
    report(5, "figure-shape reproduction on shipped scenario outputs", failures)


def test_optimal_squeezing_formula():
    """6: closed-form optimum within 0.02 of the golden-section oracle."""
    failures = []
    for p_uw in np.geomspace(0.1, 4.0, 7):
        opt = optimal_squeezing(baseline_params(power_w=p_uw * 1e-6))
        if opt.r_formula is None:
            failures.append(f"P={p_uw:.2f}uW: formula out of domain")
        elif abs(opt.r_formula - opt.r_numeric) >= 0.02:
            failures.append(
                f"P={p_uw:.2f}uW: |formula - numeric| = "
                f"{abs(opt.r_formula - opt.r_numeric):.4f}"
            )
    report(6, "optimal squeezing formula matches the numeric minimizer", failures)


def test_adiabatic_elimination_validity():
    """7: elimination accurate at gamma/kappa = 1.5e-4, broken at 1."""
    failures = []
    comp = compare_adiabatic(baseline_params(gamma_m_hz=1.5e-4 * KAPPA_HZ))
    if not comp.steady_rel_deviation < 0.05:
        failures.append(f"valid regime deviation {comp.steady_rel_deviation:.4f}")
    comp = compare_adiabatic(baseline_params(gamma_m_hz=KAPPA_HZ, power_w=16e-6))
    if not comp.steady_rel_deviation > 0.20:
        failures.append(f"breakdown deviation only {comp.steady_rel_deviation:.4f}")
    report(7, "adiabatic elimination valid/broken in the expected regimes", failures)


def _check_physical(V, where, failures):
    nu_min = symplectic_eigenvalues(V)[0]
    if nu_min < 0.5 - 1e-6:
        failures.append(f"{where}: symplectic eigenvalue {nu_min:.8f}")
        return
    obs = quadrature_observables(V)
    if obs.dP2_minus * obs.dQ2_minus < 0.25 - 1e-9:
        failures.append(f"{where}: uncertainty product violated")
    if obs.nu_tilde[0] > obs.nu_tilde[1] + 1e-12:
        failures.append(f"{where}: nu ordering violated")
    if obs.dP2_minus > obs.dQ2_minus + 1e-9:
        failures.append(f"{where}: rotated dP2 > dQ2")


def test_physicality_of_shipped_scenarios():
    """8: every covariance behind the shipped curves is physical."""
    failures = []
    # trajectory scenarios
    for r in (0.0, 0.5, 1.0, 2.0):
        p = baseline_params(r=r)
        traj = evolve(p, trajectory_grid(p, default_t_end(p, 10.0), 200))
        for k, V in enumerate(traj.covariances):
            _check_physical(V, f"fig2a r={r} sample {k}", failures)
    for ratio in (0.5, 1.0, 1.5):
        p = baseline_params(delta_hz=ratio * 32.1e6)
        traj = evolve(p, trajectory_grid(p, default_t_end(p, 10.0), 200))
        for k, V in enumerate(traj.covariances):
            _check_physical(V, f"fig2b delta={ratio} sample {k}", failures)
    for r in (0.0, 1.0, 2.0):
        p = baseline_params(
            r=r, temperature_k=2.5e-3, gamma_m_hz=1.5e-3 * KAPPA_HZ
        )
        grid = trajectory_grid(p, 5.0 / p.gamma_m, 100)
        from sqzmirror.full import evolve_full

        for name, traj in (
            ("full", evolve_full(p, grid)),
            ("reduced", evolve(p, grid)),
        ):
            for k, V6 in enumerate(traj.covariances):
                V = mirror_block(V6) if name == "full" else V6
                _check_physical(V, f"figS1 r={r} {name} sample {k}", failures)
    # steady-state scans
    for r in np.arange(0.0, 2.5 + 1e-12, 0.025):
        V, _ = steady_state(baseline_params(r=r), phase=1.0)
        _check_physical(V, f"fig2c r={r:.3f}", failures)
    for T in np.linspace(0.0, 5e-3, 101):
        V, _ = steady_state(baseline_params(temperature_k=T), phase=1.0)
        _check_physical(V, f"fig2d T={T:.4f}", failures)
    for p_uw in (0.01, 0.1, 2.0):
        for r in np.arange(0.0, 2.5 + 1e-12, 0.1):
            V, _ = steady_state(baseline_params(r=r, power_w=p_uw * 1e-6), phase=1.0)
            _check_physical(V, f"fig3a P={p_uw} r={r:.2f}", failures)
    for ratio in np.geomspace(1.5e-5, 1.0, 13):
        V = steady_full(baseline_params(gamma_m_hz=ratio * KAPPA_HZ), phase=1.0)
        _check_physical(mirror_block(V), f"fig4a ratio={ratio:.2e}", failures)
    report(8, "all shipped covariances physical (nu >= 1/2 - 1e-6)", failures)


def test_small_system_fock_oracle():
    """9: compiled moments vs truncated Fock-space brute force."""
    failures = []
    gamma, nbar, dim = 1.0, 0.5, 31
    times = np.linspace(0.0, 5.0 / (2.0 * gamma), 21)[1:]
    x2_ref, p2_ref = integrate_fock_thermal(gamma, nbar, dim, times)
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(gamma * (nbar + 1), a, np.conj(a))
    spec.add_dissipator(gamma * nbar, np.conj(a), a)
    n_steps = 2500
    _, covs = integrate(
        compile_generator(spec),
        vacuum(1),
        TimeGrid(0.0, times[-1], n_steps, sample_stride=n_steps // 20),
    )
    worst = max(
        np.abs(covs[1:, 0, 0] - x2_ref).max(),
        np.abs(covs[1:, 1, 1] - p2_ref).max(),
    )
    if worst > 1e-4:
        failures.append(f"quadrature variance deviates by {worst:.2e}")
    report(9, "moment equations match the Fock-space oracle", failures)


def test_shipped_outputs_match_reference(shipped):
    """Every figure's CSVs equal the values recorded in the benchmark's
    reference (perfbench/reference.json.xz) within its stated tolerances."""
    out, first, names = shipped
    reference = verify.load_reference()
    failures = []
    for name in names:
        written = [out / f for f in first if f.startswith(f"{name}_")]
        check = verify.check_run(name, (), written, reference)
        failures += [f"{name}: {problem}" for problem in check.problems]
    assert not failures, "; ".join(failures)


def test_deterministic_outputs(shipped):
    """10: rerunning every scenario reproduces byte-identical files."""
    out, first, names = shipped
    failures = []
    for name in names:
        run_scenario(ScenarioConfig(scenario=name, output_dir=str(out)))
    for fname, blob in sorted(first.items()):
        if (out / fname).read_bytes() != blob:
            failures.append(f"{fname} changed between runs")
    report(10, "byte-identical CSV output across consecutive runs", failures)
