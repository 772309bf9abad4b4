"""Generator compiler: moment equations from Hamiltonian + dissipator terms."""

import re
import tracemalloc
from dataclasses import replace

import inputs
import numpy as np
import pytest

from _fock import integrate_fock_thermal
from _oracles import compile_injections_loop, compile_loop, symplectic_spectrum
from conftest import random_point
from _periodic import at_phase, at_time, frozen
from sqzmirror.dynamics import (
    TimeGrid,
    integrate,
    periodic_steady_state,
    steady_at_phase,
)
from sqzmirror.errors import GeneratorError, SimulationError
from sqzmirror.gaussian import vacuum
from sqzmirror.generator import (
    RESERVOIR_INJECTIONS,
    GeneratorSpec,
    annihilation_vector,
    compile_generator,
    compile_injections,
    full_generator,
    hermitian_form,
    reduced_generator,
)
from sqzmirror.params import baseline_params, derive, stack_points

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def one_mode_number_hamiltonian(omega: float) -> np.ndarray:
    a = annihilation_vector(1, 0)
    return hermitian_form(omega / 2.0, np.conj(a), a)


def test_harmonic_oscillator_drift():
    omega = 2.3
    eqs = compile_generator(GeneratorSpec(1, one_mode_number_hamiltonian(omega)))
    assert np.allclose(eqs.drift, omega * J, atol=1e-14)
    assert np.allclose(eqs.diffusion_static, 0.0)
    assert eqs.omega == 0.0


def test_vacuum_decay_fixed_point():
    kappa = 1.7
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(kappa, a, np.conj(a))
    eqs = compile_generator(spec)
    assert np.allclose(eqs.drift, -kappa * np.eye(2), atol=1e-14)
    assert np.allclose(eqs.diffusion_static, kappa * np.eye(2), atol=1e-14)
    V_dc, V_2 = periodic_steady_state(eqs)
    assert np.allclose(V_dc, vacuum(1), atol=1e-14)
    assert np.allclose(V_2, 0.0)


@pytest.mark.parametrize("nbar", [0.0, 0.5, 3.7])
def test_thermal_decay_steady_state(nbar):
    gamma = 0.9
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(gamma * (nbar + 1), a, np.conj(a))
    if nbar:
        spec.add_dissipator(gamma * nbar, np.conj(a), a)
    V_dc, _ = periodic_steady_state(compile_generator(spec))
    assert np.allclose(V_dc, (nbar + 0.5) * np.eye(2), atol=1e-13)


def test_thermal_decay_matches_fock_oracle():
    """Quadrature variances against the truncated number-basis integrator."""
    gamma, nbar, dim = 1.0, 0.5, 31
    # five decay times of <n> (rate 2*gamma in this dissipator convention)
    times = np.linspace(0.0, 5.0 / (2.0 * gamma), 21)[1:]
    x2_ref, p2_ref = integrate_fock_thermal(gamma, nbar, dim, times)

    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(gamma * (nbar + 1), a, np.conj(a))
    spec.add_dissipator(gamma * nbar, np.conj(a), a)
    eqs = compile_generator(spec)
    n_steps = 2500
    grid = TimeGrid(0.0, times[-1], n_steps, sample_stride=n_steps // 20)
    sampled, covs = integrate(eqs, vacuum(1), grid)
    assert np.allclose(sampled[1:], times, rtol=1e-12)
    x2 = covs[1:, 0, 0]
    p2 = covs[1:, 1, 1]
    assert np.abs(x2 - x2_ref).max() < 1e-4
    assert np.abs(p2 - p2_ref).max() < 1e-4


# the refusals of the compiler, word for word
ASYMMETRIC = "hamiltonian must be a symmetric 2n x 2n matrix"
COMPLEX_STATIC = "term list is not self-adjoint (complex static moments)"
HARMONIC_DRIFT = "harmonic terms produce a time-dependent drift"
UNPAIRED = "term list is not self-adjoint (sidebands not conjugate)"


def test_non_self_adjoint_term_list_rejected():
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)))
    spec.add_dissipator(0.3, a, a)  # squeeze term without its h.c. partner
    with pytest.raises(GeneratorError, match=re.escape(COMPLEX_STATIC)):
        compile_generator(spec)


def test_time_dependent_drift_rejected():
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, np.zeros((2, 2)), delta=1.0)
    spec.add_dissipator(0.3, a, np.conj(a), harmonic=+1)
    spec.add_dissipator(0.3, a, np.conj(a), harmonic=-1)
    with pytest.raises(GeneratorError, match=re.escape(HARMONIC_DRIFT)):
        compile_generator(spec)


def test_reduced_generator_decoupled_mirrors():
    p = baseline_params(eta0_hz=0.0, temperature_k=2.5e-3)
    c = derive(p)
    eqs = compile_generator(reduced_generator(c))
    expected_drift = np.kron(np.eye(2), p.omega_m * J - p.gamma_m * np.eye(2))
    assert np.allclose(eqs.drift, expected_drift, atol=1e-9)
    assert np.allclose(eqs.diffusion_static, c.phi * np.eye(4), rtol=1e-12)
    assert np.abs(eqs.diffusion_harmonic).max() < 1e-12 * c.phi


def test_reduced_generator_vacuum_reservoir_rates():
    """r = 0: squeezing-like amplitudes keep only the |alpha|^2 resolvents."""
    p = baseline_params(r=0.0)
    c = derive(p)
    spec = reduced_generator(c)
    a2 = abs(c.alpha) ** 2
    am = (annihilation_vector(2, 0) - annihilation_vector(2, 1)) / np.sqrt(2.0)
    squeeze_rates = [
        term.rate
        for term in spec.dissipators
        if np.allclose(term.left, am) and np.allclose(term.right, am)
    ]
    assert len(squeeze_rates) == 1
    expected = p.eta0**2 * (
        a2 / (p.kappa + 1j * (p.delta - p.omega_m))
        + a2 / (p.kappa - 1j * (p.delta + p.omega_m))
    )
    assert squeeze_rates[0] == pytest.approx(expected, rel=1e-12)
    assert all(t.harmonic == 0 for t in spec.dissipators)


def assert_frozen_matches_instantaneous(model, coeffs):
    """The spec frozen at t compiles to the harmonic-tagged compile's D(t)."""
    harmonic = compile_generator(model(coeffs))
    assert np.abs(harmonic.diffusion_harmonic).max() > 0
    for t in (0.0, 1.1e-9, 3.3e-9):
        snapshot = compile_generator(frozen(model(coeffs), t))
        assert np.allclose(snapshot.drift, harmonic.drift, rtol=1e-12)
        D_t = at_time(harmonic.diffusion_static, harmonic.diffusion_harmonic,
                      harmonic.omega, t)
        assert np.allclose(snapshot.diffusion_static, D_t, rtol=1e-10)
        assert np.abs(snapshot.diffusion_harmonic).max() == 0.0


def test_reduced_generator_frozen_matches_instantaneous(baseline):
    assert_frozen_matches_instantaneous(reduced_generator, derive(baseline))


def test_full_generator_frozen_matches_instantaneous(baseline):
    assert_frozen_matches_instantaneous(full_generator, derive(baseline))


def test_full_generator_uncoupled_cavity_block():
    p = baseline_params(eta0_hz=0.0, r=0.0)
    eqs = compile_generator(full_generator(derive(p)))
    A_c = eqs.drift[:2, :2]
    assert np.allclose(A_c, -p.kappa * np.eye(2) + p.delta * J, atol=1e-9)
    assert np.allclose(eqs.diffusion_static[:2, :2], p.kappa * np.eye(2), rtol=1e-12)
    assert np.allclose(eqs.drift[:2, 2:], 0.0)


def test_full_generator_cavity_reaches_pure_squeezed_state():
    """eta0 = 0, r > 0: the cavity marginal saturates the uncertainty bound."""
    p = baseline_params(eta0_hz=0.0, r=1.2)
    eqs = compile_generator(full_generator(derive(p)))
    V_dc, V_2 = periodic_steady_state(eqs)
    for phase in (1.0, -1.0, np.exp(0.43j)):
        V = steady_at_phase(V_dc, V_2, phase)
        nu = symplectic_spectrum(V[:2, :2])
        assert nu[0] == pytest.approx(0.5, abs=1e-6)


def test_full_generator_frozen_phase_squeezed_variances():
    """Zero detuning: steady cavity variances are exactly e^{+-2r}/2."""
    r = 0.8
    p = baseline_params(eta0_hz=0.0, r=r, delta_hz=0.0)
    eqs = compile_generator(full_generator(derive(p)))
    V = steady_at_phase(*periodic_steady_state(eqs), 1.0)
    ev = np.sort(np.linalg.eigvalsh(V[:2, :2]))
    assert ev[0] == pytest.approx(0.5 * np.exp(-2 * r), rel=1e-10)
    assert ev[1] == pytest.approx(0.5 * np.exp(2 * r), rel=1e-10)


def test_full_generator_drift_entrywise(baseline):
    """Compiled three-mode drift against the hand-derived linearized form."""
    p = baseline
    c = derive(p)
    eqs = compile_generator(full_generator(c))
    re_a, im_a = c.alpha.real, c.alpha.imag
    g0, w0, kap, dlt = p.gamma_m, p.omega_m, p.kappa, p.delta
    couplings = (p.eta0, -p.eta0)
    expected = np.zeros((6, 6))
    expected[0, :2] = [-kap, dlt]
    expected[1, :2] = [-dlt, -kap]
    for j, eta in enumerate(couplings):
        x, pq = 2 + 2 * j, 3 + 2 * j
        expected[0, x] = 2 * eta * im_a
        expected[1, x] = -2 * eta * re_a
        expected[x, x], expected[x, pq] = -g0, w0
        expected[pq, 0] = -2 * eta * re_a
        expected[pq, 1] = -2 * eta * im_a
        expected[pq, x], expected[pq, pq] = -w0, -g0
    assert np.abs(eqs.drift - expected).max() < 1e-10 * np.abs(expected).max()
    # diffusion: squeezed-bath cavity block plus thermal mirror blocks
    D0, D2 = eqs.diffusion_static, eqs.diffusion_harmonic
    assert np.allclose(D0[:2, :2], kap * (2 * c.N + 1) * np.eye(2), rtol=1e-12)
    assert np.allclose(D0[2:, 2:], c.phi * np.eye(4), rtol=1e-12)
    sq = kap * c.M * np.array([[1.0, 1.0j], [1.0j, -1.0]])
    assert np.abs(D2[:2, :2] - sq).max() < 1e-12 * kap * c.M
    assert np.abs(D2[2:, 2:]).max() == 0.0


@pytest.mark.parametrize("model", [reduced_generator, full_generator])
def test_compile_injections_span_every_reservoir(baseline, model):
    """The three injections give the moment equations at any (N, M)."""
    coeffs = derive(baseline)
    eqs = compile_injections(model, coeffs)
    eqs00, eqs10, eqs01 = eqs[0], eqs[1], eqs[2]
    direct = compile_generator(model(coeffs))
    scale = np.abs(direct.diffusion_static).max()
    D0 = eqs00.diffusion_static + coeffs.N * (eqs10.diffusion_static
                                              - eqs00.diffusion_static)
    assert np.abs(D0 - direct.diffusion_static).max() <= 1e-12 * scale
    D2 = coeffs.M * eqs01.diffusion_harmonic
    assert np.abs(D2 - direct.diffusion_harmonic).max() <= 1e-12 * scale
    assert np.abs(eqs10.drift - direct.drift).max() <= 1e-12 * np.abs(direct.drift).max()
    assert np.abs(eqs00.diffusion_harmonic).max() == 0.0


def test_compile_injections_refuse_reservoir_dependent_drift(baseline):
    """A drift that moves with N breaks the affine form and is refused."""
    def model(coeffs):
        spec = reduced_generator(coeffs)
        # (1 + N) along the member axis of the Hamiltonian
        spec.hamiltonian = spec.hamiltonian * (1.0 + coeffs.N)[:, None, None]
        return spec

    with pytest.raises(SimulationError, match="drift acquired reservoir dependence"):
        compile_injections(model, derive(baseline))


def test_compiled_moment_symmetry_preservation(baseline, rng):
    """A V + V A^T + D keeps V symmetric for the compiled reduced system."""
    eqs = compile_generator(reduced_generator(derive(baseline)))
    S = rng.normal(size=(4, 4))
    V = S + S.T
    D = at_time(eqs.diffusion_static, eqs.diffusion_harmonic, eqs.omega, 1e-9)
    dV = eqs.drift @ V + V @ eqs.drift.T + D
    assert np.allclose(dV, dV.T, rtol=1e-12)


def test_compiled_squeeze_generator_vs_mode_moments():
    """Independent oracle: closed-form <a a>, <a^dag a> dynamics.

    For H = w a^dag a, thermal decay (gamma, nbar) and a squeeze dissipator
    pair s*D_{a,a} + conj(s)*D_{a^dag,a^dag}, the complex moments obey
    n(t) = nbar + (n0 - nbar) e^{-2 gamma t} and
    m(t) = m_ss + (m0 - m_ss) e^{-(2 i w + 2 gamma) t},
    m_ss = -conj(s)/(i w + gamma), derived by hand from the adjoint action.
    """
    w, gamma, nbar = 1.3, 0.4, 0.8
    s = 0.11 - 0.07j
    a = annihilation_vector(1, 0)
    spec = GeneratorSpec(1, one_mode_number_hamiltonian(w))
    spec.add_dissipator(gamma * (nbar + 1), a, np.conj(a))
    spec.add_dissipator(gamma * nbar, np.conj(a), a)
    spec.add_dissipator(s, a, a)
    spec.add_dissipator(np.conj(s), np.conj(a), np.conj(a))
    eqs = compile_generator(spec)

    n0, m0 = 0.0, 0.0  # vacuum start
    m_ss = -np.conj(s) / (1j * w + gamma)
    n_steps = 4000
    grid = TimeGrid(0.0, 6.0, n_steps, sample_stride=n_steps // 10)
    for t, V in zip(*integrate(eqs, vacuum(1), grid)):
        n_t = nbar + (n0 - nbar) * np.exp(-2 * gamma * t)
        m_t = m_ss + (m0 - m_ss) * np.exp(-(2j * w + 2 * gamma) * t)
        V_ref = np.array(
            [
                [n_t + 0.5 + m_t.real, m_t.imag],
                [m_t.imag, n_t + 0.5 - m_t.real],
            ]
        )
        assert np.abs(V - V_ref).max() < 1e-9


# index pairs of the ten independent second moments, in the conventional order
TEN_MOMENTS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3),
               (1, 2), (1, 3), (2, 3)]


def ten_variable_system(eqs, t=0.0):
    """Extract the 10-moment drift matrix and drive vector from the compiler."""
    def coords(V):
        return np.array([V[i, j] for i, j in TEN_MOMENTS])

    cols = []
    for i, j in TEN_MOMENTS:
        V = np.zeros((4, 4))
        V[i, j] = V[j, i] = 1.0
        cols.append(coords(eqs.drift @ V + V @ eqs.drift.T))
    D = at_time(eqs.diffusion_static, eqs.diffusion_harmonic, eqs.omega, t)
    return np.column_stack(cols), coords(D)


def test_compiled_ten_variable_drift_and_drive(baseline):
    """Entry-by-entry check of the eliminated model's 10-moment system.

    One drift entry (row p1p2, column x1p2-coupling) is printed ambiguously
    in standard references; exchange symmetry of the two mirrors fixes it to
    equal the (row p1p2, column x1p2) partner, which is asserted instead.
    """
    p = baseline
    c = derive(p)
    eqs = compile_generator(reduced_generator(c))
    M10, B10 = ten_variable_system(eqs)
    g0, w0 = p.gamma_m, p.omega_m
    zr, zi = c.zeta_minus.real, c.zeta_minus.imag
    AMB = 1e9  # placeholder for the ambiguous entry, replaced below
    expected = np.array([
        [-2*g0, 0, 0, 0, 2*w0, 0, 0, 0, 0, 0],
        [0, 2*(zr-g0), 0, 0, 2*(zi-w0), 0, 0, -2*zi, -2*zr, 0],
        [0, 0, -2*g0, 0, 0, 0, 0, 0, 0, 2*w0],
        [0, 0, 0, 2*(zr-g0), 0, 0, -2*zi, 0, -2*zr, 2*(zi-w0)],
        [zi-w0, w0, 0, 0, zr-2*g0, -zi, -zr, 0, 0, 0],
        [0, 0, 0, 0, 0, -2*g0, w0, w0, 0, 0],
        [-zi, 0, 0, 0, -zr, zi-w0, zr-2*g0, 0, w0, 0],
        [0, 0, -zi, 0, 0, zi-w0, 0, zr-2*g0, w0, -zr],
        [0, -zr, 0, -zr, -zi, 0, zi-w0, AMB, 2*(zr-g0), -zi],
        [0, 0, zi-w0, w0, 0, -zi, 0, -zr, 0, zr-2*g0],
    ])
    mask = expected != AMB
    scale = np.abs(expected[mask]).max()
    assert np.abs(M10[mask] - expected[mask]).max() < 1e-10 * scale
    # the ambiguous entry follows from mirror-exchange symmetry
    assert M10[8, 7] == pytest.approx(M10[8, 6], rel=1e-12)
    assert M10[8, 7] == pytest.approx(zi - w0, rel=1e-10)

    for t in (0.0, 1.9e-9, 4.4e-9):
        _, B10_t = ten_variable_system(eqs, t)
        xi = complex(at_phase(c.xi_combined(), np.exp(2j * p.delta * t)))
        xr, xi_i = xi.real, xi.imag
        phi = c.phi
        printed = np.array([phi, phi + 2*xr, phi, phi + 2*xr, xi_i, 0.0,
                            -xi_i, -xi_i, -2*xr, xi_i])
        assert np.abs(B10_t - printed).max() < 1e-10 * np.abs(printed).max()


def assert_close(eqs, ref):
    """eqs within 1e-13 of each matrix's largest entry of ref's."""
    for name in ("drift", "diffusion_static", "diffusion_harmonic"):
        got, want = getattr(eqs, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
    assert eqs.omega == ref.omega


def assert_matches_loop(eqs, spec):
    """eqs within 1e-13 of each matrix's largest entry of the term loop's."""
    assert_close(eqs, compile_loop(spec))


def random_coeffs(rng, cold):
    """Derived coefficients at a random point of the benchmark's ranges."""
    p = random_point(rng).with_(r=rng.uniform(*inputs.R_RANGE))
    return derive(p.with_(temperature=0.0) if cold else p)


@pytest.mark.parametrize("model", [reduced_generator, full_generator])
@pytest.mark.parametrize("cold", [True, False], ids=["T=0", "T>0"])
def test_compiles_match_term_loop(rng, model, cold):
    """compile_generator against the term loop, at random points of the
    benchmark's ranges."""
    for _ in range(5):
        c = random_coeffs(rng, cold)
        assert_matches_loop(compile_generator(model(c)), model(c))


@pytest.mark.parametrize("model", [reduced_generator, full_generator])
@pytest.mark.parametrize("cold", [True, False], ids=["T=0", "T>0"])
def test_one_build_injections_match_loop(rng, model, cold):
    """compile_injections, one build with a member axis, against three scalar
    builds compiled one at a time by the term loop (compile_injections_loop),
    to 1e-13 of each matrix's largest entry."""
    for _ in range(5):
        c = random_coeffs(rng, cold)
        got, want = compile_injections(model, c), compile_injections_loop(model, c)
        assert got.omega.shape == (len(want),) == (3,)
        for j, ref in enumerate(want):
            assert_close(got[j], ref)
        if cold:
            # zero rates are skipped per build, so the scalar builds differ
            # in their live terms
            specs = [model(replace(c, N=n, M=m)) for n, m in RESERVOIR_INJECTIONS]
            assert len({len(spec.dissipators) for spec in specs}) > 1


def random_spec(rng, n_modes):
    """A self-adjoint spec with static, +1 and -1 tagged terms on random vectors."""
    dim = 2 * n_modes
    S = rng.normal(size=(dim, dim))
    spec = GeneratorSpec(n_modes, S + S.T, delta=rng.uniform(0.5, 2.0))
    for _ in range(3):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        s = complex(rng.normal(), rng.normal())
        spec.add_dissipator(rng.uniform(0.1, 2.0), a, np.conj(a))
        spec.add_dissipator(s, a, a)
        spec.add_dissipator(np.conj(s), np.conj(a), np.conj(a))
        spec.add_dissipator(s, a, a, harmonic=+1)
        spec.add_dissipator(np.conj(s), np.conj(a), np.conj(a), harmonic=-1)
    return spec


def member_spec(*specs):
    """The specs as the members of one spec of their mode count and delta,
    which they must share.

    Member k keeps spec k's Hamiltonian, and each term's rate is spec k's at
    member k and zero at the others. One spec has one Hamiltonian shape, so
    a misshaped member's shape is every member's (the others zero-padded).
    """
    assert len({spec.delta for spec in specs}) == 1
    hams = [np.asarray(spec.hamiltonian, dtype=float) for spec in specs]
    H = np.zeros((len(specs),) + max(h.shape for h in hams))
    for k, h in enumerate(hams):
        H[(k,) + tuple(slice(n) for n in h.shape)] = h
    stacked = GeneratorSpec(specs[0].n_modes, H, delta=specs[0].delta)
    for k, spec in enumerate(specs):
        for t in spec.dissipators:
            rate = np.zeros(len(specs), dtype=complex)
            rate[k] = t.rate
            stacked.add_dissipator(rate, t.left, t.right, t.harmonic)
    return stacked


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_hand_built_specs_match_term_loop(rng, n_modes):
    """Specs carrying all three tags, alone and as the members of one spec."""
    specs = [random_spec(rng, n_modes) for _ in range(3)]
    for spec in specs:
        assert_matches_loop(compile_generator(spec), spec)
    # the members of one spec share its delta
    specs = [replace(spec, delta=specs[0].delta) for spec in specs]
    stack = compile_generator(member_spec(*specs))
    for k, spec in enumerate(specs):
        assert_matches_loop(stack[k], spec)
        assert np.abs(stack[k].diffusion_harmonic).max() > 0


def member_of(spec, k):
    """Member k (row-major over the member shape) of a spec with member
    axes, as a spec of its own."""
    H = np.asarray(spec.hamiltonian)
    shape = np.broadcast_shapes(H.shape[:-2], np.shape(spec.delta),
                                *(np.shape(t.rate) for t in spec.dissipators))

    def at(x):
        return np.broadcast_to(x, shape).reshape(-1)[k]

    alone = GeneratorSpec(spec.n_modes, np.broadcast_to(H, shape + H.shape[-2:])
                          .reshape((-1,) + H.shape[-2:])[k], delta=float(at(spec.delta)))
    for t in spec.dissipators:
        alone.add_dissipator(at(t.rate), t.left, t.right, t.harmonic)
    return alone


@pytest.mark.parametrize("model", [reduced_generator, full_generator])
@pytest.mark.parametrize("members", [1, 3, 75, 303])
def test_contraction_at_every_stack_size(rng, model, members):
    """A model build of 1 member (a point alone), or of random points times
    the three reservoir injections: every member of its compile_generator
    is within 1e-13 of the term loop and bit-equal to a compile of that
    member alone."""
    points = [random_point(rng).with_(r=rng.uniform(*inputs.R_RANGE))
              for _ in range(max(members // 3, 1))]
    if members == 1:
        coeffs = derive(points[0])
    else:
        N, M = np.array(RESERVOIR_INJECTIONS).T.reshape(2, 3, 1)
        coeffs = replace(derive(stack_points(points)), N=N, M=M)
    spec = model(coeffs)
    stack = compile_generator(spec)
    assert np.size(stack.omega) == members
    for k in range(members):
        # a member shape (3, K) is indexed as one row-major position
        eqs = stack[np.unravel_index(k, stack.omega.shape)] if members > 1 else stack
        alone = member_of(spec, k)
        assert_matches_loop(eqs, alone)
        one = compile_generator(alone)
        for name in ("drift", "diffusion_static", "diffusion_harmonic", "omega"):
            assert np.array_equal(getattr(eqs, name), getattr(one, name)), (k, name)


@pytest.mark.parametrize("model", [reduced_generator, full_generator])
def test_compile_temporaries_stay_within_eight_outputs(rng, model):
    """tracemalloc's peak while compile_generator compiles 101 points times
    the three reservoir injections is at most 8 times the bytes of its three
    output fields: the members are evaluated in blocks, so the products of
    all of them, (T, dim, dim, S), are never built at once."""
    N, M = np.array(RESERVOIR_INJECTIONS).T.reshape(2, 3, 1)
    points = [random_point(rng) for _ in range(101)]
    spec = model(replace(derive(stack_points(points)), N=N, M=M))
    tracemalloc.start()
    try:
        eqs = compile_generator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(getattr(eqs, name).nbytes
                  for name in ("drift", "diffusion_static", "diffusion_harmonic"))
    assert peak <= 8 * outputs, peak / outputs


def test_one_type_for_every_member_shape(rng):
    """compile_generator returns one MomentEquations for any member shape: a
    spec without member axes gives (dim, dim) fields and a float omega, a
    member shape (a, b) gives (a, b, dim, dim) fields and omega (a, b), and
    eqs[i][j] is bit-equal to compiling member (i, j) alone.
    compile_injections puts the injection axis first: (3, *points)."""
    spec = random_spec(rng, 2)
    one = compile_generator(spec)
    for name in ("drift", "diffusion_static", "diffusion_harmonic"):
        assert getattr(one, name).shape == (4, 4), name
    assert isinstance(one.omega, float)

    flat = member_spec(*(replace(random_spec(rng, 2), delta=spec.delta) for _ in range(6)))
    grid = GeneratorSpec(2, flat.hamiltonian.reshape(2, 3, 4, 4), delta=flat.delta)
    for t in flat.dissipators:
        grid.add_dissipator(t.rate.reshape(2, 3), t.left, t.right, t.harmonic)
    eqs = compile_generator(grid)
    for name in ("drift", "diffusion_static", "diffusion_harmonic"):
        assert getattr(eqs, name).shape == (2, 3, 4, 4), name
    assert eqs.omega.shape == (2, 3)
    for k in range(6):
        member, alone = eqs[k // 3][k % 3], compile_generator(member_of(grid, k))
        for name in ("drift", "diffusion_static", "diffusion_harmonic", "omega"):
            assert np.array_equal(getattr(member, name), getattr(alone, name)), (k, name)

    points = [random_point(rng) for _ in range(4)]
    for model, dim in ((reduced_generator, 4), (full_generator, 6)):
        stacked = compile_injections(model, derive(stack_points(points)))
        assert stacked.drift.shape == (3, 4, dim, dim) and stacked.omega.shape == (3, 4)
        alone = compile_injections(model, derive(points[0]))
        assert alone.drift.shape == (3, dim, dim) and alone.omega.shape == (3,)


def one_mode_spec(*terms, hamiltonian=None):
    """One-mode spec from (rate, left, right, harmonic) terms on a, a^dag."""
    spec = GeneratorSpec(1, np.zeros((2, 2)) if hamiltonian is None else hamiltonian,
                         delta=1.0)
    for rate, left, right, harmonic in terms:
        spec.add_dissipator(rate, left, right, harmonic)
    return spec


A1 = annihilation_vector(1, 0)
AD1 = np.conj(A1)
BAD_SPECS = {
    "asymmetric": (lambda: one_mode_spec(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]])),
                   ASYMMETRIC),
    "misshaped": (lambda: one_mode_spec(hamiltonian=np.zeros((4, 4))), ASYMMETRIC),
    "tag": (lambda: one_mode_spec((0.3, A1, AD1, 2)), "unsupported harmonic tag 2"),
    "complex": (lambda: one_mode_spec((0.3, A1, A1, 0)), COMPLEX_STATIC),
    "drift": (lambda: one_mode_spec((0.3, A1, AD1, 1), (0.3, A1, AD1, -1)), HARMONIC_DRIFT),
    "sidebands": (lambda: one_mode_spec((0.3, A1, A1, 1), (0.6, AD1, AD1, -1)), UNPAIRED),
}


def refusal_of(cases):
    """The text a spec whose members have these defects, in order, earns.

    The structure (Hamiltonian shape and symmetry, then tags) is checked
    once for the whole spec, before any member's numbers; then the first
    member with a numeric defect decides.
    """
    for structural in (("asymmetric", "misshaped"), ("tag",)):
        hit = next((c for c in cases if c in structural), None)
        if hit is not None:
            return BAD_SPECS[hit][1]
    return BAD_SPECS[cases[0]][1]


@pytest.mark.parametrize("case", BAD_SPECS)
def test_every_refusal_keeps_its_text(case):
    """Each GeneratorError fires with the term loop's text, alone and as any
    member of a spec whose other members are sound."""
    build, text = BAD_SPECS[case]
    with pytest.raises(GeneratorError) as loop:
        compile_loop(build())
    assert str(loop.value) == text
    with pytest.raises(GeneratorError, match=f"^{re.escape(text)}$"):
        compile_generator(build())
    good = one_mode_spec((0.7, A1, AD1, 0))
    for members in ([build(), good], [good, build()], [good, build(), good]):
        with pytest.raises(GeneratorError, match=f"^{re.escape(text)}$"):
            compile_generator(member_spec(*members))


@pytest.mark.parametrize("first", BAD_SPECS)
@pytest.mark.parametrize("second", BAD_SPECS)
def test_stack_raises_what_compiling_in_order_raises(first, second):
    """Two bad members: a structure refusal if either has one, else the first
    member's refusal, as compiling the members one at a time in order gives."""
    text = refusal_of((first, second))
    if not {first, second} & {"asymmetric", "misshaped", "tag"}:
        with pytest.raises(GeneratorError, match=f"^{re.escape(text)}$"):
            compile_generator(BAD_SPECS[first][0]())
    with pytest.raises(GeneratorError, match=f"^{re.escape(text)}$"):
        compile_generator(member_spec(BAD_SPECS[first][0](), BAD_SPECS[second][0]()))


@pytest.mark.parametrize("defect", ["tag", "complex"])
def test_model_bad_only_at_one_injection(baseline, defect):
    """A defect in one build reaches compile_injections' refusal: a tag 2
    term anywhere in the model, or a complex static term whose rate is
    proportional to M and so nonzero only at the (N, M) = (0, 1) member."""
    am = (annihilation_vector(2, 0) - annihilation_vector(2, 1)) / np.sqrt(2.0)

    def model(coeffs):
        spec = reduced_generator(coeffs)
        if defect == "tag":
            spec.add_dissipator(1.0, am, np.conj(am), harmonic=2)
        else:
            spec.add_dissipator(coeffs.params.omega_m * coeffs.M, am, am)
        return spec

    coeffs = derive(baseline)
    if defect == "complex":
        compile_generator(model(replace(coeffs, N=0.0, M=0.0)))
        compile_generator(model(replace(coeffs, N=1.0, M=0.0)))
    text = "unsupported harmonic tag 2" if defect == "tag" else COMPLEX_STATIC
    with pytest.raises(GeneratorError, match=f"^{re.escape(text)}$"):
        compile_injections(model, coeffs)


def test_stack_checks_each_member_against_its_own_scale():
    """A defect small against a loud member's scale still fails a quiet one."""
    loud = one_mode_spec((1e12, A1, AD1, 0), (1e-2, A1, A1, 0))
    quiet = one_mode_spec((1.0, A1, AD1, 0), (1e-3, A1, A1, 0))
    sound = one_mode_spec((1.0, A1, AD1, 0))
    compile_generator(loud)  # 1e-2 is 1e-14 of its own scale
    for members in ([loud, quiet], [quiet, loud]):
        with pytest.raises(GeneratorError, match=re.escape(COMPLEX_STATIC)):
            compile_generator(member_spec(*members))
    stack = compile_generator(member_spec(loud, sound))
    for k, spec in enumerate([loud, sound]):
        assert_matches_loop(stack[k], spec)


def test_stacked_weight_checks_each_member_on_its_own_scale():
    """A stacked hermitian_form weight sets each member's scale: an
    imaginary static part 1e-8 of the quiet member's own scale is refused
    beside a member 1e12 louder, and one of 1e-10 is not."""
    H = hermitian_form(np.array([1e12, 1.0]), AD1, A1)
    assert H.shape == (2, 2, 2)
    assert np.array_equal(H[1], hermitian_form(1.0, AD1, A1))
    quiet_scale = np.abs(compile_generator(GeneratorSpec(1, H[1])).drift).max()
    for size, refused in ((1e-8, True), (1e-10, False)):
        spec = GeneratorSpec(1, H)
        # the imaginary part of a lone a a term is its rate over the scale
        spec.add_dissipator(np.array([0.0, size * quiet_scale]), A1, A1)
        if refused:
            with pytest.raises(GeneratorError, match=f"^{re.escape(COMPLEX_STATIC)}$"):
                compile_generator(spec)
        else:
            assert compile_generator(spec).omega.shape == (2,)


def test_empty_term_list_compiles(rng):
    """No dissipators: drift U G, no diffusion, alone, with a member axis on
    the Hamiltonian, and as a member beside a full spec."""
    empty = GeneratorSpec(2, np.diag([1.0, 2.0, 3.0, 4.0]), delta=1.0)
    eqs = compile_generator(empty)
    assert_matches_loop(eqs, empty)
    assert np.abs(eqs.diffusion_static).max() == 0.0
    assert eqs.omega == 0.0
    stacked = replace(empty, hamiltonian=np.array([1.0, 2.0])[:, None, None]
                      * empty.hamiltonian)
    stack = compile_generator(stacked)
    for k in range(2):
        assert_matches_loop(stack[k], replace(empty, hamiltonian=stacked.hamiltonian[k]))
    full_spec = replace(random_spec(rng, 2), delta=empty.delta)
    for members in ([empty, full_spec], [full_spec, empty]):
        stack = compile_generator(member_spec(*members))
        for k, spec in enumerate(members):
            assert_matches_loop(stack[k], spec)
