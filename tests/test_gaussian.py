"""Symplectic core: spectra, partial transpose, negativity, rotations."""

import re
import warnings
from fractions import Fraction

import inputs
import numpy as np
import pytest

from _oracles import (
    exact_det,
    exact_spectrum,
    mean_phonons_pairs,
    rotated_variances_blocks,
    symplectic_spectrum,
)
from conftest import random_physical_cov
from sqzmirror import gaussian
from sqzmirror.errors import (
    DegenerateAngleWarning,
    DimensionError,
    PhysicalityError,
    PhysicalityWarning,
)
from sqzmirror.gaussian import (
    _invariants,
    frame_variances,
    log_negativity,
    mean_phonon,
    observables_and_nu_minus,
    partial_transpose,
    quadrature_observables,
    relative_mode_variances,
    rotate_local,
    rotation_angle,
    symplectic_eigenvalues,
    symplectic_form,
    thermal,
    two_mode_squeezed,
    vacuum,
)
from sqzmirror.params import baseline_params
from sqzmirror.reduced import evolve_r
from sqzmirror.scenarios import default_t_end, trajectory_grid

TWO_OVER_LN2 = 2.8853900817779268  # 2 / ln 2
U = np.finfo(float).eps / 2  # the unit roundoff


def test_symplectic_form_properties():
    U = symplectic_form(3)
    assert np.array_equal(U.T, -U)
    assert np.allclose(U @ U, -np.eye(6))


# At a double root (delta^2 = 4 det V) the closed form's discriminant must
# not cancel: errors stay at rounding of the squared entries, as eig(i U V)'s.
def double_root_tol(V):
    return 16.0 * np.finfo(float).eps * np.abs(V).max() ** 2


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert np.array_equal(symplectic_eigenvalues(vacuum(2)), [0.5, 0.5])
    for a in (0.5, 0.8, 1.0, 7.3, 1e3):
        V = a * np.eye(4)
        assert np.abs(symplectic_eigenvalues(V) - a).max() <= double_root_tol(V)
    V = thermal([1.2, 0.1])
    assert np.abs(symplectic_eigenvalues(V) - [0.6, 1.7]).max() <= 1e-15


def test_symplectic_eigenvalues_tmsv_pure():
    # pure state: both symplectic eigenvalues at the vacuum floor
    for s in (0.3, 1.0, 2.0, 3.0, 4.0):
        for V in (two_mode_squeezed(s), rotate_local(two_mode_squeezed(s), 0.7)):
            assert np.abs(symplectic_eigenvalues(V) - 0.5).max() <= double_root_tol(V)


def test_symplectic_eigenvalues_rejects_bad_input():
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(np.eye(3))
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(np.ones(4))
    V = vacuum(2).copy()
    V[0, 1] = 0.2  # asymmetric
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(V)
    for n_modes in (1, 3):
        with pytest.raises(DimensionError, match="2 modes only"):
            symplectic_eigenvalues(vacuum(n_modes))


@pytest.mark.parametrize("V", [
    np.diag([1.0, 1.0, 1.0, -1.0]),  # det V < 0
    np.diag([1.0, -1.0, 1.0, -1.0]),  # det V > 0, delta < 0
    # det V = 50 and delta = 2 > 0, but delta^2 - 4 det V = -196: complex roots
    np.array([[-1.0, 2.0, 1.0, -2.0], [2.0, -1.0, 2.0, 0.0],
              [1.0, 2.0, -2.0, 1.0], [-2.0, 0.0, 1.0, 1.0]]),
], ids=["det", "delta", "discriminant"])
def test_symplectic_eigenvalues_refuse_matrices_that_are_not_positive(V):
    with pytest.raises(DimensionError, match="no symplectic spectrum"):
        symplectic_eigenvalues(V)
    with pytest.raises(DimensionError, match="no symplectic spectrum"):
        symplectic_eigenvalues(np.array([vacuum(2), V]))


def test_closed_form_spectrum_matches_eigvals(rng):
    """The two-mode closed form against the moduli of eig(i U V), single and
    stacked, on random states and their partial transposes."""
    states = np.array([random_physical_cov(rng, 2) for _ in range(200)])
    for stack in (states, partial_transpose(states)):
        stacked = symplectic_eigenvalues(stack)
        assert stacked == pytest.approx(symplectic_spectrum(stack), rel=1e-12)
        for k in (0, 57, 199):
            assert np.array_equal(symplectic_eigenvalues(stack[k]), stacked[k])


def lifted_family(rng, n_samples):
    """The lifted covariances (4, samples, 4, 4) of a reduced3 r family at
    four squeezing degrees in [0, 2.5] and a temperature of the benchmark's
    range, on fig2a's grid of n_samples samples."""
    point = baseline_params(temperature_k=rng.uniform(*inputs.TEMPERATURE_K))
    grid = trajectory_grid(point, default_t_end(point, 10.0), n_samples)
    return np.array([t.covariances for t in evolve_r(point, rng.uniform(0.0, 2.5, 4), grid)])


def physical_draws(rng, n):
    """n each of random states, two-mode squeezed vacua with s up to 3 and
    thermal states, the last two under a random local rotation, and lifted
    trajectory covariances; made exactly symmetric, then their partial
    transposes after them."""
    def rotated(V):
        return rotate_local(V, rng.uniform(-np.pi, np.pi))

    states = [random_physical_cov(rng, 2) for _ in range(n)]
    states += [rotated(two_mode_squeezed(s)) for s in rng.uniform(0.0, 3.0, n)]
    states += [rotated(thermal(list(rng.uniform(0.0, 50.0, 2)))) for _ in range(n)]
    family = lifted_family(rng, 50).reshape(-1, 4, 4)
    states += list(family[rng.choice(len(family), n, replace=False)])
    V = np.array(states)
    V = 0.5 * (V + V.swapaxes(-1, -2))
    return np.concatenate([V, partial_transpose(V)])


def scaled_lambda_min(V):
    """The least eigenvalue of H = D^-1/2 V D^-1/2, D = diag V."""
    d = np.sqrt(np.einsum("...ii->...i", V))
    return np.linalg.eigvalsh(V / d[..., :, None] / d[..., None, :])[..., 0]


def det_bound(V):
    """(48 / lambda_min(H) + 3) u: the first-order bound on the relative
    error of the elimination's det V (CHANGES.md derives it)."""
    return (48.0 / scaled_lambda_min(V) + 3.0) * U


def test_det_against_exact_elimination(rng):
    """det V by elimination without pivoting, against det V in exact
    rational arithmetic on the same float entries: within det_bound on every
    draw, and its worst error times lambda_min(H), the condition that both
    methods' errors scale with, no worse than numpy's LAPACK det's."""
    V = physical_draws(rng, 25)
    exact = [exact_det(v) for v in V]

    def rel_err(det):
        return np.array([float(abs(Fraction(float(x)) - e) / e) for x, e in zip(det, exact)])

    new, lapack = rel_err(_invariants(V)[1]), rel_err(np.linalg.det(V))
    assert (new <= det_bound(V)).all(), (new / det_bound(V)).max()
    condition = scaled_lambda_min(V)
    assert (new * condition).max() <= (lapack * condition).max()


def with_entry(V, i, j, value):
    V = V.copy()
    V[i, j] = V[j, i] = value
    return V


@pytest.mark.parametrize("V", [
    # V_00 = 0 beside a coupling V_01: each elimination step divides by 0
    with_entry(np.diag([0.0, 1.0, 0.5, 0.5]), 0, 1, 0.1),
    with_entry(two_mode_squeezed(0.5), 1, 3, np.nan),
], ids=["zero first pivot", "nan"])
def test_zero_pivot_and_nan_are_refused_without_a_warning(V):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (symplectic_eigenvalues, log_negativity, quadrature_observables,
                  observables_and_nu_minus):
            for stack in (V, np.array([vacuum(2), V])):
                with pytest.raises(DimensionError, match="no symplectic spectrum: det V = "):
                    f(stack)


def spectrum_bounds(V, nu_plus, disc):
    """First-order bounds on the relative errors of nu_- and nu_+, from
    det_bound and, with m = max |V_ij|, the rounding of delta (gamma_4 on
    terms of at most 8 m^2 in all) and of disc (gamma_6 on at most 144 m^4),
    disc the exact discriminant (CHANGES.md derives them)."""
    m2 = np.abs(V).max(axis=(-2, -1)) ** 2
    e_delta, e_disc = 4 * U * 8 * m2, 6 * U * 144 * m2 ** 2
    e_root = e_disc / np.maximum(np.sqrt(disc), np.sqrt(e_disc))
    eps_plus2 = (e_delta + e_root) / (2 * nu_plus ** 2) + 2 * U
    return 0.5 * (det_bound(V) + eps_plus2) + U, 0.5 * eps_plus2 + U / 2


def at(value, row):
    """Entry row of a field of QuadratureObservables, or of each array of a
    tuple field."""
    if isinstance(value, tuple):
        return tuple(np.asarray(v)[row] for v in value)
    return np.asarray(value)[row]


def test_observables_pin_the_matrix_algebra_forms(rng):
    """On one matrix, 25 and a (4, 802) trajectory family: the rotated-frame
    variances, theta and the phonon numbers bit-equal to their forms on the
    2x2 blocks (_oracles), the fields of a stacked call bit-equal to the
    call on one of its matrices alone, and nu_tilde, E_N and V's own nu_-
    within spectrum_bounds of exact arithmetic (the family at every 16th
    sample)."""
    family = lifted_family(rng, 800)
    flat = family.reshape(-1, 4, 4)
    for V, rows in ((flat[rng.integers(len(flat))], [()]),
                    (flat[rng.choice(len(flat), 25, replace=False)], [(k,) for k in range(25)]),
                    (family, [(i, j) for i in range(4) for j in range(0, 802, 16)])):
        obs, nu_minus = observables_and_nu_minus(V)
        theta = gaussian._rotation_angle(V)[0]
        assert np.array_equal(obs.theta, theta)
        blocks = rotated_variances_blocks(V, theta)
        assert np.array_equal((obs.dQ2_minus, obs.dP2_minus, obs.dQ2_plus, obs.dP2_plus), blocks)
        assert np.array_equal(frame_variances(V), blocks)
        assert np.array_equal(relative_mode_variances(V), rotated_variances_blocks(V, 0.0))
        assert np.array_equal(np.stack(obs.phonon, axis=-1), mean_phonons_pairs(V))
        qo = quadrature_observables(V)
        for name, value in vars(obs).items():
            assert np.array_equal(getattr(qo, name), value), name
        for k in rng.choice(len(rows), 3):
            alone, nu_alone = observables_and_nu_minus(V[rows[k]])
            assert nu_alone == at(nu_minus, rows[k])
            for name, value in vars(obs).items():
                assert np.array_equal(getattr(alone, name), at(value, rows[k])), name
        for row in rows:
            for W, nu in ((V[row], at(nu_minus, row)), (partial_transpose(V[row]), None)):
                exact_minus, exact_plus, _, disc = exact_spectrum(W)
                bound_minus, bound_plus = spectrum_bounds(W, exact_plus, disc)
                if nu is not None:
                    assert abs(nu / exact_minus - 1) <= bound_minus + U, row
                    continue
                nu_tilde = at(obs.nu_tilde, row)
                assert abs(nu_tilde[0] / exact_minus - 1) <= bound_minus + U, row
                assert abs(nu_tilde[1] / exact_plus - 1) <= bound_plus + U, row
                e_n = max(0.0, -np.log2(2 * exact_minus))
                assert abs(at(obs.E_N, row) - e_n) <= ((bound_minus + U) / np.log(2)
                                                       + 2 * U * max(e_n, 1.0)), row


def test_partial_transpose_diagonal_invariant():
    V = np.diag([0.7, 0.9, 1.1, 1.3])
    assert np.array_equal(partial_transpose(V), V)


def test_partial_transpose_flips_p2_coupling():
    V = vacuum(2)
    V[1, 3] = V[3, 1] = 0.1
    Vt = partial_transpose(V)
    assert Vt[1, 3] == -0.1
    assert Vt[3, 1] == -0.1


def test_partial_transpose_involution(rng):
    V = random_physical_cov(rng, 2)
    assert np.allclose(partial_transpose(partial_transpose(V)), V)


def test_partial_transpose_needs_two_modes():
    with pytest.raises(DimensionError):
        partial_transpose(vacuum(3))


def test_tmsv_partial_transpose_eigenvalue():
    """Cancellation case: nu_- = e^{-2s}/2 comes from det V / nu_+^2 with its
    relative precision, down to 1.2e-3 at s = 3, as eig(i U V) gives it."""
    for s in (0.2, 1.0, 1.7, 2.25, 2.5, 2.75, 3.0):
        Vt = partial_transpose(rotate_local(two_mode_squeezed(s), 0.7))
        nu = symplectic_eigenvalues(Vt)
        assert nu == pytest.approx(0.5 * np.exp([-2 * s, 2 * s]), rel=1e-10)
        assert nu == pytest.approx(symplectic_spectrum(Vt), rel=1e-10)


def test_log_negativity_vacuum_and_thermal_zero():
    assert log_negativity(vacuum(2)) == 0.0
    assert log_negativity(2.3 * np.eye(4)) == 0.0


def test_log_negativity_tmsv():
    assert log_negativity(two_mode_squeezed(1.0)) == pytest.approx(
        TWO_OVER_LN2, rel=1e-10
    )
    # E_N = 2 s / ln 2 for the two-mode squeezed vacuum
    for s in (0.4, 1.5):
        assert log_negativity(two_mode_squeezed(s)) == pytest.approx(
            2 * s / np.log(2), rel=1e-10
        )


def test_log_negativity_warns_on_unphysical():
    with pytest.warns(PhysicalityWarning):
        log_negativity(0.3 * np.eye(4))
    # one unphysical matrix of a stack: one warning, every value still returned
    stack = np.array([two_mode_squeezed(0.5), 0.3 * np.eye(4), vacuum(2)])
    with pytest.warns(PhysicalityWarning) as record:
        values = log_negativity(stack)
    assert len(record) == 1
    assert values.shape == (3,)
    assert values[0] == log_negativity(two_mode_squeezed(0.5))


@pytest.mark.parametrize(
    "v11, v22, v12, expected",
    [(1.0, 0.5, 0.0, 0.0), (1.0, 1.0, 0.3, np.pi / 2), (1.2, 0.8, 0.2, np.pi / 4)],
)
def test_rotation_angle_quadrants(v11, v22, v12, expected):
    V = vacuum(2)
    V[0, 0], V[1, 1] = v11, v22
    V[0, 1] = V[1, 0] = v12
    assert rotation_angle(V) == pytest.approx(expected, abs=1e-12)


def test_rotation_angle_degenerate_flag(rng):
    with pytest.warns(DegenerateAngleWarning):
        assert rotation_angle(vacuum(2)) == 0.0
    stack = np.array([random_physical_cov(rng, 2), vacuum(2), random_physical_cov(rng, 2)])
    with pytest.warns(DegenerateAngleWarning) as record:
        theta = rotation_angle(stack)
    assert len(record) == 1
    assert theta[1] == 0.0 and theta[0] != 0.0 and theta[2] != 0.0
    # quadrature_observables uses the same angle without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(quadrature_observables(stack).theta, theta)


def test_rotate_local_identity_and_alignment(rng):
    V = random_physical_cov(rng, 2)
    assert np.allclose(rotate_local(V, 0.0), V)
    theta = rotation_angle(V)
    Vbar = rotate_local(V, theta)
    assert abs(Vbar[0, 1]) < 1e-10 * np.abs(V).max()
    assert Vbar[0, 0] - Vbar[1, 1] >= 0.0


def test_rotate_local_preserves_spectrum_and_negativity(rng):
    for _ in range(5):
        V = random_physical_cov(rng, 2)
        theta = rng.uniform(-np.pi, np.pi)
        Vbar = rotate_local(V, theta)
        assert np.allclose(
            symplectic_eigenvalues(Vbar), symplectic_eigenvalues(V), rtol=1e-10
        )
        assert log_negativity(Vbar) == pytest.approx(log_negativity(V), abs=1e-10)


def test_relative_mode_variances_vacuum_and_offdiag():
    assert relative_mode_variances(vacuum(2)) == (0.5, 0.5, 0.5, 0.5)
    V = vacuum(2)
    V[1, 3] = V[3, 1] = -0.1
    dq_m, dp_m, dq_p, dp_p = relative_mode_variances(V)
    assert dp_m == pytest.approx(0.6)
    assert dp_p == pytest.approx(0.4)


def test_relative_mode_variances_tmsv():
    s = 0.8
    dq_m, dp_m, dq_p, dp_p = relative_mode_variances(two_mode_squeezed(s))
    assert dq_m == pytest.approx(0.5 * np.exp(-2 * s), rel=1e-12)
    assert dp_m == pytest.approx(0.5 * np.exp(2 * s), rel=1e-12)
    assert dq_p == pytest.approx(0.5 * np.exp(2 * s), rel=1e-12)
    assert dp_p == pytest.approx(0.5 * np.exp(-2 * s), rel=1e-12)


def asymmetric_physical_cov(rng):
    """A random physical two-mode covariance whose modes differ (V00 != V22)."""
    V = random_physical_cov(rng, 2)
    V[:2, :2] += np.diag(rng.uniform(0.5, 3.0, size=2))
    return V


def relative_quadrature_variances(V):
    """w^T V w for w = (e_1 -+ e_2)/sqrt(2) on the q, then the p, entries."""
    e = np.eye(4)
    ws = (e[0] - e[2], e[1] - e[3], e[0] + e[2], e[1] + e[3])
    return np.array([w @ V @ w / 2.0 for w in ws])


def test_relative_mode_variances_of_asymmetric_states(rng):
    """Each variance is that of (q1 -+ q2)/sqrt(2) or (p1 -+ p2)/sqrt(2), also
    when the state is not exchange-symmetric: relative_mode_variances of V, and
    frame_variances of V against the same variances of rotate_local(V, theta)
    at V's rotation angle. Within 8 ulps of max|V|."""
    for _ in range(50):
        V = asymmetric_physical_cov(rng)
        ulps = 8 * np.finfo(float).eps * np.abs(V).max()
        want = relative_quadrature_variances(V)
        assert np.abs(np.array(relative_mode_variances(V)) - want).max() <= ulps
        want = relative_quadrature_variances(rotate_local(V, rotation_angle(V)))
        assert np.abs(np.array(frame_variances(V)) - want).max() <= ulps


def test_relative_mode_variances_keep_the_uncertainty_bound():
    """The seed-0 draw of test_quadrature_observables_consistency: reading
    dQ2_minus as V00 - V02, valid only for exchange-symmetric states, gave
    dP2_minus * dQ2_minus = 0.1275 < 1/4 on a physical V."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        obs = quadrature_observables(random_physical_cov(rng, 2))
        assert obs.dP2_minus * obs.dQ2_minus >= 0.25


def test_relative_mode_variances_rejects_negative(rng):
    V = vacuum(2)
    V[1, 3] = V[3, 1] = -0.8  # dP2_plus would be -0.3
    with pytest.raises(PhysicalityError):
        relative_mode_variances(V)
    stack = np.array([random_physical_cov(rng, 2), V, random_physical_cov(rng, 2)])
    for f in (relative_mode_variances, quadrature_observables):
        with pytest.raises(PhysicalityError):
            f(stack)


def test_mean_phonon():
    assert mean_phonon(vacuum(2), 0) == 0.0
    assert mean_phonon(thermal([1.7, 0.2]), 0) == pytest.approx(1.7)
    assert mean_phonon(thermal([1.7, 0.2]), 1) == pytest.approx(0.2)
    s = 0.9
    V = np.diag([np.exp(2 * s) / 2, np.exp(-2 * s) / 2])
    V = np.block([[V, np.zeros((2, 2))], [np.zeros((2, 2)), vacuum(1)]])
    assert mean_phonon(V, 0) == pytest.approx(np.sinh(s) ** 2, rel=1e-12)


def test_mean_phonon_bad_mode():
    with pytest.raises(DimensionError):
        mean_phonon(vacuum(2), 2)


def test_mean_phonon_rejects_negative_in_a_stack():
    stack = np.array([vacuum(2), 0.1 * np.eye(4)])  # phonon number -0.4
    with pytest.raises(PhysicalityError):
        mean_phonon(stack, 0)
    with pytest.raises(PhysicalityError):
        quadrature_observables(stack)


def test_quadrature_observables_consistency(rng):
    for _ in range(5):
        V = random_physical_cov(rng, 2)
        obs = quadrature_observables(V)
        assert obs.nu_tilde[0] <= obs.nu_tilde[1]
        assert obs.dP2_minus * obs.dQ2_minus >= 0.25 - 1e-9
        assert obs.E_N == pytest.approx(log_negativity(V), abs=1e-12)
        # the rotated frame's variances, and the observables with V's own
        # spectrum, are quadrature_observables' numbers
        assert frame_variances(V) == (obs.dQ2_minus, obs.dP2_minus, obs.dQ2_plus,
                                      obs.dP2_plus)
        both, nu_minus = observables_and_nu_minus(V)
        assert both == obs and nu_minus == symplectic_eigenvalues(V)[0]


def _per_matrix_results(V, theta, n_modes):
    """Every broadcasting function of gaussian.py on V (one matrix or a stack)."""
    out = {
        "rotation_angle": rotation_angle(V),
        "rotate_local": rotate_local(V, theta),
        "mean_phonon": [mean_phonon(V, m) for m in range(n_modes)],
    }
    if n_modes == 2:
        obs = quadrature_observables(V)
        out.update(
            symplectic_eigenvalues=symplectic_eigenvalues(V),
            partial_transpose=partial_transpose(V),
            log_negativity=log_negativity(V),
            relative_mode_variances=relative_mode_variances(V),
            frame_variances=frame_variances(V),
            observables_and_nu_minus=[observables_and_nu_minus(V)[1]],
            quadrature_observables=[obs.dP2_minus, obs.dQ2_minus, obs.dP2_plus,
                                    obs.dQ2_plus, obs.theta, obs.E_N, *obs.nu_tilde,
                                    *obs.phonon],
        )
    return out


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_stack_equals_loop(rng, n_modes):
    """f(stack)[k] is bit-equal to f(stack[k]) for every broadcasting function."""
    stack = np.array([random_physical_cov(rng, n_modes) for _ in range(6)])
    thetas = rng.uniform(-np.pi, np.pi, len(stack))
    stacked = _per_matrix_results(stack, thetas, n_modes)
    for k in range(len(stack)):
        single = _per_matrix_results(stack[k], thetas[k], n_modes)
        for name, value in stacked.items():
            one = single[name]
            if isinstance(value, (list, tuple)):  # one stacked array per component
                assert np.array_equal([column[k] for column in value], one), (name, k)
                assert all(type(x) is float for x in one), name
            else:
                assert np.array_equal(value[k], one), (name, k)
                assert type(one) is float or np.ndim(one) > 0, name
    if n_modes == 2:  # any number of leading axes
        obs = quadrature_observables(stack.reshape(2, 3, 4, 4))
        assert np.array_equal(obs.E_N.ravel(), stacked["quadrature_observables"][5])


def test_check_covariance_refusals():
    """What the shared covariance check refuses, with which error, and what
    it lets through: rounding-level asymmetry, and NaN entries (symmetric,
    one-sided or on the diagonal), which the spectra refuse later."""
    check = gaussian._check_covariance
    V = two_mode_squeezed(0.5)
    for bad in (np.eye(3), np.ones(4), np.ones((2, 4, 3))):
        with pytest.raises(DimensionError, match="square of even dimension"):
            check(bad)
    lopsided = V.copy()
    lopsided[0, 3] += 1e-9
    nudged = V.copy()
    nudged[0, 3] += 1e-14 * np.abs(V).max()
    one_nan, diagonal_nan = V.copy(), V.copy()
    one_nan[2, 1] = np.nan
    diagonal_nan[3, 3] = np.nan
    # more matrices than one block of the symmetry test holds
    many = np.array([V] * 3000)
    many_lopsided = many.copy()
    many_lopsided[-1] = lopsided
    for refused in (lopsided, np.array([V, lopsided]),
                    np.array([with_entry(V, 1, 3, np.nan), lopsided]),
                    np.array([diagonal_nan, lopsided]), many_lopsided):
        with pytest.raises(DimensionError, match="^V is not symmetric$"):
            check(refused)
    for passed in (nudged, with_entry(V, 1, 3, np.nan), one_nan, diagonal_nan,
                   np.array([V, one_nan]), np.zeros((0, 4, 4)), many):
        assert check(passed) is passed
    assert check([[1, 0], [0, 1]]).dtype == float
    # the scale is the largest entry modulus, negative entries included
    for big in (-4.6e9, 4.6e9):
        text = (f"covariance entries up to {abs(big):.3e} round at 1.0e-06: precision "
                "lost beyond the physicality tolerance 1e-06")
        with pytest.raises(PhysicalityError, match=f"^{re.escape(text)}$"):
            check(np.array([V, with_entry(V, 0, 2, big)]))
    assert check(with_entry(V, 0, 2, -4.4e9)) is not None


@pytest.mark.parametrize("f", [
    symplectic_eigenvalues, partial_transpose, log_negativity, rotation_angle,
    lambda V: rotate_local(V, 0.3), relative_mode_variances,
    lambda V: mean_phonon(V, 0), quadrature_observables,
])
def test_stack_with_one_asymmetric_matrix_is_rejected(rng, f):
    stack = np.array([random_physical_cov(rng, 2) for _ in range(3)])
    stack[1, 0, 1] += 0.2
    with pytest.raises(DimensionError):
        f(stack)


@pytest.mark.parametrize("f", [
    symplectic_eigenvalues, log_negativity, rotation_angle, relative_mode_variances,
    lambda V: mean_phonon(V, 0), quadrature_observables,
])
def test_entries_past_the_physicality_precision_are_refused(f):
    """Entries of size x round at x * eps; past PHYSICALITY_TOL (x > 4.5e9)
    a matrix, or a stack holding one, is refused as lost precision."""
    V = np.array([[2.0, 0.3, 0.5, 0.0], [0.3, 3.0, 0.0, 0.4],
                  [0.5, 0.0, 5.0, 0.2], [0.0, 0.4, 0.2, 7.0]]) / 7.0
    fine, coarse = 4.4e9 * V, 4.6e9 * V
    f(fine)
    for V in (coarse, np.array([fine, coarse])):
        with pytest.raises(PhysicalityError, match="precision lost"):
            f(V)
