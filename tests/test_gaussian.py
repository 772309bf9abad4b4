"""Symplectic core: spectra, partial transpose, negativity, rotations."""

import warnings

import numpy as np
import pytest

from conftest import random_physical_cov
from sqzmirror.errors import (
    DegenerateAngleWarning,
    DimensionError,
    PhysicalityError,
    PhysicalityWarning,
)
from sqzmirror.gaussian import (
    log_negativity,
    mean_phonon,
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

TWO_OVER_LN2 = 2.8853900817779268  # 2 / ln 2


def test_symplectic_form_properties():
    U = symplectic_form(3)
    assert np.array_equal(U.T, -U)
    assert np.allclose(U @ U, -np.eye(6))


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert np.allclose(symplectic_eigenvalues(vacuum(2)), [0.5, 0.5])
    for a in (0.5, 1.0, 7.3):
        assert np.allclose(symplectic_eigenvalues(a * np.eye(4)), [a, a])


def test_symplectic_eigenvalues_tmsv_pure():
    # pure state: both symplectic eigenvalues at the vacuum floor
    for s in (0.3, 1.0, 2.0):
        nu = symplectic_eigenvalues(two_mode_squeezed(s))
        assert np.allclose(nu, [0.5, 0.5], atol=1e-10)


def test_symplectic_eigenvalues_rejects_bad_input():
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(np.eye(3))
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(np.ones(4))
    V = vacuum(1).copy()
    V[0, 1] = 0.2  # asymmetric
    with pytest.raises(DimensionError):
        symplectic_eigenvalues(V)


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
    for s in (0.2, 1.0, 1.7):
        nu_min = symplectic_eigenvalues(partial_transpose(two_mode_squeezed(s)))[0]
        assert nu_min == pytest.approx(0.5 * np.exp(-2 * s), rel=1e-10)


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


def _per_matrix_results(V, theta, n_modes):
    """Every broadcasting function of gaussian.py on V (one matrix or a stack)."""
    out = {
        "symplectic_eigenvalues": symplectic_eigenvalues(V),
        "rotation_angle": rotation_angle(V),
        "rotate_local": rotate_local(V, theta),
        "mean_phonon": [mean_phonon(V, m) for m in range(n_modes)],
    }
    if n_modes == 2:
        obs = quadrature_observables(V)
        out.update(
            partial_transpose=partial_transpose(V),
            log_negativity=log_negativity(V),
            relative_mode_variances=relative_mode_variances(V),
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
