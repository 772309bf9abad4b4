"""Parameter derivation: drive amplitude, occupations, response coefficients."""

import numpy as np
import pytest

from sqzmirror.errors import ParameterError
from sqzmirror.params import (
    HBAR,
    KB,
    Harmonic,
    baseline_params,
    derive,
    from_hz,
    thermal_occupation,
    xi_pm,
)

# direct evaluation of Omega^2/(kappa^2 + Delta^2) at the baseline
BASELINE_ALPHA_SQ = 3208525195.1323137
# Bose-Einstein occupation at (2*pi*32.1 MHz, 2.5 mK)
NBAR_2P5_MK = 1.1738194658473216


def test_baseline_cavity_amplitude(baseline):
    c = derive(baseline)
    p = baseline
    omega_l = p.omega_c - p.delta
    omega_direct = 2.0 * np.sqrt(p.power * p.kappa / (HBAR * omega_l))
    assert c.omega_drive == pytest.approx(omega_direct, rel=1e-14)
    assert abs(c.alpha) ** 2 == pytest.approx(
        c.omega_drive**2 / (p.kappa**2 + p.delta**2), rel=1e-13
    )
    assert abs(c.alpha) ** 2 == pytest.approx(BASELINE_ALPHA_SQ, rel=1e-9)
    assert c.alpha == pytest.approx(c.omega_drive / (1j * p.kappa - p.delta))


def test_drive_prefactor_is_overridable():
    p2 = baseline_params(drive_prefactor=np.sqrt(2.0))
    c2 = derive(p2)
    c1 = derive(baseline_params())
    assert abs(c2.alpha) ** 2 == pytest.approx(0.5 * abs(c1.alpha) ** 2, rel=1e-12)


def test_zero_squeezing_gives_vacuum_reservoir():
    c = derive(baseline_params(r=0.0))
    assert c.N == 0.0
    assert c.M == 0.0


def test_zero_temperature(baseline):
    c = derive(baseline)
    assert c.nbar0 == 0.0
    assert c.phi == pytest.approx(baseline.gamma_m)


def test_pure_reservoir_identity():
    for r in (0.0, 0.3, 1.0, 2.5, 4.0):
        c = derive(baseline_params(r=r))
        assert c.M**2 == pytest.approx(c.N * (c.N + 1.0), rel=1e-13, abs=1e-13)


def test_zeta_identities(baseline):
    p = baseline
    c = derive(p)
    a2 = abs(c.alpha) ** 2
    lhs_sum = 4 * p.eta0**2 * a2 / (p.kappa - 1j * (p.delta + p.omega_m))
    lhs_dif = 4 * p.eta0**2 * a2 / (p.kappa + 1j * (p.delta - p.omega_m))
    assert c.zeta_plus + c.zeta_minus == pytest.approx(lhs_sum, rel=1e-13)
    assert c.zeta_plus - c.zeta_minus == pytest.approx(lhs_dif, rel=1e-13)


def test_thermal_occupation_values():
    assert thermal_occupation(1e8, 0.0) == 0.0
    # hbar w / kB T = ln 2  =>  nbar = 1
    w = 1e8
    T = HBAR * w / (KB * np.log(2.0))
    assert thermal_occupation(w, T) == pytest.approx(1.0, rel=1e-12)
    assert thermal_occupation(2 * np.pi * 32.1e6, 2.5e-3) == pytest.approx(
        NBAR_2P5_MK, rel=1e-12
    )


def test_thermal_occupation_monotonicity():
    w = 2 * np.pi * 32.1e6
    temps = np.linspace(1e-4, 5e-3, 40)
    vals = [thermal_occupation(w, T) for T in temps]
    assert np.all(np.diff(vals) > 0)
    freqs = np.linspace(0.5 * w, 3 * w, 40)
    vals = [thermal_occupation(f, 2.5e-3) for f in freqs]
    assert np.all(np.diff(vals) < 0)


def test_thermal_occupation_rejects_bad_args():
    with pytest.raises(ParameterError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ParameterError):
        thermal_occupation(1e8, -1.0)


def test_laser_frequency_must_be_positive():
    with pytest.raises(ParameterError):
        derive(baseline_params(delta_hz=7e9))  # delta > omega_c


def test_params_invariants():
    with pytest.raises(ParameterError):
        from_hz(6.98e9, -6.2e6, 32.1e6, 930.0, 39.0, 4e-6, 32.1e6, 1.0, 0.0, 2.0)
    with pytest.raises(ParameterError):
        baseline_params(r=-0.5)


def test_xi_pm_vacuum_reservoir(baseline):
    p = baseline_params(r=0.0)
    a2 = abs(derive(p).alpha) ** 2
    xp, xm = xi_pm(p, p.omega_m, t=0.0)
    assert xp == pytest.approx(a2 / (p.kappa - 1j * (p.delta - p.omega_m)), rel=1e-12)
    assert xm == pytest.approx(a2 / (p.kappa - 1j * (p.delta + p.omega_m)), rel=1e-12)
    # cooling rate: xi+* + xi+ = 2 kappa |alpha|^2 / (kappa^2 + (Delta - w)^2)
    rate = 2 * xp.real
    assert rate == pytest.approx(
        2 * p.kappa * a2 / (p.kappa**2 + (p.delta - p.omega_m) ** 2), rel=1e-12
    )


def test_xi_pm_periodicity(baseline):
    period = np.pi / baseline.delta
    for t in (0.0, 3.7e-9):
        a = xi_pm(baseline, baseline.omega_m, t)
        b = xi_pm(baseline, baseline.omega_m, t + period)
        assert a[0] == pytest.approx(b[0], rel=1e-9)
        assert a[1] == pytest.approx(b[1], rel=1e-9)


def test_xi_combined_time_average_keeps_only_static_part(baseline):
    """Quadrature average of the drive coefficient over one period.

    The oscillating (M) part must integrate to zero, leaving the static
    (N-dependent) component.
    """
    c = derive(baseline)
    h = c.xi_combined()
    period = np.pi / baseline.delta
    ts = np.linspace(0.0, period, 4001)
    vals = np.array([h.at_time(t, 2 * baseline.delta) for t in ts])
    avg = np.trapezoid(vals, ts) / period
    assert avg == pytest.approx(h.c0, rel=1e-8)
    assert abs(h.cp) > 0  # sideband present at r = 1


def test_harmonic_arithmetic():
    h = Harmonic(1.0 + 2.0j, 0.5 - 0.5j, 0.25j)
    z = np.exp(0.73j)
    t_val = h(z)
    assert h.conj()(z) == pytest.approx(np.conj(t_val), rel=1e-14)
    assert h.re()(z) == pytest.approx(t_val.real, rel=1e-14)
    assert h.im()(z) == pytest.approx(t_val.imag, rel=1e-14)
    assert (h + h)(z) == pytest.approx(2 * t_val, rel=1e-14)
    assert (3.0 * h)(z) == pytest.approx(3 * t_val, rel=1e-14)
    assert (h - 1.0)(z) == pytest.approx(t_val - 1.0, rel=1e-14)
