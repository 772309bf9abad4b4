"""Parameter derivation: drive amplitude, occupations, response coefficients."""

import dataclasses
import re

import numpy as np
import pytest

from _periodic import at_phase
from sqzmirror.errors import GeneratorError, ParameterError
from sqzmirror.generator import _require_static
from sqzmirror.reduced import steady_curve, steady_state
from sqzmirror.params import (
    BASELINE_HZ,
    HBAR,
    KB,
    PARTS_ONE,
    PARTS_RAISING,
    PhysicalParams,
    baseline_params,
    check_r,
    derive,
    is_static,
    member_factor,
    parts_conj,
    parts_imag,
    stack_points,
    thermal_occupation,
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


def test_thermal_occupation_is_zero_out_of_the_float_range(recwarn):
    """Where hbar w / kB T leaves the float range the occupation is exactly
    +0.0, with no RuntimeWarning (the suite turns those into errors): at
    T = 0, a division by zero, and at 1e-7 K, where hbar w / kB T is about
    1.5e4 at 32.1 MHz and exp overflows. Floats and every entry of a mixed
    array alike, the other entries keeping their own values; derive, of one
    point and of stacked points, reads the same occupations."""
    w = 2 * np.pi * 32.1e6
    assert HBAR * w / (KB * 1e-7) > np.log(np.finfo(float).max)
    temps = [0.0, 2.5e-3, 1e-7, 0.0, 1e-3]
    alone = [thermal_occupation(w, T) for T in temps]
    assert [type(n) for n in alone] == [float] * 5
    assert alone[0] == alone[2] == alone[3] == 0.0 and not np.signbit(alone).any()
    assert alone[1] == pytest.approx(NBAR_2P5_MK, rel=1e-12) and alone[4] > 0.0
    assert np.array_equal(thermal_occupation(w, np.array(temps)), alone)
    assert np.array_equal(thermal_occupation(np.full(5, w), np.array(temps)), alone)
    points = [baseline_params(temperature_k=T) for T in temps]
    assert [derive(p).nbar0 for p in points] == alone
    assert np.array_equal(derive(stack_points(points)).nbar0, alone)
    assert not recwarn.list


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


def test_baseline_hz_names_the_fields_in_order():
    """baseline_params reads BASELINE_HZ's values in PhysicalParams' field
    order: each key is its field's name and unit, and the "_hz" fields are
    the frequencies it multiplies by 2 pi."""
    names = [f.name for f in dataclasses.fields(PhysicalParams)]
    units = [re.fullmatch(r"(.*?)(_hz|_w|_k)?", key).groups() for key in BASELINE_HZ]
    assert [name for name, _ in units] == names
    p = baseline_params()
    for (name, unit), value in zip(units, BASELINE_HZ.values()):
        assert getattr(p, name) == (2.0 * np.pi * value if unit == "_hz" else value), name


def test_params_invariants(baseline, recwarn):
    with pytest.raises(ParameterError):
        baseline_params(kappa_hz=-6.2e6)
    with pytest.raises(ParameterError):
        baseline_params(r=-0.5)
    # non-finite fields, and an r whose N = sinh^2 r overflows
    for field, value, match in (("r", np.nan, "r must be finite"),
                                ("temperature", np.nan, "temperature must be finite"),
                                ("power", np.inf, "power must be finite"),
                                ("r", 400.0, "overflows N = sinh")):
        with pytest.raises(ParameterError, match=match):
            baseline.with_(**{field: value})
    with pytest.raises(ParameterError, match="r must be finite"):
        steady_curve(baseline)(float("nan"))
    with pytest.raises(ParameterError, match="temperature must be finite"):
        steady_state(baseline.with_(temperature=np.nan))
    assert not recwarn.list  # refused before numpy sees the overflow


def xi_pm(params, omega_k, t):
    """(xi_k^+, xi_k^-) at time t, from the harmonic decompositions."""
    c = derive(params)
    phase = np.exp(2j * params.delta * t)
    xi = c.xi_pair(omega_k)
    return at_phase(xi[0], phase), at_phase(xi[1], phase)


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
    cm, c0, cp = parts = c.xi_combined()
    period = np.pi / baseline.delta
    ts = np.linspace(0.0, period, 4001)
    vals = np.array([at_phase(parts, np.exp(2j * baseline.delta * t)) for t in ts])
    avg = np.trapezoid(vals, ts) / period
    assert avg == pytest.approx(c0, rel=1e-8)
    assert abs(cp) > 0  # sideband present at r = 1


@pytest.mark.parametrize("members", [(), (4,), (2, 3)],
                         ids=["scalar", "members", "member_grid"])
def test_parts_arithmetic_matches_evaluated_values(rng, members):
    """parts_conj, parts_imag, member_factor, PARTS_ONE and PARTS_RAISING,
    on random parts with and without member axes, evaluated at random phases,
    agree with the same operations on the evaluated values."""
    parts = rng.normal(size=members + (3,)) + 1j * rng.normal(size=members + (3,))
    z = rng.normal(size=members) + 1j * rng.normal(size=members)
    x = rng.normal(size=members)
    if not members:
        z, x = complex(z), float(x)
    for phase in np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 5)):
        value = at_phase(parts, phase)
        scale = np.abs(parts).sum(axis=-1)
        assert np.all(np.abs(at_phase(parts_conj(parts), phase) - np.conj(value))
                      <= 1e-14 * scale)
        assert np.all(np.abs(at_phase(parts_imag(parts), phase) - value.imag)
                      <= 1e-14 * scale)
        assert np.all(np.abs(at_phase(parts * member_factor(z), phase) - z * value)
                      <= 1e-14 * scale * np.abs(z))
        assert np.array_equal(at_phase(np.multiply.outer(x, PARTS_ONE), phase), x)
        assert at_phase(PARTS_RAISING, phase) == phase


def test_stacked_harmonic_judges_each_member_on_its_own_scale():
    """A member whose sideband is 1e-8 of its own size is not static beside
    a member 1e12 louder, and the refusal keeps its text; one of 1e-10 is."""
    for size, static in ((1e-8, False), (1e-10, True)):
        assert is_static(np.array([[0.0, 1e12, 0.0], [0.0, 1.0, size]])) is static
        assert is_static(np.array([0.0, 1.0, size])) is static
        assert is_static(np.array([size, 1.0, 0.0])) is static
    with pytest.raises(GeneratorError,
                       match="^drive acquired a harmonic part; cannot compile$"):
        _require_static(np.array([[0.0, 1e12, 0.0], [1e-8, 1.0, 0.0]]), "drive")


def test_check_r_refuses_as_physical_params_does(baseline, rng, recwarn):
    """check_r over an array gives the error PhysicalParams gives for the
    first failing entry, and passes what PhysicalParams accepts."""
    special = [np.nan, np.inf, -np.inf, -0.5, -0.0, 355.0, 355.6, 355.7, 400.0, 1e300]
    edge = 355.58 + 1e-3 * rng.standard_normal(20)  # where sinh(r)**2 overflows
    for _ in range(20):
        r = rng.choice(np.concatenate([special, edge, rng.uniform(0, 20, 20)]),
                       size=int(rng.integers(1, 6)))
        first = None
        for r_k in r.tolist():
            try:
                baseline.with_(r=r_k)
            except ParameterError as exc:
                first = str(exc)
                break
        if first is None:
            check_r(r)
        else:
            with pytest.raises(ParameterError) as err:
                check_r(r)
            assert str(err.value) == first
    assert not recwarn.list
