"""Experiment-level parameters and every derived model coefficient.

SI units with hbar and k_B explicit. Angular frequencies (rad/s) are stored
internally; the config/CLI layer accepts ordinary frequencies in Hz and
multiplies by 2*pi before constructing PhysicalParams.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

TWO_PI = 2.0 * np.pi


# A time-periodic coefficient c0 + cp e^{i w t} + cm e^{-i w t} (w = 2*Delta
# here) is kept exactly as its parts: an array (..., 3) holding (cm, c0, cp)
# along its last axis (the amplitude of e^{i h w t} at h + 1), any leading
# axes being member axes. The functions below are its arithmetic.

PARTS_ONE = np.array([0.0, 1.0, 0.0])  # the parts of 1: x * 1 is outer(x, PARTS_ONE)
PARTS_RAISING = np.array([0.0, 0.0, 1.0], dtype=complex)  # the parts of e^{i w t}
PARTS_ONE.setflags(write=False)
PARTS_RAISING.setflags(write=False)


def member_factor(z):
    """z as a factor of an array with one more trailing axis (parts, or
    vectors): an array z carries member axes only."""
    return z[..., None] if isinstance(z, np.ndarray) else z


def parts_conj(parts):
    """conj(c e^{i h w t}) = conj(c) e^{-i h w t}: the parts conjugated, reversed."""
    return np.conj(parts[..., ::-1])


def parts_imag(parts):
    """The parts of the imaginary part, (c - conj(c)) / 2i."""
    return (parts - parts_conj(parts)) / 2j


def is_static(parts) -> bool:
    """True when the oscillating parts are at most 1e-9 of the static part
    (so of the largest part), at every member, each on its own scale."""
    size = np.abs(parts)
    return bool(np.logical_and.reduce(
        np.maximum(size[..., 0], size[..., 2]) <= 1e-9 * size[..., 1], axis=None))


_PLUS_MINUS = np.array([1.0, -1.0])
_PLUS_MINUS.setflags(write=False)


def _not_finite(name: str, value: float) -> str:
    return f"{name} must be finite, got {value!r}"


_NEGATIVE = "gamma_m, power, temperature, r must be >= 0"


def check_r(r) -> None:
    """The checks PhysicalParams makes on r, for a float or every entry of an
    array: the first entry that fails raises its ParameterError. An r fails
    when it is not finite, negative, or so large that derive's N = sinh^2 r
    overflows (M = cosh r sinh r rounds to N there); a float overflow raises
    OverflowError, where numpy's would only warn.
    """
    # a Python float is checked as it is; an np.float64 (a float too) goes
    # through tolist(), so that its messages show a Python float
    for r_k in [r] if type(r) is float else np.ravel(r).tolist():
        if not math.isfinite(r_k):
            raise ParameterError(_not_finite("r", r_k))
        if r_k < 0.0:
            raise ParameterError(_NEGATIVE)
        try:
            math.sinh(r_k) ** 2
        except OverflowError:
            raise ParameterError(f"r = {r_k!r} overflows N = sinh^2 r") from None


@dataclass(frozen=True)
class PhysicalParams:
    """Experiment-level inputs; every rate is angular (rad/s).

    delta is the common detuning of the drive to the cavity and to the
    squeezed-field carrier (the model enforces them equal at the type level).
    """

    omega_c: float  # cavity frequency
    kappa: float  # cavity damping
    omega_m: float  # mirror frequency
    gamma_m: float  # mirror damping
    eta0: float  # single-photon optomechanical coupling
    power: float  # drive power, W
    delta: float  # detuning
    r: float  # reservoir squeezing degree
    temperature: float  # K
    drive_prefactor: float  # Omega = prefactor * sqrt(P kappa / hbar omega_L)

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            name, value = next((k, v) for k, v in vars(self).items() if not math.isfinite(v))
            raise ParameterError(_not_finite(name, value))
        if self.omega_c <= 0 or self.kappa <= 0 or self.omega_m <= 0:
            raise ParameterError("omega_c, kappa, omega_m must be positive")
        if self.gamma_m < 0 or self.power < 0 or self.temperature < 0:
            raise ParameterError(_NEGATIVE)
        check_r(self.r)

    @property
    def omega_laser(self) -> float:
        return self.omega_c - self.delta

    def with_(self, **kw) -> "PhysicalParams":
        return replace(self, **kw)


#: Microwave optomechanics baseline used by all shipped scenarios (Hz / W / K).
BASELINE_HZ: dict[str, float] = {
    "omega_c_hz": 6.98e9,
    "kappa_hz": 6.2e6,
    "omega_m_hz": 32.1e6,
    "gamma_m_hz": 15e-5 * 6.2e6,
    "eta0_hz": 39.0,
    "power_w": 4e-6,
    "delta_hz": 32.1e6,
    "r": 1.0,
    "temperature_k": 0.0,
    "drive_prefactor": 2.0,
}

# each BASELINE_HZ value's factor to its PhysicalParams field: 2 pi for a frequency in Hz
_FROM_HZ = [TWO_PI if key.endswith("_hz") else 1.0 for key in BASELINE_HZ]


def baseline_params(**overrides_hz) -> PhysicalParams:
    """Baseline parameter set, with optional Hz-level field overrides. The
    keys of BASELINE_HZ name PhysicalParams' fields in order, each with its
    unit; a "_hz" value is an ordinary frequency, multiplied by 2 pi."""
    cfg = dict(BASELINE_HZ)
    for key, val in overrides_hz.items():
        if key not in cfg:
            raise ParameterError(f"unknown parameter field {key!r}")
        cfg[key] = float(val)
    return PhysicalParams(*map(operator.mul, _FROM_HZ, cfg.values()))


_FIELDS = [f.name for f in fields(PhysicalParams)]


def stack_points(points: Sequence[PhysicalParams]) -> PhysicalParams:
    """The points as one PhysicalParams whose fields are arrays (K,) along an
    axis of points, for derive and the model builders to broadcast over.

    Each point was checked when it was made; the stack is not checked again,
    since PhysicalParams' checks read floats.
    """
    columns = np.array([list(vars(p).values()) for p in points]).T
    return _unchecked(zip(_FIELDS, columns))


def _unchecked(fields) -> PhysicalParams:
    """A PhysicalParams of the (name, value) pairs fields, not checked."""
    stack = object.__new__(PhysicalParams)
    vars(stack).update(fields)
    return stack


def _refuse(bad, values, message: str) -> None:
    """Raise ParameterError(message.format(v)) at the first entry v where bad holds."""
    if np.count_nonzero(bad):
        raise ParameterError(message.format(float(values[bad][0])))


def thermal_occupation(omega, temperature):
    """Bose-Einstein occupation 1/[exp(hbar w / kB T) - 1]; 0 at T = 0.

    omega and temperature may be arrays, broadcast together: each entry is
    judged on its own, and the first entry that fails raises its
    ParameterError. Where hbar w / kB T leaves the float range (T = 0, or a
    few uK at MHz frequencies) the occupation is 0.
    """
    omega, temperature = np.asarray(omega, dtype=float), np.asarray(temperature, dtype=float)
    _refuse(omega <= 0, omega, "omega must be positive, got {!r}")
    _refuse(temperature < 0, temperature, "temperature must be >= 0, got {!r}")
    return _occupation(omega, temperature)


def _occupation(omega, temperature):
    """thermal_occupation of values it would not refuse, unchecked (derive
    reads a PhysicalParams, which has checked them)."""
    with np.errstate(divide="ignore", over="ignore"):
        nbar = 1.0 / np.expm1(np.multiply(HBAR, omega) / np.multiply(KB, temperature))
    return float(nbar) if nbar.ndim == 0 else nbar


def reservoir_correlations(r):
    """(N, M) = (sinh^2 r, cosh r sinh r) of a squeezed reservoir of degree r.

    Floats for a scalar r; for an array r, arrays along its axes.
    """
    r = np.asarray(r, dtype=float)
    sinh = np.sinh(r)
    N, M = sinh**2, np.cosh(r) * sinh
    return (float(N), float(M)) if r.ndim == 0 else (N, M)


# not frozen, as MomentEquations, LinearHarmonicODE and ReducedSystem are not:
# a frozen dataclass sets each field through object.__setattr__, and each
# point of a fig4 figure builds nine of these four
@dataclass
class DerivedCoefficients:
    """Every symbol entering the moment equations, derived from PhysicalParams.

    N and M are the thermal-like and anomalous correlations of the squeezed
    reservoir (M^2 = N(N+1) for a pure squeezed field); zeta_minus/zeta_plus
    and zeta_bar_* are the cavity-response combinations entering the reduced
    drift and drive; phi = gamma_m (2 nbar0 + 1) is the thermal diffusion rate.
    The model builders read none of these, so they are computed when read.
    derive sets every field to floats, or to arrays along the axis of points
    of a stacked PhysicalParams; generator.compile_injections replaces N and
    M by arrays along a member axis of injections.
    """

    params: PhysicalParams
    omega_drive: float  # Omega
    alpha: complex  # steady cavity amplitude
    nbar0: float
    N: float
    M: float

    @property
    def phi(self) -> float:
        return self.params.gamma_m * (2.0 * self.nbar0 + 1.0)

    def _zeta(self, bar: bool, sign: float) -> complex:
        """The cavity responses at the two mirror sidebands, to |alpha|^2
        (zeta) or alpha^2 (zeta_bar), summed (sign +1) or subtracted (-1)."""
        p = self.params
        g = 2.0 * p.eta0**2 * (self.alpha**2 if bar else abs(self.alpha) ** 2)
        upper = g / (p.kappa + (1j if bar else -1j) * (p.delta + p.omega_m))
        return upper + sign * (g / (p.kappa + 1j * (p.delta - p.omega_m)))

    zeta_minus = property(lambda self: self._zeta(False, -1.0))
    zeta_plus = property(lambda self: self._zeta(False, 1.0))
    zeta_bar_plus = property(lambda self: self._zeta(True, 1.0))
    zeta_bar_minus = property(lambda self: self._zeta(True, -1.0))

    def point(self, k) -> "DerivedCoefficients":
        """The points k (an index array) of a derive of stacked points."""
        return DerivedCoefficients(
            _unchecked((name, value[k]) for name, value in vars(self.params).items()),
            self.omega_drive[k], self.alpha[k], self.nbar0[k], self.N[k], self.M[k])

    def xi_pair(self, omega_k: float) -> NDArray[np.complex128]:
        """The parts of (xi_k^{+}, xi_k^{-}), with a leading axis of the two,
        from the fluctuation drive F(t) = N |alpha|^2 + M alpha^2 e^{2i Delta t}
        and the cavity resolvents R = (upper, lower) at Delta + omega_k and
        Delta - omega_k: xi^{+-} = F R + (conj(F) + |alpha|^2) conj(R reversed)
        (1/(kappa - i y) is conj(1/(kappa + i y)), exactly)."""
        p = self.params
        a2 = abs(self.alpha) ** 2
        # the parts of F and of conj(F) + |alpha|^2
        F = PARTS_RAISING * member_factor(self.M * self.alpha**2) + np.multiply.outer(
            self.N * a2, PARTS_ONE)
        Fc = parts_conj(F) + np.multiply.outer(a2, PARTS_ONE)
        R = 1.0 / (p.kappa + 1j * (p.delta + np.multiply.outer(_PLUS_MINUS, omega_k)))
        # the pair leads, in front of every member axis of F
        R = R.reshape(R.shape[:1] + (1,) * (F.ndim - R.ndim) + R.shape[1:])
        return F * R[..., None] + Fc * np.conj(R[::-1])[..., None]

    def xi_combined(self) -> NDArray[np.complex128]:
        """The parts of eta0^2 (xi_k^- + conj(xi_k^+)) at omega_k = omega_m:
        the drive xi^r + i xi^i."""
        p = self.params
        xi = self.xi_pair(p.omega_m)
        return (xi[1] + parts_conj(xi[0])) * member_factor(p.eta0**2)


def derive(params: PhysicalParams) -> DerivedCoefficients:
    """Populate all derived coefficients for a parameter set.

    The fields of params may be arrays along an axis of points
    (stack_points); every coefficient then carries that axis, and the first
    point whose laser frequency is not positive raises its ParameterError.
    """
    p = params
    omega_l = np.asarray(p.omega_laser)
    _refuse(omega_l <= 0, omega_l, "laser frequency must be positive, got {!r}")
    omega_drive = p.drive_prefactor * np.sqrt(p.power * p.kappa / (HBAR * omega_l))
    alpha = omega_drive / (1j * p.kappa - p.delta)
    nbar0 = _occupation(p.omega_m, p.temperature)
    N, M = reservoir_correlations(p.r)
    return DerivedCoefficients(params=p, omega_drive=omega_drive, alpha=alpha,
                               nbar0=nbar0, N=N, M=M)
