"""Experiment-level parameters and every derived model coefficient.

SI units with hbar and k_B explicit. Angular frequencies (rad/s) are stored
internally; the config/CLI layer accepts ordinary frequencies in Hz and
multiplies by 2*pi before constructing PhysicalParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Harmonic:
    """Scalar of the form c0 + cp e^{i w t} + cm e^{-i w t} (w = 2*Delta here).

    Small closed arithmetic used to carry time-periodic coefficients around
    exactly instead of sampling them. The parts may be arrays along a member
    axis; the arithmetic broadcasts over it.
    """

    c0: complex = 0.0
    cp: complex = 0.0
    cm: complex = 0.0

    def __call__(self, phase: complex) -> complex:
        """Evaluate at e^{i w t} = phase (a unit-modulus complex number)."""
        return self.c0 + self.cp * phase + self.cm / phase

    def conj(self) -> "Harmonic":
        return Harmonic(np.conj(self.c0), np.conj(self.cm), np.conj(self.cp))

    def re(self) -> "Harmonic":
        c0, cp, cm = self.c0, self.cp, self.cm
        return Harmonic(
            0.5 * (c0 + np.conj(c0)), 0.5 * (cp + np.conj(cm)), 0.5 * (cm + np.conj(cp))
        )

    def im(self) -> "Harmonic":
        c0, cp, cm = self.c0, self.cp, self.cm
        return Harmonic(
            (c0 - np.conj(c0)) / 2j, (cp - np.conj(cm)) / 2j, (cm - np.conj(cp)) / 2j
        )

    def __add__(self, other):
        if isinstance(other, Harmonic):
            return Harmonic(self.c0 + other.c0, self.cp + other.cp, self.cm + other.cm)
        return Harmonic(self.c0 + other, self.cp, self.cm)

    __radd__ = __add__

    def __mul__(self, z):
        if isinstance(z, Harmonic):
            raise TypeError("product of two Harmonics leaves the harmonic space")
        return Harmonic(self.c0 * z, self.cp * z, self.cm * z)

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Harmonic):
            return Harmonic(self.c0 - other.c0, self.cp - other.cp, self.cm - other.cm)
        return Harmonic(self.c0 - other, self.cp, self.cm)

    def __rsub__(self, other):
        return Harmonic(other) + (-1.0) * self

    def is_static(self) -> bool:
        """True when the oscillating parts are at most 1e-9 of the static part
        (so of the largest part).

        Parts that are arrays (a member axis) are judged member by member,
        each on its own scale.
        """
        bound = 1e-9 * abs(self.c0)
        return bool(np.asarray((abs(self.cp) <= bound) & (abs(self.cm) <= bound)).all())


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
    for r_k in np.ravel(r).tolist():
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
        for name, value in vars(self).items():
            if not math.isfinite(value):
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


def from_hz(
    omega_c_hz: float,
    kappa_hz: float,
    omega_m_hz: float,
    gamma_m_hz: float,
    eta0_hz: float,
    power_w: float,
    delta_hz: float,
    r: float,
    temperature_k: float,
    drive_prefactor: float,
) -> PhysicalParams:
    """Build PhysicalParams from ordinary frequencies in Hz."""
    return PhysicalParams(
        omega_c=TWO_PI * omega_c_hz,
        kappa=TWO_PI * kappa_hz,
        omega_m=TWO_PI * omega_m_hz,
        gamma_m=TWO_PI * gamma_m_hz,
        eta0=TWO_PI * eta0_hz,
        power=power_w,
        delta=TWO_PI * delta_hz,
        r=r,
        temperature=temperature_k,
        drive_prefactor=drive_prefactor,
    )


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


def baseline_params(**overrides_hz) -> PhysicalParams:
    """Baseline parameter set, with optional Hz-level field overrides."""
    cfg = dict(BASELINE_HZ)
    for key, val in overrides_hz.items():
        if key not in cfg:
            raise ParameterError(f"unknown parameter field {key!r}")
        cfg[key] = float(val)
    return from_hz(**cfg)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/[exp(hbar w / kB T) - 1]; 0 at T = 0."""
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega!r}")
    if temperature < 0:
        raise ParameterError(f"temperature must be >= 0, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    return float(1.0 / np.expm1(x))


def reservoir_correlations(r):
    """(N, M) = (sinh^2 r, cosh r sinh r) of a squeezed reservoir of degree r.

    Floats for a scalar r; for an array r, arrays along its axes.
    """
    r = np.asarray(r, dtype=float)
    N, M = np.sinh(r) ** 2, np.cosh(r) * np.sinh(r)
    return (float(N), float(M)) if r.ndim == 0 else (N, M)


@dataclass(frozen=True)
class DerivedCoefficients:
    """Every symbol entering the moment equations, derived from PhysicalParams.

    N and M are the thermal-like and anomalous correlations of the squeezed
    reservoir (M^2 = N(N+1) for a pure squeezed field); zeta_minus/zeta_plus
    and zeta_bar_* are the cavity-response combinations entering the reduced
    drift and drive; phi = gamma_m (2 nbar0 + 1) is the thermal diffusion rate.
    derive sets N and M to floats; generator.compile_injections replaces
    them by arrays along a member axis.
    """

    params: PhysicalParams
    omega_drive: float  # Omega
    alpha: complex  # steady cavity amplitude
    nbar0: float
    N: float
    M: float
    phi: float
    zeta_minus: complex
    zeta_plus: complex
    zeta_bar_plus: complex
    zeta_bar_minus: complex

    def fluctuation_drive(self) -> Harmonic:
        """F(t) = N |alpha|^2 + M alpha^2 e^{2i Delta t} as a Harmonic."""
        a2 = abs(self.alpha) ** 2
        return Harmonic(self.N * a2, self.M * self.alpha**2, 0.0)

    def xi_harmonic(self, omega_k: float, sign: int) -> Harmonic:
        """Harmonic decomposition of xi_k^{+} (sign=+1) or xi_k^{-} (sign=-1)."""
        p = self.params
        F = self.fluctuation_drive()
        a2 = abs(self.alpha) ** 2
        r1 = 1.0 / (p.kappa + 1j * (p.delta + sign * omega_k))
        r2 = 1.0 / (p.kappa - 1j * (p.delta - sign * omega_k))
        return F * r1 + (F.conj() + a2) * r2

    def xi_combined(self) -> Harmonic:
        """eta0^2 (xi_k^- + conj(xi_k^+)) at omega_k = omega_m: the drive xi^r + i xi^i."""
        p = self.params
        h = self.xi_harmonic(p.omega_m, -1) + self.xi_harmonic(p.omega_m, +1).conj()
        return h * p.eta0**2


def derive(params: PhysicalParams) -> DerivedCoefficients:
    """Populate all derived coefficients for a parameter set."""
    p = params
    omega_l = p.omega_laser
    if omega_l <= 0:
        raise ParameterError(f"laser frequency must be positive, got {omega_l!r}")
    omega_drive = p.drive_prefactor * np.sqrt(p.power * p.kappa / (HBAR * omega_l))
    alpha = omega_drive / (1j * p.kappa - p.delta)
    nbar0 = thermal_occupation(p.omega_m, p.temperature)
    N, M = reservoir_correlations(p.r)
    phi = p.gamma_m * (2.0 * nbar0 + 1.0)
    a2 = abs(alpha) ** 2
    rp = 2.0 * p.eta0**2 * a2 / (p.kappa - 1j * (p.delta + p.omega_m))
    rm = 2.0 * p.eta0**2 * a2 / (p.kappa + 1j * (p.delta - p.omega_m))
    bp = 2.0 * p.eta0**2 * alpha**2 / (p.kappa + 1j * (p.delta + p.omega_m))
    bm = 2.0 * p.eta0**2 * alpha**2 / (p.kappa + 1j * (p.delta - p.omega_m))
    return DerivedCoefficients(
        params=p,
        omega_drive=float(omega_drive),
        alpha=complex(alpha),
        nbar0=nbar0,
        N=N,
        M=M,
        phi=float(phi),
        zeta_minus=rp - rm,
        zeta_plus=rp + rm,
        zeta_bar_plus=bp + bm,
        zeta_bar_minus=bp - bm,
    )

