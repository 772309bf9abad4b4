"""Symplectic linear algebra on Gaussian covariance matrices.

Quadratures are ordered (x1, p1, x2, p2, ...) with vacuum variance 1/2
(hbar = 1 for the dimensionless phase-space variables). All operations are
pure functions on a covariance matrix, any real symmetric 2n x 2n array, or
on a stack of them (..., 2n, 2n): results run along the leading axes, each
bit-equal to the single-matrix call, and floats for one matrix become arrays.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateAngleWarning,
    DimensionError,
    PhysicalityError,
    PhysicalityWarning,
)

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-6
PAIRING_RTOL = 1e-9


@functools.cache
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form U with 2x2 blocks J = [[0,1],[-1,0]] (read-only)."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be positive, got {n_modes}")
    U = np.zeros((2 * n_modes, 2 * n_modes))
    k = np.arange(0, 2 * n_modes, 2)
    U[k, k + 1], U[k + 1, k] = 1.0, -1.0
    U.setflags(write=False)
    return U


def _out(x, V: NDArray):
    """A Python float for a single matrix V, the array itself for a stack."""
    return float(x) if V.ndim == 2 else x


def _flat(V: NDArray) -> NDArray:
    """Each matrix of a stack (..., m, m) as a row of its m^2 entries."""
    return V.reshape(V.shape[:-2] + (V.shape[-1] ** 2,))


def _scale(V: NDArray) -> NDArray[np.float64]:
    """Largest entry modulus of each matrix, at least 1."""
    return np.abs(_flat(V)).max(axis=-1, initial=1.0)


def _check_covariance(V: NDArray) -> NDArray[np.float64]:
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-1] != V.shape[-2] or V.shape[-1] % 2 != 0:
        raise DimensionError(f"V must be square of even dimension, got shape {V.shape}")
    Vt = V.swapaxes(-1, -2)
    # an exactly symmetric V, as the package's solves give, needs no tolerance
    if not (V == Vt).all():
        asymmetry = np.abs(_flat(V - Vt)).max(axis=-1)
        if (asymmetry > SYMMETRY_RTOL * 100 * _scale(V)).any():
            raise DimensionError("V is not symmetric")
    # entries of size scale round at scale * eps: past PHYSICALITY_TOL no
    # uncertainty bound or variance read from them can be trusted
    scale = np.abs(V).max(initial=1.0)
    rounding = scale * np.finfo(float).eps
    if rounding > PHYSICALITY_TOL:
        raise PhysicalityError(
            f"covariance entries up to {scale:.3e} round at "
            f"{rounding:.1e}: precision lost beyond the physicality "
            f"tolerance {PHYSICALITY_TOL}"
        )
    return V


# U V for U = symplectic_form(2) is a signed row swap: rows (V_1, -V_0, V_3,
# -V_2), each mode's pair of rows reversed and the second negated
_SIGN = np.array([[1.0], [-1.0]])
_EYE4 = np.eye(4)
for _table in (_SIGN, _EYE4):
    _table.setflags(write=False)


def _symplectic_pair(V: NDArray) -> tuple[NDArray, NDArray]:
    """(nu_-, nu_+) of every matrix of a checked stack, as two arrays."""
    if V.shape[-1] != 4:
        raise DimensionError(
            f"symplectic spectrum implemented for 2 modes only, got dim {V.shape[-1]}"
        )
    # nu_-^2, nu_+^2 are the roots of x^2 - delta x + det V with
    # delta = det A + det B + 2 det C for V = [[A, C], [C^T, B]] (Serafini,
    # Illuminati & De Siena, J. Phys. B 37, L21 (2004)). (UV)^2 has the
    # eigenvalues -nu_-^2, -nu_+^2, each twice: delta is minus half its trace,
    # and N below has +-(nu_+^2 - nu_-^2)/2, so disc = tr(N^2) = delta^2 - 4 det V.
    # N vanishes entrywise at a double root (a pure state), where
    # delta^2 - 4 det V would cancel to its rounding and its root keep half
    # the digits.
    W = (V.reshape(V.shape[:-2] + (2, 2, 4))[..., ::-1, :] * _SIGN).reshape(V.shape)
    M = W @ W
    delta = -0.5 * _flat(M)[..., ::5].sum(axis=-1)
    N = M + (0.5 * delta)[..., None, None] * _EYE4
    disc = _flat(N * N.swapaxes(-1, -2)).sum(axis=-1)
    det = np.linalg.det(V)
    # a positive definite V has real roots; a negative discriminant is rounding
    # only up to PAIRING_RTOL of the size its entries allow
    bad = np.minimum(det, delta) <= 0.0
    if (disc < 0.0).any():
        bad |= disc < -PAIRING_RTOL * _scale(V) ** 4
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        raise DimensionError(
            f"no symplectic spectrum: det V = {det.ravel()[k]!r}, "
            f"delta = {delta.ravel()[k]!r}, discriminant = {disc.ravel()[k]!r}"
        )
    nu2_plus = 0.5 * (delta + np.sqrt(np.maximum(disc, 0.0)))
    # the small root as det V / nu_+^2 keeps its digits when the state is
    # strongly entangled, where delta - sqrt(disc) would cancel
    return np.sqrt(det / nu2_plus), np.sqrt(nu2_plus)


def symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
    """Symplectic spectrum (nu_-, nu_+) of a 2-mode covariance, ascending.

    The moduli of the eigenvalues of i U V, each conjugate pair collapsed to
    one value, from the two-mode invariants det V and
    delta = det A + det B + 2 det C. Physical states have both values >= 1/2.
    Refuses (DimensionError) any other mode count and a matrix that is not
    positive definite: det V <= 0, delta <= 0 or complex roots.
    """
    return np.stack(_symplectic_pair(_check_covariance(V)), axis=-1)


# Lambda V Lambda for Lambda = diag(1, 1, 1, -1) flips the signs of row and
# column 3 but not of their common entry
_PT_SIGN = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
# the signs that give V and its partial transpose as one stack
_BOTH_SIGNS = np.array([np.ones((4, 4)), _PT_SIGN])
for _table in (_PT_SIGN, _BOTH_SIGNS):
    _table.setflags(write=False)


def _partial_transpose(V: NDArray) -> NDArray[np.float64]:
    if V.shape[-1] != 4:
        raise DimensionError(
            f"partial transpose implemented for 2 modes only, got dim {V.shape[-1]}"
        )
    return V * _PT_SIGN


def partial_transpose(V: NDArray) -> NDArray[np.float64]:
    """Momentum reversal of mode 2: Lambda V Lambda with Lambda = diag(1,1,1,-1)."""
    return _partial_transpose(_check_covariance(V))


def _negativity(nu_min: NDArray) -> NDArray[np.float64]:
    """max{0, -log2[2 nu_min]} from the least partial-transpose eigenvalue."""
    x = -np.log2(2.0 * nu_min)
    return np.where(x > 0.0, x, 0.0)


def _spectra(V: NDArray) -> tuple[NDArray, tuple[NDArray, NDArray]]:
    """(nu_-, (nu~_-, nu~_+)): the least symplectic eigenvalue of each matrix
    of a checked stack and the spectrum of its partial transpose, from one
    pass over both."""
    if V.shape[-1] != 4:
        raise DimensionError(
            f"symplectic spectrum implemented for 2 modes only, got dim {V.shape[-1]}"
        )
    both = V * _BOTH_SIGNS.reshape((2,) + (1,) * (V.ndim - 2) + (4, 4))
    nu_minus, nu_plus = _symplectic_pair(both)
    return nu_minus[0], (nu_minus[1], nu_plus[1])


def warn_uncertainty(nu_minus) -> None:
    """One PhysicalityWarning, raised at the caller's caller, when a least
    symplectic eigenvalue (of a matrix, or of any matrix of a stack) breaks
    the uncertainty bound beyond PHYSICALITY_TOL."""
    if np.any(nu_minus < 0.5 - PHYSICALITY_TOL):
        warnings.warn(
            "covariance violates the uncertainty bound; E_N is unreliable",
            PhysicalityWarning,
            stacklevel=3,
        )


def log_negativity(V: NDArray) -> float:
    """Logarithmic negativity E_N = max{0, -log2[2 min nu~]} of a 2-mode state.

    Emits one PhysicalityWarning (and still returns the values) when V, or
    any matrix of a stack, violates the uncertainty bound beyond PHYSICALITY_TOL.
    """
    V = _check_covariance(V)
    nu_minus, nu_tilde = _spectra(V)
    warn_uncertainty(nu_minus)
    return _out(_negativity(nu_tilde[0]), V)


def _rotation_angle(V: NDArray) -> tuple[NDArray, NDArray[np.bool_]]:
    """(theta, degenerate): the angle, set to 0 where <a1 a1> vanishes."""
    v00, v11 = V[..., 0, 0], V[..., 1, 1]
    re, im = v00 - v11, 2.0 * V[..., 0, 1]
    bound = 1e-14 * np.maximum(np.maximum(abs(v00), abs(v11)), 1e-300)
    degenerate = np.maximum(abs(re), abs(im)) <= bound
    return np.where(degenerate, 0.0, np.arctan2(im, re)), degenerate


def rotation_angle(V: NDArray) -> float:
    """Argument of the anomalous moment <a1 a1> = [V11 - V22 + 2i V12]/2.

    Degenerate case (<a1 a1> = 0) returns 0 with a DegenerateAngleWarning so
    downstream projections stay well defined; a stack warns once.
    """
    V = _check_covariance(V)
    theta, degenerate = _rotation_angle(V)
    if degenerate.any():
        warnings.warn(
            "anomalous moment vanishes; rotation angle set to 0",
            DegenerateAngleWarning,
            stacklevel=2,
        )
    return _out(theta, V)


def rotate_local(V: NDArray, theta: float) -> NDArray[np.float64]:
    """Identical phase-space rotation of both modes by theta/2: R V R^T.

    A local symplectic operation: it changes neither the symplectic spectrum
    nor the logarithmic negativity. theta broadcasts against a stack.
    """
    V = _check_covariance(V)
    n = V.shape[-1] // 2
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    R2 = np.array([[c, s], [-s, c]])
    R2 = R2.transpose(tuple(range(2, R2.ndim)) + (0, 1))  # (..., 2, 2)
    R = np.eye(n)[:, None, :, None] * R2[..., None, :, None, :]  # kron(I_n, R2)
    R = R.reshape(R.shape[:-4] + (2 * n, 2 * n))
    return R @ V @ R.swapaxes(-1, -2)


_MINUS_PLUS = np.array([-1.0, 1.0])
_MINUS_PLUS.setflags(write=False)


def _checked_variances(x: NDArray, y: NDArray) -> tuple:
    """(dQ2_minus, dP2_minus, dQ2_plus, dP2_plus) from the q block x = V[::2, ::2]
    and the p block y = V[1::2, 1::2], (V00 + V22)/2 -+ V02 and
    (V11 + V33)/2 -+ V13; refuses a negative variance."""
    dq = 0.5 * (x[..., 0, :1] + x[..., 1, 1:]) + _MINUS_PLUS * x[..., 0, 1:]
    dp = 0.5 * (y[..., 0, :1] + y[..., 1, 1:]) + _MINUS_PLUS * y[..., 0, 1:]
    variances = dq[..., 0], dp[..., 0], dq[..., 1], dp[..., 1]
    if (np.minimum(dq, dp) < -PHYSICALITY_TOL).any():
        val = next(v for v in variances if (v < -PHYSICALITY_TOL).any())
        raise PhysicalityError(f"negative quadrature variance {np.min(val)!r}")
    return variances


def _rotated_variances(V: NDArray, theta: NDArray) -> tuple:
    """relative_mode_variances of rotate_local(V, theta), in closed form.

    With c = cos(theta/2) and s = sin(theta/2), the rotated q block is
    Vbar_ij = c^2 V_ij + cs (V_i,j+1 + V_i+1,j) + s^2 V_i+1,j+1 for even i, j,
    and the p block Vbar_i+1,j+1 the same with c^2 and s^2 exchanged and cs
    negated. With a = V[::2, ::2], b = V[1::2, 1::2], r = V[::2, 1::2] +
    V[1::2, ::2] and c^2 = 1 - s^2, that is a - u and b + u for
    u = s^2 (a - b) - cs r: exactly a and b at theta = 0.
    """
    if V.shape[-1] != 4:
        raise DimensionError("relative-mode variances need exactly 2 modes")
    half = 0.5 * theta
    c, s = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    a, b = V[..., ::2, ::2], V[..., 1::2, 1::2]
    r = V[..., ::2, 1::2] + V[..., 1::2, ::2]
    u = (s * s) * (a - b) - (c * s) * r
    return _checked_variances(a - u, b + u)


def relative_mode_variances(V: NDArray) -> tuple[float, ...]:
    """Center-of-mass / relative quadrature variances of a 2-mode covariance.

    Returns (dQ2_minus, dP2_minus, dQ2_plus, dP2_plus), the variances of
    (q1 -+ q2)/sqrt(2) and (p1 -+ p2)/sqrt(2): dQ2_pm = (V11 + V33)/2 +/- V13
    and dP2_pm = (V22 + V44)/2 +/- V24 (1-based). Meaningful in whatever
    frame V is expressed; pass a rotated covariance for the barred variances.
    """
    V = _check_covariance(V)
    return tuple(_out(val, V) for val in _rotated_variances(V, 0.0))


def _mean_phonons(V: NDArray, modes: slice) -> NDArray[np.float64]:
    """The mean phonon numbers of a slice of the modes, along a last axis."""
    n = V.shape[-1] // 2
    # the diagonal summed in pairs, V_2m,2m + V_2m+1,2m+1 for each mode m
    val = 0.5 * (_flat(V)[..., ::2 * n + 1].reshape(V.shape[:-2] + (n, 2))[..., modes, :]
                 .sum(axis=-1) - 1.0)
    if (val < -PHYSICALITY_TOL).any():
        k = next(k for k in range(val.shape[-1]) if (val[..., k] < -PHYSICALITY_TOL).any())
        raise PhysicalityError(f"negative phonon number {np.min(val[..., k])!r} "
                               f"for mode {range(n)[modes][k]}")
    return np.where(val < 0.0, 0.0, val)


def mean_phonon(V: NDArray, mode: int) -> float:
    """Mean excitation number of one mode of a zero-mean Gaussian state."""
    V = _check_covariance(V)
    if not 0 <= mode < V.shape[-1] // 2:
        raise DimensionError(f"mode {mode} out of range for {V.shape[-1] // 2} modes")
    return _out(_mean_phonons(V, slice(mode, mode + 1))[..., 0], V)


@dataclass(frozen=True)
class QuadratureObservables:
    """Entanglement and squeezing observables of a two-mirror covariance.

    Variances refer to the rotated frame that kills the anomalous moment
    phase; nu_tilde are the symplectic eigenvalues of the partial transpose,
    ascending. Fields are floats for one covariance, arrays for a stack.
    """

    dP2_minus: float
    dQ2_minus: float
    dP2_plus: float
    dQ2_plus: float
    theta: float
    E_N: float
    nu_tilde: tuple[float, float]
    phonon: tuple[float, float]


def _frame(V: NDArray) -> tuple:
    """(theta, the rotated-frame variances, the phonon numbers) of a checked V."""
    theta, _ = _rotation_angle(V)
    return theta, _rotated_variances(V, theta), _mean_phonons(V, slice(None))


def _observables(V: NDArray, frame: tuple, nu_tilde: tuple) -> QuadratureObservables:
    """quadrature_observables of a checked V from its _frame and the
    symplectic spectrum nu_tilde of its partial transpose."""
    theta, (dq_m, dp_m, dq_p, dp_p), phonon = frame
    return QuadratureObservables(
        dP2_minus=_out(dp_m, V),
        dQ2_minus=_out(dq_m, V),
        dP2_plus=_out(dp_p, V),
        dQ2_plus=_out(dq_p, V),
        theta=_out(theta, V),
        E_N=_out(_negativity(nu_tilde[0]), V),
        nu_tilde=(_out(nu_tilde[0], V), _out(nu_tilde[1], V)),
        phonon=(_out(phonon[..., 0], V), _out(phonon[..., 1], V)),
    )


def quadrature_observables(V: NDArray) -> QuadratureObservables:
    """Compute all mirror-block observables from a 2-mode covariance or a stack."""
    V = _check_covariance(V)
    frame = _frame(V)
    return _observables(V, frame, _symplectic_pair(_partial_transpose(V)))


def frame_variances(V: NDArray) -> tuple[float, ...]:
    """(dQ2_minus, dP2_minus, dQ2_plus, dP2_plus) of quadrature_observables(V)
    alone: the relative-mode variances in the frame that kills the anomalous
    moment phase, with the same checks, without the spectrum and the phonon
    numbers. Floats for one covariance, arrays for a stack.
    """
    V = _check_covariance(V)
    theta, _ = _rotation_angle(V)
    return tuple(_out(val, V) for val in _rotated_variances(V, theta))


def observables_and_nu_minus(V: NDArray) -> tuple[QuadratureObservables, float]:
    """quadrature_observables(V) and the least symplectic eigenvalue nu_- of V
    itself (an array for a stack).

    V is checked once, and one spectrum pass covers V and its partial
    transpose, as in log_negativity.
    """
    V = _check_covariance(V)
    frame = _frame(V)
    nu_minus, nu_tilde = _spectra(V)
    return _observables(V, frame, nu_tilde), _out(nu_minus, V)


def vacuum(n_modes: int) -> NDArray[np.float64]:
    """Vacuum covariance I/2."""
    return 0.5 * np.eye(2 * n_modes)


def thermal(nbars: list[float] | tuple[float, ...] | float, n_modes: int | None = None
            ) -> NDArray[np.float64]:
    """Product thermal covariance diag(nbar_k + 1/2) per mode."""
    if np.isscalar(nbars):
        if n_modes is None:
            raise DimensionError("scalar nbar needs explicit n_modes")
        nbars = [float(nbars)] * n_modes
    return np.diag(np.repeat(np.asarray(nbars, dtype=float) + 0.5, 2))


def two_mode_squeezed(s: float) -> NDArray[np.float64]:
    """Two-mode squeezed vacuum covariance with squeezing parameter s."""
    ch, sh = 0.5 * np.cosh(2.0 * s), 0.5 * np.sinh(2.0 * s)
    V = ch * np.eye(4)
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V
