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


def _check_covariance(V: NDArray) -> NDArray[np.float64]:
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-1] != V.shape[-2] or V.shape[-1] % 2 != 0:
        raise DimensionError(f"V must be square of even dimension, got shape {V.shape}")
    scale = np.abs(V).max(axis=(-2, -1), initial=1.0)
    asymmetry = np.abs(V - V.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asymmetry > SYMMETRY_RTOL * scale * 100).any():
        raise DimensionError("V is not symmetric")
    # entries of size scale round at scale * eps: past PHYSICALITY_TOL no
    # uncertainty bound or variance read from them can be trusted
    rounding = scale * np.finfo(float).eps
    if (rounding > PHYSICALITY_TOL).any():
        raise PhysicalityError(
            f"covariance entries up to {scale.max():.3e} round at "
            f"{rounding.max():.1e}: precision lost beyond the physicality "
            f"tolerance {PHYSICALITY_TOL}"
        )
    return V


def _symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
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
    W = symplectic_form(2) @ V
    M = W @ W
    delta = -0.5 * np.trace(M, axis1=-2, axis2=-1)
    N = M + (0.5 * delta)[..., None, None] * np.eye(4)
    disc = (N * N.swapaxes(-1, -2)).sum(axis=(-2, -1))
    det = np.linalg.det(V)
    # a positive definite V has real roots; a negative discriminant is rounding
    # only up to PAIRING_RTOL of the size its entries allow
    scale = np.abs(V).max(axis=(-2, -1), initial=1.0)
    bad = (det <= 0.0) | (delta <= 0.0) | (disc < -PAIRING_RTOL * scale**4)
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        raise DimensionError(
            f"no symplectic spectrum: det V = {det.ravel()[k]!r}, "
            f"delta = {delta.ravel()[k]!r}, discriminant = {disc.ravel()[k]!r}"
        )
    nu2_plus = 0.5 * (delta + np.sqrt(np.maximum(disc, 0.0)))
    # the small root as det V / nu_+^2 keeps its digits when the state is
    # strongly entangled, where delta - sqrt(disc) would cancel
    return np.sqrt(np.stack([det / nu2_plus, nu2_plus], axis=-1))


def symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
    """Symplectic spectrum (nu_-, nu_+) of a 2-mode covariance, ascending.

    The moduli of the eigenvalues of i U V, each conjugate pair collapsed to
    one value, from the two-mode invariants det V and
    delta = det A + det B + 2 det C. Physical states have both values >= 1/2.
    Refuses (DimensionError) any other mode count and a matrix that is not
    positive definite: det V <= 0, delta <= 0 or complex roots.
    """
    return _symplectic_eigenvalues(_check_covariance(V))


def _partial_transpose(V: NDArray) -> NDArray[np.float64]:
    if V.shape[-1] != 4:
        raise DimensionError(
            f"partial transpose implemented for 2 modes only, got dim {V.shape[-1]}"
        )
    flip = np.array([1.0, 1.0, 1.0, -1.0])  # Lambda = diag(flip)
    return V * flip[:, None] * flip


def partial_transpose(V: NDArray) -> NDArray[np.float64]:
    """Momentum reversal of mode 2: Lambda V Lambda with Lambda = diag(1,1,1,-1)."""
    return _partial_transpose(_check_covariance(V))


def _negativity(nu_min: NDArray) -> NDArray[np.float64]:
    """max{0, -log2[2 nu_min]} from the least partial-transpose eigenvalue."""
    x = -np.log2(2.0 * nu_min)
    return np.where(x > 0.0, x, 0.0)


def log_negativity(V: NDArray) -> float:
    """Logarithmic negativity E_N = max{0, -log2[2 min nu~]} of a 2-mode state.

    Emits one PhysicalityWarning (and still returns the values) when V, or
    any matrix of a stack, violates the uncertainty bound beyond PHYSICALITY_TOL.
    """
    V = _check_covariance(V)
    if (_symplectic_eigenvalues(V)[..., 0] < 0.5 - PHYSICALITY_TOL).any():
        warnings.warn(
            "covariance violates the uncertainty bound; E_N is unreliable",
            PhysicalityWarning,
            stacklevel=2,
        )
    return _out(_negativity(_symplectic_eigenvalues(_partial_transpose(V))[..., 0]), V)


def _rotation_angle(V: NDArray) -> tuple[NDArray, NDArray[np.bool_]]:
    """(theta, degenerate): the angle, set to 0 where <a1 a1> vanishes."""
    re, im = V[..., 0, 0] - V[..., 1, 1], 2.0 * V[..., 0, 1]
    bound = 1e-14 * np.maximum(np.maximum(abs(V[..., 0, 0]), abs(V[..., 1, 1])), 1e-300)
    degenerate = (abs(re) <= bound) & (abs(im) <= bound)
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


def _rotate_local(V: NDArray, theta) -> NDArray[np.float64]:
    n = V.shape[-1] // 2
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    R2 = np.array([[c, s], [-s, c]])
    R2 = R2.transpose(tuple(range(2, R2.ndim)) + (0, 1))  # (..., 2, 2)
    R = np.eye(n)[:, None, :, None] * R2[..., None, :, None, :]  # kron(I_n, R2)
    R = R.reshape(R.shape[:-4] + (2 * n, 2 * n))
    return R @ V @ R.swapaxes(-1, -2)


def rotate_local(V: NDArray, theta: float) -> NDArray[np.float64]:
    """Identical phase-space rotation of both modes by theta/2: R V R^T.

    A local symplectic operation: it changes neither the symplectic spectrum
    nor the logarithmic negativity. theta broadcasts against a stack.
    """
    return _rotate_local(_check_covariance(V), theta)


def _relative_mode_variances(V: NDArray) -> tuple:
    if V.shape[-1] != 4:
        raise DimensionError("relative-mode variances need exactly 2 modes")
    dq_m, dq_p = V[..., 0, 0] - V[..., 0, 2], V[..., 0, 0] + V[..., 0, 2]
    dp_m, dp_p = V[..., 1, 1] - V[..., 1, 3], V[..., 1, 1] + V[..., 1, 3]
    for val in (dq_m, dp_m, dq_p, dp_p):
        if (val < -PHYSICALITY_TOL).any():
            raise PhysicalityError(f"negative quadrature variance {np.min(val)!r}")
    return dq_m, dp_m, dq_p, dp_p


def relative_mode_variances(V: NDArray) -> tuple[float, ...]:
    """Center-of-mass / relative quadrature variances of a 2-mode covariance.

    Returns (dQ2_minus, dP2_minus, dQ2_plus, dP2_plus) where
    dQ2_pm = V11 +/- V13 and dP2_pm = V22 +/- V24. Meaningful in whatever
    frame V is expressed; pass a rotated covariance for the barred variances.
    """
    V = _check_covariance(V)
    return tuple(_out(val, V) for val in _relative_mode_variances(V))


def _mean_phonon(V: NDArray, mode: int) -> NDArray[np.float64]:
    if not 0 <= mode < V.shape[-1] // 2:
        raise DimensionError(f"mode {mode} out of range for {V.shape[-1] // 2} modes")
    val = 0.5 * (V[..., 2 * mode, 2 * mode] + V[..., 2 * mode + 1, 2 * mode + 1] - 1.0)
    if (val < -PHYSICALITY_TOL).any():
        raise PhysicalityError(f"negative phonon number {np.min(val)!r} for mode {mode}")
    return np.where(val < 0.0, 0.0, val)


def mean_phonon(V: NDArray, mode: int) -> float:
    """Mean excitation number of one mode of a zero-mean Gaussian state."""
    V = _check_covariance(V)
    return _out(_mean_phonon(V, mode), V)


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


def quadrature_observables(V: NDArray) -> QuadratureObservables:
    """Compute all mirror-block observables from a 2-mode covariance or a stack."""
    V = _check_covariance(V)
    theta, _ = _rotation_angle(V)
    Vbar = _rotate_local(V, theta)
    dq_m, dp_m, dq_p, dp_p = _relative_mode_variances(Vbar)
    nu = _symplectic_eigenvalues(_partial_transpose(V))
    return QuadratureObservables(
        dP2_minus=_out(dp_m, V),
        dQ2_minus=_out(dq_m, V),
        dP2_plus=_out(dp_p, V),
        dQ2_plus=_out(dq_p, V),
        theta=_out(theta, V),
        E_N=_out(_negativity(nu[..., 0]), V),
        nu_tilde=(_out(nu[..., 0], V), _out(nu[..., 1], V)),
        phonon=tuple(_out(_mean_phonon(V, m), V) for m in (0, 1)),
    )


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
