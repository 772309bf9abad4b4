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
    return V


def _symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
    n = V.shape[-1] // 2
    mods = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ V)), axis=-1)
    # eigenvalues come in +/- pairs; after sorting, adjacent entries pair up
    a, b = mods[..., 0::2], mods[..., 1::2]
    unpaired = b - a > PAIRING_RTOL * np.maximum(b, 1.0)
    if unpaired.any():
        raise DimensionError(f"symplectic eigenvalues do not pair up: "
                             f"{a[unpaired][0]!r} vs {b[unpaired][0]!r}")
    return 0.5 * (a + b)


def symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
    """Symplectic spectrum of a covariance matrix, ascending along the last axis.

    The n non-negative moduli of the eigenvalues of i U V, each conjugate
    pair collapsed to one value. Physical states have every value >= 1/2.
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
