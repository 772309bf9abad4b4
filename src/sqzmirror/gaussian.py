"""Symplectic linear algebra on Gaussian covariance matrices.

Quadratures are ordered (x1, p1, x2, p2, ...) with vacuum variance 1/2
(hbar = 1 for the dimensionless phase-space variables). All operations are
pure functions on square numpy arrays; a covariance matrix is any real
symmetric 2n x 2n array.
"""

from __future__ import annotations

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


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form U with 2x2 blocks J = [[0,1],[-1,0]]."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be positive, got {n_modes}")
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    U = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        U[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J
    return U


def _check_covariance(V: NDArray, name: str = "V") -> NDArray[np.float64]:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {V.shape}")
    if V.shape[0] % 2 != 0:
        raise DimensionError(f"{name} has odd dimension {V.shape[0]}")
    scale = max(np.abs(V).max(), 1.0)
    if np.abs(V - V.T).max() > SYMMETRY_RTOL * scale * 100:
        raise DimensionError(f"{name} is not symmetric")
    return V


def symplectic_eigenvalues(V: NDArray) -> NDArray[np.float64]:
    """Symplectic spectrum of a covariance matrix, ascending.

    The n non-negative moduli of the eigenvalues of i U V, each conjugate
    pair collapsed to one value. Physical states have every value >= 1/2.
    """
    V = _check_covariance(V)
    n = V.shape[0] // 2
    U = symplectic_form(n)
    ev = np.linalg.eigvals(1j * U @ V)
    mods = np.sort(np.abs(ev))
    # eigenvalues come in +/- pairs; after sorting, adjacent entries pair up
    paired = np.empty(n)
    for k in range(n):
        a, b = mods[2 * k], mods[2 * k + 1]
        if abs(a - b) > PAIRING_RTOL * max(abs(a), abs(b), 1.0):
            raise DimensionError(
                f"symplectic eigenvalues do not pair up: {a!r} vs {b!r}"
            )
        paired[k] = 0.5 * (a + b)
    return paired


def min_symplectic_eigenvalue(V: NDArray) -> float:
    return float(symplectic_eigenvalues(V)[0])


def partial_transpose(V: NDArray) -> NDArray[np.float64]:
    """Momentum reversal of mode 2: Lambda V Lambda with Lambda = diag(1,1,1,-1)."""
    V = _check_covariance(V)
    if V.shape[0] != 4:
        raise DimensionError(
            f"partial transpose implemented for 2 modes only, got dim {V.shape[0]}"
        )
    L = np.diag([1.0, 1.0, 1.0, -1.0])
    return L @ V @ L


def log_negativity(V: NDArray, tol: float = PHYSICALITY_TOL) -> float:
    """Logarithmic negativity E_N = max{0, -log2[2 min nu~]} of a 2-mode state.

    Emits a PhysicalityWarning (and still returns a value) when V itself
    violates the uncertainty bound beyond `tol`.
    """
    V = _check_covariance(V)
    if min_symplectic_eigenvalue(V) < 0.5 - tol:
        warnings.warn(
            "covariance violates the uncertainty bound; E_N is unreliable",
            PhysicalityWarning,
            stacklevel=2,
        )
    nu_min = min_symplectic_eigenvalue(partial_transpose(V))
    return float(max(0.0, -np.log2(2.0 * nu_min)))


def rotation_angle(V: NDArray) -> float:
    """Argument of the anomalous moment <a1 a1> = [V11 - V22 + 2i V12]/2.

    Degenerate case (<a1 a1> = 0) returns 0 with a DegenerateAngleWarning so
    downstream projections stay well defined.
    """
    V = _check_covariance(V)
    re, im = V[0, 0] - V[1, 1], 2.0 * V[0, 1]
    scale = max(abs(V[0, 0]), abs(V[1, 1]), 1e-300)
    if abs(re) <= 1e-14 * scale and abs(im) <= 1e-14 * scale:
        warnings.warn(
            "anomalous moment vanishes; rotation angle set to 0",
            DegenerateAngleWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.arctan2(im, re))


def rotate_local(V: NDArray, theta: float) -> NDArray[np.float64]:
    """Identical phase-space rotation of both modes by theta/2: R V R^T.

    A local symplectic operation: it changes neither the symplectic spectrum
    nor the logarithmic negativity.
    """
    V = _check_covariance(V)
    n = V.shape[0] // 2
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    R2 = np.array([[c, s], [-s, c]])
    R = np.kron(np.eye(n), R2)
    return R @ V @ R.T


def relative_mode_variances(
    V: NDArray, tol: float = PHYSICALITY_TOL
) -> tuple[float, float, float, float]:
    """Center-of-mass / relative quadrature variances of a 2-mode covariance.

    Returns (dQ2_minus, dP2_minus, dQ2_plus, dP2_plus) where
    dQ2_pm = V11 +/- V13 and dP2_pm = V22 +/- V24. Meaningful in whatever
    frame V is expressed; pass a rotated covariance for the barred variances.
    """
    V = _check_covariance(V)
    if V.shape[0] != 4:
        raise DimensionError("relative-mode variances need exactly 2 modes")
    dq_m, dq_p = V[0, 0] - V[0, 2], V[0, 0] + V[0, 2]
    dp_m, dp_p = V[1, 1] - V[1, 3], V[1, 1] + V[1, 3]
    for val in (dq_m, dp_m, dq_p, dp_p):
        if val < -tol:
            raise PhysicalityError(f"negative quadrature variance {val!r}")
    return dq_m, dp_m, dq_p, dp_p


def mean_phonon(V: NDArray, mode: int, tol: float = PHYSICALITY_TOL) -> float:
    """Mean excitation number of one mode of a zero-mean Gaussian state."""
    V = _check_covariance(V)
    n = V.shape[0] // 2
    if not 0 <= mode < n:
        raise DimensionError(f"mode {mode} out of range for {n} modes")
    val = 0.5 * (V[2 * mode, 2 * mode] + V[2 * mode + 1, 2 * mode + 1] - 1.0)
    if val < -tol:
        raise PhysicalityError(f"negative phonon number {val!r} for mode {mode}")
    return float(max(val, 0.0))


@dataclass(frozen=True)
class QuadratureObservables:
    """Entanglement and squeezing observables of a two-mirror covariance.

    Variances refer to the rotated frame that kills the anomalous moment
    phase; nu_tilde are the symplectic eigenvalues of the partial transpose,
    ascending.
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
    """Compute all mirror-block observables from a 2-mode covariance."""
    V = _check_covariance(V)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAngleWarning)
        theta = rotation_angle(V)
    Vbar = rotate_local(V, theta)
    dq_m, dp_m, dq_p, dp_p = relative_mode_variances(Vbar)
    nu = symplectic_eigenvalues(partial_transpose(V))
    E_N = float(max(0.0, -np.log2(2.0 * nu[0])))
    return QuadratureObservables(
        dP2_minus=float(dp_m),
        dQ2_minus=float(dq_m),
        dP2_plus=float(dp_p),
        dQ2_plus=float(dq_p),
        theta=theta,
        E_N=E_N,
        nu_tilde=(float(nu[0]), float(nu[1])),
        phonon=(mean_phonon(V, 0), mean_phonon(V, 1)),
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
    diag = []
    for nb in nbars:
        diag += [nb + 0.5, nb + 0.5]
    return np.diag(np.asarray(diag, dtype=float))


def two_mode_squeezed(s: float) -> NDArray[np.float64]:
    """Two-mode squeezed vacuum covariance with squeezing parameter s."""
    ch, sh = 0.5 * np.cosh(2.0 * s), 0.5 * np.sinh(2.0 * s)
    V = ch * np.eye(4)
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V
