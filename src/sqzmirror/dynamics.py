"""Numerical machinery for linear moment equations with harmonic drive.

Everything here works on the vector form dx/dt = A x + b0 + (b2 e^{iwt}
+ c.c.); covariance equations enter it as x = vech(V) (see moment_ode).
The integrator is classic RK4; because the one-step map of a linear ODE is
an affine map that is identical at every step, blocks of steps are composed
exactly (binary product ladder) so that trajectories spanning 1e8 steps stay
cheap without changing the method.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    DivergenceError,
    SimulationError,
    StabilityError,
    StepSizeError,
)
from .gaussian import QuadratureObservables
from .generator import MomentEquations

DIVERGENCE_LIMIT = 1e12
STEP_SAFETY = 0.2  # h * fastest rate must stay below this


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid; samples are kept every sample_stride steps."""

    t0: float
    t1: float
    n_steps: int
    sample_stride: int = 1

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise DimensionError("t1 must exceed t0")
        if self.n_steps < 1 or self.sample_stride < 1:
            raise DimensionError("n_steps and sample_stride must be positive")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    def sample_indices(self) -> NDArray[np.int64]:
        idx = np.arange(0, self.n_steps + 1, self.sample_stride)
        if idx[-1] != self.n_steps:
            idx = np.append(idx, self.n_steps)
        return idx


@dataclass(frozen=True)
class Trajectory:
    """Sampled covariance evolution plus derived observables, one column per field."""

    times: NDArray[np.float64]
    covariances: NDArray[np.float64]  # (n_samples, 2n, 2n)
    observables: QuadratureObservables | None = None

    def __post_init__(self):
        if len(self.times) != len(self.covariances):
            raise DimensionError("times and covariances must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DimensionError("times must be strictly increasing")


@dataclass(frozen=True)
class LinearHarmonicODE:
    """dx/dt = A x + b0 + (b2 e^{i w t} + c.c.) with real A, x, b0."""

    drift: NDArray[np.float64]
    drive_static: NDArray[np.float64]
    drive_harmonic: NDArray[np.complex128]
    omega: float

    def fastest_rate(self) -> float:
        rho = float(np.abs(np.linalg.eigvals(self.drift)).max())
        return max(rho, abs(self.omega))

    def drive(self, t: float) -> NDArray[np.float64]:
        return self.drive_static + 2.0 * np.real(
            self.drive_harmonic * np.exp(1j * self.omega * t)
        )


@functools.cache
def _vech_index(n: int) -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """Read-only index tables (upper, sym, flat, gather) for n x n matrices.

    vech(V) = V.ravel()[upper], the upper triangle in row-major order;
    sym[i, j] = sym[j, i] is the position of V_ij in vech(V); the matrix of
    V -> A V + V A^T on vech(V) is bincount(flat, A.ravel()[gather]).
    Cached: building them costs more than using them.
    """
    iu, ju = np.triu_indices(n)
    m = len(iu)
    sym = np.empty((n, n), dtype=np.intp)
    sym[iu, ju] = sym[ju, iu] = np.arange(m)
    i, j, k = iu[:, None], ju[:, None], np.arange(n)[None, :]
    row = np.arange(m)[:, None] * m
    # (A V + V A^T)_ij = sum_k A_ik V_kj + A_jk V_ik, with V_kl = V_lk one unknown
    flat = np.concatenate([(row + sym[k, j]).ravel(), (row + sym[i, k]).ravel()])
    gather = np.concatenate([(i * n + k).ravel(), (j * n + k).ravel()])
    tables = (iu * n + ju, sym, flat, gather)
    for table in tables:
        table.setflags(write=False)
    return tables


def _vech(V: NDArray) -> NDArray:
    """Upper triangle of a symmetric matrix, row-major: n(n+1)/2 entries."""
    return V.ravel()[_vech_index(V.shape[0])[0]]


def _unvech(x: NDArray) -> NDArray:
    """Exactly symmetric matrix from vech(V); a stack of them for rows of x."""
    n = (math.isqrt(8 * x.shape[-1] + 1) - 1) // 2
    return x[..., _vech_index(n)[1]]


def moment_ode(eqs: MomentEquations) -> LinearHarmonicODE:
    """dV/dt = A V + V A^T + D(t) as a linear ODE on vech(V).

    The n(n+1)/2 unknowns are the independent entries of the symmetric
    covariance, so every solution is exactly symmetric by construction.
    """
    n = eqs.drift.shape[0]
    m = n * (n + 1) // 2
    _, _, flat, gather = _vech_index(n)
    drift = np.bincount(flat, weights=eqs.drift.ravel()[gather], minlength=m * m)
    return LinearHarmonicODE(
        drift=drift.reshape(m, m),
        drive_static=_vech(eqs.diffusion_static),
        drive_harmonic=_vech(eqs.diffusion_harmonic),
        omega=eqs.omega,
    )


@dataclass(frozen=True)
class _AffineSpan:
    """Exact composition of m identical RK4 steps: x -> P x + u0 + 2 Re(u2 phi).

    phi is e^{i w t} at the span's start; zf is the phase advance over the
    span. Composition rule keeps everything exact (P stays real).
    """

    P: NDArray[np.float64]
    u0: NDArray[np.float64]
    u2: NDArray[np.complex128]
    zf: complex

    def then(self, other: "_AffineSpan") -> "_AffineSpan":
        return _AffineSpan(
            P=other.P @ self.P,
            u0=other.P @ self.u0 + other.u0,
            u2=other.P @ self.u2 + other.u2 * self.zf,
            zf=self.zf * other.zf,
        )


def _rk4_step_span(ode: LinearHarmonicODE, h: float) -> _AffineSpan:
    """The affine map of one RK4 step for the linear harmonic ODE."""
    L = ode.drift
    eye = np.eye(L.shape[0])
    hL = h * L
    hL2 = hL @ hL
    hL3 = hL2 @ hL
    S = eye + hL + hL2 / 2.0 + hL3 / 6.0 + (hL3 @ hL) / 24.0
    op_start = eye + hL + hL2 / 2.0 + hL3 / 4.0
    op_mid = 4.0 * eye + 2.0 * hL + hL2 / 2.0
    w0 = (h / 6.0) * (op_start + op_mid + eye) @ ode.drive_static
    zh = np.exp(1j * ode.omega * h)
    zmid = np.exp(1j * ode.omega * h / 2.0)
    w2 = (h / 6.0) * (op_start + zmid * op_mid + zh * eye) @ ode.drive_harmonic.astype(
        complex
    )
    return _AffineSpan(P=S, u0=w0, u2=w2, zf=zh)


def _span_power(step: _AffineSpan, m: int) -> _AffineSpan:
    """Compose m identical steps by binary doubling."""
    dim = step.P.shape[0]
    result = _AffineSpan(
        P=np.eye(dim), u0=np.zeros(dim), u2=np.zeros(dim, dtype=complex), zf=1.0
    )
    base = step
    while m > 0:
        if m & 1:
            result = result.then(base)
        m >>= 1
        if m:
            base = base.then(base)
    return result


def integrate_linear(
    ode: LinearHarmonicODE,
    x0: NDArray,
    grid: TimeGrid,
) -> tuple[NDArray, NDArray]:
    """RK4-integrate the linear harmonic ODE, returning (times, states).

    States are sampled at grid.sample_indices(). Raises StepSizeError when
    the step does not resolve the fastest rate, DivergenceError on blow-up.
    """
    h = grid.h
    rate = ode.fastest_rate()
    if h * rate > STEP_SAFETY:
        raise StepSizeError(
            f"step {h:.3e} too coarse for fastest rate {rate:.3e} "
            f"(h*rate = {h * rate:.3f} > {STEP_SAFETY})"
        )
    step = _rk4_step_span(ode, h)
    idx = grid.sample_indices()
    xs = np.empty((len(idx), len(x0)))
    xs[0] = np.asarray(x0, dtype=float)
    x = xs[0].copy()
    spans: dict[int, _AffineSpan] = {}
    last_t = grid.t0
    for k in range(1, len(idx)):
        m = int(idx[k] - idx[k - 1])
        if m not in spans:
            spans[m] = _span_power(step, m)
        blk = spans[m]
        t_start = grid.t0 + idx[k - 1] * h
        phi = np.exp(1j * ode.omega * t_start)
        x = blk.P @ x + blk.u0 + 2.0 * np.real(blk.u2 * phi)
        if not np.all(np.isfinite(x)) or np.abs(x).max() > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"integration diverged at t = {grid.t0 + idx[k] * h:.6e}",
                last_valid_time=last_t,
            )
        last_t = grid.t0 + idx[k] * h
        xs[k] = x
    times = grid.t0 + idx * h
    return times, xs


def integrate(
    eqs: MomentEquations,
    V0: NDArray,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate dV/dt = A V + V A^T + D(t) from V0 over the grid.

    The integrated state is vech(V) (see moment_ode), so every sampled V
    is exactly symmetric. The trajectory carries no observables.
    """
    dim = eqs.drift.shape[0]
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (dim, dim):
        raise DimensionError(f"V0 shape {V0.shape} does not match drift {dim}")
    times, xs = integrate_linear(moment_ode(eqs), _vech(0.5 * (V0 + V0.T)), grid)
    return Trajectory(times=times, covariances=_unvech(xs))


def expm_action(A: NDArray, t) -> NDArray:
    """e^{A t} via eigendecomposition, falling back to scaling-and-squaring.

    For an array t, a stack of matrices along t's axes from one
    eigendecomposition of A. It requires the eigenvector matrix to be well
    conditioned (< 1e8); otherwise a Taylor scaling-and-squaring evaluation
    is used at each time, so the function never fails on diagonalizability.
    """
    A = np.asarray(A)
    t = np.asarray(t, dtype=float)
    try:
        w, Y = np.linalg.eig(A)
        cond = np.linalg.cond(Y)
        if np.isfinite(cond) and cond < 1e8:
            E = (Y * np.exp(t[..., None] * w)[..., None, :]) @ np.linalg.inv(Y)
            if np.isrealobj(A):
                return E.real
            return E
    except np.linalg.LinAlgError:
        pass
    E = [_expm_squaring(A * tk) for tk in t.ravel()]
    return np.reshape(E, t.shape + A.shape)


def _expm_squaring(B: NDArray) -> NDArray:
    norm = np.abs(B).sum(axis=1).max() if B.size else 0.0
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    C = B / (2.0**s)
    E = np.eye(B.shape[0], dtype=B.dtype)
    term = np.eye(B.shape[0], dtype=B.dtype)
    for k in range(1, 19):
        term = term @ C / k
        E = E + term
    for _ in range(s):
        E = E @ E
    if np.isrealobj(B):
        return E.real
    return E


def require_hurwitz(A: NDArray) -> None:
    ev = np.linalg.eigvals(A)
    worst = ev[np.argmax(ev.real)]
    if worst.real >= 0:
        raise StabilityError(
            f"drift is not Hurwitz: eigenvalue {worst:.6e} has non-negative real part"
        )


def linear_steady(ode: LinearHarmonicODE) -> tuple[NDArray, NDArray]:
    """Periodic steady state of the linear harmonic ODE.

    Returns (x_dc, x_2) with x(t) = x_dc + (x_2 e^{iwt} + c.c.), from the
    resolvent solves A x_dc = -b0 and (A - iw I) x_2 = -b2. Callers check
    stability (require_hurwitz) on the drift they own.
    """
    x_dc = np.linalg.solve(ode.drift, -ode.drive_static)
    eye = np.eye(ode.drift.shape[0])
    x_2 = np.linalg.solve(
        ode.drift.astype(complex) - 1j * ode.omega * eye, -ode.drive_harmonic
    )
    return x_dc, x_2


def periodic_steady_state(eqs: MomentEquations) -> tuple[NDArray, NDArray]:
    """Steady covariance V(t) = V_dc + (V_2 e^{2i Delta t} + c.c.).

    V_dc solves A V + V A^T + D0 = 0 and V_2 the 2*Delta-shifted equation
    (A - 2i Delta I) V_2 + V_2 A^T + D2 = 0: the linear_steady solves of
    moment_ode(eqs). Raises StabilityError for non-Hurwitz drift.
    """
    # on A itself: the vech operator's eigenvalues are pair sums of A's, and
    # an imaginary pair +-i sums to roundoff that can pass the check
    require_hurwitz(eqs.drift)
    x_dc, x_2 = linear_steady(moment_ode(eqs))
    return _unvech(x_dc), _unvech(x_2)


def normalize_phase(phase: complex | float | str) -> complex:
    """Normalize a reservoir-phase request to a point on the unit circle.

    The one meaning of a phase in every model: +1/-1 are the two ends of
    the oscillation band, any other real number is the angle 2*Delta*t in
    radians, a nonzero complex value is scaled onto the unit circle, and
    "average" (returned as 0) keeps the time-averaged dc part alone.
    """
    if isinstance(phase, str):
        if phase == "average":
            return 0j
        raise SimulationError(f"unknown phase {phase!r}")
    if isinstance(phase, numbers.Real):  # numpy real scalars included
        angle = float(phase)
        if abs(angle) == 1.0:
            return complex(angle)
        return complex(np.exp(1j * angle))
    z = complex(phase)
    if z == 0j:
        return z
    return z / abs(z)


def steady_at_phase(
    V_dc: NDArray, V_2: NDArray, phase: complex | float | str
) -> NDArray:
    """Evaluate the periodic steady state at e^{2i Delta t} = normalize_phase(phase)."""
    return V_dc + 2.0 * np.real(V_2 * normalize_phase(phase))


@dataclass(frozen=True)
class MinimizeResult:
    x: float
    fx: float
    boundary: bool  # no interior decrease detected; minimum sits at an edge


def minimize_scalar(f, bracket: tuple[float, float], tol: float = 1e-6
                    ) -> MinimizeResult:
    """Golden-section minimizer of a continuous scalar function.

    Flags `boundary` when the minimizer lands within 10*tol of a bracket
    edge (monotone f converges there).
    """
    a0, b0 = float(bracket[0]), float(bracket[1])
    if b0 <= a0:
        raise DimensionError("bracket must satisfy a < b")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = a0, b0
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = f(d)
    x = 0.5 * (a + b)
    boundary = (x - a0 <= 10.0 * tol) or (b0 - x <= 10.0 * tol)
    return MinimizeResult(x=x, fx=f(x), boundary=boundary)
