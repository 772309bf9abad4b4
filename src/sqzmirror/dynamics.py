"""Numerical machinery for linear moment equations with harmonic drive.

Everything here works on the vector form dx/dt = A x + b0 + (b2 e^{iwt}
+ c.c.); covariance equations enter it as x = vech(V) (see moment_ode).
The integrator is classic RK4. The one-step map of a linear ODE is an affine
map that is identical at every step, so the spans between samples come from
one doubling ladder per integration, and the samples x_k = P x_{k-1} + f_k
from all the forcings f_k at once by a Brent-Kung prefix scan (Blelloch,
CMU-CS-90-190, 1990): 1e8 steps stay cheap, and an r family of trajectories,
its drives as columns, is one integration.
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
    covariances: NDArray[np.float64]  # (..., n_samples, 2n, 2n), an r family's (K, ...)
    observables: QuadratureObservables

    def __post_init__(self):
        if len(self.times) != self.covariances.shape[-3]:
            raise DimensionError("times and covariances must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DimensionError("times must be strictly increasing")


@dataclass
class LinearHarmonicODE:
    """dx/dt = A x + b0 + (b2 e^{i w t} + c.c.) with real A, x, b0."""

    drift: NDArray[np.float64]
    drive_static: NDArray[np.float64]
    drive_harmonic: NDArray[np.complex128]
    omega: float

    def fastest_rate(self) -> float:
        rho = float(np.abs(np.linalg.eigvals(self.drift)).max())
        return max(rho, abs(self.omega))


@functools.cache
def _vech_index(n: int) -> tuple[NDArray, NDArray, NDArray]:
    """Read-only tables (upper, sym, lyap_t) for n x n matrices.

    vech(V) = V.ravel()[upper], the upper triangle in row-major order;
    sym[i, j] = sym[j, i] is the position of V_ij in vech(V); the matrix of
    V -> A V + V A^T on vech(V), flattened, is A.ravel() @ lyap_t (entries
    0, 1 or 2, each output a sum of at most two entries of A). Cached:
    building them costs more than using them.
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
    lyap_t = np.zeros((n * n, m * m))
    np.add.at(lyap_t, (gather, flat), 1.0)
    tables = (iu * n + ju, sym, lyap_t)
    for table in tables:
        table.setflags(write=False)
    return tables


def _vech(V: NDArray) -> NDArray:
    """Upper triangle of a symmetric matrix, row-major: n(n+1)/2 entries
    (of every matrix of a stack)."""
    n = V.shape[-1]
    return V.reshape(V.shape[:-2] + (n * n,)).take(_vech_index(n)[0], axis=-1)


def _unvech(x: NDArray) -> NDArray:
    """Exactly symmetric matrix from vech(V); a stack of them for rows of x."""
    n = (math.isqrt(8 * x.shape[-1] + 1) - 1) // 2
    return x.take(_vech_index(n)[1], axis=-1)


def _lyapunov(A: NDArray) -> NDArray:
    """The matrix of V -> A V + V A^T on vech(V), of every matrix of a stack."""
    n = A.shape[-1]
    m = n * (n + 1) // 2
    A = A.reshape(A.shape[:-2] + (n * n,))
    return (A @ _vech_index(n)[2]).reshape(A.shape[:-1] + (m, m))


def moment_ode(eqs: MomentEquations) -> LinearHarmonicODE:
    """dV/dt = A V + V A^T + D(t) as a linear ODE on vech(V).

    The n(n+1)/2 unknowns are the independent entries of the symmetric
    covariance, so every solution is exactly symmetric by construction.
    Moment equations whose fields carry leading axes give an ODE whose
    fields carry them too.
    """
    return LinearHarmonicODE(
        drift=_lyapunov(eqs.drift),
        drive_static=_vech(eqs.diffusion_static),
        drive_harmonic=_vech(eqs.diffusion_harmonic),
        omega=eqs.omega,
    )


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# and an integration on a shipped figure's grid makes 21 to 28 of these
@dataclass(slots=True)
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
    """The affine map of one RK4 step, with u0 and u2 as columns (m, K)."""
    L = ode.drift
    eye = np.eye(L.shape[0])
    hL = h * L
    hL2 = hL @ hL
    hL3 = hL2 @ hL
    S = eye + hL + hL2 / 2.0 + hL3 / 6.0 + (hL3 @ hL) / 24.0
    op_start = eye + hL + hL2 / 2.0 + hL3 / 4.0
    op_mid = 4.0 * eye + 2.0 * hL + hL2 / 2.0
    b0, b2 = (np.reshape(b, (len(L), -1)) for b in (ode.drive_static, ode.drive_harmonic))
    w0 = (h / 6.0) * (op_start + op_mid + eye) @ b0
    zh = np.exp(1j * ode.omega * h)
    zmid = np.exp(1j * ode.omega * h / 2.0)
    w2 = (h / 6.0) * (op_start + zmid * op_mid + zh * eye) @ b2.astype(complex)
    return _AffineSpan(P=S, u0=w0, u2=w2, zf=zh)


def _span_powers(step: _AffineSpan, *ms: int) -> list[_AffineSpan]:
    """step composed m >= 1 times, for each m of ms, by binary doubling on one
    shared ladder step, step^2, step^4, ...: each power composes the rungs of
    its set bits, lowest first, as a doubling of m alone does."""
    ladder = [step]
    while 1 << len(ladder) <= max(ms):
        ladder.append(ladder[-1].then(ladder[-1]))
    return [functools.reduce(_AffineSpan.then, [rung for j, rung in enumerate(ladder)
                                                if m >> j & 1]) for m in ms]


def _affine_scan(P: NDArray, x: NDArray, f: NDArray) -> None:
    """Every state of x_k = P x_{k-1} + f_k, k = 1..n, from x_0 = x, in place
    of the forcings f (..., n, m); columns ride along the leading axes.

    A Brent-Kung scan (Brent & Kung, IEEE Trans. Computers C-31, 1982): with
    P x_0 folded into f_1, the up-sweep at stride s = 1, 2, 4, ... adds
    P^s times row k - s to rows k = 2s-1, 4s-1, ..., the down-sweep, from the
    largest stride down, the finished row k - s to rows k = 3s-1, 5s-1, ...:
    about 2n matrix-vector products in 2 log2(n) levels of one GEMM each.
    """
    n, m = f.shape[-2:]
    f[..., :1, :] += (x @ P.T)[..., None, :]

    def level(rows, prior, Ps):
        rows += (prior[..., :rows.shape[-2], :].reshape(-1, m) @ Ps.T).reshape(rows.shape)

    powers, s = [], 1
    while 2 * s <= n:
        powers.append(powers[-1] @ powers[-1] if powers else P)
        level(f[..., 2 * s - 1::2 * s, :], f[..., s - 1::2 * s, :], powers[-1])
        s *= 2
    for Ps in reversed(powers):
        s //= 2
        level(f[..., 3 * s - 1::2 * s, :], f[..., 2 * s - 1::2 * s, :], Ps)


def _diverged(x: NDArray) -> NDArray[np.bool_]:
    """Per state (last axis): a non-finite entry or one beyond DIVERGENCE_LIMIT."""
    return ~(np.abs(x).max(axis=-1) <= DIVERGENCE_LIMIT)  # NaN compares False


def integrate_linear(
    ode: LinearHarmonicODE,
    x0: NDArray,
    grid: TimeGrid,
) -> tuple[NDArray, NDArray]:
    """RK4-integrate the linear harmonic ODE, returning (times, states).

    States are sampled at grid.sample_indices(). Drives with columns (m, K),
    as linear_steady takes, are an r family: K trajectories from x0 (m,) or
    (m, K), whose states (K, n_samples, m) share one step map, one ladder and
    one scan. Raises StepSizeError when the step does not resolve the fastest
    rate, DivergenceError on blow-up at the first sample (after the initial
    one) at which a column is not finite or exceeds DIVERGENCE_LIMIT.
    """
    h = grid.h
    rate = ode.fastest_rate()
    if h * rate > STEP_SAFETY:
        raise StepSizeError(
            f"step {h:.3e} too coarse for fastest rate {rate:.3e} "
            f"(h*rate = {h * rate:.3f} > {STEP_SAFETY})"
        )
    m, columns = len(ode.drift), np.shape(ode.drive_static)[1:]
    idx = grid.sample_indices()
    times = grid.t0 + idx * h
    spans = np.diff(idx)
    n = len(spans)
    # every span between samples is the same map, except a ragged last one
    block, last = _span_powers(_rk4_step_span(ode, h), int(spans[0]), int(spans[-1]))
    phi = np.exp(1j * ode.omega * times[:-1])  # e^{iwt} at each span's start
    f = np.real(phi[:, None] * block.u2.T[:, None]) * 2.0
    f += block.u0.T[:, None]  # the forcings (K, n, m), a row of spans per column
    f[:, -1] = last.u0.T + 2.0 * np.real(last.u2.T * phi[-1])
    xs = np.empty((len(f), n + 1, m))
    xs[:, 0] = np.asarray(x0, dtype=float).T
    # overflow is detected on the states, not reported per operation
    with np.errstate(over="ignore", invalid="ignore"):
        start = 0
        while start < n:
            xs[:, start + 1:-1] = f[:, start:-1]
            _affine_scan(block.P, xs[:, start], xs[:, start + 1:-1])
            xs[:, -1] = xs[:, -2] @ last.P.T + f[:, -1]
            if np.abs(xs[:, start + 1:]).max() <= DIVERGENCE_LIMIT:  # False on NaN
                break
            k = start + 1 + int(_diverged(xs[:, start + 1:]).any(axis=0).argmax())
            # the scan's own overflow (a power P^(2^l) against a zero entry, a
            # partial sum) can mark a state that one span from the last good
            # one keeps: that span decides, and the scan restarts from it
            xs[:, k] = xs[:, k - 1] @ (last if k == n else block).P.T + f[:, k - 1]
            if _diverged(xs[:, k]).any():
                raise DivergenceError(
                    f"integration diverged at t = {times[k]:.6e}",
                    last_valid_time=times[k - 1],
                )
            start = k
    return times, xs.reshape(columns + (n + 1, m))


def integrate(
    eqs: MomentEquations,
    V0: NDArray,
    grid: TimeGrid,
) -> tuple[NDArray, NDArray]:
    """Integrate dV/dt = A V + V A^T + D(t) from V0 over the grid.

    The integrated state is vech(V) (see moment_ode), so every sampled V
    is exactly symmetric. Diffusions with a leading axis of curves sharing the
    drift and omega (an r family) are drive columns of one integrate_linear,
    and the covariances carry that axis. Returns (times, covariances).
    """
    dim = eqs.drift.shape[0]
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (dim, dim):
        raise DimensionError(f"V0 shape {V0.shape} does not match drift {dim}")
    ode = moment_ode(eqs)
    times, xs = integrate_linear(
        LinearHarmonicODE(ode.drift, ode.drive_static.T, ode.drive_harmonic.T, ode.omega),
        _vech(0.5 * (V0 + V0.T)), grid)
    return times, _unvech(xs)


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
    """Refuse a drift with an eigenvalue of non-negative real part.

    A may be a stack (..., n, n): one batched eigvals covers it, and the
    first matrix that fails raises the error it raises alone.
    """
    ev = np.linalg.eigvals(A)  # never NaN: eigvals refuses infs and NaNs
    if np.count_nonzero(ev.real >= 0):
        first = ev[(ev.real >= 0).any(axis=-1)][0]
        raise StabilityError(f"drift is not Hurwitz: eigenvalue "
                             f"{first[np.argmax(first.real)]:.6e} has non-negative real part")


def _solve(A: NDArray, b: NDArray) -> NDArray:
    """A x = b for a matrix or a stack A, with b a vector per matrix or columns."""
    if b.ndim == A.ndim - 1:
        return np.linalg.solve(A, b[..., None])[..., 0]
    return np.linalg.solve(A, b)


def linear_steady(ode: LinearHarmonicODE) -> tuple[NDArray, NDArray]:
    """Periodic steady state of the linear harmonic ODE.

    Returns (x_dc, x_2) with x(t) = x_dc + (x_2 e^{iwt} + c.c.), from the
    resolvent solves A x_dc = -b0 and (A - iw I) x_2 = -b2. A b0 with
    columns solves for each of them (x_dc gets the same columns). The drift
    may be a stack (..., m, m) with drives and omega along the same leading
    axes: one batched solve each. Callers check stability (require_hurwitz)
    on the drift they own, and pass only drifts that pass: a batched solve
    fails as a whole on one singular matrix.
    """
    drift = ode.drift
    x_dc = _solve(drift, -ode.drive_static)
    shifted = drift.astype(complex, order="C")  # drift - i omega I, i omega off the diagonal
    diagonal = shifted.reshape(drift.shape[:-2] + (-1,))[..., ::drift.shape[-1] + 1]
    diagonal.imag -= np.asarray(ode.omega)[..., None]
    x_2 = _solve(shifted, -ode.drive_harmonic)
    return x_dc, x_2


def periodic_steady_state(eqs: MomentEquations) -> tuple[NDArray, NDArray]:
    """Steady covariance V(t) = V_dc + (V_2 e^{2i Delta t} + c.c.) of one compile.

    V_dc solves A V + V A^T + D0 = 0 and V_2 the 2*Delta-shifted equation
    (A - 2i Delta I) V_2 + V_2 A^T + D2 = 0: the linear_steady solves of
    moment_ode(eqs). Raises StabilityError for non-Hurwitz drift. The
    package's steady states come from reservoir_parts; this is the tests'
    reference for them.
    """
    # on A itself: the vech operator's eigenvalues are pair sums of A's, and
    # an imaginary pair +-i sums to roundoff that can pass the check
    require_hurwitz(eqs.drift)
    x_dc, x_2 = linear_steady(moment_ode(eqs))
    return _unvech(x_dc), _unvech(x_2)


def reservoir_parts(injections: MomentEquations) -> tuple[NDArray, NDArray, NDArray]:
    """Steady covariance responses (x0, x1, x2) of a model affine in the
    reservoir correlations (N, M).

    injections is the model compiled at (N, M) = (0, 0), (1, 0) and (0, 1)
    along its first axis (generator.compile_injections, which checks that
    they share one drift; A is the (0, 0) one's). x0 answers the static
    diffusion at (0, 0), x1 unit N and x2 the e^{2i Delta t} sideband of
    unit M: one require_hurwitz on A and one linear_steady call, with the
    first two as static columns. A further axis of points gives parts
    along it, from one batched Hurwitz check and one batched solve.
    reservoir_steady evaluates them at any (N, M).
    """
    A = injections.drift[0]
    require_hurwitz(A)
    # the static drives at (0, 0) and (1, 0); vech(D10 - D00) = vech(D10) - vech(D00)
    b = _vech(injections.diffusion_static[:2])
    b[1] -= b[0]
    x_dc, x_2 = linear_steady(LinearHarmonicODE(
        _lyapunov(A), b.transpose(*range(1, b.ndim), 0),
        _vech(injections.diffusion_harmonic[2]), injections.omega[2]))
    x_dc = _unvech(x_dc.swapaxes(-1, -2))
    return x_dc[..., 0, :, :], x_dc[..., 1, :, :], _unvech(x_2)


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
    return V_dc + 2.0 * (V_2 * normalize_phase(phase)).real


def reservoir_steady(
    parts: tuple[NDArray, NDArray, NDArray], N, M, phase: complex | float | str
) -> NDArray[np.float64]:
    """Periodic steady state x0 + N x1 + M x2(z) of a model affine in (N, M).

    parts = (x0, x1, x2) are the steady responses to the static drive, to
    unit N and to the e^{2i Delta t} sideband of unit M, as covariance
    matrices (reservoir_parts) or vectors (reduced.ReducedSystem.steady_parts);
    x2(z) = x2 z + c.c. at z = normalize_phase(phase). N and M broadcast
    against the parts as they are: arrays of them carry one trailing unit
    axis per axis of a response, so one set of parts serves a whole r curve,
    and parts stacked along leading axes pair with N, M entry by entry.
    """
    x0, x1, x2 = parts
    return steady_at_phase(x0 + N * x1, M * x2, phase)


@dataclass(frozen=True)
class MinimizeResult:
    """Floats for one search, arrays over the lanes of many."""

    x: float
    boundary: bool  # no interior decrease detected; minimum sits at an edge


def minimize_scalar(f, bracket: tuple[float, float], tol: float) -> MinimizeResult:
    """Brent's minimizer of continuous scalar functions, as lanes.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5:
    a parabola through the three best points so far gives the next point,
    and a golden-section step into the larger side of the bracket replaces
    it when the parabola's step falls outside the bracket or fails to halve
    the step before last. A search stops when its best point x is within
    2*tol1 - (b - a)/2 of the bracket's midpoint, tol1 = sqrt(eps)|x| +
    tol/3, and returns that best point.

    A float bracket (a, b) minimizes one function: f takes a float and
    returns a float. Arrays a, b (broadcast together) give one lane per
    entry: f takes an array of every lane's point and returns an array of
    the values. Each lane chooses its own step under masks and stops on its
    own, after which f sees NaN at its entry and the value there is ignored;
    each lane's x and boundary equal those of a search over it alone. A NaN
    value (a point that failed) ends its search at once, at the best point
    before it (the first point, if that one's value is NaN). Flags
    `boundary` when the minimizer lands within 10*tol of a bracket edge
    (monotone f converges there).
    """
    a0, b0 = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in bracket))
    if not (b0 > a0).all():
        raise DimensionError("bracket must satisfy a < b")
    lanes = a0.ndim > 0

    def at(x, active):
        if not lanes:
            return np.asarray(f(float(x)), dtype=float)
        return np.asarray(f(np.where(active, x, np.nan)), dtype=float)

    golden = (3.0 - math.sqrt(5.0)) / 2.0
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    a, b = a0, b0
    x = w = v = a + golden * (b - a)  # best point, second best, the one before
    fx = fw = fv = at(x, True)
    failed = np.isnan(fx)
    d = e = np.zeros_like(x)  # the last step and the one before it
    while True:
        m, tol1 = 0.5 * (a + b), sqrt_eps * np.abs(x) + tol / 3.0
        active = ~failed & (np.abs(x - m) > 2.0 * tol1 - 0.5 * (b - a))
        if not active.any():
            break
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = np.where(q > 0.0, -p, p), np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        step = p / np.where(parabolic, q, 1.0)
        u = x + step  # a parabolic step within 2*tol1 of an edge turns to the midpoint
        step = np.where((u - a < 2.0 * tol1) | (b - u < 2.0 * tol1),
                        np.where(m >= x, tol1, -tol1), step)
        e = np.where(parabolic, d, np.where(x >= m, a - x, b - x))
        d = np.where(parabolic, step, golden * e)
        u = x + np.where(d >= 0.0, 1.0, -1.0) * np.maximum(np.abs(d), tol1)
        fu = at(u, active)
        failed = failed | (active & np.isnan(fu))
        better, worse = active & (fu <= fx), active & ~(fu <= fx)
        # the bracket closes on the new best point, or on u past the old one
        a = np.where(better & (u >= x), x, np.where(worse & (u < x), u, a))
        b = np.where(better & (u < x), x, np.where(worse & (u >= x), u, b))
        second = worse & ((fu <= fw) | (w == x))
        third = worse & ~second & ((fu <= fv) | (v == x) | (v == w))
        v, fv = (np.where(better | second, w, np.where(third, u, v)),
                 np.where(better | second, fw, np.where(third, fu, fv)))
        w, fw = (np.where(better, x, np.where(second, u, w)),
                 np.where(better, fx, np.where(second, fu, fw)))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    boundary = (x - a0 <= 10.0 * tol) | (b0 - x <= 10.0 * tol)
    if not lanes:
        return MinimizeResult(x=float(x), boundary=bool(boundary))
    return MinimizeResult(x=x, boundary=boundary)
