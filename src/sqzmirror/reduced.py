"""Adiabatically eliminated two-mirror model: 3-variable dynamics, steady
states, the entanglement criterion, and the optimal squeezing degree.

The symmetric two-mirror covariance has only three independent entries
(V11, V22, V12); the rest follow from exchange symmetry and the conserved
center-of-mass sums V11 + V13 = V22 + V24 = nbar0 + 1/2. The 3-variable
drift and drive are extracted numerically from the compiled two-mirror
generator restricted to that closure, keeping the compiler the single
source of truth for the model matrices.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    DIVERGENCE_LIMIT,
    LinearHarmonicODE,
    TimeGrid,
    Trajectory,
    expm_action,
    integrate,
    integrate_linear,
    linear_steady,
    minimize_scalar,
    normalize_phase,
    require_hurwitz,
    reservoir_steady,
    steady_at_phase,
)
from .errors import DivergenceError, SimulationError, per_entry
from .gaussian import (
    QuadratureObservables,
    observables_and_nu_minus,
    quadrature_observables,
    rotation_angle,
    thermal,
    warn_uncertainty,
)
from .generator import (
    compile_generator,
    compile_injections,
    reduced_generator,
)
from .params import PhysicalParams, check_r, derive, reservoir_correlations, stack_points

CRITERION_BAND = 1e-9


# position of each 4x4 entry in (V11, V22, V12, c - V11, c - V22, -V12)
_LIFT_INDEX = np.array([[0, 2, 3, 5], [2, 1, 5, 4], [3, 5, 0, 2], [5, 4, 2, 1]])


def lift_covariance(v3: NDArray, nbar0: float | NDArray) -> NDArray[np.float64]:
    """Assemble the full symmetric 4x4 covariance from (V11, V22, V12).

    v3 may be a stack (..., 3); the result is then a stack (..., 4, 4), and
    nbar0 may be an array along its leading axes.
    """
    v3 = np.asarray(v3, dtype=float)
    c = np.asarray(nbar0, dtype=float)[..., None] + 0.5
    entries = np.concatenate([v3, c - v3[..., :2], -v3[..., 2:]], axis=-1)
    return entries[..., _LIFT_INDEX]


# the lifts of the unit vectors e_k at nbar0 = -1/2, where c = nbar0 + 1/2 is 0,
# and the lift of zero at c = 1 (at nbar0 it is c times this, exactly)
_UNIT_LIFTS = lift_covariance(np.eye(3), -0.5)
_ZERO_LIFT = lift_covariance(np.zeros(3), 0.5)


def project_covariance(V: NDArray) -> NDArray[np.float64]:
    """Extract the three independent entries (V11, V22, V12), of a stack too."""
    return V[..., (0, 1, 0), (0, 1, 1)]


@dataclass(frozen=True)
class CriterionReport:
    """Relative-momentum squeezing test against the thermal threshold.

    observables are the covariance's quadrature_observables, from which the
    test reads dP2_minus and E_N. Fields are floats (and a bool) for one
    covariance, arrays for a stack.
    """

    observables: QuadratureObservables
    threshold: float
    entangled: bool

    @property
    def dP2_minus(self) -> float:
        return self.observables.dP2_minus

    @property
    def E_N(self) -> float:
        return self.observables.E_N


@dataclass(frozen=True)
class ReducedSystem:
    """3-variable moment system dV3/dt = m3 V3 + B(t).

    The drive decomposes as B(t) = b0 + N b1 + M (b2 e^{2i delta t} + c.c.)
    with N, M the squeezed-reservoir correlations; b0, b1 are real, b2
    complex, all independent of the squeezing degree, and so is m3. The
    steady state is therefore affine in (N, M): a point and an r curve alike
    are one build plus x0 + N x1 + M x2(z) (steady_parts,
    steady_covariance), with N = sinh^2 r and M = cosh r sinh r. The
    systems of build_systems carry a leading axis of points on every field.
    """

    m3: NDArray[np.float64]
    b0: NDArray[np.float64]
    b1: NDArray[np.float64]
    b2: NDArray[np.complex128]
    delta: float
    nbar0: float
    N: float
    M: float

    def ode(self) -> LinearHarmonicODE:
        return LinearHarmonicODE(
            drift=self.m3,
            drive_static=(self.b0 + np.multiply.outer(self.N, self.b1)).T,
            drive_harmonic=np.multiply.outer(self.M, self.b2).T,
            omega=2.0 * self.delta,
        )

    def initial_state(self) -> NDArray[np.float64]:
        return np.array([self.nbar0 + 0.5, self.nbar0 + 0.5, 0.0])

    def point(self, k) -> "ReducedSystem":
        """Point k of a stacked system, or its points k for an index array."""
        return ReducedSystem(*(field[k] for field in vars(self).values()))

    def steady_parts(self) -> tuple[NDArray, NDArray, NDArray]:
        """Steady responses (x0, x1, x2) to the drive pieces b0, b1 and b2.

        m3 x0 = -b0, m3 x1 = -b1 and (m3 - 2i delta) x2 = -b2, from one
        linear_steady call, along the points of a stacked system too.
        Refuses non-Hurwitz drift, at the first point that has one.
        """
        require_hurwitz(self.m3)
        x_dc, x2 = linear_steady(LinearHarmonicODE(
            drift=self.m3,
            drive_static=np.concatenate([self.b0[..., None], self.b1[..., None]], axis=-1),
            drive_harmonic=self.b2,
            omega=2.0 * self.delta,
        ))
        return x_dc[..., 0], x_dc[..., 1], x2

    def dynamical_solution(self, t) -> NDArray[np.float64]:
        """Closed form x_ss(t) + e^{m3 t} (x(0) - x_ss(0)) from the thermal state.

        x_ss is the periodic solution from linear_steady, e^{m3 t} comes from
        expm_action; an array t (result t.shape + (3,)) shares both. Equals
        the RK4 route up to truncation error; used as the analytic
        cross-check path (model "reduced_analytic").
        """
        x_dc, x_2 = linear_steady(self.ode())
        x_ss0 = steady_at_phase(x_dc, x_2, 1.0)
        z = np.exp(2j * self.delta * np.asarray(t, dtype=float))[..., None]
        x_sst = x_dc + 2.0 * np.real(x_2 * z)
        return x_sst + expm_action(self.m3, t) @ (self.initial_state() - x_ss0)


def build_systems(points: Sequence[PhysicalParams]) -> ReducedSystem:
    """Extract the 3-variable system of every point from one compiled build.

    derive runs once over the stacked points (params.stack_points), and the
    b0/b1/b2 decomposition comes from compile_injections: one model build
    whose members are the points times the reservoir correlations (N, M)
    injected as (0,0), (1,0), (0,1). It refuses a drift that differs
    between a point's injections. Each point's shared drift gives its m3,
    and one projection of the diffusions gives the static drives at (0,0)
    and (1,0) and the sideband at (0,1). Every field of the result carries
    a leading axis of points; nothing here checks stability.
    """
    coeffs = derive(stack_points(points))
    eqs = compile_injections(reduced_generator, coeffs)
    A = eqs.drift[0]
    At = A.swapaxes(-1, -2)
    # column k of m3 is the image of the lifted unit vector e_k
    m3 = project_covariance(A[:, None] @ _UNIT_LIFTS + _UNIT_LIFTS @ At[:, None])
    V = (coeffs.nbar0 + 0.5)[:, None, None] * _ZERO_LIFT  # the lift of zero
    base = project_covariance(A @ V + V @ At)
    d00, d10 = project_covariance(eqs.diffusion_static[:2])
    b0 = base + d00
    return ReducedSystem(
        m3=m3.swapaxes(-1, -2),
        b0=b0,
        b1=(base + d10) - b0,
        b2=project_covariance(eqs.diffusion_harmonic[2]),
        delta=coeffs.params.delta,
        nbar0=coeffs.nbar0,
        N=coeffs.N,
        M=coeffs.M,
    )


def build_system(params: PhysicalParams) -> ReducedSystem:
    """The 3-variable system of one point: build_systems of that point alone."""
    return build_systems([params]).point(0)


def evolve(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Integrate the 3-variable model from the thermal initial state.

    Covariances in the returned trajectory are the symmetry-assembled 4x4
    matrices with observables attached: evolve_r's family of one.
    """
    return evolve_r(params, [params.r], grid)[0]


def evolve_r(params: PhysicalParams, r, grid: TimeGrid) -> list[Trajectory]:
    """evolve at each squeezing degree of r (params.r unread), as one r family:
    one build_system (m3, b0, b1, b2 do not depend on r), whose ode at arrays
    N, M gives the drive columns of one integrate_linear."""
    N, M = reservoir_correlations(np.asarray(r, dtype=float))
    system = replace(build_system(params), N=N, M=M)
    times, xs = integrate_linear(system.ode(), system.initial_state(), grid)
    return [Trajectory(times=times, covariances=covs, observables=quadrature_observables(covs))
            for covs in lift_covariance(xs, system.nbar0)]


def evolve_analytic(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Closed-form counterpart of evolve() on the same sample times."""
    system = build_system(params)
    times = grid.t0 + grid.sample_indices() * grid.h
    # overflow is detected on the values, not reported per-operation
    with np.errstate(over="ignore", invalid="ignore"):
        v3 = system.dynamical_solution(times)
        bad = ~np.isfinite(v3).all(axis=1) | (np.abs(v3).max(axis=1) > DIVERGENCE_LIMIT)
    if bad.any():
        k = int(bad.argmax())
        raise DivergenceError(
            f"analytic solution diverged at t = {times[k]:.6e}",
            last_valid_time=times[k - 1] if k else None,
        )
    covs = lift_covariance(v3, system.nbar0)
    return Trajectory(times=times, covariances=covs,
                      observables=quadrature_observables(covs))


def evolve_full10(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Integrate all second moments of the compiled two-mirror generator.

    Validates the 3-variable closure: the full 4x4 dynamics (10 independent
    moments) starts from the product thermal state and must keep the
    exchange-symmetry relations at all times.
    """
    coeffs = derive(params)
    eqs = compile_generator(reduced_generator(coeffs))
    times, covariances = integrate(eqs, thermal(coeffs.nbar0, 2), grid)
    return Trajectory(times, covariances, quadrature_observables(covariances))


def criterion(V: NDArray, nbar0: float | NDArray) -> CriterionReport:
    """Entanglement test of a two-mirror covariance: dP2_minus vs threshold.

    V may be in any local frame: dP2_minus and E_N are read as
    gaussian.quadrature_observables reads them, dP2_minus in the frame that
    removes the anomalous-moment phase. The threshold 1/[2(2 nbar0 + 1)]
    encodes the thermal robustness of the relative-momentum squeezing.
    V may be a stack (..., 4, 4), with nbar0 a float or an array that
    broadcasts against its leading axes: one gaussian.observables_and_nu_minus
    call covers it, V's own spectrum included, and the report's fields are
    arrays. The CRITERION_BAND cross-check against E_N holds for every
    entry; the error names the first entry that fails. Emits one
    PhysicalityWarning when V, or any entry, breaks the uncertainty bound.
    """
    obs, nu_minus = observables_and_nu_minus(V)
    warn_uncertainty(nu_minus)  # as log_negativity(V) warns
    dp2, e_n = np.asarray(obs.dP2_minus), np.asarray(obs.E_N)
    threshold = 1.0 / (2.0 * (2.0 * np.asarray(nbar0, dtype=float) + 1.0))
    below = dp2 < threshold - CRITERION_BAND
    above = dp2 > threshold + CRITERION_BAND
    bad = (below & ~(e_n > 0.0)) | (above & (e_n > 0.0))
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        where = f" at entry {k}" if bad.ndim else ""
        dp2_k, threshold_k, e_n_k = (
            float(np.broadcast_to(x, bad.shape).flat[k]) for x in (dp2, threshold, e_n)
        )
        raise SimulationError(
            f"criterion/log-negativity disagreement{where}: dP2={dp2_k!r}, "
            f"threshold={threshold_k!r}, E_N={e_n_k!r}"
        )
    entangled = dp2 < threshold
    if entangled.ndim == 0:
        return CriterionReport(obs, float(threshold), bool(entangled))
    return CriterionReport(obs, threshold, entangled)


def steady_covariance(
    parts: tuple[NDArray, NDArray, NDArray], nbar0, r, phase
) -> NDArray[np.float64]:
    """Lifted steady covariance x0 + N x1 + M x2(z) at squeezing degree(s) r.

    parts are ReducedSystem.steady_parts() and nbar0 its system's thermal
    occupation; N = sinh^2 r and M = cosh r sinh r, and phase is read by
    dynamics.normalize_phase. An array of r gives a stack (..., 4, 4). parts
    stacked along leading axes (..., 3), with nbar0 and r along the same
    axes, give one covariance per entry: the lanes of optimal_squeezings.
    No criterion check and no range check on r.
    """
    N, M = reservoir_correlations(np.asarray(r, dtype=float)[..., None])
    return lift_covariance(reservoir_steady(parts, N, M, phase), nbar0)


def steady_curve(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> Callable[..., tuple[NDArray[np.float64], CriterionReport]]:
    """steady_state as a function of the squeezing degree r (params.r unread).

    One build_system serves every call of the returned curve(r), and a
    non-Hurwitz drift is refused here, once. curve(r) evaluates
    steady_covariance and runs criterion on it: a float r gives (V, report)
    as steady_state does, an array of r a covariance stack (n, 4, 4) and one
    report whose fields are arrays. r goes through params.check_r first, so
    r < 0 raises the ParameterError PhysicalParams would.
    """
    system = build_system(params)
    parts = system.steady_parts()

    def curve(r) -> tuple[NDArray[np.float64], CriterionReport]:
        check_r(r)
        V = steady_covariance(parts, system.nbar0, r, phase)
        return V, criterion(V, system.nbar0)

    return curve


def steady_state(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> tuple[NDArray[np.float64], CriterionReport]:
    """Periodic steady two-mirror covariance (4x4) and its criterion report.

    phase is e^{2i delta t} as read by dynamics.normalize_phase: +1/-1 for
    even/odd multiples of pi/(2 delta), any other real number is the angle
    2*delta*t in radians, a complex value is normalized to the unit circle,
    and "average" keeps the dc part alone. Refuses non-Hurwitz drift. It is
    steady_curve at params.r.
    """
    return steady_curve(params, phase)(params.r)


@dataclass(frozen=True)
class OptimalSqueezing:
    r_numeric: float
    r_formula: float | None
    dP2_minus: float  # at r_numeric
    E_N: float  # at r_numeric
    formula_note: str


def squeezing_formula(
    parts: tuple[NDArray, NDArray, NDArray],
    theta,
    phase: complex | float | str = 1.0,
) -> float | NDArray[np.float64] | None:
    """Stationary squeezing degree from the closed-form artanh expression.

    parts are ReducedSystem.steady_parts(), of which it reads x1 and x2.
    The artanh argument carries the factor 2 obtained by differentiating
    the steady state x0 + N x1 + M x2(z) directly (dN/dr = sinh 2r,
    dM/dr = cosh 2r), which the numeric minimizer confirms. phase is read
    by dynamics.normalize_phase. Returns None when the argument leaves
    (-1, 1). parts stacked along leading axes, with theta an array along
    them, give an array with NaN where the argument leaves (-1, 1).
    """
    theta = np.asarray(theta, dtype=float)
    th = np.stack([np.sin(theta / 2.0) ** 2, np.cos(theta / 2.0) ** 2, -np.sin(theta)],
                  axis=-1)
    _, x1, x2 = parts
    v = np.real(x2 * normalize_phase(phase))
    row = th[..., None, :]
    x = (-2.0 * (row @ v[..., :, None]) / (row @ x1[..., :, None]))[..., 0, 0]
    inside = (-1.0 < x) & (x < 1.0)
    # arctanh warns outside (-1, 1), so it never sees those entries
    r = 0.5 * np.arctanh(np.where(inside, x, 0.0))
    if x.ndim == 0:
        return float(r) if inside else None
    return np.where(inside, r, np.nan)


def optimal_squeezings(
    points: Sequence[PhysicalParams], phase: complex | float | str
) -> list[OptimalSqueezing | SimulationError]:
    """optimal_squeezing at every point, all searches in lockstep.

    One build_systems for all points, and one batched steady_parts: one
    errors.per_entry evaluation, so a point whose build fails leaves with
    the error its own build raises, and only the built points search. The
    points' steady parts are stacked, and each Brent step (the lanes of
    dynamics.minimize_scalar, each choosing its own step), the optima and
    each step of the r_formula fixed points are one steady_covariance and
    one criterion over every point still searching. Entry k is point k's
    OptimalSqueezing, or the SimulationError its one-point call raises: a
    point whose build or any evaluation fails leaves the lanes, and the
    others keep their values.
    """
    def built(k):
        system = build_systems([points[j] for j in np.atleast_1d(k)])
        return (*system.steady_parts(), system.nbar0)

    n = len(points)
    parts, kept, failures = per_entry(built, np.arange(n))
    x0, x1, x2, nbar0 = (np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3), dtype=complex),
                         np.zeros(n))
    if len(kept):
        for lane, part in zip((x0, x1, x2, nbar0), parts):
            lane[kept] = part
    z = normalize_phase(phase)
    alive = np.array([k not in failures for k in range(n)])

    def steady(k, r) -> tuple[NDArray[np.float64], CriterionReport]:
        """Lanes k (an index array, or an int for one lane alone) at r."""
        V = steady_covariance((x0[k], x1[k], x2[k]), nbar0[k], r, z)
        return V, criterion(V, nbar0[k])

    def evaluate(fn, lanes: NDArray[np.bool_]):
        """fn over the live lanes of the mask; the lanes that fail leave."""
        value, kept, failed = per_entry(fn, np.flatnonzero(lanes & alive))
        failures.update(failed)
        alive[list(failed)] = False
        return value, kept

    # the search's lanes are the built points: a failed build starts as done
    searched = np.flatnonzero(alive)

    def dp2(r: NDArray) -> NDArray:
        out, r_n = np.full(n, np.nan), np.full(n, np.nan)
        r_n[searched] = r
        value, kept = evaluate(lambda k: steady(k, r_n[k])[1].dP2_minus, ~np.isnan(r_n))
        if len(kept):
            out[kept] = value
        return out[searched]

    res = minimize_scalar(dp2, (np.zeros(len(searched)), np.full(len(searched), 3.0)), tol=1e-4)
    r_opt, boundary = np.full(n, np.nan), np.zeros(n, dtype=bool)
    r_opt[searched], boundary[searched] = res.x, res.boundary
    dp2_opt, e_n_opt = np.full(n, np.nan), np.full(n, np.nan)
    report, kept = evaluate(lambda k: steady(k, r_opt[k])[1], np.ones(n, dtype=bool))
    if len(kept):
        dp2_opt[kept], e_n_opt[kept] = report.dP2_minus, report.E_N

    # r_formula: squeezing_formula at the rotation angle of the steady state
    # at its own last value
    r_formula = np.full(n, np.nan)
    if z == 0.0:
        notes = ["formula undefined for the phase-averaged steady state"] * n
    else:
        notes = [""] * n
        r_k = np.where(boundary, np.maximum(r_opt, 0.1), 0.5)
        going = np.ones(n, dtype=bool)
        for _ in range(50):
            theta, kept = evaluate(lambda k: rotation_angle(steady(k, r_k[k])[0]), going)
            if not len(kept):
                break
            r_next = squeezing_formula((x0[kept], x1[kept], x2[kept]), theta, z)
            out = np.isnan(r_next)
            done = ~out & (np.abs(r_next - r_k[kept]) < 1e-10)
            for k in kept[out].tolist():
                notes[k] = "artanh argument out of (-1, 1)"
            r_formula[kept[done]] = r_next[done]
            going[kept[out | done]] = False
            r_k[kept] = np.where(out, r_k[kept], r_next)
        for k in np.flatnonzero(going & alive).tolist():
            r_formula[k] = r_k[k]
            notes[k] = "fixed point not fully converged after 50 iterations"
    return [
        failures[k] if k in failures else OptimalSqueezing(
            r_numeric=float(r_opt[k]),
            r_formula=None if np.isnan(r_formula[k]) else float(r_formula[k]),
            dP2_minus=float(dp2_opt[k]), E_N=float(e_n_opt[k]),
            formula_note=notes[k])
        for k in range(n)
    ]


def optimal_squeezing(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> OptimalSqueezing:
    """Squeezing degree minimizing the steady relative-momentum variance.

    r_numeric is the best point of a Brent search (tol 1e-4) for the minimum
    of dP2_minus(infinity)(r) over [0, 3] (the governing oracle); r_formula
    evaluates the closed-form expression with the rotation angle solved
    self-consistently, and is None when the artanh argument is out of range
    or the steady state is phase-averaged (the dc variance has no interior
    optimum). One build serves both: every evaluated r is the closed form
    x0 + N x1 + M x2(z), read through criterion. It is optimal_squeezings
    of this point alone, and raises the error of its lane.
    """
    (result,) = optimal_squeezings([params], phase)
    if isinstance(result, SimulationError):
        raise result
    return result
