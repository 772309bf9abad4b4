"""Adiabatically eliminated two-mirror model: 3-variable dynamics, steady
states, the entanglement criterion, and the optimal squeezing degree; and
the stacked steady build of every model (steady_points) that sweeps read.

The symmetric two-mirror covariance has only three independent entries
(V11, V22, V12); the rest follow from exchange symmetry and the conserved
center-of-mass sums V11 + V13 = V22 + V24 = nbar0 + 1/2. The 3-variable
drift and drive are extracted numerically from the compiled two-mirror
generator restricted to that closure, keeping the compiler the single
source of truth for the model matrices.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

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
    reservoir_parts,
    reservoir_steady,
    steady_at_phase,
)
from .errors import DivergenceError, SimulationError, per_entry
from .gaussian import (
    QuadratureObservables,
    frame_variances,
    observables_and_nu_minus,
    quadrature_observables,
    rotation_angle,
    thermal,
    warn_uncertainty,
)
from .generator import (
    MomentEquations,
    compile_injections,
    full_generator,
    mirror_block,
    reduced_generator,
    reservoir_family,
)
from .params import (
    DerivedCoefficients,
    PhysicalParams,
    check_r,
    derive,
    reservoir_correlations,
    stack_points,
)

CRITERION_BAND = 1e-9


# position of each 4x4 entry in (V11, V22, V12, c - V11, c - V22, -V12)
_LIFT_INDEX = np.array([[0, 2, 3, 5], [2, 1, 5, 4], [3, 5, 0, 2], [5, 4, 2, 1]])
_PROJECT_ROWS, _PROJECT_COLUMNS = np.array([[0, 1, 0], [0, 1, 1]])  # of (V11, V22, V12)


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
    return V[..., _PROJECT_ROWS, _PROJECT_COLUMNS]


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


@dataclass
class ReducedSystem:
    """3-variable moment system dV3/dt = m3 V3 + B(t).

    The drive decomposes as B(t) = b0 + N b1 + M (b2 e^{2i delta t} + c.c.)
    with N = sinh^2 r and M = cosh r sinh r the squeezed-reservoir
    correlations, which ode and dynamical_solution take as arguments; b0, b1
    are real, b2 complex, all independent of the squeezing degree, and so is
    m3. The steady state is therefore affine in (N, M): a point and an r
    curve alike are one build plus x0 + N x1 + M x2(z) (steady_parts,
    steady_covariance). The systems of build_systems carry a leading axis of
    points on every field.
    """

    m3: NDArray[np.float64]
    b0: NDArray[np.float64]
    b1: NDArray[np.float64]
    b2: NDArray[np.complex128]
    delta: float
    nbar0: float

    def ode(self, N, M) -> LinearHarmonicODE:
        """The ODE at reservoir correlations N, M: floats, or arrays (K,) of K drives."""
        return LinearHarmonicODE(
            drift=self.m3,
            drive_static=(self.b0 + np.multiply.outer(N, self.b1)).T,
            drive_harmonic=np.multiply.outer(M, self.b2).T,
            omega=2.0 * self.delta,
        )

    def initial_state(self) -> NDArray[np.float64]:
        return np.array([self.nbar0 + 0.5, self.nbar0 + 0.5, 0.0])

    def point(self, k) -> "ReducedSystem":
        """Point k of a stacked system, or its points k for an index array."""
        return ReducedSystem(*[field[k] for field in vars(self).values()])

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

    def dynamical_solution(self, t, N: float, M: float) -> NDArray[np.float64]:
        """Closed form x_ss(t) + e^{m3 t} (x(0) - x_ss(0)) from the thermal state.

        x_ss is the periodic solution of ode(N, M) from linear_steady, e^{m3 t}
        comes from expm_action; an array t (result t.shape + (3,)) shares
        both. Equals the RK4 route up to truncation error; used as the
        analytic cross-check path (model "reduced_analytic").
        """
        x_dc, x_2 = linear_steady(self.ode(N, M))
        x_ss0 = steady_at_phase(x_dc, x_2, 1.0)
        z = np.exp(2j * self.delta * np.asarray(t, dtype=float))[..., None]
        x_sst = x_dc + 2.0 * np.real(x_2 * z)
        return x_sst + expm_action(self.m3, t) @ (self.initial_state() - x_ss0)

    def evolve(self, r, grid: TimeGrid) -> list[Trajectory]:
        """Integrate from the thermal initial state at each squeezing degree
        of r, as one r family: ode at arrays N, M gives the drive columns of
        one integrate_linear. The covariances are the symmetry-assembled 4x4
        matrices, with their observables."""
        ode = self.ode(*reservoir_correlations(np.asarray(r, dtype=float)))
        times, xs = integrate_linear(ode, self.initial_state(), grid)
        return [Trajectory(times=times, covariances=covs, observables=quadrature_observables(covs))
                for covs in lift_covariance(xs, self.nbar0)]

    def evolve_analytic(self, r: float, grid: TimeGrid) -> Trajectory:
        """The closed form (dynamical_solution) at squeezing degree r on
        evolve's sample times; DivergenceError at the first sample that is
        not finite or exceeds DIVERGENCE_LIMIT."""
        times = grid.t0 + grid.sample_indices() * grid.h
        # overflow is detected on the values, not reported per-operation
        with np.errstate(over="ignore", invalid="ignore"):
            v3 = self.dynamical_solution(times, *reservoir_correlations(r))
            bad = ~np.isfinite(v3).all(axis=1) | (np.abs(v3).max(axis=1) > DIVERGENCE_LIMIT)
        if bad.any():
            k = int(bad.argmax())
            raise DivergenceError(
                f"analytic solution diverged at t = {times[k]:.6e}",
                last_valid_time=times[k - 1] if k else None,
            )
        covs = lift_covariance(v3, self.nbar0)
        return Trajectory(times=times, covariances=covs,
                          observables=quadrature_observables(covs))


def build_points(points: Sequence[PhysicalParams]) -> tuple[ReducedSystem, MomentEquations]:
    """The 3-variable systems of the points and the build they are read from.

    derive runs once over the stacked points (params.stack_points), then
    compile_injections builds reduced_generator at the points times the
    reservoir correlations (N, M) injected as (0,0), (1,0), (0,1), and
    project_system reads the systems from that build. Returns (systems,
    injections): every field of the systems carries a leading axis of
    points, and injections[:, k] is point k's compile, which reduced10
    reads (evolve_moments). Nothing here checks stability.
    """
    coeffs = derive(stack_points(points))
    injections = compile_injections(reduced_generator, coeffs)
    return project_system(coeffs, injections), injections


def build_systems(points: Sequence[PhysicalParams]) -> ReducedSystem:
    """The 3-variable system of every point, from one compiled build: the
    systems of build_points."""
    return build_points(points)[0]


def project_system(coeffs: DerivedCoefficients, injections: MomentEquations) -> ReducedSystem:
    """The 3-variable systems of compile_injections(reduced_generator, coeffs).

    coeffs is derive of stacked points. Each point's shared drift gives its
    m3, and one projection of the diffusions gives the static drives at
    (0,0) and (1,0) and the sideband at (0,1).
    """
    A = injections.drift[0][:, None]
    # the lifted unit vectors e_k, whose images are the columns k of m3, and
    # the lift of zero, whose image is the drive's base
    lifts = np.empty((len(A), 4, 4, 4))
    lifts[:, :3] = _UNIT_LIFTS
    np.multiply((coeffs.nbar0 + 0.5)[:, None, None], _ZERO_LIFT, out=lifts[:, 3])
    images = project_covariance(A @ lifts + lifts @ A.swapaxes(-1, -2))
    d00, d10 = project_covariance(injections.diffusion_static[:2])
    b0 = images[:, 3] + d00
    return ReducedSystem(
        m3=images[:, :3].swapaxes(-1, -2),
        b0=b0,
        b1=(images[:, 3] + d10) - b0,
        b2=project_covariance(injections.diffusion_harmonic[2]),
        delta=coeffs.params.delta,
        nbar0=coeffs.nbar0,
    )


def build_system(params: PhysicalParams) -> ReducedSystem:
    """The 3-variable system of one point: build_systems of that point alone."""
    return build_systems([params]).point(0)


def evolve(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Integrate the 3-variable model from the thermal initial state:
    evolve_r's family of one."""
    return evolve_r(params, [params.r], grid)[0]


def evolve_r(params: PhysicalParams, r, grid: TimeGrid) -> list[Trajectory]:
    """evolve at each squeezing degree of r (params.r unread), as one r family:
    ReducedSystem.evolve of one build_system (m3, b0, b1, b2 do not depend
    on r)."""
    return build_system(params).evolve(r, grid)


def evolve_analytic(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Closed-form counterpart of evolve() on the same sample times:
    ReducedSystem.evolve_analytic of build_system at params.r."""
    return build_system(params).evolve_analytic(params.r, grid)


def evolve_moments(injections: MomentEquations, nbar0: float, r: float,
                   grid: TimeGrid) -> Trajectory:
    """Integrate all second moments of one point's compile of the two-mirror
    generator (build_points' injections[:, k], read at squeezing degree r by
    generator.reservoir_family; r unchecked) from the product thermal state
    at occupation nbar0: the reduced10 model."""
    times, covariances = integrate(reservoir_family(injections, r), thermal(nbar0, 2), grid)
    return Trajectory(times, covariances, quadrature_observables(covariances))


def evolve_full10(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """evolve_moments at params.r of the injections of build_points([params])
    (the same derive and compile, without the projection).

    Validates the 3-variable closure: the 10 independent moments must keep
    the exchange-symmetry relations at all times.
    """
    coeffs = derive(stack_points([params]))
    injections = compile_injections(reduced_generator, coeffs)
    return evolve_moments(injections[:, 0], coeffs.nbar0[0], params.r, grid)


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


# the steady solve each model reads: reduced3 and reduced_analytic share one
# system, one solve and the same rows
SOLVES = {"reduced3": "reduced3", "reduced_analytic": "reduced3",
          "reduced10": "reduced10", "full6": "full6"}


def build_steady_parts(solves, points: Sequence[PhysicalParams]) -> dict[str, tuple]:
    """{solve: (parts, solved, errors)} of each of the solves (SOLVES values)
    at the points.

    parts are (x0, x1, x2, nbar0), the r-independent steady parts with a
    leading axis of the points solved (an index array), and errors maps
    every other point to the error its own build raises. The build is three
    stages, each one errors.per_entry evaluation shared by the solves that
    read it: one derive of every point, one compile_injections per
    generator (reduced_generator for reduced3 and reduced10, full_generator
    for full6), then per solve one Hurwitz check and one solve:
    ReducedSystem.steady_parts of project_system for reduced3, and
    dynamics.reservoir_parts for reduced10 and full6, full6's cut to the
    mirror block. A point fails at its first stage to fail, as a build of
    that point alone does.
    """
    n = len(points)
    coeffs, derived, derive_errors = per_entry(
        lambda j: derive(stack_points([points[i] for i in np.atleast_1d(j)])), np.arange(n))
    row = np.zeros(n, dtype=int)
    row[derived] = np.arange(len(derived))  # a derived point's row of coeffs
    compiled, built = {}, {}
    for solve in solves:
        generator = full_generator if solve == "full6" else reduced_generator
        if generator not in compiled:
            compiled[generator] = per_entry(
                lambda j: compile_injections(generator, coeffs.point(row[np.atleast_1d(j)])),
                derived)
        eqs, points_compiled, compile_errors = compiled[generator]
        at = np.zeros(n, dtype=int)
        at[points_compiled] = np.arange(len(points_compiled))  # a compiled point's row of eqs

        def solved(j):
            k = np.atleast_1d(j)
            if solve == "reduced3":
                system = project_system(coeffs.point(row[k]), eqs[:, at[k]])
                return (*system.steady_parts(), system.nbar0)
            parts = reservoir_parts(eqs[:, at[k]])
            if solve == "full6":
                parts = [mirror_block(x) for x in parts]
            return (*parts, coeffs.nbar0[row[k]])

        parts, points_solved, solve_errors = per_entry(solved, points_compiled)
        built[solve] = (parts, points_solved, {**derive_errors, **compile_errors, **solve_errors})
    return built


def steady_points(models, builds, r, phase) -> dict[str, tuple]:
    """Each model's steady two-mirror covariances at many points, as stacks.

    builds[k] is point k's PhysicalParams, or the SimulationError its
    parameters raise, and r[k] its squeezing degree (the PhysicalParams' r
    is not read). Consecutive points of one PhysicalParams (an r curve) are
    one distinct point, any other point is its own, and build_steady_parts
    builds the distinct points of every model together: one derive, one
    compile per generator, and one Hurwitz check and one solve per solve,
    and a build that fails (a non-Hurwitz drift, say) fails all of its
    points with the error its own build raises. Every other point is one
    entry of one x0 + N x1 + M x2(z) per solve.

    Returns {model: (V, nbar0, failures)}, one tuple for the models that
    share a solve. V (n, 4, 4) and nbar0 (n,) are each point's covariance
    and thermal occupation (zero where it failed), and failures maps each
    failing point to its error, the parameter errors first and then the
    build errors, each in point order.
    """
    errors = {k: b for k, b in enumerate(builds) if isinstance(b, SimulationError)}
    params = [k for k in range(len(builds)) if k not in errors]
    live = np.array(params, dtype=int)
    first = np.ones(len(live), dtype=bool)
    first[1:] = [builds[k] is not builds[j] for j, k in zip(params, params[1:])]
    index = np.cumsum(first) - 1  # each live point's distinct point
    distinct = [builds[k] for k in live[first].tolist()]
    solves = {SOLVES[model]: None for model in models}
    steady = {}
    for solve, (parts, solved, build_errors) in build_steady_parts(solves, distinct).items():
        at = np.full(len(distinct), -1)
        at[solved] = np.arange(len(solved))
        at = at[index]  # each live point's row of parts, -1 where its build failed
        ok = at >= 0
        failures = dict(errors)
        failures.update((k, build_errors[j]) for k, j in zip(live[~ok].tolist(),
                                                             index[~ok].tolist()))
        V, nbar0 = np.zeros((len(builds), 4, 4)), np.zeros(len(builds))
        k = live[ok]
        if len(k):
            x0, x1, x2, nbar0_k = (x[at[ok]] for x in parts)
            nbar0[k] = nbar0_k
            if solve == "reduced3":
                V[k] = steady_covariance((x0, x1, x2), nbar0_k, r[k], phase)
            else:
                N, M = reservoir_correlations(r[k][:, None, None])
                V[k] = reservoir_steady((x0, x1, x2), N, M, phase)
        steady[solve] = (V, nbar0, failures)
    return {model: steady[SOLVES[model]] for model in models}


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
    phase: complex | float | str,
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

    The reduced3 steady parts of one build_steady_parts serve every point:
    a point whose build fails leaves with the error its own build raises (a
    failing Hurwitz check is not built again), and the points solved are
    the lanes that search. Each step reads one steady_covariance over every
    lane still searching: a Brent step (the lanes of
    dynamics.minimize_scalar, each choosing its own step) reads its
    dP2_minus by gaussian.frame_variances, a step of the r_formula fixed
    points its rotation_angle. One criterion call then checks every
    covariance evaluated, the optima's included, and its rows at the optima
    give dP2_minus and E_N; only if it refuses one are the evaluations
    checked one by one, each by errors.per_entry. Entry k is point k's
    OptimalSqueezing, or the SimulationError its one-point call raises:
    that of its first evaluation to fail, in evaluation order. A lane whose
    read fails leaves at once, and the others keep their values.
    """
    parts, solved, failures = build_steady_parts(["reduced3"], points)["reduced3"]
    z = normalize_phase(phase)
    if parts is None:  # no point was built
        return [failures[k] for k in range(len(points))]
    x0, x1, x2, nbar0 = parts
    m = len(solved)
    alive = np.ones(m, dtype=bool)
    evaluated = []  # (lanes, covariances) of every evaluation, in order

    def evaluate(read, lanes: NDArray[np.bool_], r: NDArray):
        """read of the covariance at r of each live lane of the mask; the
        lanes whose read fails leave. Returns (value, the lanes read)."""
        k = np.flatnonzero(lanes & alive)
        V = steady_covariance((x0[k], x1[k], x2[k]), nbar0[k], r[k], z)
        value, ok, failed = per_entry(lambda j: read(V[j]), np.arange(len(k)))
        for j, exc in failed.items():
            failures[int(solved[k[j]])] = exc
        alive[k[list(failed)]] = False
        evaluated.append((k[ok], V[ok]))
        return value, k[ok]

    def dp2(r: NDArray) -> NDArray:
        out = np.full(m, np.nan)
        value, read = evaluate(lambda V: frame_variances(V)[1], ~np.isnan(r), r)
        if len(read):
            out[read] = value
        return out

    res = minimize_scalar(dp2, (np.zeros(m), np.full(m, 3.0)), tol=1e-4)
    r_opt = res.x
    optima = np.flatnonzero(alive)
    first_optimum = sum(len(k) for k, _ in evaluated)
    evaluated.append((optima, steady_covariance(
        (x0[optima], x1[optima], x2[optima]), nbar0[optima], r_opt[optima], z)))

    # r_formula: squeezing_formula at the rotation angle of the steady state
    # at its own last value
    r_formula = np.full(m, np.nan)
    if z == 0.0:
        notes = ["formula undefined for the phase-averaged steady state"] * m
    else:
        notes = [""] * m
        r_k = np.where(res.boundary, np.maximum(r_opt, 0.1), 0.5)
        going = np.ones(m, dtype=bool)
        for _ in range(50):
            theta, read = evaluate(rotation_angle, going, r_k)
            if not len(read):
                break
            r_next = squeezing_formula((x0[read], x1[read], x2[read]), theta, z)
            out = np.isnan(r_next)
            done = ~out & (np.abs(r_next - r_k[read]) < 1e-10)
            for k in read[out].tolist():
                notes[k] = "artanh argument out of (-1, 1)"
            r_formula[read[done]] = r_next[done]
            going[read[out | done]] = False
            r_k[read] = np.where(out, r_k[read], r_next)
        for k in np.flatnonzero(going & alive).tolist():
            r_formula[k] = r_k[k]
            notes[k] = "fixed point not fully converged after 50 iterations"

    # every covariance evaluated, checked by one criterion call; if it
    # refuses any, evaluation by evaluation, each one errors.per_entry
    lanes = np.concatenate([k for k, _ in evaluated])
    V = np.concatenate([V for _, V in evaluated])
    entries = np.arange(len(lanes))

    def check(e):
        return criterion(V[e], nbar0[lanes[e]])

    try:
        checks = [(check(entries), entries, {})]
    except SimulationError:
        bounds = np.cumsum([len(k) for k, _ in evaluated[:-1]], dtype=int)
        checks = [per_entry(check, span) for span in np.split(entries, bounds)]
    dp2_opt, e_n_opt = np.full(m, np.nan), np.full(m, np.nan)
    # latest first: a lane's first refused covariance precedes any read of it
    # that failed, and any later refusal
    for report, checked, refused in reversed(checks):
        for e, exc in reversed(refused.items()):
            failures[int(solved[lanes[e]])] = exc
        at_optimum = (first_optimum <= checked) & (checked < first_optimum + len(optima))
        if at_optimum.any():
            k = lanes[checked[at_optimum]]
            dp2_opt[k], e_n_opt[k] = report.dP2_minus[at_optimum], report.E_N[at_optimum]
    results = {k: OptimalSqueezing(
        r_numeric=float(r_opt[j]),
        r_formula=None if np.isnan(r_formula[j]) else float(r_formula[j]),
        dP2_minus=float(dp2_opt[j]), E_N=float(e_n_opt[j]),
        formula_note=notes[j]) for j, k in enumerate(solved.tolist())}
    results.update(failures)
    return [results[k] for k in range(len(points))]


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
