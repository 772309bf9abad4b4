"""Un-eliminated three-mode model (cavity + two mirrors) at Gaussian level.

Used to validate the adiabatic elimination and chart where it breaks down.
The mirror observables are computed on the cavity-traced marginal, which
for Gaussian states is just the mirror rows/columns of the covariance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    TimeGrid,
    Trajectory,
    integrate,
    reservoir_parts,
    reservoir_steady,
)
from .errors import SimulationError, per_entry
from .gaussian import frame_variances, quadrature_observables, thermal, vacuum
from .generator import (MomentEquations, compile_generator, compile_injections, full_generator,
                        mirror_block, require_shared_drift)
from .params import PhysicalParams, derive, stack_points
from .reduced import ReducedSystem, build_system, steady_covariance


def initial_covariance(params: PhysicalParams) -> NDArray[np.float64]:
    """Vacuum cavity fluctuations, thermal mirrors."""
    nbar0 = derive(params).nbar0
    V0 = np.zeros((6, 6))
    V0[:2, :2] = vacuum(1)
    V0[2:, 2:] = thermal(nbar0, 2)
    return V0


def evolve_full(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Integrate the linearized three-mode covariance from initial_covariance.

    Observables are attached for the mirror marginal. Raises StabilityError
    via the steady-state helpers only; integration itself reports divergence
    if the drift is unstable enough to blow up on the grid. It is
    evolve_full_r's family of one.
    """
    return evolve_full_r(params, [params.r], grid)[0]


def evolve_full_r(params: PhysicalParams, r, grid: TimeGrid) -> list[Trajectory]:
    """evolve_full at each squeezing degree of r (params.r unread), as one r
    family: one stacked compile of the points, whose drifts must agree, and
    their diffusions as the drive columns of one dynamics.integrate."""
    eqs = compile_generator(full_generator(derive(stack_points([params.with_(r=x) for x in r]))))
    require_shared_drift(eqs.drift)
    # a member without squeezing has no sideband, and omega 0 there
    family = MomentEquations(eqs.drift[0], eqs.diffusion_static, eqs.diffusion_harmonic,
                             max(eqs.omega, key=abs))
    times, covariances = integrate(family, initial_covariance(params), grid)
    return [Trajectory(times, V, quadrature_observables(mirror_block(V))) for V in covariances]


def steady_full(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> NDArray[np.float64]:
    """Periodic steady three-mode covariance at reservoir phase e^{2i delta t}.

    phase has the same meaning as in reduced.steady_state (see
    dynamics.normalize_phase): +1/-1 are the band ends, another real number
    is an angle in radians, a complex value is scaled onto the unit circle
    and "average" gives the time-averaged covariance. It is x0 + N x1 +
    M x2(z) of dynamics.reservoir_parts, from one build of the three
    reservoir injections, as every r curve is: the build of a sweep at this
    point alone.
    """
    coeffs = derive(stack_points([params]))
    parts = reservoir_parts(compile_injections(full_generator, coeffs))
    return reservoir_steady([x[0] for x in parts], coeffs.N[0], coeffs.M[0], phase)


@dataclass(frozen=True)
class AdiabaticComparison:
    """Full-vs-reduced discrepancy of the steady relative-momentum variance."""

    steady_dp2_full: float
    steady_dp2_reduced: float
    steady_rel_deviation: float


def compare_adiabatics(
    builds: Sequence[PhysicalParams | SimulationError], phase: complex | float | str
) -> list[AdiabaticComparison | SimulationError]:
    """compare_adiabatic at every point, one model at a time.

    builds[k] is point k's PhysicalParams, or the SimulationError its
    parameters raise and that is then entry k, as reduced.steady_points
    reads them. The builds stay per point: one steady_full and one
    build_system each, since the benchmark's trace pins 25 of each per fig4
    figure. reduced.steady_points of full6 and reduced3 is their stacked
    form, which replaces them once that trace stops pinning per-point calls.
    The built reduced systems are then compared as one errors.per_entry
    evaluation: their fields stacked, one Hurwitz check and one solve
    (ReducedSystem.steady_parts), one steady_covariance at the points' r and
    one gaussian.frame_variances over the (L, 2, 4, 4) pairs of full and
    reduced covariances, whose dP2_minus are compared. phase is read by
    dynamics.normalize_phase, the same for both models. Any other entry k is
    point k's AdiabaticComparison or the first SimulationError its one-point
    call raises: the full6 build, the reduced3 build, its Hurwitz check and
    solve, then the variance check.
    """
    n = len(builds)
    entries = {k: b for k, b in enumerate(builds) if isinstance(b, SimulationError)}
    V = np.zeros((n, 2, 4, 4))  # each point's full and reduced mirror covariances
    # one build chain over every point, then the other: interleaving the two
    # chains point by point made a fig4 figure's builds about 10% slower
    for k in [k for k in range(n) if k not in entries]:
        try:
            V[k, 0] = mirror_block(steady_full(builds[k], phase))
        except SimulationError as exc:
            entries[k] = exc
    live, systems = [], []
    for k in [k for k in range(n) if k not in entries]:
        try:
            systems.append(build_system(builds[k]))
            live.append(k)
        except SimulationError as exc:
            entries[k] = exc
    live = np.array(live, dtype=int)
    r = np.array([builds[k].r for k in live.tolist()])

    def compared(j):
        """The full and reduced dP2_minus at the points live[j], from the
        systems j stacked (a stack of one for an int j)."""
        stack = ReducedSystem(*map(np.array, zip(*[vars(systems[i]).values()
                                                   for i in np.atleast_1d(j)])))
        V[live[j], 1] = steady_covariance(stack.steady_parts(), stack.nbar0, r[j], phase)
        return frame_variances(V[live[j]])[1]

    dp2, kept, failed = per_entry(compared, np.arange(len(live)))
    entries.update((int(live[j]), exc) for j, exc in failed.items())
    for k, (dp2_f, dp2_r) in zip(live[kept].tolist(), dp2.tolist() if len(kept) else ()):
        entries[k] = AdiabaticComparison(dp2_f, dp2_r, abs(dp2_f - dp2_r) / abs(dp2_f))
    return [entries[k] for k in range(n)]


def compare_adiabatic(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> AdiabaticComparison:
    """Quantify how well the eliminated model tracks the full one.

    Compares the steady states, each x0 + N x1 + M x2(z) from one build,
    by the dP2_minus quadrature_observables reads. It is compare_adiabatics
    of this point alone, and raises the error of its entry.
    """
    (result,) = compare_adiabatics([params], phase)
    if isinstance(result, SimulationError):
        raise result
    return result
