"""Un-eliminated three-mode model (cavity + two mirrors) at Gaussian level.

Used to validate the adiabatic elimination and chart where it breaks down.
The mirror observables are computed on the cavity-traced marginal, which
for Gaussian states is just the mirror rows/columns of the covariance.
"""

from __future__ import annotations

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
from .gaussian import frame_variances, quadrature_observables, thermal, vacuum
from .generator import (MomentEquations, compile_generator, compile_injections, full_generator,
                        require_shared_drift)
from .params import PhysicalParams, derive, stack_points
from .reduced import build_system, steady_covariance


def mirror_block(V6: NDArray) -> NDArray[np.float64]:
    """Trace out the cavity: keep the mirror rows/columns (of every matrix of a stack)."""
    return np.asarray(V6)[..., 2:, 2:]


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


def compare_adiabatic(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> AdiabaticComparison:
    """Quantify how well the eliminated model tracks the full one.

    Compares the steady states, each x0 + N x1 + M x2(z) from one build,
    by the dP2_minus quadrature_observables reads (gaussian.frame_variances,
    one call for both). phase is read by dynamics.normalize_phase, the same
    for both models. fig4 calls it once per point, although the same rows
    come from one stacked sweep (scenarios._steady_points): the benchmark's
    trace pins 25 steady_full calls per fig4 figure. For the same reason
    the point is derived twice, once by steady_full and once by
    build_system: sharing one derive would need a new argument or a cache.
    """
    V_f = mirror_block(steady_full(params, phase))
    system = build_system(params)
    V_r = steady_covariance(system.steady_parts(), system.nbar0, params.r, phase)
    dp2_f, dp2_r = frame_variances(np.array([V_f, V_r]))[1].tolist()
    return AdiabaticComparison(
        steady_dp2_full=dp2_f,
        steady_dp2_reduced=dp2_r,
        steady_rel_deviation=abs(dp2_f - dp2_r) / abs(dp2_f),
    )
