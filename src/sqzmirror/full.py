"""Un-eliminated three-mode model (cavity + two mirrors) at Gaussian level.

Used to validate the adiabatic elimination and chart where it breaks down.
The mirror observables are computed on the cavity-traced marginal, which
for Gaussian states is just the mirror rows/columns of the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    TimeGrid,
    Trajectory,
    integrate,
    periodic_steady_state,
    steady_at_phase,
)
from .gaussian import quadrature_observables, thermal, vacuum
from .generator import compile_generator, full_generator
from .params import PhysicalParams, derive
from .reduced import build_system, evolve as evolve_reduced, lift_covariance


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


def evolve_full(
    params: PhysicalParams,
    grid: TimeGrid,
    single_mirror: bool = False,
) -> Trajectory:
    """Integrate the linearized three-mode covariance from initial_covariance.

    Observables are attached for the mirror marginal. Raises StabilityError
    via the steady-state helpers only; integration itself reports divergence
    if the drift is unstable enough to blow up on the grid.
    """
    eqs = compile_generator(full_generator(derive(params), single_mirror=single_mirror))
    traj = integrate(eqs, initial_covariance(params), grid)
    return replace(traj,
                   observables=quadrature_observables(mirror_block(traj.covariances)))


def steady_full(
    params: PhysicalParams,
    phase: complex | float | str = 1.0,
    single_mirror: bool = False,
) -> NDArray[np.float64]:
    """Periodic steady three-mode covariance at reservoir phase e^{2i delta t}.

    phase has the same meaning as in reduced.steady_state (see
    dynamics.normalize_phase): +1/-1 are the band ends, another real number
    is an angle in radians, a complex value is scaled onto the unit circle
    and "average" gives the time-averaged covariance.
    """
    eqs = compile_generator(full_generator(derive(params), single_mirror=single_mirror))
    V_dc, V_2 = periodic_steady_state(eqs)
    return steady_at_phase(V_dc, V_2, phase)


@dataclass(frozen=True)
class AdiabaticComparison:
    """Full-vs-reduced discrepancy of the relative-momentum variance."""

    times: NDArray[np.float64]
    dp2_full: NDArray[np.float64]
    dp2_reduced: NDArray[np.float64]
    max_abs_deviation: float
    steady_dp2_full: float
    steady_dp2_reduced: float
    steady_rel_deviation: float


def compare_adiabatic(
    params: PhysicalParams,
    grid: TimeGrid | None = None,
    phase: complex | float | str = 1.0,
) -> AdiabaticComparison:
    """Quantify how well the eliminated model tracks the full one.

    When a grid is given, both models are integrated on it and the time
    series of |dP2_minus(full) - dP2_minus(reduced)| is reported alongside
    the steady-state relative deviation; without a grid only the steady
    comparison is made (resolvent solves on both sides). phase is read by
    dynamics.normalize_phase, the same for both models.
    """
    V_f = mirror_block(steady_full(params, phase))
    system = build_system(params)
    V_r = lift_covariance(system.steady_v3(phase), system.nbar0)
    dp2_f, dp2_r = quadrature_observables(np.stack([V_f, V_r])).dP2_minus.tolist()
    if grid is None:
        times = series_f = series_r = np.empty(0)
        max_dev = abs(dp2_f - dp2_r)
    else:
        traj_f = evolve_full(params, grid)
        times, series_f = traj_f.times, traj_f.observables.dP2_minus
        series_r = evolve_reduced(params, grid).observables.dP2_minus
        max_dev = float(np.abs(series_f - series_r).max())
    return AdiabaticComparison(
        times=times,
        dp2_full=series_f,
        dp2_reduced=series_r,
        max_abs_deviation=max_dev,
        steady_dp2_full=dp2_f,
        steady_dp2_reduced=dp2_r,
        steady_rel_deviation=abs(dp2_f - dp2_r) / abs(dp2_f),
    )
