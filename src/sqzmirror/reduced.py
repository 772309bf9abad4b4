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

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    DIVERGENCE_LIMIT,
    LinearHarmonicODE,
    MinimizeResult,
    TimeGrid,
    Trajectory,
    expm_action,
    integrate,
    integrate_linear,
    linear_steady,
    minimize_scalar,
    normalize_phase,
    require_hurwitz,
    steady_at_phase,
)
from .errors import DivergenceError, PhysicalityWarning, SimulationError
from .gaussian import (
    PHYSICALITY_TOL,
    quadrature_observables,
    rotation_angle,
    symplectic_eigenvalues,
    thermal,
)
from .generator import compile_generator, reduced_generator
from .params import DerivedCoefficients, PhysicalParams, derive

CRITERION_BAND = 1e-9


# position of each 4x4 entry in (V11, V22, V12, c - V11, c - V22, -V12)
_LIFT_INDEX = np.array([[0, 2, 3, 5], [2, 1, 5, 4], [3, 5, 0, 2], [5, 4, 2, 1]])


def lift_covariance(v3: NDArray, nbar0: float) -> NDArray[np.float64]:
    """Assemble the full symmetric 4x4 covariance from (V11, V22, V12).

    v3 may be a stack (..., 3); the result is then a stack (..., 4, 4).
    """
    v3 = np.asarray(v3, dtype=float)
    c = nbar0 + 0.5
    entries = np.concatenate([v3, c - v3[..., :2], -v3[..., 2:]], axis=-1)
    return entries[..., _LIFT_INDEX]


def project_covariance(V: NDArray) -> NDArray[np.float64]:
    """Extract the three independent entries (V11, V22, V12), of a stack too."""
    return V[..., (0, 1, 0), (0, 1, 1)]


@dataclass(frozen=True)
class CriterionReport:
    """Relative-momentum squeezing test against the thermal threshold."""

    dP2_minus: float
    threshold: float
    entangled: bool
    E_N: float


@dataclass(frozen=True)
class ReducedSystem:
    """3-variable moment system dV3/dt = m3 V3 + B(t).

    The drive decomposes as B(t) = b0 + N b1 + M (b2 e^{2i delta t} + c.c.)
    with N, M the squeezed-reservoir correlations; b0, b1 are real, b2
    complex, all independent of the squeezing degree.
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
            drive_static=self.b0 + self.N * self.b1,
            drive_harmonic=self.M * self.b2,
            omega=2.0 * self.delta,
        )

    def initial_state(self) -> NDArray[np.float64]:
        return np.array([self.nbar0 + 0.5, self.nbar0 + 0.5, 0.0])

    def steady_v3(self, phase: complex | float | str = 1.0) -> NDArray[np.float64]:
        """Resolvent steady state at the reservoir phase (see normalize_phase)."""
        require_hurwitz(self.m3)
        return steady_at_phase(*linear_steady(self.ode()), phase)

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


def _closure_drift_and_drive(
    coeffs: DerivedCoefficients,
) -> tuple[NDArray, NDArray, NDArray]:
    """Compile the two-mirror generator and restrict it to the closure.

    Returns (m3, drive_dc, drive_plus): the 3x3 drift, the static drive and
    the e^{+2i delta t} drive amplitude at the coefficients' own (N, M).
    """
    eqs = compile_generator(reduced_generator(coeffs))
    A = eqs.drift

    def lyap(V):
        return A @ V + V @ A.T

    # column k is the image of the lifted unit vector e_k
    m3 = project_covariance(lyap(lift_covariance(np.eye(3), -0.5))).T
    base = lift_covariance(np.zeros(3), coeffs.nbar0)
    drive_dc = project_covariance(lyap(base) + eqs.diffusion_static)
    drive_plus = project_covariance(eqs.diffusion_harmonic)
    return m3, drive_dc, drive_plus


def build_system(params: PhysicalParams) -> ReducedSystem:
    """Extract the 3-variable system from the compiled generator.

    The b0/b1/b2 decomposition comes from three compiles with the reservoir
    correlations (N, M) injected as (0,0), (1,0), (0,1); the drift must be
    identical across them (it carries no reservoir dependence).
    """
    coeffs = derive(params)
    c00 = replace(coeffs, N=0.0, M=0.0)
    c10 = replace(coeffs, N=1.0, M=0.0)
    c01 = replace(coeffs, N=0.0, M=1.0)
    m3, b0, _ = _closure_drift_and_drive(c00)
    m3_n, b_n, _ = _closure_drift_and_drive(c10)
    m3_m, _, b2 = _closure_drift_and_drive(c01)
    scale = np.abs(m3).max()
    if max(np.abs(m3 - m3_n).max(), np.abs(m3 - m3_m).max()) > 1e-9 * scale:
        raise SimulationError("reduced drift acquired reservoir dependence")
    return ReducedSystem(
        m3=m3,
        b0=b0,
        b1=b_n - b0,
        b2=b2,
        delta=params.delta,
        nbar0=coeffs.nbar0,
        N=coeffs.N,
        M=coeffs.M,
    )


def evolve(params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    """Integrate the 3-variable model from the thermal initial state.

    Covariances in the returned trajectory are the symmetry-assembled 4x4
    matrices with observables attached.
    """
    system = build_system(params)
    times, xs = integrate_linear(system.ode(), system.initial_state(), grid)
    covs = lift_covariance(xs, system.nbar0)
    return Trajectory(times=times, covariances=covs,
                      observables=quadrature_observables(covs))


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
    traj = integrate(eqs, thermal(coeffs.nbar0, 2), grid)
    return replace(traj, observables=quadrature_observables(traj.covariances))


def criterion(V: NDArray, nbar0: float) -> CriterionReport:
    """Entanglement test of a two-mirror covariance: dP2_minus vs threshold.

    V may be in any local frame: dP2_minus and E_N are read as
    gaussian.quadrature_observables reads them, dP2_minus in the frame that
    removes the anomalous-moment phase. The threshold 1/[2(2 nbar0 + 1)]
    encodes the thermal robustness of the relative-momentum squeezing.
    Emits a PhysicalityWarning when V breaks the uncertainty bound.
    """
    obs = quadrature_observables(V)
    # log_negativity(V) would warn the same way, but also redo obs.E_N's spectrum
    if symplectic_eigenvalues(V)[0] < 0.5 - PHYSICALITY_TOL:
        warnings.warn(
            "covariance violates the uncertainty bound; E_N is unreliable",
            PhysicalityWarning,
            stacklevel=2,
        )
    dp2, e_n = obs.dP2_minus, obs.E_N
    threshold = 1.0 / (2.0 * (2.0 * nbar0 + 1.0))
    entangled = dp2 < threshold
    below = dp2 < threshold - CRITERION_BAND
    above = dp2 > threshold + CRITERION_BAND
    if (below and not e_n > 0.0) or (above and e_n > 0.0):
        raise SimulationError(
            f"criterion/log-negativity disagreement: dP2={dp2!r}, "
            f"threshold={threshold!r}, E_N={e_n!r}"
        )
    return CriterionReport(
        dP2_minus=dp2, threshold=threshold, entangled=entangled, E_N=e_n
    )


def steady_state(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> tuple[NDArray[np.float64], CriterionReport]:
    """Periodic steady two-mirror covariance (4x4) and its criterion report.

    phase is e^{2i delta t} as read by dynamics.normalize_phase: +1/-1 for
    even/odd multiples of pi/(2 delta), any other real number is the angle
    2*delta*t in radians, a complex value is normalized to the unit circle,
    and "average" keeps the dc part alone. Refuses non-Hurwitz drift.
    """
    system = build_system(params)
    V = lift_covariance(system.steady_v3(phase), system.nbar0)
    return V, criterion(V, system.nbar0)


@dataclass(frozen=True)
class OptimalSqueezing:
    r_numeric: float
    r_formula: float | None
    dP2_minus: float  # at r_numeric
    E_N: float  # at r_numeric
    formula_note: str = ""


def squeezing_formula(
    system: ReducedSystem,
    theta: float,
    phase: complex | float | str = 1.0,
) -> float | None:
    """Stationary squeezing degree from the closed-form artanh expression.

    The artanh argument carries the factor 2 obtained by differentiating
    the steady-state solution directly (dN/dr = sinh 2r, dM/dr = cosh 2r),
    which the numeric minimizer confirms. phase is read by
    dynamics.normalize_phase. Returns None when the argument leaves (-1, 1).
    """
    th = np.array(
        [math.sin(theta / 2.0) ** 2, math.cos(theta / 2.0) ** 2, -math.sin(theta)]
    )
    shifted = 2j * system.delta * np.eye(3) - system.m3.astype(complex)
    num = th @ np.real(np.linalg.solve(shifted, system.b2 * normalize_phase(phase)))
    den = th @ np.linalg.solve(system.m3, system.b1)
    x = 2.0 * num / den
    if not -1.0 < x < 1.0:
        return None
    return 0.5 * float(np.arctanh(x))


def optimal_squeezing(
    params: PhysicalParams, phase: complex | float | str = 1.0
) -> OptimalSqueezing:
    """Squeezing degree minimizing the steady relative-momentum variance.

    r_numeric is the golden-section minimum (to 1e-4) of dP2_minus(infinity)(r)
    over [0, 3] (the governing oracle); r_formula evaluates the closed-form
    expression with the rotation angle solved self-consistently, and is
    None when the artanh argument is out of range or the steady state is
    phase-averaged (the dc variance has no interior optimum).
    """
    base = params.with_(r=0.0)
    z = normalize_phase(phase)

    def objective(r: float) -> float:
        return steady_state(base.with_(r=r), z)[1].dP2_minus

    res: MinimizeResult = minimize_scalar(objective, (0.0, 3.0), tol=1e-4)
    _, report = steady_state(base.with_(r=res.x), z)
    if z == 0.0:
        return OptimalSqueezing(
            r_numeric=res.x,
            r_formula=None,
            dP2_minus=report.dP2_minus,
            E_N=report.E_N,
            formula_note="formula undefined for the phase-averaged steady state",
        )
    system = build_system(base)
    r_formula: float | None = None
    note = ""
    r_k = max(res.x, 0.1) if res.boundary else 0.5
    for _ in range(50):
        V, _ = steady_state(base.with_(r=r_k), z)
        r_next = squeezing_formula(system, rotation_angle(V), z)
        if r_next is None:
            note = "artanh argument out of (-1, 1)"
            r_formula = None
            break
        if abs(r_next - r_k) < 1e-10:
            r_formula = r_next
            break
        r_k = r_next
    else:
        r_formula = r_k
        note = "fixed point not fully converged after 50 iterations"
    return OptimalSqueezing(
        r_numeric=res.x,
        r_formula=r_formula,
        dP2_minus=report.dP2_minus,
        E_N=report.E_N,
        formula_note=note,
    )
