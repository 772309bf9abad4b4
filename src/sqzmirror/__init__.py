"""Gaussian-level simulation of squeezed-reservoir-driven mirror entanglement."""

from .dynamics import (
    MinimizeResult,
    TimeGrid,
    Trajectory,
    expm_action,
    integrate,
    minimize_scalar,
    normalize_phase,
    steady_at_phase,
)
from .full import (
    AdiabaticComparison,
    compare_adiabatic,
    evolve_full,
    initial_covariance,
    mirror_block,
    steady_full,
)
from .gaussian import (
    QuadratureObservables,
    log_negativity,
    quadrature_observables,
    rotate_local,
    rotation_angle,
    symplectic_eigenvalues,
    symplectic_form,
)
from .generator import (
    GeneratorSpec,
    MomentEquations,
    compile_generator,
    full_generator,
    reduced_generator,
)
from .params import (
    DerivedCoefficients,
    PhysicalParams,
    baseline_params,
    derive,
    from_hz,
    thermal_occupation,
)
from .reduced import (
    CriterionReport,
    OptimalSqueezing,
    ReducedSystem,
    build_system,
    criterion,
    evolve,
    evolve_analytic,
    evolve_full10,
    optimal_squeezing,
    steady_curve,
    steady_state,
)

__version__ = "0.1.0"
