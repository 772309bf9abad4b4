"""Exception and warning types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SimulationError):
    """Physical parameters out of their allowed range."""


class DimensionError(SimulationError):
    """Matrix input has the wrong shape, symmetry, or mode count."""


class GeneratorError(SimulationError):
    """Generator description is malformed (e.g. not self-adjoint)."""


class PhysicalityError(SimulationError):
    """A state quantity violates physicality beyond tolerance."""


class StabilityError(SimulationError):
    """Drift matrix is not Hurwitz; no steady state exists."""


class StepSizeError(SimulationError):
    """Integration grid too coarse for the fastest system frequency."""


class DivergenceError(SimulationError):
    """Integration produced NaN/Inf or runaway entries."""

    def __init__(self, message: str, last_valid_time: float | None = None):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class ConfigError(SimulationError):
    """Scenario configuration failed to parse or validate."""


class PhysicalityWarning(UserWarning):
    """State mildly violates physicality, within integration tolerance."""


class DegenerateAngleWarning(UserWarning):
    """Rotation angle undefined (zero anomalous moment); defaulting to 0."""
