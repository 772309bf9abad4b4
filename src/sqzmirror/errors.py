"""Exception and warning types shared across the package, and the rule by
which one failing entry of a stacked evaluation fails only itself."""


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


def per_entry(evaluate, entries):
    """evaluate(entries) over a stack, with each failing entry left out.

    entries is an integer index array. The stack is evaluated first. Only
    if that raises SimulationError is each entry evaluated alone, as
    evaluate(k) for an int k (a single matrix, not a stack of one), to find
    which entries fail and with what error. Returns (value, kept, failures):
    value is evaluate(kept) (None when no entry is kept) and failures maps
    each failing entry to the error its single evaluation raised.
    """
    if not len(entries):
        return None, entries, {}
    try:
        return evaluate(entries), entries, {}
    except SimulationError:
        pass
    failures = {}
    for k in entries.tolist():
        try:
            evaluate(k)
        except SimulationError as exc:
            failures[k] = exc
    kept = entries[[k not in failures for k in entries.tolist()]]
    return (evaluate(kept) if len(kept) else None), kept, failures
