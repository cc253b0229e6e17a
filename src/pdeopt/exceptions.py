"""Exception types shared across the package."""


class PdeoptError(Exception):
    """Base class for all library errors."""


class InvalidGridError(PdeoptError):
    """Grid construction parameters are unusable."""


class InvalidBoundaryError(InvalidGridError):
    """Boundary labelling violates the mixed-BC requirements (e.g. empty Dirichlet part)."""


class ConstraintViolationError(PdeoptError):
    """A design or input lies outside its admissible set."""


class NotApplicableError(PdeoptError):
    """A verification bound was requested outside its hypotheses."""


class StepSizeError(PdeoptError):
    """A time step is too coarse for the accuracy bound of the scheme."""


class BlowUpError(PdeoptError):
    """Time integration produced a non-finite state.

    Divergence is a legitimate outcome for semilinear dynamics (existence is
    only local in time); the step index is reported so callers can treat the
    event as data.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at time step {step}")


class ConfigError(PdeoptError):
    """Malformed experiment configuration; carries the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
