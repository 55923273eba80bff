"""Exception types shared across the package.

Each class marks a distinct failure mode so callers (and the command line
driver) can map them to exit codes: configuration problems are user input
errors, solver failures are runtime diagnostics.
"""


class ConfigurationError(ValueError):
    """Invalid grid, problem data, or config-file input."""


class ResolutionError(ConfigurationError):
    """A forcing profile is under-resolved on the requested grid.

    The message prescribes the minimal grid that would resolve it.
    """


class EvaluationError(ConfigurationError):
    """A sampled callable produced a non-finite value at a grid point: bad
    input data, so a configuration error like any other."""


class DomainError(ValueError):
    """An exponent parameter lies outside its admissible range."""


class RangeError(ArithmeticError):
    """Every candidate moment rate overflows in double precision (alpha selection)."""


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance.

    Carries the last relative residual and the time step index.
    """

    def __init__(self, message, residual=None, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index


class FitError(ValueError):
    """Regression refused: too few rows or a degenerate regressor."""


class ConsistencyError(RuntimeError):
    """Measured data contradicts an identity that must hold exactly."""
