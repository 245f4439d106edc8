"""Exception hierarchy shared across the solver."""


class DriftFluxError(Exception):
    """Base class for solver errors."""


class ConfigurationError(DriftFluxError):
    """Invalid mesh/case/solver configuration."""


class InvariantViolation(DriftFluxError):
    """A discrete state left its guaranteed physical range."""


class SolverError(DriftFluxError):
    """Linear solve failed or produced an unacceptable residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NewtonError(DriftFluxError):
    """Newton iteration failed to converge."""

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class SimulationError(DriftFluxError):
    """Time loop aborted; carries the step index and partial reports."""

    def __init__(self, message, step=None, reports=None):
        super().__init__(message)
        self.step = step
        self.reports = reports or []
