"""Exception types shared across the package."""


class PhaseflowError(Exception):
    """Base class for all package errors."""


class DomainViolation(PhaseflowError):
    """An argument left the open domain of a constitutive function."""


class InvalidParameter(PhaseflowError):
    """A parameter violates its documented precondition."""


class UnknownModel(PhaseflowError):
    """Requested built-in constitutive law does not exist."""


class NewtonDiverged(PhaseflowError):
    """Nonlinear residual failed to reach tolerance within the iteration cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DomainExhausted(PhaseflowError):
    """Damping could not keep a Newton iterate inside the admissible set."""


class OracleFailed(PhaseflowError):
    """Brute-force reference solver found no root, or inconsistent roots."""


class DegenerateJacobian(PhaseflowError):
    """Singular linearization in a stationary solve (bifurcation indicator)."""


class SingularSolve(PhaseflowError):
    """An elliptic pivot solve did not reach its required residual."""


class InsufficientDecay(PhaseflowError):
    """Distance series does not span enough decades for a rate fit."""


class InsufficientSamples(PhaseflowError):
    """Not enough admitted samples for the requested fit."""


class ConfigMismatch(PhaseflowError):
    """Two trajectories are not comparable (different grid/step/horizon)."""


class ParseError(PhaseflowError):
    """Malformed experiment configuration file."""


class SnapshotError(ParseError, InvalidParameter):
    """Truncated or corrupt field snapshot file (a malformed input, hence a
    configuration error at the CLI, and an invalid parameter for callers
    that catch those)."""


class ValidationError(PhaseflowError):
    """Well-formed configuration violating one or more constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(
            f"  - {v}" for v in self.violations))
