"""Exception hierarchy for blochpath.

Two branches matter to callers: ``ConfigError`` flags bad inputs before any
numerics run, while ``NumericalError`` and its subclasses flag conditions
detected during a computation (blown-up integration steps, degenerate
denominators, quantities escaping their mathematically allowed range).
Everything derives from ``BlochPathError`` so a bare ``except BlochPathError``
catches any failure raised by this package.
"""


class BlochPathError(Exception):
    """Base class for every error raised by blochpath."""


class ConfigError(BlochPathError):
    """Invalid scenario, grid, or CLI configuration."""


class ShapeError(BlochPathError):
    """Array arguments with inconsistent lengths or shapes."""


class NormalizationError(BlochPathError):
    """State vector or Bloch vector is not normalized, beyond tolerance."""


class DegenerateEndpointsError(BlochPathError):
    """Endpoint pair is (anti)parallel so the construction is undefined."""


class RangeError(BlochPathError):
    """Scalar input lies outside its mathematically allowed range."""


class PreconditionError(BlochPathError):
    """A documented precondition of the routine does not hold."""


class FieldError(BlochPathError):
    """User-supplied field callable failed or returned a bad value."""


class NumericalError(BlochPathError):
    """A computed quantity escaped its allowed range beyond tolerance."""


class IntegrationError(NumericalError):
    """Integrator step produced an unacceptably large norm drift."""


class ZeroPathError(NumericalError):
    """Trajectory path length is too short to define efficiencies."""


class ZeroHamiltonianError(NumericalError):
    """Hamiltonian vanishes where a nonzero norm is required."""


class SingularEvolutionError(NumericalError):
    """Denominator of a curvature expression is numerically zero."""
