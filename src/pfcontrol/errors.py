"""Exception hierarchy for the toolkit.

Configuration problems (bad input data) and solver failures (runtime
breakdown) are kept in separate branches so the CLI can map them to
distinct exit codes.
"""

from __future__ import annotations


class PfcError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PfcError):
    """A run request is structurally invalid (bad shapes, bad parameter combination)."""


class ValidationError(ConfigError):
    """Config validation failed; carries every violation found, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(ConfigError):
    """Config file could not be read or decoded."""


class ShapeMismatch(ConfigError):
    """Array arguments do not conform to the grid or time grid."""


class OutOfDomain(PfcError):
    """Potential evaluated outside the domain of its convex part in exact mode."""


class NonZeroMean(PfcError):
    """Inverse Neumann operator applied to data whose mean exceeds tolerance."""


class RootSolveFailure(PfcError):
    """Scalar root solve (Yosida resolvent) failed to converge."""


class SolverError(PfcError):
    """Base class for numerical solver breakdowns."""


class SolverDivergence(SolverError):
    """A linear solve produced an unacceptable residual."""


class LinearSolveDivergence(SolverError):
    """A step-operator factorization was singular, or a linear sweep
    (tangent/adjoint) produced non-finite values or a bad residual."""


class NewtonDivergence(SolverError):
    """Newton iteration for a time step failed to converge."""


class DomainEscape(SolverError):
    """Exact-mode iterates could not be kept inside the convex part's domain."""
