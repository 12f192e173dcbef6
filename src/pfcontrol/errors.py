"""Exception hierarchy for the toolkit.

Configuration problems (bad input data) derive from ConfigError, which the
CLI maps to exit code 2; every other PfcError is a runtime failure of the
numerics (exit code 1). Each failure has one class.
"""

from __future__ import annotations

__all__ = [
    "PfcError",
    "ConfigError",
    "ValidationError",
    "ParseError",
    "ShapeMismatch",
    "OutOfDomain",
    "NonZeroMean",
    "RootSolveFailure",
    "LinearSolveDivergence",
    "NewtonDivergence",
    "DomainEscape",
]


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


class LinearSolveDivergence(PfcError):
    """A step-operator factorization was exactly singular (1D band pivot, 2D DCT
    mode block or fallback LU), a tangent/adjoint sweep level's refinement
    stalled above its bound (non-finite included), or a grid solve (Helmholtz,
    inverse Neumann) failed its componentwise backward-error guard."""


class NewtonDivergence(PfcError):
    """Newton iteration for a time step failed to converge."""


class DomainEscape(PfcError):
    """Exact-mode iterates could not be kept inside the convex part's domain."""
