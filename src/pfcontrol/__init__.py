"""Distributed optimal control of a conserved phase-field system.

Cell-centered finite differences with zero-flux boundaries in space, backward
Euler with a convex-implicit splitting in time, exact discrete tangents and
adjoints on top of the stepper, and a projected L-BFGS optimizer over box
constraints. The harness module carries the independent verification probes;
the cli module exposes the whole pipeline on JSON configs.
"""

from .errors import (
    ConfigError,
    DomainEscape,
    LinearSolveDivergence,
    NewtonDivergence,
    NonZeroMean,
    OutOfDomain,
    ParseError,
    PfcError,
    RootSolveFailure,
    ShapeMismatch,
    ValidationError,
)
from .grid import Grid, TimeGrid
from .potential import Potential, log_double_well, log_linear, quartic_double_well
from .problem import ControlBox, CostSpec, InitialData, PhysicsParams, ProblemSpec
from .dynamics import (
    TangentSolution,
    Trajectory,
    mixture_energy,
    solve_state,
    solve_tangent,
    step_matrix,
)
from .adjoint import cost_value, dj_along_tangent, solve_adjoint
from .control import (
    BangBangReport,
    OptimizeOptions,
    OptimizeReport,
    bang_bang_classify,
    lq_inner,
    lq_norm,
    optimize,
    project_box,
    random_admissible_control,
    reduced_gradient,
    stationarity_residual,
)
from .harness import (
    ProbeReport,
    energy_probe,
    fd_directional_derivative,
    fd_gradient_check,
    frechet_remainder_probe,
    lipschitz_probe,
    lipschitz_refinement_probe,
    separation_probe,
    smooth_direction,
    trajectory_y_norm,
    yosida_convergence_probe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
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
    # grid
    "Grid",
    "TimeGrid",
    # potential
    "Potential",
    "quartic_double_well",
    "log_double_well",
    "log_linear",
    # problem
    "PhysicsParams",
    "InitialData",
    "CostSpec",
    "ControlBox",
    "ProblemSpec",
    # dynamics
    "Trajectory",
    "TangentSolution",
    "solve_state",
    "solve_tangent",
    "mixture_energy",
    "step_matrix",
    # adjoint
    "solve_adjoint",
    "cost_value",
    "dj_along_tangent",
    # control
    "OptimizeOptions",
    "OptimizeReport",
    "BangBangReport",
    "reduced_gradient",
    "project_box",
    "stationarity_residual",
    "optimize",
    "bang_bang_classify",
    "random_admissible_control",
    "lq_inner",
    "lq_norm",
    # harness
    "ProbeReport",
    "fd_directional_derivative",
    "fd_gradient_check",
    "frechet_remainder_probe",
    "lipschitz_probe",
    "lipschitz_refinement_probe",
    "yosida_convergence_probe",
    "energy_probe",
    "separation_probe",
    "trajectory_y_norm",
    "smooth_direction",
]
