"""Distributed optimal control of a conserved phase-field system.

Cell-centered finite differences with zero-flux boundaries in space, backward
Euler with a convex-implicit splitting in time, exact discrete tangents and
adjoints on top of the stepper, and a projected L-BFGS optimizer over box
constraints. The harness module carries the independent verification probes;
the cli module exposes the whole pipeline on JSON configs.

Each library module's __all__ is its public API, and the package re-exports
exactly those names; anything else stays importable from its module by name.
"""

from . import adjoint, control, dynamics, errors, grid, harness, potential, problem
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .potential import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .adjoint import *  # noqa: F401,F403
from .control import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, grid, potential, problem, dynamics, adjoint, control, harness)
    for name in module.__all__
]
