"""Problem description types shared by the forward, adjoint and control
layers. A ProblemSpec is valid once it is built: its constructor checks the
initial data, the box and the cost targets against the grids and the
potential, and the viscosity of an exact singular well, and raises one
ValidationError listing every violation. A run is identified by its config
digest (config.config_digest)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .grid import Grid, TimeGrid
from .potential import Potential

__all__ = [
    "PhysicsParams",
    "InitialData",
    "CostSpec",
    "ControlBox",
    "ProblemSpec",
]


@dataclasses.dataclass(frozen=True)
class PhysicsParams:
    """Coefficients of the coupled system.

    visc: viscosity coefficient on the phase time-derivative (>= 0).
    latent: latent-heat coupling in the balance equation.
    coupling: strength of the temperature feedback in the phase equation.

    latent and coupling are positive in the modelled regime; zero values are
    admitted structurally because the energy-decay diagnostic runs the
    decoupled limit. Strict positivity is a hypothesis of the control
    problem, checked by control.optimize.
    """

    visc: float = 0.0
    latent: float = 1.0
    coupling: float = 1.0

    def __post_init__(self):
        if self.visc < 0:
            raise ValueError("visc must be nonnegative")
        if self.latent < 0 or self.coupling < 0:
            raise ValueError("latent and coupling must be nonnegative")


@dataclasses.dataclass(frozen=True)
class InitialData:
    """Initial temperature and phase fields (flattened cell values)."""

    theta0: np.ndarray
    phi0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        object.__setattr__(self, "phi0", np.asarray(self.phi0, dtype=float))


@dataclasses.dataclass(frozen=True)
class CostSpec:
    """Quadratic tracking cost.

    J = w_theta/2 * ||theta - theta_target||^2_Q
      + w_phi/2 * ||phi - phi_target||^2_Q
      + w_theta_final/2 * ||theta(T) - theta_final_target||^2_Omega
      + w_phi_final/2 * ||phi(T) - phi_final_target||^2_Omega

    Running targets may be scalars, single fields (held constant in time) or
    fully time-indexed arrays of shape (steps, ncells). Weights are
    nonnegative; an all-zero cost is legal and makes every control optimal.
    """

    w_theta: float = 0.0
    w_phi: float = 0.0
    w_theta_final: float = 0.0
    w_phi_final: float = 0.0
    theta_target: np.ndarray | float = 0.0
    phi_target: np.ndarray | float = 0.0
    theta_final_target: np.ndarray | float = 0.0
    phi_final_target: np.ndarray | float = 0.0

    def __post_init__(self):
        for w in (self.w_theta, self.w_phi, self.w_theta_final, self.w_phi_final):
            if w < 0:
                raise ValueError("cost weights must be nonnegative")

    def running_targets(self, grid: Grid, tgrid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        shape = (tgrid.steps, grid.ncells)
        return (
            broadcast(self.theta_target, shape, "theta_target"),
            broadcast(self.phi_target, shape, "phi_target"),
        )

    def final_targets(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        shape = (grid.ncells,)
        return (
            broadcast(self.theta_final_target, shape, "theta_final_target"),
            broadcast(self.phi_final_target, shape, "phi_final_target"),
        )


def broadcast(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A scalar, a single field (sized like the last axis of shape) or an
    array of the full shape, as an array of the given shape. An array that
    already has that shape is returned as is."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape == shape:
        return arr
    if arr.shape == shape[-1:]:
        return np.broadcast_to(arr, shape).copy()
    raise ShapeMismatch(f"{name}: shape {arr.shape} incompatible with {shape}")


@dataclasses.dataclass(frozen=True)
class ControlBox:
    """Pointwise admissible bounds for the distributed control."""

    lower: np.ndarray | float = -1.0
    upper: np.ndarray | float = 1.0

    def bounds(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds broadcast to a control of the given shape."""
        lo = broadcast(self.lower, shape, "box.lower")
        hi = broadcast(self.upper, shape, "box.upper")
        return lo, hi


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to state the control problem on one mesh."""

    grid: Grid
    tgrid: TimeGrid
    physics: PhysicsParams
    potential: Potential
    init: InitialData
    cost: CostSpec = dataclasses.field(default_factory=CostSpec)
    box: ControlBox = dataclasses.field(default_factory=ControlBox)

    def __post_init__(self):
        """Raise one ValidationError listing every violation; the hypotheses
        of the control theory are control.optimize's to check."""
        grid, pot, phi0 = self.grid, self.potential, self.init.phi0
        bad = []
        for name, arr in (("theta0", self.init.theta0), ("phi0", phi0)):
            if arr.shape != (grid.ncells,):
                bad.append(f"initial.{name}: shape {arr.shape} != ({grid.ncells},)")
            elif not np.all(np.isfinite(arr)):
                bad.append(f"initial.{name}: non-finite entries")
        if phi0.shape == (grid.ncells,) and np.all(np.isfinite(phi0)):
            inside = f"strictly inside ({pot.lo}, {pot.hi})"
            if pot.is_singular and not np.all(pot.contains(phi0)):
                bad.append(f"initial.phi0: values must lie {inside}")
            m0 = float(np.sum(phi0)) / grid.ncells
            if not (pot.lo < m0 < pot.hi):
                bad.append(f"initial.phi0: mean {m0!r} not {inside}")
        try:
            lo, hi = self.box.bounds((self.tgrid.steps, grid.ncells))
        except ShapeMismatch as exc:
            bad.append(str(exc))
        else:
            crossed = np.argwhere(lo > hi)
            if crossed.size:
                k, i = (int(v) for v in crossed[0])
                bad.append(
                    f"box: lower > upper at time level {k + 1}, cell {i} "
                    f"({lo[k, i]!r} > {hi[k, i]!r})"
                )
        if pot.is_singular and pot.yosida_eps == 0 and self.physics.visc == 0:
            bad.append(
                "physics.visc: singular potential in exact mode requires positive "
                "viscosity (visc > 0)"
            )
        try:
            self.cost.running_targets(grid, self.tgrid)
            self.cost.final_targets(grid)
        except ShapeMismatch as exc:
            bad.append(str(exc))
        if bad:
            raise ValidationError(bad)
