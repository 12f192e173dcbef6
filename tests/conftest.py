"""Shared fixtures: two small 1D configurations exercising both potential
regimes, sized so the full suite stays fast."""

import os
from pathlib import Path

import numpy as np
import pytest

import pfcontrol as pfc
from pfcontrol import dynamics


def desk_spec(
    regime: str = "regular",
    cells: int | tuple[int, int] = 32,
    steps: int = 16,
    yosida_eps: float | None = None,
) -> pfc.ProblemSpec:
    """1D reference configuration on the unit interval; a pair of cells gives
    the unit square, with the same data varying along x only.

    regular: quartic potential, no viscosity.
    log: logarithmic potential (c = 2), unit viscosity; exact by default.
    """
    grid = pfc.Grid(cells)
    tgrid = pfc.TimeGrid(1.0, steps)
    x = grid.coords()[:, 0]
    if regime == "regular":
        potential = pfc.quartic_double_well(yosida_eps or 0.0)
        physics = pfc.PhysicsParams(visc=0.0, latent=1.0, coupling=1.0)
        phi0 = 0.2 * np.cos(np.pi * x) + 0.05
    elif regime == "log":
        potential = pfc.log_double_well(c=2.0, yosida_eps=yosida_eps or 0.0)
        physics = pfc.PhysicsParams(visc=1.0, latent=1.0, coupling=1.0)
        phi0 = 0.2 * np.cos(np.pi * x)
    else:
        raise ValueError(regime)
    init = pfc.InitialData(theta0=0.1 * np.cos(np.pi * x), phi0=phi0)
    cost = pfc.CostSpec(
        w_theta=1.0,
        w_phi=1.0,
        w_theta_final=0.5,
        w_phi_final=0.5,
        theta_target=0.1,
        phi_target=0.0,
        theta_final_target=0.05,
        phi_final_target=0.1,
    )
    return pfc.ProblemSpec(
        grid=grid,
        tgrid=tgrid,
        physics=physics,
        potential=potential,
        init=init,
        cost=cost,
        box=pfc.ControlBox(lower=-1.0, upper=1.0),
    )


@pytest.fixture
def regular_spec() -> pfc.ProblemSpec:
    return desk_spec("regular")


@pytest.fixture
def log_spec() -> pfc.ProblemSpec:
    return desk_spec("log", yosida_eps=1.0e-3)


@pytest.fixture
def exact_log_spec() -> pfc.ProblemSpec:
    return desk_spec("log")


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's
    pfcontrol and the tests' helpers."""
    paths = [str(Path(pfc.__file__).parent.parent), str(Path(__file__).parent)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def zero_control(spec: pfc.ProblemSpec) -> np.ndarray:
    return np.zeros((spec.tgrid.steps, spec.grid.ncells))


def singular_factorizations(monkeypatch, good=0, blocks=True):
    """Make every step-operator factorization after the first `good` exactly
    singular: LAPACK's dgbtrf reports a zero pivot for a 1D band LU, a 2D DCT
    mode gets a zero pivot, and splu raises for the LU of a stalled 2D
    refinement. With blocks=False the mode pivots neither count nor fail, so
    only band LUs and splu fallbacks do."""
    done, band, pivots, superlu = [], dynamics.dgbtrf, dynamics._mode_pivots, dynamics.splu

    def dgbtrf(*args, **kw):
        done.append(1)
        lu, piv, info = band(*args, **kw)
        return lu, piv, info if len(done) <= good else 7

    def mode_pivots(b, g):
        done.append(1)
        # 1 + (-1)(1) is an exact zero pivot in every mode.
        return pivots(b, g) if len(done) <= good else pivots(-np.ones_like(b), np.ones_like(g))

    def splu(*args, **kw):
        done.append(1)
        if len(done) > good:
            raise RuntimeError("Factor is exactly singular")
        return superlu(*args, **kw)

    monkeypatch.setattr(dynamics, "dgbtrf", dgbtrf)
    monkeypatch.setattr(dynamics, "splu", splu)
    if blocks:
        monkeypatch.setattr(dynamics, "_mode_pivots", mode_pivots)
