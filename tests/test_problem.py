"""ProblemSpec is valid once it is built: the constructor checks the data
against the grids and the potential and lists every violation at once."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_spec

import pfcontrol as pfc


def test_every_violation_raised_together():
    spec = desk_spec("log")
    n, steps = spec.grid.ncells, spec.tgrid.steps
    phi0 = spec.init.phi0.copy()
    phi0[4] = 1.5
    lower = np.full((steps, n), -1.0)
    lower[2, 3] = 2.0
    with pytest.raises(pfc.ValidationError) as err:
        pfc.ProblemSpec(
            grid=spec.grid,
            tgrid=spec.tgrid,
            physics=spec.physics,
            potential=spec.potential,
            init=pfc.InitialData(theta0=spec.init.theta0, phi0=phi0),
            cost=dataclasses.replace(spec.cost, theta_target=np.zeros(5)),
            box=pfc.ControlBox(lower=lower, upper=1.0),
        )
    assert err.value.violations == [
        "initial.phi0: values must lie strictly inside (-1.0, 1.0)",
        "box: lower > upper at time level 3, cell 3 (np.float64(2.0) > np.float64(1.0))",
        "theta_target: shape (5,) incompatible with (16, 32)",
    ]


def test_shapes_and_finiteness_of_initial_data():
    spec = desk_spec()
    with pytest.raises(pfc.ValidationError) as err:
        dataclasses.replace(
            spec, init=pfc.InitialData(theta0=np.zeros(3), phi0=np.full(32, np.nan))
        )
    assert err.value.violations == [
        "initial.theta0: shape (3,) != (32,)",
        "initial.phi0: non-finite entries",
    ]


def test_time_indexed_data_must_fit_the_time_grid():
    # dataclasses.replace builds a new spec, so it checks again.
    spec = desk_spec()
    shape = (spec.tgrid.steps, spec.grid.ncells)
    timed = dataclasses.replace(
        spec,
        cost=dataclasses.replace(spec.cost, theta_target=np.zeros(shape)),
        box=pfc.ControlBox(lower=np.full(shape, -0.5), upper=np.full(shape, 0.5)),
    )
    with pytest.raises(pfc.ValidationError) as err:
        dataclasses.replace(timed, tgrid=pfc.TimeGrid(1.0, 2 * spec.tgrid.steps))
    assert err.value.violations == [
        "box.lower: shape (16, 32) incompatible with (32, 32)",
        "theta_target: shape (16, 32) incompatible with (32, 32)",
    ]


@pytest.mark.parametrize(
    "cls, change, message",
    [
        (pfc.PhysicsParams, {"visc": -1.0}, "visc must be nonnegative"),
        (pfc.PhysicsParams, {"latent": -1.0}, "latent and coupling must be nonnegative"),
        (pfc.PhysicsParams, {"coupling": -1.0}, "latent and coupling must be nonnegative"),
        (pfc.CostSpec, {"w_phi_final": -1.0}, "cost weights must be nonnegative"),
    ],
    ids=["visc", "latent", "coupling", "weight"],
)
def test_negative_coefficients_rejected(cls, change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**change)
