"""Adjoint sweep: duality against the tangent, FD cross-checks, frozen cost
values, scaling linearity, and terminal conditions."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_spec, zero_control
from hypothesis import given, settings
from hypothesis import strategies as st

import pfcontrol as pfc


def _random_control(spec, seed=0, amplitude=0.4):
    rng = np.random.default_rng(seed)
    return amplitude * rng.uniform(-1.0, 1.0, (spec.tgrid.steps, spec.grid.ncells))


def _duality_gap(spec, seed=0):
    u = _random_control(spec, seed)
    state = pfc.solve_state(u, spec)
    grad = pfc.solve_adjoint(state, spec)
    rng = np.random.default_rng(seed + 100)
    h = rng.standard_normal(u.shape)
    tan = pfc.solve_tangent(h, state, spec)
    lhs = pfc.lq_inner(grad, h, spec)
    rhs = pfc.dj_along_tangent(tan, state, spec.cost)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0e-300)


def _spec_2d(cells=(8, 8), tgrid=None, physics=None, potential=None):
    grid = pfc.Grid(cells)
    x = grid.coords()
    init = pfc.InitialData(
        theta0=0.1 * np.cos(np.pi * x[:, 0]),
        phi0=0.2 * np.cos(np.pi * x[:, -1]),
    )
    cost = pfc.CostSpec(
        w_theta=1.0, w_phi=1.0, w_theta_final=0.5, w_phi_final=0.5,
        theta_target=0.1, phi_target=0.0,
        theta_final_target=0.05, phi_final_target=0.1,
    )
    return pfc.ProblemSpec(
        grid=grid,
        tgrid=tgrid or pfc.TimeGrid(0.5, 4),
        physics=physics or pfc.PhysicsParams(visc=0.0, latent=1.0, coupling=1.0),
        potential=potential or pfc.quartic_double_well(),
        init=init,
        cost=cost,
        box=pfc.ControlBox(),
    )


class TestDuality:
    def test_regular_regime(self, regular_spec):
        assert _duality_gap(regular_spec, seed=1) <= 1.0e-10

    def test_log_regime(self, log_spec):
        assert _duality_gap(log_spec, seed=2) <= 1.0e-10

    def test_two_dimensional(self):
        assert _duality_gap(_spec_2d(), seed=3) <= 1.0e-10

    def test_remainder_curvature_that_varies(self):
        # Every stock well has a constant remainder curvature R'', so only a
        # varying one tells M_k (R'' at level k) from the M_{k+1}^T of the
        # adjoint. W = r^4/4 + cos(r).
        potential = dataclasses.replace(
            pfc.quartic_double_well(),
            _w_rest=np.cos,
            _dw_rest=lambda r: -np.sin(r),
            _d2w_rest=lambda r: -np.cos(r),
        )
        assert _duality_gap(_spec_2d(potential=potential), seed=4) <= 1.0e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=8, max_value=32),
            st.tuples(*[st.integers(min_value=2, max_value=6)] * 2),
        ),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=1.0e-3, max_value=0.5),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.7, 1.0, 1.3]),
        st.sampled_from([0.0, 0.7, 1.0, 1.3]),
        st.sampled_from(["quartic", "log"]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_duality_property(self, cells, steps, dt, visc, latent, coupling, well, seed):
        potential = (
            pfc.quartic_double_well()
            if well == "quartic"
            else pfc.log_double_well(c=2.0, yosida_eps=1.0e-2)
        )
        spec = _spec_2d(
            cells,
            pfc.TimeGrid(dt * steps, steps),
            pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling),
            potential,
        )
        assert _duality_gap(spec, seed) <= 1.0e-10

    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_gradient_matches_central_difference(self, regime):
        spec = desk_spec(
            regime, cells=16, steps=8, yosida_eps=1.0e-3 if regime == "log" else 0.0
        )
        u = _random_control(spec, seed=5, amplitude=0.2)
        grad = pfc.reduced_gradient(u, spec)
        rng = np.random.default_rng(6)
        h = rng.standard_normal(u.shape)
        delta = 1.0e-5
        jp = pfc.cost_value(pfc.solve_state(u + delta * h, spec), spec.cost)
        jm = pfc.cost_value(pfc.solve_state(u - delta * h, spec), spec.cost)
        fd = (jp - jm) / (2.0 * delta)
        lhs = pfc.lq_inner(grad, h, spec)
        assert abs(lhs - fd) / max(abs(fd), 1.0e-300) <= 1.0e-6


class TestCostValues:
    def _fixed_point_state(self, theta_c=0.5):
        spec = desk_spec("regular")
        init = pfc.InitialData(
            theta0=np.full(spec.grid.ncells, theta_c),
            phi0=np.zeros(spec.grid.ncells),
        )
        spec = dataclasses.replace(spec, init=init)
        return spec, pfc.solve_state(zero_control(spec), spec)

    def test_unit_running_misfit(self):
        # theta stays 0.5; target -0.5 gives a residual of exactly 1
        # everywhere, so J = (kappa/2) * T * |Omega| = 1.
        spec, state = self._fixed_point_state()
        cost = pfc.CostSpec(w_theta=2.0, theta_target=-0.5)
        assert pfc.cost_value(state, cost) == pytest.approx(1.0, abs=1.0e-14)

    def test_terminal_misfit(self):
        spec, state = self._fixed_point_state()
        cost = pfc.CostSpec(w_theta_final=2.0, theta_final_target=-2.5)
        assert pfc.cost_value(state, cost) == pytest.approx(9.0, abs=1.0e-13)

    def test_on_target_cost_vanishes(self):
        spec, state = self._fixed_point_state()
        cost = pfc.CostSpec(
            w_theta=1.0, w_phi=1.0, w_theta_final=1.0, w_phi_final=1.0,
            theta_target=0.5, phi_target=0.0,
            theta_final_target=0.5, phi_final_target=0.0,
        )
        assert pfc.cost_value(state, cost) == 0.0

    def test_zero_weights_zero_multipliers(self, regular_spec):
        state = pfc.solve_state(_random_control(regular_spec, 7), regular_spec)
        zero_cost = dataclasses.replace(regular_spec, cost=pfc.CostSpec())
        assert not np.any(pfc.solve_adjoint(state, zero_cost))
        assert pfc.cost_value(state, pfc.CostSpec()) == 0.0

    def test_weight_scaling_is_exact(self, regular_spec):
        u = _random_control(regular_spec, 8)
        state = pfc.solve_state(u, regular_spec)
        base = pfc.solve_adjoint(state, regular_spec)
        cost = regular_spec.cost
        doubled_cost = dataclasses.replace(
            cost,
            w_theta=2.0 * cost.w_theta,
            w_phi=2.0 * cost.w_phi,
            w_theta_final=2.0 * cost.w_theta_final,
            w_phi_final=2.0 * cost.w_phi_final,
        )
        doubled = pfc.solve_adjoint(state, dataclasses.replace(regular_spec, cost=doubled_cost))
        # Doubling every weight doubles cost and multipliers bitwise: every
        # arithmetic path is linear and scaling by 2 is exact.
        assert pfc.cost_value(state, doubled_cost) == 2.0 * pfc.cost_value(
            state, regular_spec.cost
        )
        assert np.array_equal(doubled, 2.0 * base)


    @pytest.mark.parametrize("mask", range(16))
    def test_cost_is_its_terms_summed_in_order(self, mask):
        # The reference sums the weighted running terms, scales them by dt
        # and the cell measure, then adds each final term times the measure,
        # to the bit (dt and the measure are not powers of 2, so the order
        # shows). A term of zero weight is skipped: its infinite target
        # leaves the cost finite.
        spec = desk_spec("regular", cells=24, steps=12)
        state = pfc.solve_state(_random_control(spec, 9), spec)
        terms = [
            ("w_theta", "theta_target", state.theta[1:], 0.1),
            ("w_phi", "phi_target", state.phi[1:], -0.2),
            ("w_theta_final", "theta_final_target", state.theta[-1], 0.05),
            ("w_phi_final", "phi_final_target", state.phi[-1], 0.1),
        ]
        fields, halves = {}, []
        for k, (weight, target, level, value) in enumerate(terms):
            on = bool(mask >> k & 1)
            fields[weight], fields[target] = (0.5 + k, value) if on else (0.0, np.inf)
            halves.append(0.5 * (0.5 + k) * float(((level - value) ** 2).sum()) if on else None)
        dt, m = spec.tgrid.dt, spec.grid.cell_measure
        running = 0.0
        for half in halves[:2]:
            if half is not None:
                running += half
        want = running * dt * m
        for half in halves[2:]:
            if half is not None:
                want += half * m
        assert pfc.cost_value(state, pfc.CostSpec(**fields)) == want

class TestPlumbing:
    def test_reduced_gradient_shape(self, regular_spec):
        u = zero_control(regular_spec)
        grad = pfc.solve_adjoint(pfc.solve_state(u, regular_spec), regular_spec)
        assert grad.shape == (regular_spec.tgrid.steps, regular_spec.grid.ncells)
        assert np.array_equal(grad, pfc.reduced_gradient(u, regular_spec))

    def test_grid_mismatch_rejected(self, regular_spec):
        other = desk_spec("regular", cells=16, steps=16)
        state = pfc.solve_state(zero_control(other), other)
        with pytest.raises(pfc.ShapeMismatch):
            pfc.solve_adjoint(state, regular_spec)

    @pytest.mark.parametrize(
        "change",
        [{"tgrid": pfc.TimeGrid(1.0, 8)}, {"grid": pfc.Grid(32, 2.0)}],
        ids=["steps", "lengths"],
    )
    def test_state_of_another_spec_rejected(self, regular_spec, change):
        # Same cell count, but another time grid or domain length.
        other = dataclasses.replace(regular_spec, **change)
        state = pfc.solve_state(zero_control(other), other)
        with pytest.raises(pfc.ShapeMismatch, match="^state on "):
            pfc.solve_adjoint(state, regular_spec)


@pytest.mark.parametrize(
    "regime, yosida_eps, state_tol",
    [("regular", None, 3.0e-13), ("log", None, 2.0e-13), ("log", 1.0e-3, 1.5e-12)],
    ids=["quartic", "exact-log", "yosida-log"],
)
def test_1d_and_2d_solvers_agree_on_data_that_vary_along_x(regime, yosida_eps, state_tol):
    # The band-LU path (1D) against the DCT path (2D): desk data vary along x
    # only, and so does the control, one seeded random control repeated
    # along y. The bounds are about ten times the measured gaps.
    one = desk_spec(regime, cells=32, steps=16, yosida_eps=yosida_eps)
    two = desk_spec(regime, cells=(32, 4), steps=16, yosida_eps=yosida_eps)
    u = pfc.random_admissible_control(one, 7)
    line, plane = pfc.solve_state(u, one), pfc.solve_state(np.repeat(u, 4, axis=1), two)
    for field in ("theta", "phi"):
        flat, cols = getattr(line, field), getattr(plane, field).reshape(17, 32, 4)
        assert np.max(np.abs(cols - flat[:, :, None])) <= state_tol
        assert np.max(np.ptp(cols, axis=2)) <= 2.0e-15
    grad = pfc.solve_adjoint(line, one)
    grad_2d = pfc.solve_adjoint(plane, two).reshape(16, 32, 4)
    assert np.max(np.abs(grad_2d - grad[:, :, None])) <= 2.0e-13 * np.max(np.abs(grad))
    j, j_2d = pfc.cost_value(line, one.cost), pfc.cost_value(plane, two.cost)
    assert abs(j_2d - j) <= 5.0e-13 * abs(j)
