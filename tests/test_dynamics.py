"""Forward solver: fixed points, conservation, energy stability, per-step
equation residuals, tangent linearization, and failure modes."""

import dataclasses
import re
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
import scipy.sparse as sps
from conftest import (
    assert_same_csr,
    child_env,
    desk_spec,
    singular_factorizations,
    zero_control,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import pfcontrol as pfc
from pfcontrol import dynamics
from pfcontrol.adjoint import cost_state_gradient


def _random_control(spec, seed=0, amplitude=0.5):
    rng = np.random.default_rng(seed)
    return amplitude * rng.uniform(-1.0, 1.0, (spec.tgrid.steps, spec.grid.ncells))


def _counted_splu(monkeypatch):
    """The splu factorizations of the step operator from here on, one entry each."""
    factored, factor = [], dynamics.splu
    monkeypatch.setattr(dynamics, "splu", lambda *a, **kw: factored.append(1) or factor(*a, **kw))
    return factored


def _constant_spec(regime, theta_c, phi_c):
    spec = desk_spec(regime, cells=16, steps=8)
    init = pfc.InitialData(
        theta0=np.full(16, theta_c), phi0=np.full(16, phi_c)
    )
    return dataclasses.replace(spec, init=init)


#: (regime, yosida_eps) of desk_spec: quartic, Yosida-log and exact log.
_REGIMES = [("regular", 0.0), ("log", 1.0e-3), ("log", 0.0)]

#: Sampled problems of the invariant property tests: well, viscosity,
#: (latent, coupling), cells, steps and dt. Exact log needs viscosity.
_WELLS = {
    "quartic": pfc.quartic_double_well(),
    "yosida-log": pfc.log_double_well(c=2.0, yosida_eps=1.0e-3),
    "log": pfc.log_double_well(c=2.0),
}
_sampled_problems = st.tuples(
    st.sampled_from(sorted(_WELLS)),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([(0.0, 0.0), (0.7, 1.3), (1.0, 1.0), (1.3, 0.7), (1.0, 0.0)]),
    st.sampled_from([8, 13, (4, 3), (5, 5)]),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=1.0e-3, max_value=0.25),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _sampled_spec(well, visc, latent_coupling, cells, steps, dt, seed):
    """A problem with random initial data well inside the potential's domain."""
    latent, coupling = latent_coupling
    if well == "log":
        visc = max(visc, 0.5)
    spec = desk_spec()
    grid = pfc.Grid(cells)
    rng = np.random.default_rng(seed)
    init = pfc.InitialData(
        theta0=rng.uniform(-0.5, 0.5, grid.ncells), phi0=rng.uniform(-0.6, 0.6, grid.ncells)
    )
    return dataclasses.replace(
        spec,
        grid=grid,
        tgrid=pfc.TimeGrid(dt * steps, steps),
        physics=pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling),
        potential=_WELLS[well],
        init=init,
    )


class TestFixedPoints:
    @pytest.mark.parametrize(
        "regime,theta_c,phi_c",
        [("regular", 0.3, -0.2), ("log", 0.1, 0.0), ("log", -0.2, 0.4)],
    )
    def test_constant_data_stays_constant(self, regime, theta_c, phi_c):
        spec = _constant_spec(regime, theta_c, phi_c)
        traj = pfc.solve_state(zero_control(spec), spec)
        assert np.max(np.abs(traj.theta - theta_c)) <= 1.0e-12
        assert np.max(np.abs(traj.phi - phi_c)) <= 1.0e-12
        pot = spec.potential
        mu_c = (
            pot.dw_convex_eff(np.array([phi_c]))[0]
            + pot.dw_rest(np.array([phi_c]))[0]
            - spec.physics.coupling * theta_c
        )
        assert np.max(np.abs(traj.mu - mu_c)) <= 1.0e-11

    def test_quartic_well_bottom_is_stationary(self):
        # phi at a potential minimum, theta at the matching temperature.
        spec = _constant_spec("regular", 0.0, 1.0)
        traj = pfc.solve_state(zero_control(spec), spec)
        assert np.max(np.abs(traj.phi - 1.0)) <= 1.0e-12
        assert np.max(np.abs(traj.mu)) <= 1.0e-11


class TestStepEquations:
    @pytest.mark.parametrize("regime,eps", [("regular", 0.0), ("log", 1.0e-3), ("log", 0.0)])
    def test_backward_euler_residuals(self, regime, eps):
        spec = desk_spec(regime, yosida_eps=eps)
        u = _random_control(spec, seed=4)
        traj = pfc.solve_state(u, spec)
        grid, dt = spec.grid, spec.tgrid.dt
        lap = grid.laplacian
        pot, phys = spec.potential, spec.physics
        worst = 0.0
        for k in range(spec.tgrid.steps):
            th0, th1 = traj.theta[k], traj.theta[k + 1]
            ph0, ph1 = traj.phi[k], traj.phi[k + 1]
            mu1 = traj.mu[k]
            r1 = th1 - th0 + phys.latent * (ph1 - ph0) - dt * (lap @ th1) - dt * u[k]
            r2 = ph1 - ph0 - dt * (lap @ mu1)
            r3 = (
                mu1
                - phys.visc * (ph1 - ph0) / dt
                + lap @ ph1
                - pot.dw_convex_eff(ph1)
                - pot.dw_rest(ph0)
                + phys.coupling * th1
            )
            worst = max(worst, float(np.max(np.abs(np.concatenate([r1, r2, r3])))))
        assert worst <= 1.0e-9

    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_mass_conserved_every_level(self, regime):
        spec = desk_spec(regime, yosida_eps=1.0e-3 if regime == "log" else 0.0)
        u = pfc.random_admissible_control(spec, 11)
        traj = pfc.solve_state(u, spec)
        means = traj.phase_mean_history()
        drift = np.max(np.abs(means - means[0]))
        assert drift <= 1.0e-13 * (1.0 + abs(means[0]))

    @settings(max_examples=40, deadline=None)
    @given(_sampled_problems)
    def test_mass_conserved_property(self, problem):
        spec = _sampled_spec(*problem)
        u = np.random.default_rng(problem[-1]).uniform(-1.0, 1.0, zero_control(spec).shape)
        means = pfc.solve_state(u, spec).phase_mean_history()
        assert np.max(np.abs(means - means[0])) <= 1.0e-12 * (1.0 + abs(means[0]))

    @pytest.mark.parametrize("eps", [0.0, 1.0e-3])
    def test_large_source_step_solves(self, eps):
        # The Newton tolerance scales with dt * |source|, not only with the
        # old level, so a huge heat source does not stall the damping.
        spec = desk_spec("regular", yosida_eps=eps)
        u = np.full((spec.tgrid.steps, spec.grid.ncells), 1.0e5)
        traj = pfc.solve_state(u, spec)
        # Total enthalpy mean(theta + latent * phi) grows by T * mean(u).
        enthalpy = traj.theta[-1] + spec.physics.latent * traj.phi[-1]
        start = spec.init.theta0 + spec.physics.latent * spec.init.phi0
        gain = float(np.mean(enthalpy) - np.mean(start))
        assert abs(gain - 1.0e5 * spec.tgrid.horizon) <= 1.0e-9 * 1.0e5
        assert np.ptp(traj.phase_mean_history()) <= 1.0e-12


class TestEnergyStability:
    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_decoupled_energy_never_increases(self, regime):
        spec = desk_spec(regime, cells=24, steps=64)
        physics = pfc.PhysicsParams(
            visc=spec.physics.visc, latent=0.0, coupling=0.0
        )
        rng = np.random.default_rng(17)
        phi0 = 0.5 * rng.uniform(-1.0, 1.0, spec.grid.ncells)
        decoupled = dataclasses.replace(
            spec,
            physics=physics,
            init=pfc.InitialData(theta0=np.zeros(spec.grid.ncells), phi0=phi0),
        )
        traj = pfc.solve_state(zero_control(spec), decoupled)
        energies = np.array(
            [pfc.mixture_energy(spec.grid, spec.potential, lv) for lv in traj.phi]
        )
        increases = np.diff(energies)
        assert np.max(increases, initial=0.0) <= 1.0e-10 * (1.0 + abs(energies[0]))
        # The flow actually relaxes: total drop is strictly negative.
        assert energies[-1] < energies[0]

    @settings(max_examples=40, deadline=None)
    @given(_sampled_problems)
    def test_energy_never_increases_property(self, problem):
        # With zero source, the mixture energy plus coupling / (2 latent)
        # times the squared L2 norm of theta never increases; the decoupled
        # flow (latent = coupling = 0) keeps the mixture energy alone.
        spec = _sampled_spec(*problem)
        traj = pfc.solve_state(zero_control(spec), spec)
        latent, coupling = spec.physics.latent, spec.physics.coupling
        heat = coupling / (2.0 * latent) if latent else 0.0
        energies = np.array(
            [
                pfc.mixture_energy(spec.grid, spec.potential, phi)
                + heat * spec.grid.integrate(theta * theta)
                for theta, phi in zip(traj.theta, traj.phi)
            ]
        )
        tol = 1.0e-10 * max(1.0, abs(energies[0]))
        assert np.max(np.diff(energies)) <= tol


class TestMixtureEnergyOfAStack:
    @pytest.mark.parametrize(
        "potential",
        [pfc.quartic_double_well(), pfc.log_double_well(c=2.0), pfc.log_double_well(2.0, 1.0e-3)],
        ids=["quartic", "exact-log", "yosida-log"],
    )
    @pytest.mark.parametrize("cells", [32, (48, 48), (16, 4)])
    def test_stack_is_its_levels_to_the_bit(self, monkeypatch, potential, cells):
        grid = pfc.Grid(cells)
        phi = 0.9 * np.tanh(np.random.default_rng(9).standard_normal((17, grid.ncells)))
        levels = [pfc.mixture_energy(grid, potential, level) for level in phi]
        calls = []
        resolvent = pfc.Potential.resolvent

        def counting(self, *args, **kw):
            calls.append(np.shape(args[0]))
            return resolvent(self, *args, **kw)

        monkeypatch.setattr(pfc.Potential, "resolvent", counting)
        got = pfc.mixture_energy(grid, potential, phi)
        assert got.tobytes() == np.array(levels).tobytes()
        # Regularized, the whole stack takes one resolvent solve.
        assert calls == ([phi.shape] if potential.yosida_eps else [])


class TestTangent:
    def test_zero_direction_gives_zero(self, regular_spec):
        base = pfc.solve_state(zero_control(regular_spec), regular_spec)
        tan = pfc.solve_tangent(zero_control(regular_spec), base, regular_spec)
        assert not np.any(tan.dtheta)
        assert not np.any(tan.dphi)

    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_tangent_mean_zero_and_fd_consistent(self, regime):
        spec = desk_spec(regime, cells=16, steps=8, yosida_eps=1.0e-3 if regime == "log" else 0.0)
        u = _random_control(spec, seed=1, amplitude=0.3)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((spec.tgrid.steps, spec.grid.ncells))
        base = pfc.solve_state(u, spec)
        tan = pfc.solve_tangent(h, base, spec)
        means = tan.dphi.sum(axis=1) / spec.grid.ncells
        assert np.max(np.abs(means)) <= 1.0e-12
        delta = 1.0e-5
        plus = pfc.solve_state(u + delta * h, spec)
        minus = pfc.solve_state(u - delta * h, spec)
        fd = (plus.theta - minus.theta) / (2.0 * delta)
        scale = np.max(np.abs(fd)) + 1.0e-30
        assert np.max(np.abs(fd - tan.dtheta)) / scale <= 1.0e-5
        fd_phi = (plus.phi - minus.phi) / (2.0 * delta)
        assert np.max(np.abs(fd_phi - tan.dphi)) / scale <= 1.0e-5

    def test_tangent_is_linear_in_direction(self, regular_spec):
        spec = regular_spec
        u = _random_control(spec, seed=6, amplitude=0.2)
        base = pfc.solve_state(u, spec)
        rng = np.random.default_rng(3)
        shape = (spec.tgrid.steps, spec.grid.ncells)
        h1, h2 = rng.standard_normal(shape), rng.standard_normal(shape)
        combo = pfc.solve_tangent(2.0 * h1 - 0.5 * h2, base, spec)
        t1 = pfc.solve_tangent(h1, base, spec)
        t2 = pfc.solve_tangent(h2, base, spec)
        expect = 2.0 * t1.dtheta - 0.5 * t2.dtheta
        scale = np.max(np.abs(expect)) + 1.0e-30
        assert np.max(np.abs(combo.dtheta - expect)) / scale <= 1.0e-12

    def test_direction_shape_checked(self, regular_spec):
        base = pfc.solve_state(zero_control(regular_spec), regular_spec)
        with pytest.raises(pfc.ShapeMismatch):
            pfc.solve_tangent(np.zeros((3, 3)), base, regular_spec)

    @pytest.mark.parametrize(
        "change",
        [{"tgrid": pfc.TimeGrid(1.0, 8)}, {"grid": pfc.Grid(32, 2.0)}],
        ids=["steps", "lengths"],
    )
    def test_state_of_another_spec_rejected(self, regular_spec, change):
        # A state on another time grid or domain length, with a direction
        # shaped like the state's own control, is not the spec's state.
        other = dataclasses.replace(regular_spec, **change)
        base = pfc.solve_state(zero_control(other), other)
        with pytest.raises(pfc.ShapeMismatch, match="^state on "):
            pfc.solve_tangent(zero_control(other), base, regular_spec)


def _backward_errors(a, x, rhs):
    """(normwise, componentwise) backward error of x as a solution of a x = rhs,
    in units of the machine epsilon: Rigal-Gaches |r|_inf / (|a|_inf |x|_inf +
    |rhs|_inf) and Oettli-Prager max_i |r_i| / (|a| |x| + |rhs|)_i."""
    r, eps = np.abs(rhs - a @ x), np.finfo(float).eps
    norm_a = np.max(abs(a) @ np.ones(a.shape[1]))
    normwise = np.max(r) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    return normwise / eps, np.max(r / (abs(a) @ np.abs(x) + np.abs(rhs))) / eps


def _bmat_step_matrix(grid, dt, physics, dconvex):
    """step_matrix as one sps.bmat of its blocks, column-ordered: the
    reference that the CSR block-row assembly must match array for array."""
    lap, eye = grid.laplacian, sps.identity(grid.ncells, format="csr")
    a32 = lap - sps.diags(physics.visc / dt + dconvex)
    blocks = [
        [eye - dt * lap, physics.latent * eye, None],
        [None, eye, -dt * lap],
        [physics.coupling * eye, a32, eye],
    ]
    return sps.bmat(blocks, format="csc")


class TestStepOperator:
    @pytest.mark.parametrize("cells", [2, 5, 64, (3, 4), (7, 5), (48, 48)])
    @pytest.mark.parametrize("visc", [0.0, 0.8])
    @pytest.mark.parametrize("random_slope", [False, True], ids=["zero-slope", "random-slope"])
    # Decoupled, the latent and coupling blocks are stored zeros in both.
    @pytest.mark.parametrize(
        "latent,coupling", [(0.7, 1.3), (0.0, 0.0)], ids=["coupled", "decoupled"]
    )
    def test_step_matrix_is_the_block_matrix(self, cells, visc, random_slope, latent, coupling):
        grid = pfc.Grid(cells)
        physics = pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling)
        slope = np.zeros(grid.ncells)
        if random_slope:
            slope = np.random.default_rng(3).uniform(-2.0, 6.0, grid.ncells)
        got = dynamics.step_matrix(grid, 0.05, physics, slope)
        want = _bmat_step_matrix(grid, 0.05, physics, slope)
        assert_same_csr(got, want.tocsr())
        # The stalled refinement's splu gets the reference's own columns.
        column_ordered = got.tocsc()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(column_ordered, name), getattr(want, name)), name

    @pytest.mark.parametrize("cells", [(6, 5)], ids=["cells1"])
    @pytest.mark.parametrize("visc", [0.0, 1.0])
    def test_mode_blocks_are_the_step_operator(self, cells, visc):
        grid = pfc.Grid(cells)
        n = grid.ncells
        physics = pfc.PhysicsParams(visc=visc, latent=0.7, coupling=1.3)
        dt = 0.05
        stepop = dynamics.StepOperator(grid, dt, physics)
        # In the DCT basis of every field, the operator at a constant slope
        # is the 3x3 block of each mode and zero between modes.
        basis = np.kron(np.eye(3), grid.dct(np.eye(n)).T)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(3 * n)
        # Relinearizing twice: the second slope must fully replace the first.
        for _ in range(2):
            slope = rng.uniform(0.0, 4.0, n)
            held = dynamics.StepLU(stepop).refactor(slope)
            a = dynamics.step_matrix(grid, dt, physics, np.full(n, np.mean(slope))).toarray()
            modes = (basis @ a @ basis.T).reshape(3, n, 3, n)
            lam, zero, one = grid.eigenvalues, np.zeros(n), np.ones(n)
            blocks = np.array(
                [
                    [stepop.a, 0.7 * one, zero],
                    [zero, one, stepop.b],
                    [1.3 * one, lam - visc / dt - np.mean(slope), one],
                ]
            )
            want = np.zeros((3, 3, n, n))
            want[..., np.arange(n), np.arange(n)] = blocks
            scale = np.max(np.abs(a))
            assert np.max(np.abs(modes.transpose(0, 2, 1, 3) - want)) <= 1.0e-13 * scale
            # The held factor's pivots are the block determinants over a.
            det = np.linalg.det(blocks.transpose(2, 0, 1))
            assert np.max(np.abs(stepop.a * held.lu[1] - det) / np.abs(det)) <= 1.0e-13
        first = dynamics.StepLU(stepop).refactor(slope).refined(rhs)
        again = dynamics.StepLU(stepop).refactor(slope).refined(rhs)
        assert first[1] and again[1]
        assert np.array_equal(first[0], again[0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (5, 4), (6, 5), (12, 7), (3, 17)]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.7, 1.0]),
        st.sampled_from([0.0, 1.0, 1.3]),
        st.floats(min_value=-3.0, max_value=0.0),
        st.sampled_from([0.0, 1.0, 1.0e2, 1.0e4]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mode_elimination_solves_at_the_mean_slope_property(
        self, cells, visc, latent, coupling, log_dt, slope_scale, seed
    ):
        # The held mode blocks alone solve the operator at the mean of random
        # slopes, in both directions. The DCT is only normwise stable: a
        # seeded scan of 28,000 cases of this range measured up to about 310
        # eps componentwise, at dt near 1e-3.
        grid, dt = pfc.Grid(cells), 10.0**log_dt
        physics = pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling)
        n, rng = grid.ncells, np.random.default_rng(seed)
        slope = rng.exponential(slope_scale, n) if slope_scale else np.zeros(n)
        held = dynamics.StepLU(dynamics.StepOperator(grid, dt, physics)).refactor(slope)
        a = dynamics.step_matrix(grid, dt, physics, np.full(n, np.mean(slope)))
        rhs = rng.standard_normal(3 * n)
        for trans, op in (("N", a), ("T", a.T.tocsr())):
            x = grid.dct(held._modes(grid.dct(rhs.reshape(3, -1)), trans), True).ravel()
            _, componentwise = _backward_errors(op, x, rhs)
            assert componentwise <= 1024.0

    @pytest.mark.parametrize("cells", [16, (6, 5)])
    @pytest.mark.parametrize("visc", [0.0, 1.0])
    @pytest.mark.parametrize("latent", [0.0, 0.7])
    def test_old_level_is_the_assembled_product_to_the_bit(self, cells, visc, latent):
        # Reference: the old-level block matrix assembled and applied as a CSR
        # product (its transpose copied to CSR), plus the remainder slope.
        grid, dt = pfc.Grid(cells), 0.05
        n = grid.ncells
        physics = pfc.PhysicsParams(visc=visc, latent=latent, coupling=1.3)
        stepop = dynamics.StepOperator(grid, dt, physics)
        eye = sps.identity(n, format="csr")
        m = sps.bmat(
            [
                [eye, latent * eye, None],
                [None, eye, None],
                [None, -(visc / dt) * eye, sps.csr_matrix((n, n))],
            ]
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3 * n)
        x[::4], x[1::5] = 0.0, -0.0
        for slope in (0.0, -1.0, rng.standard_normal(n)):
            want = m.tocsr() @ x
            want[2 * n :] += slope * x[n : 2 * n]
            assert stepop.old_level(x, slope).tobytes() == want.tobytes()
            want = m.T.tocsr() @ x
            want[n : 2 * n] += slope * x[2 * n :]
            assert stepop.old_level(x, slope, "T").tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 5, 16, (2, 3), (5, 4)]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.7, 1.0]),
        st.sampled_from([0.0, 1.0, 1.3]),
        st.floats(min_value=1.0e-3, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_refined_solves_have_small_residual_property(
        self, cells, visc, latent, coupling, dt, seed
    ):
        grid = pfc.Grid(cells)
        physics = pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling)
        stepop = dynamics.StepOperator(grid, dt, physics)
        n = grid.ncells
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(3 * n)
        for slope in (np.zeros(n), rng.exponential(2.0, n)):
            lu = dynamics.StepLU(stepop).refactor(slope)
            a = dynamics.step_matrix(grid, dt, physics, slope)
            for trans, op in (("N", a), ("T", a.T)):
                x, converged = lu.refined(rhs, trans)
                assert converged
                assert np.linalg.norm(op @ x - rhs) <= 1.0e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("cells", [(16, 16), (48, 48)], ids=["16", "48"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_2d_solves_iterate_on_dct_coefficients(self, cells, trans, monkeypatch):
        # A 2D solve judges its steps by their residual in the one block where
        # the operator at the true slope differs from the mode blocks: a
        # converged sweep forms one assembled residual per level, the check
        # of its bound, and Newton solves form none.
        spec = desk_spec(cells=cells, steps=16)
        n, nt = spec.grid.ncells, spec.tgrid.steps
        acted, act = [], dynamics._act
        monkeypatch.setattr(dynamics, "_act", lambda *a: acted.append(1) or act(*a))
        base = pfc.solve_state(_random_control(spec, seed=7, amplitude=1.0), spec)
        assert not acted
        forcing = np.random.default_rng(1).standard_normal((nt, 2 * n))
        dynamics.linear_sweep(base, spec, forcing, trans)
        assert len(acted) == nt
        rng = np.random.default_rng(3)
        rhs, slope = rng.standard_normal(3 * n), rng.uniform(1.0, 4.0, n)
        held = dynamics.StepLU(dynamics.step_operator(spec.grid, spec.tgrid.dt, spec.physics))
        acted.clear()
        held.refactor(slope).solve(rhs, trans)
        assert not acted
        x, converged = held.refined(rhs, trans)
        a = dynamics.step_matrix(spec.grid, spec.tgrid.dt, spec.physics, slope)
        op = a if trans == "N" else a.T
        assert converged and len(acted) == 1
        assert np.linalg.norm(op @ x - rhs) <= 1.0e-12 * np.linalg.norm(rhs)

    @staticmethod
    def _stalling_8x8():
        """(grid, held, rhs, slope, jumped) on 8x8 cells: three slopes of
        jumped are 1e3 times those of slope, which stalls the 2D mode blocks
        there. The caller keeps grid, which held's operator refers to weakly."""
        grid, dt = pfc.Grid((8, 8)), 0.05
        physics = pfc.PhysicsParams(visc=0.0, latent=1.0, coupling=1.0)
        held = dynamics.StepLU(dynamics.StepOperator(grid, dt, physics))
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(3 * grid.ncells)
        slope = rng.uniform(1.0, 4.0, grid.ncells)
        jumped = slope.copy()
        jumped[[2, 7, 11]] *= 1.0e3
        return grid, held, rhs, slope, jumped

    def test_stalled_refinement_refactorizes(self, monkeypatch):
        # Three slopes 1e3 times the rest stall the splitting with the DCT
        # blocks at the mean slope; one splu LU at the true slope finishes it.
        # A Newton solve hands its stalled splitting iterate on, not rhs.
        grid, held, rhs, slope, jumped = self._stalling_8x8()
        factored = _counted_splu(monkeypatch)
        splits, split = [], dynamics.StepLU._split
        monkeypatch.setattr(dynamics.StepLU, "_split", lambda *a: splits.append(1) or split(*a))
        a = dynamics.step_matrix(grid, held.stepop.dt, held.stepop.physics, jumped)
        for trans, op in (("N", a), ("T", a.T)):
            factored.clear()
            assert held.refactor(slope).refined(rhs, trans)[1]
            assert isinstance(held.lu, np.ndarray) and not factored
            x, converged = held.refactor(jumped).refined(rhs, trans)
            assert converged and len(factored) == 1
            assert not isinstance(held.lu, np.ndarray)
            assert np.linalg.norm(op @ x - rhs) <= 1.0e-12 * np.linalg.norm(rhs)
            factored.clear(), splits.clear()
            x = held.refactor(jumped).solve(rhs, trans)
            assert len(splits) == 1 and len(factored) == 1
            assert np.linalg.norm(op @ x - rhs) <= 0.1 * np.linalg.norm(rhs)

    def test_only_direct_factors_refine(self, monkeypatch):
        # A stalled refinement or Newton solve checks the mode blocks' iterate
        # once against the assembled operator, then solves once with the splu
        # LU of the miss and checks that: no mean-slope correction. A Newton
        # solve with the held splu LU is that LU's solve alone.
        grid, held, rhs, _, jumped = self._stalling_8x8()
        acted, act = [], dynamics._act
        monkeypatch.setattr(dynamics, "_act", lambda *a: acted.append(1) or act(*a))
        applied, apply = [], dynamics.StepLU._apply
        monkeypatch.setattr(dynamics.StepLU, "_apply", lambda *a: applied.append(1) or apply(*a))
        for trans in ("N", "T"):
            for stalled in (dynamics.StepLU.refined, dynamics.StepLU.solve):
                acted.clear(), applied.clear()
                stalled(held.refactor(jumped), rhs, trans)
                assert not isinstance(held.lu, np.ndarray)
                assert (len(acted), len(applied)) == (2, 1)
            acted.clear()
            x = held.solve(rhs, trans)
            assert not acted
            assert x.tobytes() == apply(held, rhs, trans).tobytes()

    def test_non_finite_residual_ends_the_sweep(self, regular_spec):
        stepop = dynamics.step_operator(
            regular_spec.grid, regular_spec.tgrid.dt, regular_spec.physics
        )
        n = regular_spec.grid.ncells
        held = dynamics.StepLU(stepop).refactor(np.ones(n))
        x, converged = held.refined(np.full(3 * n, np.nan))
        assert not converged and not np.all(np.isfinite(x))
        # The refinement of level 4 stalls on the infinite direction there.
        base = pfc.solve_state(zero_control(regular_spec), regular_spec)
        h = _random_control(regular_spec, seed=3)
        h[3, 5] = np.inf
        message = "^tangent sweep broke down at time step 4 of 16$"
        with pytest.raises(pfc.LinearSolveDivergence, match=message):
            pfc.solve_tangent(h, base, regular_spec)

    @pytest.mark.parametrize("cells", [32, (8, 8)], ids=["1d", "2d"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_a_stalled_level_ends_the_sweep(self, cells, trans, monkeypatch):
        # Every solve with a direct factor (the 1D band LU, the 2D splu) and
        # every 2D mode solve returns 0.4 of its answer: the 2D mode blocks
        # miss their one check, and no correction with the direct factor cuts
        # the residual below 0.6 of the last, so the first level in sweep
        # order stalls, finite, above its bound.
        spec = desk_spec(cells=cells, steps=4)
        base = pfc.solve_state(zero_control(spec), spec)
        apply, modes = dynamics.StepLU._apply, dynamics.StepLU._modes
        monkeypatch.setattr(
            dynamics.StepLU, "_apply", lambda held, rhs, how: 0.4 * apply(held, rhs, how)
        )
        monkeypatch.setattr(
            dynamics.StepLU, "_modes", lambda held, coef, how: 0.4 * modes(held, coef, how)
        )
        n, stepop = spec.grid.ncells, dynamics.step_operator(spec.grid, spec.tgrid.dt, spec.physics)
        held = dynamics.StepLU(stepop).refactor(np.ones(n))
        x, converged = held.refined(np.ones(3 * n))
        assert not converged and np.all(np.isfinite(x))
        forcing = np.random.default_rng(1).standard_normal((4, 2 * n))
        sweep, k = ("tangent", 1) if trans == "N" else ("adjoint", 4)
        message = f"^{sweep} sweep broke down at time step {k} of 4$"
        with pytest.raises(pfc.LinearSolveDivergence, match=message):
            dynamics.linear_sweep(base, spec, forcing, trans)

    def test_non_finite_cost_gradient_ends_the_adjoint_sweep(self, regular_spec):
        # The backward sweep meets the infinite cost gradient at level 5
        # first, the level that time step 5 leads to.
        base = pfc.solve_state(zero_control(regular_spec), regular_spec)
        theta = base.theta.copy()
        theta[5, 7] = np.inf
        state = dataclasses.replace(base, theta=theta)
        message = "^adjoint sweep broke down at time step 5 of 16$"
        with pytest.raises(pfc.LinearSolveDivergence, match=message):
            pfc.solve_adjoint(state, regular_spec)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=64),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.7, 1.0]),
        st.sampled_from([0.0, 1.0, 1.3]),
        st.sampled_from([1.0e-3, 1.0 / 16, 1.0]),
        st.sampled_from([0.0, 1.0e-2, 1.0, 1.0e2, 1.0e4]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_band_solves_are_backward_stable_property(
        self, cells, visc, latent, coupling, dt, slope_scale, seed
    ):
        # A componentwise bound of 16 eps fails on parts of this range: a
        # seeded scan of it measured up to about 500 eps at dt 1e-3 and slope
        # 0, 9e3 eps there with slopes of 1e4, and 400 eps at dt 1/16 with
        # slopes of 1e4. It holds on every level of the desk problems (next test).
        grid = pfc.Grid(cells)
        physics = pfc.PhysicsParams(visc=visc, latent=latent, coupling=coupling)
        rng = np.random.default_rng(seed)
        slope = rng.exponential(slope_scale, cells)
        lu = dynamics.StepLU(dynamics.StepOperator(grid, dt, physics)).refactor(slope)
        assert lu.lu[0].shape[0] <= 13
        a = dynamics.step_matrix(grid, dt, physics, slope)
        rhs = rng.standard_normal(3 * cells)
        for trans, op in (("N", a), ("T", a.T.tocsr())):
            normwise, _ = _backward_errors(op, lu.solve(rhs, trans), rhs)
            assert normwise <= 16.0

    @pytest.mark.parametrize("regime,eps", _REGIMES)
    @pytest.mark.parametrize("cells,steps", [(32, 16), (128, 64)])
    def test_band_solves_on_desk_levels_are_componentwise_stable(
        self, regime, eps, cells, steps
    ):
        spec = desk_spec(regime, cells=cells, steps=steps, yosida_eps=eps)
        base = pfc.solve_state(_random_control(spec, seed=1), spec)
        grid, dt, physics = spec.grid, spec.tgrid.dt, spec.physics
        held = dynamics.StepLU(dynamics.step_operator(grid, dt, physics))
        rng = np.random.default_rng(2)
        for phi in base.phi[1:]:
            slope = spec.potential.d2w_convex_eff(phi)
            a, rhs = dynamics.step_matrix(grid, dt, physics, slope), rng.standard_normal(3 * cells)
            held.refactor(slope)
            for trans, op in (("N", a), ("T", a.T.tocsr())):
                assert max(_backward_errors(op, held.solve(rhs, trans), rhs)) <= 16.0

    def test_fill_does_not_depend_on_the_coupling(self, monkeypatch):
        # The splu LU of a stalled refinement, in the natural (theta, phi,
        # mu) order with SuperLU's default ordering, holds 68 entries per
        # unknown on 16x16 cells at latent = coupling = 1 and at latent 0.7,
        # coupling 1.3 alike.
        fill, factor = [], dynamics.splu

        def counted(a):
            lu = factor(a)
            fill.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(dynamics, "splu", counted)
        grid = pfc.Grid((16, 16))
        slope = np.random.default_rng(9).uniform(0.0, 4.0, grid.ncells)
        slope[[3, 40, 77]] *= 1.0e4
        for physics in (
            pfc.PhysicsParams(visc=0.0, latent=1.0, coupling=1.0),
            pfc.PhysicsParams(visc=0.0, latent=0.7, coupling=1.3),
        ):
            held = dynamics.StepLU(dynamics.StepOperator(grid, 0.05, physics)).refactor(slope)
            assert held.refined(np.ones(3 * grid.ncells))[1]
        reference, other = fill
        assert abs(other - reference) <= 0.1 * reference

    def test_one_assembly_per_problem(self, monkeypatch):
        assembled, step_matrix = [], dynamics.step_matrix
        monkeypatch.setattr(
            dynamics, "step_matrix", lambda *a: assembled.append(1) or step_matrix(*a)
        )
        factored = _counted_splu(monkeypatch)
        spec = desk_spec("log", cells=(12, 12), yosida_eps=1.0e-3)
        u = _random_control(spec, seed=2, amplitude=0.3)
        base = pfc.solve_state(u, spec)
        assert len(assembled) == 1
        pfc.solve_state(u, spec)
        pfc.solve_tangent(u, base, spec)
        pfc.solve_adjoint(base, spec)
        # The DCT splitting never misses here, so no sweep assembles or
        # factorizes a fallback.
        assert len(assembled) == 1 and not factored
        assert len(spec.grid.step_operators) == 1

    def test_operator_lives_on_its_grid(self, regular_spec):
        spec = regular_spec
        pfc.solve_state(zero_control(spec), spec)
        assert len(spec.grid.step_operators) == 1
        # The decoupled energy flow on the same grid and dt is its own problem.
        pfc.energy_probe(spec, steps=spec.tgrid.steps)
        assert len(spec.grid.step_operators) == 2
        assert not pfc.Grid(spec.grid.cells).step_operators

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["regular", "log"]), st.sampled_from([8, 16]))
    def test_energy_probe_on_a_used_grid_property(self, regime, steps):
        # The spec's own operator is built first; with steps = 16 the probe's
        # decoupled problem has the same dt and must not pick it up.
        spec = desk_spec(regime, cells=16, steps=16)
        pfc.solve_state(_random_control(spec, seed=1, amplitude=0.3), spec)
        fresh = dataclasses.replace(spec, grid=pfc.Grid(spec.grid.cells))
        used_probe, fresh_probe = (pfc.energy_probe(s, steps) for s in (spec, fresh))
        assert used_probe.measured == fresh_probe.measured
        physics = dataclasses.replace(spec.physics, latent=0.0, coupling=0.0)
        used, new = (
            pfc.solve_state(
                np.zeros((steps, s.grid.ncells)),
                dataclasses.replace(s, physics=physics, tgrid=pfc.TimeGrid(1.0, steps)),
            )
            for s in (spec, fresh)
        )
        for name in ("theta", "phi", "mu"):
            assert np.array_equal(getattr(used, name), getattr(new, name))

    def test_one_resolvent_solve_per_newton_iterate(self, log_spec, monkeypatch):
        solves, steps = [], []
        resolvent, solve = pfc.Potential.resolvent, dynamics.StepLU.solve
        monkeypatch.setattr(
            pfc.Potential, "resolvent", lambda *a: solves.append(1) or resolvent(*a)
        )
        monkeypatch.setattr(
            dynamics.StepLU, "solve", lambda *a, **kw: steps.append(1) or solve(*a, **kw)
        )
        pfc.solve_state(_random_control(log_spec, seed=2, amplitude=0.3), log_spec)
        # One solve for the initial chemical potential, one for the old level
        # of step 1 (later steps carry their first residual over), and one
        # per Newton iterate, each of which is reached by one LU solve (with
        # the carried LU or one at the iterate's slope).
        assert len(solves) <= 2 + len(steps)

    def test_one_resolvent_solve_per_sweep(self, log_spec, monkeypatch):
        # Each linear sweep evaluates the convex slopes of all its levels in one call.
        base = pfc.solve_state(_random_control(log_spec, seed=2, amplitude=0.3), log_spec)
        solves, resolvent = [], pfc.Potential.resolvent
        monkeypatch.setattr(
            pfc.Potential, "resolvent", lambda *a: solves.append(1) or resolvent(*a)
        )
        pfc.solve_tangent(_random_control(log_spec, seed=3), base, log_spec)
        assert len(solves) == 1
        pfc.solve_adjoint(base, log_spec)
        assert len(solves) == 2

    def test_resolvent_iterations_per_call_in_a_state_solve(self, monkeypatch):
        # Each Yosida evaluation of a state solve starts from the root of the
        # one before it; from cold starts the resolvent took 2.80 iterations
        # per call here.
        spec = desk_spec("log", yosida_eps=1.0e-3)
        calls, iterations, resolvent = [], [], pfc.Potential.resolvent

        def counted(pot, *args):
            calls.append(1)
            d2w = pot._d2w_convex
            counting = dataclasses.replace(
                pot, _d2w_convex=lambda x: iterations.append(1) or d2w(x)
            )
            return resolvent(counting, *args)

        monkeypatch.setattr(pfc.Potential, "resolvent", counted)
        for seed in range(3):
            pfc.solve_state(_random_control(spec, seed=seed, amplitude=1.0), spec)
        assert len(iterations) <= 1.6 * len(calls)

    def test_warm_starts_end_with_their_state_solve(self, log_spec):
        u = _random_control(log_spec, seed=0)
        first = pfc.solve_state(u, log_spec)
        pfc.solve_state(_random_control(log_spec, seed=1), log_spec)
        again = pfc.solve_state(u, log_spec)
        for name in ("theta", "phi", "mu"):
            assert np.array_equal(getattr(first, name), getattr(again, name))

    def test_factorizations_per_sweep(self, monkeypatch):
        # In 2D each sweep forms the mode pivots once per level and, with no
        # stall, factorizes nothing else.
        spec = desk_spec(cells=(12, 12))
        dynamics.step_operator(spec.grid, spec.tgrid.dt, spec.physics)
        pivoted, pivots = [], dynamics._mode_pivots
        monkeypatch.setattr(
            dynamics, "_mode_pivots", lambda b, g: pivoted.append(1) or pivots(b, g)
        )
        factored = _counted_splu(monkeypatch)
        u = _random_control(spec, seed=2, amplitude=0.3)
        base = pfc.solve_state(u, spec)
        assert len(pivoted) <= 2 * spec.tgrid.steps and not factored
        for sweep in (
            lambda: pfc.solve_tangent(u, base, spec),
            lambda: pfc.solve_adjoint(base, spec),
        ):
            pivoted.clear()
            sweep()
            assert len(pivoted) == spec.tgrid.steps and not factored

    @pytest.mark.parametrize("regime,eps", _REGIMES)
    def test_one_band_factorization_and_solve_per_1d_level(self, regime, eps, monkeypatch):
        # A fresh band LU per level meets the refinement tolerance with no
        # correction, in both directions.
        spec = desk_spec(regime, yosida_eps=eps)
        u = _random_control(spec, seed=2, amplitude=0.3)
        base = pfc.solve_state(u, spec)
        calls = {"dgbtrf": [], "dgbtrs": []}
        for name, log in calls.items():
            wrapped = getattr(dynamics, name)
            monkeypatch.setattr(
                dynamics, name, lambda *a, log=log, f=wrapped, **kw: log.append(1) or f(*a, **kw)
            )
        for sweep in (
            lambda: pfc.solve_tangent(u, base, spec),
            lambda: pfc.solve_adjoint(base, spec),
        ):
            for log in calls.values():
                log.clear()
            sweep()
            assert len(calls["dgbtrf"]) == len(calls["dgbtrs"]) == spec.tgrid.steps

    @pytest.mark.parametrize("regime,eps", _REGIMES)
    def test_factorizations_per_2d_solve(self, regime, eps, monkeypatch):
        # The DCT splitting of a 2D desk solve never misses, so it makes no
        # splu factorization.
        spec = desk_spec(regime, cells=(12, 12), steps=8, yosida_eps=eps)
        dynamics.step_operator(spec.grid, spec.tgrid.dt, spec.physics)
        factored = _counted_splu(monkeypatch)
        pfc.solve_state(_random_control(spec, seed=2, amplitude=0.3), spec)
        assert not factored

    def test_held_factors_are_small(self):
        # Stored entries per unknown: 13 for the 1D band LUs (kl = ku = 4),
        # and g and the pivot per 2D mode.
        def held(spec):
            stepop = dynamics.step_operator(spec.grid, spec.tgrid.dt, spec.physics)
            return dynamics.StepLU(stepop).refactor(np.zeros(spec.grid.ncells))

        for cells in (32, 64, 128, 256, 512):
            assert held(desk_spec(cells=cells)).lu[0].shape[0] <= 13
        for cells in ((12, 12), (48, 48)):
            spec = desk_spec(cells=cells)
            assert held(spec).lu.shape == (2, spec.grid.ncells)

    @pytest.mark.parametrize("cells", [32, (12, 12)], ids=["band", "schur"])
    def test_singular_factorization_is_typed(self, cells, monkeypatch):
        spec = desk_spec(cells=cells)
        singular_factorizations(monkeypatch)
        with pytest.raises(pfc.LinearSolveDivergence, match="exactly singular"):
            pfc.solve_state(_random_control(spec), spec)

    @pytest.mark.parametrize("cells", [32, (12, 12)], ids=["band", "schur"])
    def test_singular_newton_factorization_is_typed(self, cells, monkeypatch):
        # The first factorization succeeds: the first Newton band LU in 1D,
        # the first mode pivots in 2D. A later Newton factorization fails.
        spec = desk_spec(cells=cells)
        singular_factorizations(monkeypatch, good=1)
        with pytest.raises(pfc.LinearSolveDivergence, match="exactly singular"):
            pfc.solve_state(_random_control(spec), spec)


def _carrying(refactored, far_off):
    """A StepLU that solves each Newton iteration with a fresh LU, recorded in
    `refactored`, and carries into the next step either no LU or, if far_off,
    one at a far-off slope, whose chord step never halves the residual."""
    base = dynamics.StepLU

    class Carrying(base):
        def refactor(self, dconvex):
            fresh = base(self.stepop).refactor(dconvex)
            refactored.append(fresh.lu)
            if far_off:
                super().refactor(1.0e3 * (1.0 + np.asarray(dconvex)))
            return fresh

    return Carrying


def _at_step_2(monkeypatch, action):
    """Run action() as a march begins time step 2: StepOperator.old_level
    runs once per step, before that step's Newton loop."""
    begun, old_level = [], dynamics.StepOperator.old_level

    def counted(stepop, *args):
        begun.append(1)
        if len(begun) == 2:
            action()
        return old_level(stepop, *args)

    monkeypatch.setattr(dynamics.StepOperator, "old_level", counted)


class TestCarriedLU:
    @pytest.mark.parametrize(
        "regime,eps,cells",
        [pytest.param(r, e, 32, id=f"{r}-{e}") for r, e in _REGIMES]
        + [pytest.param(r, e, (12, 12), id=f"{r}-{e}-12x12") for r, e in _REGIMES],
    )
    def test_rejected_carried_step_still_converges(self, regime, eps, cells, monkeypatch):
        spec = desk_spec(regime, cells=cells, yosida_eps=eps)
        u = _random_control(spec, seed=4)
        want = pfc.solve_state(u, spec)
        used, uncarried_fresh, fresh = [], [], []
        uncarrying, stale = _carrying(uncarried_fresh, False), _carrying(fresh, True)
        solve = dynamics.StepLU.solve
        monkeypatch.setattr(
            dynamics.StepLU, "solve", lambda held, *a: used.append(held.lu) or solve(held, *a)
        )
        monkeypatch.setattr(dynamics, "StepLU", uncarrying)
        uncarried = pfc.solve_state(u, spec)
        monkeypatch.setattr(dynamics, "StepLU", stale)
        used.clear()
        got = pfc.solve_state(u, spec)
        # Every step after the first tries its carried factor once, rejects
        # its step and goes on with as many Newton iterations as with no carry.
        stale = sum(all(lu is not f for f in fresh) for lu in used)
        assert stale == spec.tgrid.steps - 1
        assert len(fresh) == len(uncarried_fresh)
        for name in ("theta", "phi", "mu"):
            assert np.max(np.abs(getattr(got, name) - getattr(uncarried, name))) <= 1.0e-12
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1.0e-8

    @pytest.mark.parametrize("regime,eps", [("regular", 0.0), ("log", 1.0e-3)])
    def test_large_2d_source_needs_few_evaluations_per_step(self, regime, eps, monkeypatch):
        # Only iteration 1 tries the carried chord step; every later Newton
        # iteration refactorizes at its iterate. A step here takes at most 11
        # evaluations on the quartic well and 22 on the Yosida-log one.
        spec = desk_spec(regime, cells=(12, 12), steps=8, yosida_eps=eps)
        steps, march = [], dynamics._march

        def counting(*args):
            # Each iterate the march yields is one convex evaluation, and it
            # yields each with its step's own `old` array.
            inner, reply = march(*args), None
            while True:
                try:
                    x, old = inner.send(reply)
                except StopIteration as stop:
                    return stop.value
                if not steps or steps[-1][0] is not old:
                    steps.append([old])
                steps[-1].append(x)
                reply = yield x, old

        monkeypatch.setattr(dynamics, "_march", counting)
        pfc.solve_state(_random_control(spec, seed=0, amplitude=1.0e5), spec)
        assert len(steps) == spec.tgrid.steps
        assert max(len(step) - 1 for step in steps) <= 25

    def test_newton_failure_after_rejected_carry_names_step(self, monkeypatch):
        spec = desk_spec()
        _at_step_2(monkeypatch, lambda: monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1))
        monkeypatch.setattr(dynamics, "StepLU", _carrying([], True))
        message = r"^time step 2 of 16: no convergence after Newton iteration 1 "
        with pytest.raises(pfc.NewtonDivergence, match=message):
            pfc.solve_state(_random_control(spec, seed=4), spec)

    def test_domain_escape_after_rejected_carry_names_step(self, monkeypatch):
        spec = desk_spec("log")
        pinned, guard = [], dynamics._domain_guard
        _at_step_2(monkeypatch, lambda: pinned.append(True))

        def domain_guard(potential):
            real = guard(potential)
            return lambda phi, dphi: 0.0 if pinned else real(phi, dphi)

        monkeypatch.setattr(dynamics, "_domain_guard", domain_guard)
        with pytest.raises(pfc.DomainEscape, match=r"^time step 2 of 16, Newton iteration 1: "):
            pfc.solve_state(zero_control(spec), spec)

    def test_phase_on_an_endpoint_names_step(self, monkeypatch):
        # The mean re-anchoring is unguarded, so it could leave a phase entry
        # on an endpoint. The guard then pins the carried chord step, which
        # is skipped rather than evaluated at the endpoint (a bare
        # OutOfDomain), and the refactorized step names the time step.
        spec = desk_spec("log")
        begun, old_level = [], dynamics.StepOperator.old_level

        def pushed_at_step_2(stepop, x, rest_slope):
            begun.append(1)
            if len(begun) == 2:
                x[spec.grid.ncells] = spec.potential.lo
            return old_level(stepop, x, rest_slope)

        monkeypatch.setattr(dynamics.StepOperator, "old_level", pushed_at_step_2)
        message = r"^time step 2 of 16, Newton iteration 1: iterate pinned to the domain boundary$"
        with pytest.raises(pfc.DomainEscape, match=message):
            pfc.solve_state(_random_control(spec, seed=4), spec)


class TestCarriedResidual:
    @pytest.mark.parametrize("regime,eps", _REGIMES)
    @pytest.mark.parametrize("cells", [32, 128, (12, 12)], ids=["32", "128", "12x12"])
    def test_carried_residual_matches_a_fresh_evaluation(self, regime, eps, cells, monkeypatch):
        # Each step after the first starts Newton from the residual and slope
        # of the previous step's last iterate, evaluated before the phase
        # mean was re-anchored; they stay within roundoff of a fresh
        # evaluation at x_n, the stored level (theta[k], phi[k], mu[k-1]).
        spec = desk_spec(regime, cells=cells, yosida_eps=eps)
        pot, n, dt = spec.potential, spec.grid.ncells, spec.tgrid.dt
        stepop, marches = dynamics.step_operator(spec.grid, dt, spec.physics), []

        class Recording(dynamics.StepLU):
            # A solve with no refactor right before it is a step's chord
            # solve, of minus the carried residual. Refused as non-finite, it
            # sends the step on to refactor at the carried slope.
            def __init__(self, stepop):
                super().__init__(stepop)
                self.carried, self.refactored = [], False
                marches.append(self.carried)

            def refactor(self, dconvex):
                if self.carried and len(self.carried[-1]) == 1:
                    self.carried[-1].append(np.array(dconvex))
                self.refactored = True
                return super().refactor(dconvex)

            def solve(self, rhs, trans="N"):
                if not self.refactored:
                    self.carried.append([-rhs])
                    return np.full_like(rhs, np.nan)
                self.refactored = False
                return super().solve(rhs, trans)

        monkeypatch.setattr(dynamics, "StepLU", Recording)
        u = _random_control(spec, seed=5)
        states = pfc.solve_states([u, -u], spec)
        assert [len(carried) for carried in marches] == [spec.tgrid.steps - 1] * 2
        for source, state, carried in zip((u, -u), states, marches):
            for k, (res, slope) in enumerate(carried, start=1):
                x_n = np.concatenate([state.theta[k], state.phi[k], state.mu[k - 1]])
                old = stepop.old_level(x_n, 0.0)
                old[:n] += dt * source[k]
                old[2 * n :] += pot.dw_rest(state.phi[k])
                value, fresh_slope = pot.dw_and_d2w_convex_eff(state.phi[k])
                fresh = stepop.template["N"] @ x_n - old
                fresh[2 * n :] -= value
                scale = abs(stepop.template["N"]) @ np.abs(x_n) + np.abs(old)
                scale[2 * n :] += np.abs(value)
                assert np.all(np.abs(res - fresh) <= 16.0 * np.finfo(float).eps * scale)
                gap = np.abs(slope - fresh_slope)
                assert np.all(gap <= 16.0 * np.finfo(float).eps * (1.0 + np.abs(fresh_slope)))

    def test_convex_evaluations_per_state_solve(self, monkeypatch):
        # One evaluation for the initial chemical potential and one per
        # Newton iterate; only step 1 evaluates its old level.
        spec = desk_spec()
        calls, evaluate = [], pfc.Potential.dw_and_d2w_convex_eff
        monkeypatch.setattr(
            pfc.Potential,
            "dw_and_d2w_convex_eff",
            lambda *a, **kw: calls.append(1) or evaluate(*a, **kw),
        )
        pfc.solve_state(zero_control(spec), spec)
        assert len(calls) == 36


def _level_by_level(state, spec, forcing, trans):
    """The rows linear_sweep returns, from StepLU.refined at every level: the
    reference for the one-product check of the 1D sweeps."""
    nt, n, pot = state.tgrid.steps, state.grid.ncells, spec.potential
    tangent = trans == "N"
    held = dynamics.StepLU(dynamics.step_operator(state.grid, state.tgrid.dt, spec.physics))
    convex, rest = pot.d2w_convex_eff(state.phi[1:]), pot.d2w_rest(state.phi)
    rows, x = np.empty_like(forcing), np.zeros(3 * n)
    for k in range(nt) if tangent else range(nt - 1, -1, -1):
        rhs = held.stepop.old_level(x, rest[k if tangent else k + 1], trans)
        rhs[: 2 * n] += forcing[k]
        x = held.refactor(convex[k]).refined(rhs, trans)[0]
        rows[k] = x[: 2 * n]
    return rows


def _sweep_references(spec, u, h):
    """(base, tangent rows, adjoint q) by the level-by-level reference."""
    base = pfc.solve_state(u, spec)
    n = spec.grid.ncells
    forcing = np.zeros((spec.tgrid.steps, 2 * n))
    forcing[:, :n] = spec.tgrid.dt * h
    tangent = _level_by_level(base, spec, forcing, "N")
    forcing = np.hstack(cost_state_gradient(base, spec.cost))
    adjoint = _level_by_level(base, spec, forcing, "T")[:, :n] / spec.grid.cell_measure
    return base, tangent, adjoint


def _tangent_rows(h, base, spec):
    got = pfc.solve_tangent(h, base, spec)
    return np.hstack([got.dtheta[1:], got.dphi[1:]])


class TestSweepCheck:
    @pytest.mark.parametrize("regime,eps", _REGIMES)
    @pytest.mark.parametrize("cells,steps", [(32, 16), (128, 64)])
    def test_1d_sweeps_equal_the_level_by_level_sweep(
        self, regime, eps, cells, steps, monkeypatch
    ):
        spec = desk_spec(regime, cells=cells, steps=steps, yosida_eps=eps)
        u, h = _random_control(spec, seed=2, amplitude=0.3), _random_control(spec, seed=3)
        base, tangent, adjoint = _sweep_references(spec, u, h)
        refined, refine = [], dynamics.StepLU.refined
        monkeypatch.setattr(
            dynamics.StepLU, "refined", lambda *a, **kw: refined.append(1) or refine(*a, **kw)
        )
        assert np.array_equal(_tangent_rows(h, base, spec), tangent)
        assert np.array_equal(pfc.solve_adjoint(base, spec), adjoint)
        # Every level met the bound in the one product: no level was refined.
        assert not refined

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_a_missed_level_falls_back_from_there(self, trans, monkeypatch):
        # The 6th band solve in sweep order is spoilt, so its level misses the
        # bound; the sweep redoes it and every later level one by one.
        spec = desk_spec("log", yosida_eps=1.0e-3)
        u, h = _random_control(spec, seed=2, amplitude=0.3), _random_control(spec, seed=3)
        base, tangent, adjoint = _sweep_references(spec, u, h)
        calls, refined = [], []
        apply, refine = dynamics.StepLU._apply, dynamics.StepLU.refined

        def spoilt(held, rhs, how):
            x = apply(held, rhs, how)
            calls.append(1)
            if how == trans and len(calls) == 6:
                x[3] *= 1.0 + 1.0e-6
            return x

        monkeypatch.setattr(dynamics.StepLU, "_apply", spoilt)
        monkeypatch.setattr(
            dynamics.StepLU, "refined", lambda *a, **kw: refined.append(1) or refine(*a, **kw)
        )
        if trans == "N":
            assert np.array_equal(_tangent_rows(h, base, spec), tangent)
        else:
            assert np.array_equal(pfc.solve_adjoint(base, spec), adjoint)
        assert len(refined) == spec.tgrid.steps - 5

    @pytest.mark.parametrize("cells", [12, (6, 5)], ids=["1d", "2d"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_act_on_a_stack_is_act_row_by_row(self, cells, trans):
        # The one-product check forms every level's residual through _act on
        # the stack of levels; each row must be that level's own product.
        grid = pfc.Grid(cells)
        physics = pfc.PhysicsParams(visc=1.0, latent=0.7, coupling=1.3)
        template = dynamics.StepOperator(grid, 0.05, physics).template
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((5, 3 * grid.ncells))
        slopes = rng.uniform(-2.0, 4.0, (5, grid.ncells))
        rows = [dynamics._act(template, s, x, trans) for s, x in zip(slopes, xs)]
        assert np.array_equal(dynamics._act(template, slopes, xs, trans), np.array(rows))

    @pytest.mark.parametrize("trans,k", [("N", 3), ("N", 11), ("T", 4), ("T", 12)])
    def test_nan_forcing_names_its_time_step(self, trans, k):
        spec = desk_spec()
        base = pfc.solve_state(zero_control(spec), spec)
        shape = (spec.tgrid.steps, 2 * spec.grid.ncells)
        forcing = np.random.default_rng(1).standard_normal(shape)
        forcing[k, 7] = np.nan
        sweep = "tangent" if trans == "N" else "adjoint"
        message = f"^{sweep} sweep broke down at time step {k + 1} of 16$"
        with pytest.raises(pfc.LinearSolveDivergence, match=message):
            dynamics.linear_sweep(base, spec, forcing, trans)


def _bang_bang(spec, amplitude):
    """amplitude * sign(cos(pi x)) at every level."""
    x = spec.grid.coords()[:, 0]
    return np.tile(amplitude * np.sign(np.cos(np.pi * x)), (spec.tgrid.steps, 1))


class TestSpluFallback:
    @pytest.mark.parametrize(
        "regime,eps,amplitude",
        [("regular", None, 3.0e3), ("log", 1.0e-3, 300.0)],
        ids=["quartic-3000", "yosida-log-300"],
    )
    def test_stalled_2d_refinement_falls_back_to_splu(self, regime, eps, amplitude, monkeypatch):
        # Bang-bang sources this large move the slope so far from its mean
        # that the splitting with the DCT blocks stalls; the splu LU of the
        # operator at the true slope then solves every sweep exactly.
        spec = desk_spec(regime, (8, 8), 4, eps)
        factored = _counted_splu(monkeypatch)
        u = _bang_bang(spec, amplitude)
        state = pfc.solve_state(u, spec)
        h = np.random.default_rng(0).standard_normal(u.shape)
        lhs = pfc.lq_inner(pfc.solve_adjoint(state, spec), h, spec)
        rhs = pfc.dj_along_tangent(pfc.solve_tangent(h, state, spec), state, spec.cost)
        assert abs(lhs - rhs) <= 1.0e-10 * max(abs(lhs), abs(rhs))
        assert factored

    def test_singular_fallback_lu_is_typed(self, monkeypatch):
        # The forward solve reaches its forcing tolerance without a fallback;
        # the tangent sweep, refined to _REFINE_TOL, stalls and needs one.
        spec = desk_spec("regular", (8, 8), 4)
        u = _bang_bang(spec, 3.0e3)
        state = pfc.solve_state(u, spec)
        h = np.random.default_rng(0).standard_normal(u.shape)
        singular_factorizations(monkeypatch, blocks=False)
        with pytest.raises(pfc.LinearSolveDivergence, match="exactly singular"):
            pfc.solve_tangent(h, state, spec)

    def test_benchmark_sized_2d_problem_never_falls_back(self, monkeypatch):
        # The 48x48, Nt=16 quartic problem of the 2D sweep benchmark.
        spec = desk_spec(cells=(48, 48), steps=16)
        factored = _counted_splu(monkeypatch)
        u = _random_control(spec, seed=7, amplitude=1.0)
        state = pfc.solve_state(u, spec)
        pfc.solve_tangent(_random_control(spec, seed=8), state, spec)
        pfc.solve_adjoint(state, spec)
        assert not factored

    def test_newton_solves_to_the_forcing_tolerance(self, monkeypatch):
        # Newton's 2D solves stop at _FORCING times the residual: on the
        # benchmark-sized problem they need fewer mode solves than solves
        # refined to _REFINE_TOL, and never the splu fallback.
        spec = desk_spec(cells=(48, 48), steps=16)
        u = _random_control(spec, seed=7, amplitude=1.0)
        factored = _counted_splu(monkeypatch)
        applied, modes = [], dynamics.StepLU._modes
        monkeypatch.setattr(
            dynamics.StepLU, "_modes", lambda *a: applied.append(1) or modes(*a)
        )
        forced = pfc.solve_state(u, spec)
        inexact = len(applied)
        applied.clear()
        monkeypatch.setattr(
            dynamics.StepLU,
            "solve",
            lambda held, rhs, trans="N": held.refined(rhs, trans)[0],
        )
        full = pfc.solve_state(u, spec)
        assert inexact < len(applied) and not factored
        for name in ("theta", "phi", "mu"):
            scale = np.max(np.abs(getattr(full, name)))
            assert np.max(np.abs(getattr(forced, name) - getattr(full, name))) <= 1.0e-10 * scale


#: Wells of the batch tests, on desk_spec("log") data (unit viscosity).
_BATCH_WELLS = {**_WELLS, "log-linear": pfc.log_linear()}


def _solo_outcome(u, spec):
    """solve_state's trajectory, or its error as (type, message)."""
    try:
        return pfc.solve_state(u, spec)
    except pfc.PfcError as exc:
        return type(exc), str(exc)


def _assert_same_trajectory(got, want):
    for name in ("theta", "phi", "mu"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestBatchedMarches:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(_BATCH_WELLS)),
        st.integers(min_value=2, max_value=40),
        # 1e4 makes Newton backtrack on some wells and fail on the exact log one.
        st.lists(st.sampled_from([0.0, 0.5, 50.0, 1.0e4]), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_row_is_its_solo_march_property(self, well, cells, amplitudes, seed):
        spec = dataclasses.replace(
            desk_spec("log", cells=cells, steps=4), potential=_BATCH_WELLS[well]
        )
        rng = np.random.default_rng(seed)
        controls = [a * rng.uniform(-1.0, 1.0, (4, cells)) for a in amplitudes]
        solos = [_solo_outcome(u, spec) for u in controls]
        failures = [s for s in solos if isinstance(s, tuple)]
        if failures:
            with pytest.raises(pfc.PfcError) as info:
                pfc.solve_states(controls, spec)
            assert (type(info.value), str(info.value)) in failures
            return
        for got, want in zip(pfc.solve_states(controls, spec), solos, strict=True):
            _assert_same_trajectory(got, want)

    def test_a_backtracking_row_is_its_solo_march(self, monkeypatch):
        spec = desk_spec("log", cells=2, steps=4, yosida_eps=1.0e-3)
        rng = np.random.default_rng(1)
        big = 1.0e4 * rng.uniform(-1.0, 1.0, (4, 2))
        controls = [0.5 * rng.uniform(-1.0, 1.0, (4, 2)), big, np.zeros((4, 2))]
        got = pfc.solve_states(controls, spec)
        for u, traj in zip(controls, got, strict=True):
            _assert_same_trajectory(traj, pfc.solve_state(u, spec))
        # With one trial per damped step, the big control's march stalls.
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_BACKTRACKS", 1)
        with pytest.raises(pfc.NewtonDivergence, match="damping stalled"):
            pfc.solve_state(big, spec)

    def test_one_failing_control_raises_its_solo_error(self):
        spec = desk_spec("log")
        big = 1.0e4 * np.random.default_rng(1).uniform(-1.0, 1.0, (16, 32))
        want = _solo_outcome(big, spec)
        assert want[0] is pfc.NewtonDivergence
        controls = [_random_control(spec, seed=0), big, zero_control(spec)]
        with pytest.raises(pfc.PfcError) as info:
            pfc.solve_states(controls, spec)
        assert (type(info.value), str(info.value)) == want

    def test_the_control_that_fails_first_raises(self):
        # In 1D the batch raises the error of the control that fails after
        # the fewest Newton rounds, the lowest index on a tie: on the exact
        # log well `late` stalls at time step 4 in round 72, while `early`
        # and `tied` use up their iterations at step 1, in round 51.
        spec = desk_spec("log", cells=16, steps=8)
        late, early, tied = (
            amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 16))
            for amplitude, seed in ((1.0e3, 2), (1.0e4, 0), (1.0e4, 1))
        )
        orders = (([late, early], early), ([early, late], early), ([tied, early], tied))
        for controls, first in orders:
            with pytest.raises(pfc.PfcError) as info:
                pfc.solve_states(controls, spec)
            assert (type(info.value), str(info.value)) == _solo_outcome(first, spec)

    def test_a_2d_batch_raises_the_first_failing_control_in_order(self):
        # The 2D marches run one after another, so `late` (stalling at time
        # step 2, round 81) raises before `early` (step 1, round 51) marches.
        spec = desk_spec("log", cells=(6, 6), steps=4)
        late, early = (
            amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 36))
            for amplitude, seed in ((1.0e3, 1), (1.0e4, 0))
        )
        with pytest.raises(pfc.PfcError) as info:
            pfc.solve_states([late, early], spec)
        assert (type(info.value), str(info.value)) == _solo_outcome(late, spec)

    def test_sources_are_checked_before_any_march(self, regular_spec, monkeypatch):
        monkeypatch.setattr(dynamics, "_march", None)
        with pytest.raises(pfc.ConfigError, match="non-finite"):
            pfc.solve_states([zero_control(regular_spec), np.full((16, 32), np.nan)], regular_spec)

    @pytest.mark.parametrize("cells", [32, (6, 6)], ids=["1d", "2d"])
    def test_an_empty_batch_builds_nothing(self, cells, monkeypatch):
        spec = desk_spec("log", cells=cells, yosida_eps=1.0e-3)
        monkeypatch.setattr(pfc.Potential, "dw_and_d2w_convex_eff", None)
        assert pfc.solve_states([], spec) == []
        assert spec.grid.step_operators == {}

    @pytest.mark.parametrize("eps", [0.0, 1.0e-3])
    def test_one_convex_evaluation_per_round(self, eps, monkeypatch):
        # Every round evaluates all pending iterates at once, so a batch
        # makes as many evaluations as its longest march.
        spec = desk_spec("log", yosida_eps=eps)
        calls, evaluate = [], pfc.Potential.dw_and_d2w_convex_eff
        monkeypatch.setattr(
            pfc.Potential,
            "dw_and_d2w_convex_eff",
            lambda *a: calls.append(1) or evaluate(*a),
        )
        controls = [_random_control(spec, seed=s, amplitude=a) for s, a in enumerate([0, 50, 500])]
        solo = []
        for u in controls:
            calls.clear()
            pfc.solve_state(u, spec)
            solo.append(len(calls))
        calls.clear()
        pfc.solve_states(controls, spec)
        assert len(set(solo)) > 1
        assert len(calls) == max(solo)

    @pytest.mark.parametrize("regime,eps", [("regular", 0.0), ("log", 1.0e-3)])
    def test_2d_batch_holds_one_lu_at_a_time(self, regime, eps, monkeypatch):
        spec = desk_spec(regime, cells=(6, 6), steps=4, yosida_eps=eps)
        controls = [_random_control(spec, seed=s, amplitude=2.0) for s in range(3)]
        want = [pfc.solve_state(u, spec) for u in controls]
        live, held = weakref.WeakSet(), []

        class Counted(dynamics.StepLU):
            def refactor(self, dconvex):
                live.add(self)
                super().refactor(dconvex)
                held.append(sum(lu.lu is not None for lu in live))
                return self

        monkeypatch.setattr(dynamics, "StepLU", Counted)
        got = pfc.solve_states(controls, spec)
        for traj, solo in zip(got, want, strict=True):
            _assert_same_trajectory(traj, solo)
        assert held and max(held) == 1
        # In 1D the marches go in lockstep, each with its own band LU.
        held.clear()
        spec = desk_spec(regime, steps=4, yosida_eps=eps)
        pfc.solve_states([_random_control(spec, seed=s) for s in range(3)], spec)
        assert max(held) == 3


_GUARDED_WELLS = [pfc.log_double_well(c=2.0), pfc.log_linear(), pfc.quartic_double_well()]


def _two_branch_guard(pot, phi, dphi):
    """The domain guard written with one branch per finite end."""
    alpha = 1.0
    if np.isfinite(pot.lo) and np.any(dphi < 0):
        room = phi[dphi < 0] - pot.lo
        alpha = min(alpha, float(np.min(dynamics._BOUNDARY_FRACTION * room / -dphi[dphi < 0])))
    if np.isfinite(pot.hi) and np.any(dphi > 0):
        room = pot.hi - phi[dphi > 0]
        alpha = min(alpha, float(np.min(dynamics._BOUNDARY_FRACTION * room / dphi[dphi > 0])))
    while not np.all(pot.contains(phi + alpha * dphi)):
        alpha *= 0.5
    return alpha


class TestFailureModes:
    # An invalid spec cannot be built, so solve_state never sees one.
    def test_exact_singular_needs_viscosity(self):
        spec = desk_spec("log")
        with pytest.raises(pfc.ValidationError, match="viscosity") as err:
            dataclasses.replace(
                spec, physics=pfc.PhysicsParams(visc=0.0, latent=1.0, coupling=1.0)
            )
        assert len(err.value.violations) == 1

    def test_initial_phase_outside_domain_rejected(self):
        spec = desk_spec("log")
        with pytest.raises(pfc.ValidationError) as err:
            dataclasses.replace(
                spec,
                init=pfc.InitialData(
                    theta0=np.zeros(spec.grid.ncells),
                    phi0=np.full(spec.grid.ncells, 1.5),
                ),
            )
        assert err.value.violations == [
            "initial.phi0: values must lie strictly inside (-1.0, 1.0)",
            "initial.phi0: mean 1.5 not strictly inside (-1.0, 1.0)",
        ]

    def test_source_shape_checked(self, regular_spec):
        with pytest.raises(pfc.ShapeMismatch):
            pfc.solve_state(np.zeros((2, 2)), regular_spec)

    def test_trajectory_shape_checked(self, regular_spec):
        state = pfc.solve_state(zero_control(regular_spec), regular_spec)
        short = dataclasses.replace(state, phi=state.phi[:-1])
        message = r"^trajectory shapes \(17, 32\), \(16, 32\) != \(17, 32\)$"
        with pytest.raises(pfc.ShapeMismatch, match=message):
            short.check(regular_spec)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_source_rejected(self, regular_spec, bad):
        # An inf source made the Newton tolerance inf, so every level kept
        # the initial state.
        u = zero_control(regular_spec)
        u[3, 5] = bad
        with pytest.raises(pfc.ConfigError, match="^source: non-finite entries$"):
            pfc.solve_state(u, regular_spec)

    def test_newton_budget_exhaustion_raises(self, regular_spec, monkeypatch):
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(pfc.NewtonDivergence):
            pfc.solve_state(_random_control(regular_spec, seed=8, amplitude=1.0), regular_spec)

    def test_newton_failure_names_step_and_iteration(self, monkeypatch):
        spec = desk_spec()
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1)
        message = r"^time step 1 of 16: no convergence after Newton iteration 1 "
        with pytest.raises(pfc.NewtonDivergence, match=message):
            pfc.solve_state(zero_control(spec), spec)

    def test_non_finite_newton_step_names_step_and_iteration(self, monkeypatch):
        # A NaN convex slope at one node spoils the factor, and with it the
        # first Newton step, while the residual stays finite.
        spec = desk_spec()
        evaluate = pfc.Potential.dw_and_d2w_convex_eff

        def nan_slope(pot, r, previous=None):
            value, slope = evaluate(pot, r, previous)
            return value, np.where(np.arange(slope.shape[-1]) == 5, np.nan, slope)

        monkeypatch.setattr(pfc.Potential, "dw_and_d2w_convex_eff", nan_slope)
        message = r"^time step 1 of 16, Newton iteration 1: non-finite step$"
        with pytest.raises(pfc.NewtonDivergence, match=message):
            pfc.solve_state(zero_control(spec), spec)

    def test_damping_stall_names_step_and_iteration(self, monkeypatch):
        # With no halvings allowed, the first damped Newton step stalls.
        spec = desk_spec()
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_BACKTRACKS", 0)
        message = r"^time step 1 of 16, Newton iteration 1: damping stalled at residual "
        with pytest.raises(pfc.NewtonDivergence, match=message):
            pfc.solve_state(zero_control(spec), spec)

    def test_guarded_step_never_rounds_onto_an_endpoint(self):
        # 0.99 of a two-ulp room rounds onto the endpoint -1.
        phi = np.array([np.nextafter(np.nextafter(-1.0, 0.0), 0.0), 0.5])
        dphi = np.array([-1.0, 0.0])
        alpha = dynamics._domain_guard(pfc.log_double_well(c=2.0))(phi, dphi)
        assert 0.0 < alpha and np.all(np.abs(phi + alpha * dphi) < 1.0)

    def test_phase_on_the_boundary_ends_the_guard(self):
        # A phase entry already on an endpoint, as the unguarded re-anchoring
        # of the phase mean could leave one, admits no step: halving alpha
        # to 0 never brings phi + alpha dphi inside. A march whose level is
        # pushed there (old_level gets the march's own x_n) then fails typed.
        # In a child process with a timeout, so a regression fails the test
        # rather than hanging the suite.
        script = textwrap.dedent(
            """
            import numpy as np
            import pfcontrol as pfc
            from conftest import desk_spec
            from pfcontrol import dynamics

            guard = dynamics._domain_guard
            print(guard(pfc.log_double_well())(np.array([-1.0, 0.0]), np.array([0.0, 0.1])))

            spec = desk_spec("log")
            begun, old_level = [], dynamics.StepOperator.old_level

            def pushed_at_step_2(stepop, x, rest_slope):
                begun.append(1)
                if len(begun) == 2:
                    x[spec.grid.ncells] = spec.potential.lo
                return old_level(stepop, x, rest_slope)

            dynamics.StepOperator.old_level = pushed_at_step_2
            u = np.random.default_rng(4).uniform(-0.5, 0.5, (16, spec.grid.ncells))
            try:
                pfc.solve_state(u, spec)
            except pfc.PfcError:
                print("PfcError")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.stdout.splitlines() == ["0.0", "PfcError"], proc.stderr

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_guard_matches_two_branch_rule(self, data):
        pot = data.draw(st.sampled_from(_GUARDED_WELLS))
        n = data.draw(st.integers(1, 6))
        inside = st.floats(pot.lo, min(pot.hi, 1.0e6), exclude_min=True, exclude_max=True)
        phi = np.array(data.draw(st.lists(inside, min_size=n, max_size=n)))
        moves = st.one_of(st.just(0.0), st.floats(-1.0e3, 1.0e3), st.floats(-1e-3, 1e-3))
        dphi = np.array(data.draw(st.lists(moves, min_size=n, max_size=n)))
        with np.errstate(over="ignore"):
            alpha = dynamics._domain_guard(pot)(phi, dphi)
            assert alpha == _two_branch_guard(pot, phi, dphi)

    def test_huge_source_on_exact_log_fails_by_name(self):
        # Guarded Newton trials come within ulps of the endpoint -1 here; one
        # that rounds onto it must fail as a trial, not as a bare OutOfDomain.
        spec = desk_spec("log")
        u = 1.0e4 * np.random.default_rng(3).uniform(-1.0, 1.0, (16, 32))
        try:
            pfc.solve_state(u, spec)
        except (pfc.DomainEscape, pfc.NewtonDivergence) as exc:
            assert re.match(r"^time step \d+ of 16", str(exc))

    def test_domain_escape_names_step_and_iteration(self, monkeypatch):
        spec = desk_spec("log")
        monkeypatch.setattr(dynamics, "_MIN_STEP_FRACTION", 2.0)
        with pytest.raises(pfc.DomainEscape, match=r"^time step 1 of 16, Newton iteration 1: "):
            pfc.solve_state(zero_control(spec), spec)
