"""Verification harness: oracle helpers, probe reports, and the probes
themselves at reduced desk scale."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_spec, zero_control
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfcontrol as pfc
from pfcontrol import harness
from pfcontrol.harness import _lipschitz_ratios, _weak_difference_norm


def _small(regime="regular", **kw):
    return desk_spec(regime, cells=16, steps=8, **kw)


@pytest.fixture
def batches(monkeypatch):
    """The (controls, spec) of every harness.solve_states call, in order; a
    harness.solve_state call fails, so a solo march cannot hide."""
    calls = []

    def counting(controls, spec):
        calls.append((list(controls), spec))
        return pfc.dynamics.solve_states(controls, spec)

    monkeypatch.setattr(harness, "solve_state", None)
    monkeypatch.setattr(harness, "solve_states", counting)
    return calls


def _batch_sizes(batches):
    return [len(controls) for controls, _ in batches]


def test_smooth_direction_unchanged():
    spec = desk_spec()
    raw = np.random.default_rng(5).standard_normal((spec.tgrid.steps, spec.grid.ncells))
    h = np.stack([spec.grid.helmholtz_solve(level) for level in raw])
    expected = h / max(float(np.max(np.abs(h))), 1.0e-30)
    got = pfc.smooth_direction(spec, np.random.default_rng(5))
    assert np.array_equal(got, expected)


class TestTimeAntiderivative:
    def test_unit_integrand_hand_sum(self):
        tgrid = pfc.TimeGrid(1.0, 4)
        out = harness.time_antiderivative(np.ones((4, 3)), tgrid)
        expect = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(out, np.broadcast_to(expect[:, None], (5, 3)))

    def test_zero_integrand(self):
        tgrid = pfc.TimeGrid(2.0, 6)
        assert not np.any(harness.time_antiderivative(np.zeros((6, 2)), tgrid))

    def test_additive_in_integrand(self):
        tgrid = pfc.TimeGrid(0.7, 5)
        rng = np.random.default_rng(0)
        f, g = rng.standard_normal((2, 5, 4))
        combined = harness.time_antiderivative(f + g, tgrid)
        split = harness.time_antiderivative(f, tgrid) + harness.time_antiderivative(g, tgrid)
        assert np.allclose(combined, split, rtol=0, atol=1e-15)

    def test_level_count_checked(self):
        with pytest.raises(pfc.ShapeMismatch):
            harness.time_antiderivative(np.zeros((3, 2)), pfc.TimeGrid(1.0, 4))


class TestYNorm:
    def test_zero_fields(self):
        spec = _small()
        z = np.zeros((spec.tgrid.steps + 1, spec.grid.ncells))
        assert pfc.trajectory_y_norm(z, z, spec.grid, spec.tgrid) == 0.0

    def test_positively_homogeneous(self):
        spec = _small()
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, spec.tgrid.steps + 1, spec.grid.ncells))
        one = pfc.trajectory_y_norm(a, b, spec.grid, spec.tgrid)
        three = pfc.trajectory_y_norm(3.0 * a, 3.0 * b, spec.grid, spec.tgrid)
        assert three == pytest.approx(3.0 * one, rel=1e-13)


class TestDirections:
    def test_smooth_direction_sup_normalized(self):
        spec = _small()
        h = pfc.smooth_direction(spec, np.random.default_rng(3))
        assert h.shape == (spec.tgrid.steps, spec.grid.ncells)
        assert np.max(np.abs(h)) == pytest.approx(1.0, abs=0.0)

    def test_deterministic_per_seed(self):
        spec = _small()
        h1 = pfc.smooth_direction(spec, np.random.default_rng(5))
        h2 = pfc.smooth_direction(spec, np.random.default_rng(5))
        assert np.array_equal(h1, h2)


class TestRefinement:
    def test_refine_doubles_everything(self):
        spec = _small()
        fine = harness.refine_spec(spec)
        assert fine.grid.cells == (32,)
        assert fine.tgrid.steps == 16
        assert fine.tgrid.horizon == spec.tgrid.horizon
        assert np.array_equal(fine.init.phi0, np.repeat(spec.init.phi0, 2))

    def test_prolong_control_shapes_and_values(self):
        spec = _small()
        u = pfc.random_admissible_control(spec, 1)
        fine_u = harness.prolong_control(u, spec)
        assert fine_u.shape == (16, 32)
        assert fine_u[0, 0] == u[0, 0] and fine_u[1, 1] == u[0, 0]

    def test_prolong_scalar_field_and_levels_in_2d(self):
        # prolong_control reads the grid only.
        spec = dataclasses.replace(
            _small(), grid=pfc.Grid((2, 3)), init=pfc.InitialData(np.zeros(6), np.zeros(6))
        )
        field = np.arange(6.0)
        fine = harness.prolong_control(field, spec)
        assert np.array_equal(fine, np.kron(field.reshape(2, 3), np.ones((2, 2))).ravel())
        levels = harness.prolong_control(np.stack([field, -field]), spec)
        assert levels.shape == (4, 24)
        assert all(np.array_equal(levels[k], (-1) ** (k // 2) * fine) for k in range(4))
        assert harness.prolong_control(0.3, spec) == 0.3

    def test_refined_spec_solves(self):
        spec = _small()
        fine = harness.refine_spec(spec)
        traj = pfc.solve_state(np.zeros((16, 32)), fine)
        assert traj.phi.shape == (17, 32)


class TestProbeReports:
    def test_report_holds_only_the_deterministic_fields(self):
        report = pfc.energy_probe(_small(), steps=16)
        payload = dataclasses.asdict(report)
        assert list(payload) == ["name", "seed", "measured", "thresholds", "passed"]
        assert payload["name"] == "energy_decay"
        assert report == pfc.energy_probe(_small(), steps=16)

    def test_energy_probe_ignores_time_indexed_cost_and_box(self):
        # The decoupled flow runs on its own time grid; (steps, ncells) data
        # of the configured one would not fit it.
        spec = _small()
        shape = (spec.tgrid.steps, spec.grid.ncells)
        timed = dataclasses.replace(
            spec,
            cost=dataclasses.replace(
                spec.cost, theta_target=np.zeros(shape), phi_target=np.full(shape, 0.1)
            ),
            box=pfc.ControlBox(lower=np.full(shape, -0.5), upper=np.full(shape, 0.5)),
        )
        report = pfc.energy_probe(timed, steps=16)
        assert report.passed
        assert report == pfc.energy_probe(spec, steps=16)


class TestGradientProbes:
    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_fd_gradient_check_passes(self, regime):
        spec = _small(regime, yosida_eps=1.0e-3 if regime == "log" else 0.0)
        report = pfc.fd_gradient_check(zero_control(spec), spec, n_directions=3)
        assert report.passed
        assert report.measured["max_rel_error"] <= 1.0e-6
        assert len(report.measured["directions"]) == 3

    @pytest.mark.parametrize("n_directions", [1, 3])
    def test_fd_oracle_runs_four_state_solves_per_direction(self, batches, n_directions):
        # One base march for the adjoint gradient, then the +-delta and
        # +-delta/2 marches of the Richardson pair along each direction, all
        # in one batch.
        spec = _small()
        pfc.fd_gradient_check(zero_control(spec), spec, n_directions=n_directions)
        assert _batch_sizes(batches) == [1 + 4 * n_directions]

    @pytest.mark.parametrize("case", ["regular", "yosida-log", "exact-log", "quartic-2d"])
    @pytest.mark.parametrize("control", ["zero", "random"])
    def test_fd_oracle_error_far_below_grad_tol(self, case, control):
        if case == "quartic-2d":
            grid = pfc.Grid((12, 12))
            x, y = grid.coords().T
            spec = dataclasses.replace(
                desk_spec("regular"),
                grid=grid,
                tgrid=pfc.TimeGrid(1.0, 8),
                init=pfc.InitialData(
                    theta0=0.1 * np.cos(np.pi * x),
                    phi0=0.2 * np.cos(np.pi * x) * np.cos(np.pi * y) + 0.05,
                ),
            )
        else:
            regime = "regular" if case == "regular" else "log"
            spec = desk_spec(regime, yosida_eps=1.0e-3 if case == "yosida-log" else None)
        u = zero_control(spec) if control == "zero" else pfc.random_admissible_control(spec, 3)
        report = pfc.fd_gradient_check(u, spec, n_directions=3)
        assert all(d["rel_error"] <= 1.0e-10 for d in report.measured["directions"])

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_fd_oracle_near_the_singular_endpoint(self, value):
        # An exact logarithmic well with the phase at 0.999 of its endpoints:
        # no perturbed solve of the pair may leave the domain.
        spec = desk_spec("log")
        x = spec.grid.coords()[:, 0]
        spec = dataclasses.replace(
            spec, init=dataclasses.replace(spec.init, phi0=0.999 * np.cos(np.pi * x))
        )
        u = np.full((spec.tgrid.steps, spec.grid.ncells), value)
        report = pfc.fd_gradient_check(u, spec, n_directions=2)
        assert report.passed
        assert report.measured["max_rel_error"] <= 1.0e-10

    def test_fd_oracle_report_shape_and_fixed_step(self):
        spec = _small()
        u = pfc.random_admissible_control(spec, 3)
        report = pfc.fd_gradient_check(u, spec, n_directions=2, seed=7)
        assert set(report.measured) == {"delta", "directions", "max_rel_error"}
        delta = report.measured["delta"]
        assert delta == 0.1 * (float(np.max(np.abs(u))) + 1.0)
        for d in report.measured["directions"]:
            assert set(d) == {"fd_value", "fd_error_estimate", "adjoint_value", "rel_error"}
        # The first direction is the first draw of the seeded generator.
        h = pfc.smooth_direction(spec, np.random.default_rng(7))
        coarse = pfc.fd_directional_derivative(u, h, spec, delta)
        fine = pfc.fd_directional_derivative(u, h, spec, delta / 2.0)
        first = report.measured["directions"][0]
        assert first["fd_value"] == (4.0 * fine - coarse) / 3.0
        assert first["fd_error_estimate"] == abs(fine - coarse) / 3.0

    def test_fd_directional_derivative_zero_cost(self):
        spec = dataclasses.replace(_small(), cost=pfc.CostSpec())
        h = pfc.smooth_direction(spec, np.random.default_rng(2))
        val = pfc.fd_directional_derivative(zero_control(spec), h, spec, 1.0e-4)
        assert val == 0.0

    def test_frechet_slope_near_two(self):
        spec = _small()
        report = pfc.frechet_remainder_probe(zero_control(spec), spec)
        assert report.passed
        assert 1.8 <= report.measured["slope"] <= 2.2

    def test_frechet_probe_fails_a_wrong_tangent(self, monkeypatch):
        # With a zero tangent the remainder decays like delta, not delta^2.
        def zero_tangent(h, base, spec):
            return pfc.TangentSolution(np.zeros_like(base.theta), np.zeros_like(base.phi))

        monkeypatch.setattr(harness, "solve_tangent", zero_tangent)
        spec = desk_spec()
        report = pfc.frechet_remainder_probe(zero_control(spec), spec)
        assert report.measured["slope"] == 0.0
        assert report.passed is False

    @pytest.mark.parametrize("seed", [7, 11])
    def test_frechet_probe_passes_at_a_large_constant_control(self, seed):
        # An unscaled ladder, 0.1 to 1e-4, meets the solver noise near 1e-12
        # at u = 50 from its second rung and leaves no quadratic run to fit.
        spec = desk_spec("log", cells=64, steps=32)
        u = np.full((32, 64), 50.0)
        report = pfc.frechet_remainder_probe(u, spec, seed=seed)
        assert report.passed
        assert 1.8 <= report.measured["slope"] <= 2.2
        assert report.measured["deltas"][0] == 0.1 * 51.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["quartic", "yosida-log", "exact-log"]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([2, 5, 8, 16, (2, 2), (4, 4), (6, 4)]),
        st.integers(min_value=2, max_value=4),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_frechet_slope_near_two_property(self, well, visc, cells, steps, random_u, seed):
        assume(well != "exact-log" or visc > 0)  # exact singular wells need viscosity
        grid = pfc.Grid(cells)
        shape = np.prod(np.cos(np.pi * grid.coords()), axis=1)
        if well == "quartic":
            potential = pfc.quartic_double_well()
        else:
            potential = pfc.log_double_well(2.0, 1.0e-3 if well == "yosida-log" else 0.0)
        spec = pfc.ProblemSpec(
            grid=grid,
            tgrid=pfc.TimeGrid(1.0, steps),
            physics=pfc.PhysicsParams(visc=visc),
            potential=potential,
            init=pfc.InitialData(theta0=0.1 * shape, phi0=0.2 * shape),
        )
        u = pfc.random_admissible_control(spec, seed) if random_u else zero_control(spec)
        report = pfc.frechet_remainder_probe(u, spec, seed=seed)
        assert report.passed
        assert 1.8 <= report.measured["slope"] <= 2.2


class TestStabilityProbes:
    def test_lipschitz_ratios_finite(self):
        spec = _small()
        measured = pfc.lipschitz_refinement_probe(spec, n_pairs=5, seed=2).measured
        for key in ("max_ratio_coarse", "max_ratio_weak_coarse"):
            assert np.isfinite(measured[key]) and measured[key] > 0.0

    def test_identical_pair_skipped(self, batches):
        # An identical pair is dropped before the march, not marched.
        spec = _small()
        u = pfc.random_admissible_control(spec, 3)
        assert _lipschitz_ratios(spec, [(u, u.copy())]) == ([], [])
        v = pfc.random_admissible_control(spec, 4)
        strong, weak = _lipschitz_ratios(spec, [(u, u.copy()), (u, v)])
        assert len(strong) == len(weak) == 1
        assert _batch_sizes(batches) == [0, 2]
        assert all(a is b for a, b in zip(batches[1][0], (u, v)))

    def test_refinement_probe_marches_each_level_as_one_batch(self, batches):
        spec = _small()
        report = pfc.lipschitz_refinement_probe(spec, n_pairs=3, seed=4)
        assert _batch_sizes(batches) == [6, 6]
        (coarse, coarse_spec), (fine, fine_spec) = batches
        assert coarse_spec is spec
        assert (fine_spec.grid.cells, fine_spec.tgrid.steps) == ((32,), 16)
        for u, v in zip(coarse, fine, strict=True):
            assert np.array_equal(harness.prolong_control(u, spec), v)
        # The ratios are those of the pairs marched one control at a time.
        states = [pfc.solve_state(u, spec) for u in coarse]
        strong = [
            pfc.trajectory_y_norm(a.theta - b.theta, a.phi - b.phi, spec.grid, spec.tgrid)
            / pfc.lq_norm(u - v, spec)
            for a, b, u, v in zip(states[::2], states[1::2], coarse[::2], coarse[1::2])
        ]
        assert report.measured["max_ratio_coarse"] == max(strong)

    def test_weak_norm_drops_roundoff_mean_of_phase_difference(self):
        # A difference of sup 1e-5 whose mean, 3e-17, is roundoff for phases
        # of order one but above the dual norm's zero-mean tolerance for
        # the difference itself.
        spec = _small()
        levels, n = spec.tgrid.steps + 1, spec.grid.ncells
        zero = np.zeros((levels, n))
        wave = np.zeros((levels, n))
        wave[1] = 1.0e-5 * np.resize([1.0, -1.0], n)
        shifted = wave.copy()
        shifted[1] += 3.0e-17
        assert abs(spec.grid.mean(shifted[1])) > pfc.grid.MEAN_RTOL * 1.0e-5

        def traj(phi):
            return pfc.Trajectory(spec.grid, spec.tgrid, zero, phi, zero)

        norm = _weak_difference_norm(traj(zero), traj(shifted))
        assert norm == pytest.approx(_weak_difference_norm(traj(zero), traj(wave)), rel=1e-9)

    def test_refinement_stability(self):
        spec = _small()
        report = pfc.lipschitz_refinement_probe(spec, n_pairs=4, seed=4)
        assert report.passed
        assert 0.5 <= report.measured["change_factor"] <= 2.0


class TestRegularizationProbes:
    def test_yosida_ladder_decreases(self):
        spec = _small("log")
        report = pfc.yosida_convergence_probe(spec, seed=6)
        assert report.passed
        diffs = report.measured["consecutive_diffs"]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert report.measured["sandwich_holds"]
        assert report.measured["max_mean_drift"] <= 1.0e-12

    def test_yosida_probe_fails_an_inflated_regularized_slope(self, monkeypatch):
        # A regularized slope above the exact one breaks the sandwich.
        slope = pfc.Potential.dw_convex_eff
        monkeypatch.setattr(pfc.Potential, "dw_convex_eff", lambda pot, r: 2.0 * slope(pot, r))
        report = pfc.yosida_convergence_probe(_small("log"), seed=6)
        assert report.measured["sandwich_holds"] is False
        assert report.passed is False

    @pytest.mark.parametrize("regime", ["regular", "log"])
    def test_energy_probe(self, regime):
        spec = _small(regime)
        report = pfc.energy_probe(spec, steps=64)
        assert report.passed
        assert report.measured["violations"] == 0
        assert report.measured["energy_final"] <= report.measured["energy_initial"]

    def test_separation_probe_log(self):
        spec = _small("log")
        report = pfc.separation_probe(spec, n_controls=3, seed=8)
        assert report.passed
        assert report.measured["applicable"]
        assert report.measured["min_margin"] > 0.0

    def test_separation_probe_marches_its_controls_as_one_batch(self, batches):
        spec = _small("log")
        report = pfc.separation_probe(spec, n_controls=3, seed=8)
        assert _batch_sizes(batches) == [3]
        assert batches[0][1] is spec
        rng = np.random.default_rng(8)
        solos = [pfc.solve_state(pfc.random_admissible_control(spec, rng), spec) for _ in range(3)]
        assert report.measured["margins"] == [
            float(np.min(spec.potential.distance_to_boundary(traj.phi))) for traj in solos
        ]

    def test_separation_not_applicable_for_entire_potentials(self):
        report = pfc.separation_probe(_small("regular"))
        assert report.passed
        assert report.measured == {"applicable": False}
